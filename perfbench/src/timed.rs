//! The untraced measurements: campaign passes through `CampaignRunner` into
//! a file-backed store, and the set-up phase.

use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use dradio_campaign::{CampaignRunner, CampaignSpec, ResultStore};
use dradio_scenario::{BuiltTopology, ScenarioBuilder};

/// One campaign run into a fresh file-backed store.
#[derive(Debug, Clone)]
pub struct CampaignPass {
    /// Wall time from store open to the runner's return.
    pub wall_s: f64,
    /// Trials committed to the store.
    pub trials: usize,
    /// Cells in the campaign's expansion.
    pub cells: usize,
    /// Cells committed to the store.
    pub committed: usize,
    /// The store file's bytes.
    pub store: Vec<u8>,
    /// Why the run stopped early, if it did.
    pub error: Option<String>,
}

impl CampaignPass {
    /// Cells that errored, panicked or were never committed.
    pub fn failed_cells(&self) -> usize {
        self.cells - self.committed.min(self.cells)
    }

    /// Trials committed per second of wall time.
    pub fn trials_per_s(&self) -> f64 {
        self.trials as f64 / self.wall_s
    }
}

/// Runs `spec` through `CampaignRunner::run` with `threads` runner threads
/// into a fresh store at `path`, timing from store open to the last append.
/// The store file is removed afterwards; its bytes are kept in the result.
pub fn campaign_pass(spec: &CampaignSpec, threads: usize, path: &Path) -> CampaignPass {
    let cells = spec.expand().map(|cells| cells.len()).unwrap_or(0);
    let _ = fs::remove_file(path);
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut store = ResultStore::open(path).map_err(|e| e.to_string())?;
        let run = CampaignRunner::new(spec).threads(threads).run(&mut store);
        let wall_s = start.elapsed().as_secs_f64();
        let trials = store.records().iter().map(|r| r.trials_run).sum::<usize>();
        Ok::<_, String>((
            wall_s,
            trials,
            store.len(),
            run.err().map(|e| e.to_string()),
        ))
    }));
    let (wall_s, trials, committed, error) = match outcome {
        Ok(Ok(done)) => done,
        Ok(Err(e)) => (start.elapsed().as_secs_f64(), 0, 0, Some(e)),
        Err(_) => (
            start.elapsed().as_secs_f64(),
            0,
            0,
            Some("the campaign run panicked".into()),
        ),
    };
    let store = fs::read(path).unwrap_or_default();
    let _ = fs::remove_file(path);
    CampaignPass {
        wall_s,
        trials,
        cells,
        committed,
        store,
        error,
    }
}

/// One timing of the set-up work: build every distinct topology, then every
/// cell's scenario on it and the scenario's first executor. Everything built
/// is kept alive until the clock stops and dropped after.
///
/// # Errors
///
/// The first build error, as text.
pub fn setup_once(spec: &CampaignSpec) -> Result<f64, String> {
    let cells = spec.expand().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut topologies: BTreeMap<String, BuiltTopology> = BTreeMap::new();
    let mut built = Vec::with_capacity(cells.len());
    for cell in &cells {
        let key = serde_json::to_string(&cell.scenario.topology).map_err(|e| e.to_string())?;
        let topology = match topologies.get(&key) {
            Some(topology) => topology.clone(),
            None => {
                let topology = cell.scenario.topology.build().map_err(|e| e.to_string())?;
                topologies.insert(key, topology.clone());
                topology
            }
        };
        let scenario = ScenarioBuilder::from_spec(cell.scenario.clone())
            .with_topology(topology)
            .build()
            .map_err(|e| e.to_string())?;
        let executor = scenario.executor();
        built.push((scenario, executor));
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(built);
    drop(topologies);
    Ok(elapsed)
}

/// High-water resident memory of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
