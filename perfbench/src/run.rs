//! The runs the command line offers: a timed run (tracing off), a traced
//! run, and the pin check behind `--check-pins` and `--emit-pins`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use dradio_campaign::{CampaignSpec, CellRecord};

use crate::median;
use crate::report::{self, Metric, Pins};
use crate::timed::{self, CampaignPass};
use crate::trace;
use crate::workloads::{self, Size, DEFAULT_SEED};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`workloads::NAMES`].
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// The workload size.
    pub size: Size,
    /// Runner threads.
    pub threads: usize,
    /// Where store files and span files go.
    pub out: PathBuf,
}

impl Options {
    fn campaign(&self) -> Result<CampaignSpec, String> {
        workloads::campaign(&self.workload, self.seed, self.size)
            .ok_or_else(|| format!("unknown workload {:?}", self.workload))
    }

    fn path(&self, what: &str) -> PathBuf {
        self.out.join(format!(
            "{}-{}-{}-{what}.jsonl",
            self.workload,
            self.size.name(),
            std::process::id()
        ))
    }
}

/// What a run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Cells attempted, over every pass of the run.
    pub attempted: usize,
    /// Cells that errored, panicked, or whose store line was wrong.
    pub failed: usize,
    /// The metrics, in table order (empty unless `correct`).
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
    /// What the run did, for people: pass timings and checks. Printed only
    /// when the run is correct, so a failed run prints no timings.
    pub lines: Vec<String>,
}

impl Outcome {
    fn finish(mut self, metrics: Vec<Metric>) -> Outcome {
        self.correct = self.failed == 0 && self.problems.is_empty();
        if self.correct {
            self.metrics = metrics;
        }
        self
    }
}

/// Store lines of `got` that differ from `want`'s, by the rule of
/// [`Pins::failed_cells`].
fn differing_lines(want: &[u8], got: &[u8]) -> usize {
    Pins::of(got, &[]).failed_cells(&Pins::of(want, &[]))
}

/// Store lines that fail to parse back into a record whose key matches its
/// cell, or whose trial count is wrong.
fn invalid_lines(store: &[u8]) -> usize {
    String::from_utf8_lossy(store)
        .lines()
        .filter(|line| match serde_json::from_str::<CellRecord>(line) {
            Ok(record) => {
                record.key != record.cell.key()
                    || record.measurement.rounds.count != record.trials_run
            }
            Err(_) => true,
        })
        .count()
}

/// Checks an untraced pass: it ran every cell, and every line of its store
/// is a valid record. Returns the failed cells.
fn check_pass(pass: &CampaignPass, outcome: &mut Outcome) -> usize {
    let failed = pass.failed_cells() + invalid_lines(&pass.store);
    if let Some(e) = &pass.error {
        outcome.problems.push(format!("campaign run failed: {e}"));
    }
    failed
}

/// The timed run: an untimed warm-up pass, campaign passes for `seconds`,
/// then the peak RSS, the set-up phase, and the output check.
pub fn timed_run(opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let spec = match opts.campaign() {
        Ok(spec) => spec,
        Err(e) => {
            outcome.problems.push(e);
            return outcome.finish(Vec::new());
        }
    };
    let store_path = opts.path("timed");
    // One untimed warm-up pass first: the first pass of a process pays for
    // page faults and allocator growth that later passes do not.
    let warm_up = timed::campaign_pass(&spec, opts.threads, &store_path);
    outcome.attempted += warm_up.cells;
    let failed = check_pass(&warm_up, &mut outcome);
    outcome.failed += failed;
    if failed > 0 {
        return outcome.finish(Vec::new());
    }
    let start = Instant::now();
    let mut passes: Vec<CampaignPass> = Vec::new();
    loop {
        let pass = timed::campaign_pass(&spec, opts.threads, &store_path);
        outcome.attempted += pass.cells;
        let failed = check_pass(&pass, &mut outcome);
        outcome.failed += failed;
        passes.push(pass);
        let elapsed = start.elapsed().as_secs_f64();
        if failed > 0 || elapsed + elapsed / passes.len() as f64 > opts.seconds {
            break;
        }
    }
    let peak_rss_mib = timed::peak_rss_mib();
    let mut walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    walls.sort_by(f64::total_cmp);
    outcome.lines.push(format!(
        "passes: {} of {} cells and {} trials each; wall per pass min {:.4} s, median {:.4} s, max {:.4} s",
        passes.len(),
        passes[0].committed,
        passes[0].trials,
        walls[0],
        median(&walls),
        walls[walls.len() - 1]
    ));

    // Set-up runs after the passes so it warms nothing they time. It is
    // milliseconds on most workloads and page faults weigh on it, so it
    // repeats for 10 % of the run length and reports the median.
    let budget = opts.seconds * 0.1;
    let setup_start = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < 10
        || (setup_start.elapsed().as_secs_f64() < budget && setups.len() < 10_000)
    {
        match timed::setup_once(&spec) {
            Ok(s) => setups.push(s),
            Err(e) => {
                outcome.problems.push(format!("set-up failed: {e}"));
                break;
            }
        }
    }
    outcome
        .lines
        .push(format!("set-up: {} repetitions", setups.len()));

    let reference = warm_up.store;
    for pass in &passes {
        let differing = differing_lines(&reference, &pass.store);
        if differing > 0 {
            outcome.failed += differing;
            outcome
                .problems
                .push(format!("{differing} store lines differ between passes"));
        }
    }
    if outcome.failed == 0 {
        check_output(opts, &spec, &reference, &mut outcome);
    }
    if peak_rss_mib.is_none() {
        outcome.problems.push("peak RSS is not available".into());
    }
    let trials_per_s: Vec<f64> = passes.iter().map(CampaignPass::trials_per_s).collect();
    let values = [
        median(&trials_per_s),
        median(&setups),
        peak_rss_mib.unwrap_or(f64::NAN),
    ];
    let metrics = report::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    outcome.finish(metrics)
}

/// The output check of a timed run: at the pinned seed the store must match
/// its pinned digests; at any other seed a traced pass must reproduce it
/// byte for byte.
fn check_output(opts: &Options, spec: &CampaignSpec, store: &[u8], outcome: &mut Outcome) {
    let cells = spec.expand().map(|c| c.len()).unwrap_or(0);
    if opts.seed == DEFAULT_SEED {
        if let Some(expected) = report::pinned(&opts.workload, opts.size) {
            let got = Pins::of(store, &[]);
            let drift = got.store_drift(&expected);
            outcome.failed += got.failed_cells(&expected);
            outcome.lines.push(format!(
                "check: store digest {} against the pin: {}",
                got.store,
                if drift.is_empty() { "match" } else { "DRIFT" }
            ));
            outcome.problems.extend(drift);
            return;
        }
    }
    match trace::traced_pass(spec, opts.threads, &opts.path("check")) {
        Ok(traced) => {
            let differing = differing_lines(store, &traced.store);
            outcome.lines.push(format!(
                "check: traced pass reproduces the store byte for byte: {}",
                if differing == 0 { "yes" } else { "NO" }
            ));
            if differing > 0 {
                outcome.failed += differing;
                outcome
                    .problems
                    .push(format!("{differing} traced store lines differ"));
            }
        }
        Err(e) => {
            outcome.failed += cells;
            outcome.problems.push(format!("traced pass failed: {e}"));
        }
    }
}

/// The traced run: alternating untraced and traced passes for `seconds`
/// (at least one of each). Every traced store must equal its untraced
/// twin byte for byte and the work counters must repeat exactly; at the
/// pinned seed the store digests and counters must match their pins.
/// Reports the per-layer medians over the traced passes and writes the last
/// pass's spans next to the store files.
pub fn traced_run(opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let spec = match opts.campaign() {
        Ok(spec) => spec,
        Err(e) => {
            outcome.problems.push(e);
            return outcome.finish(Vec::new());
        }
    };
    let start = Instant::now();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last = None;
    loop {
        let untraced = timed::campaign_pass(&spec, opts.threads, &opts.path("untraced"));
        outcome.attempted += untraced.cells;
        let failed = check_pass(&untraced, &mut outcome);
        outcome.failed += failed;
        if failed > 0 {
            break;
        }
        outcome.attempted += untraced.cells;
        let traced = match trace::traced_pass(&spec, opts.threads, &opts.path("traced")) {
            Ok(traced) => traced,
            Err(e) => {
                outcome.failed += untraced.cells;
                outcome.problems.push(format!("traced pass failed: {e}"));
                break;
            }
        };
        let differing = differing_lines(&untraced.store, &traced.store);
        outcome.lines.push(format!(
            "pass {}: untraced {:.3} s, traced {:.3} s, stores byte-identical: {}",
            layers.len() + 1,
            untraced.wall_s,
            traced.wall_s,
            if differing == 0 { "yes" } else { "NO" }
        ));
        if differing > 0 {
            outcome.failed += differing;
            outcome
                .problems
                .push(format!("{differing} traced store lines differ"));
            break;
        }
        layers.push(report::per_layer(&traced, untraced.wall_s));
        last = Some((untraced, traced));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / layers.len() as f64 > opts.seconds {
            break;
        }
    }
    let Some((untraced, traced)) = last else {
        return outcome.finish(Vec::new());
    };

    let counters = report::counters(&layers[0]);
    if layers.iter().any(|l| report::counters(l) != counters) {
        outcome
            .problems
            .push("work counters differ between traced passes".into());
    }
    if opts.seed == DEFAULT_SEED {
        if let Some(expected) = report::pinned(&opts.workload, opts.size) {
            let got = Pins::of(&untraced.store, &counters);
            let drift = got.drift(&expected);
            outcome.failed += got.failed_cells(&expected);
            outcome.lines.push(format!(
                "check: store digest and work counters against the pins: {}",
                if drift.is_empty() { "match" } else { "DRIFT" }
            ));
            outcome.problems.extend(drift);
        }
    }
    let spans = opts.out.join(format!(
        "{}-{}-seed{}-spans.jsonl",
        opts.workload,
        opts.size.name(),
        opts.seed
    ));
    match trace::write_spans(&traced, &spans) {
        Ok(()) => outcome.lines.push(format!("spans: {}", spans.display())),
        Err(e) => outcome.problems.push(format!("cannot write spans: {e}")),
    }
    outcome.finish(report::median_per_layer(&layers))
}

/// One untraced and one traced pass of `workload` at the pinned seed, which
/// must agree byte for byte; returns their pins.
///
/// # Errors
///
/// A failed pass or a traced store that differs, as text.
pub fn measure_pins(
    workload: &str,
    size: Size,
    threads: usize,
    out: PathBuf,
) -> Result<Pins, String> {
    let opts = Options {
        workload: workload.to_string(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        size,
        threads,
        out,
    };
    let spec = opts.campaign()?;
    let untraced = timed::campaign_pass(&spec, threads, &opts.path("pins-untraced"));
    if let Some(e) = untraced.error {
        return Err(e);
    }
    let traced = trace::traced_pass(&spec, threads, &opts.path("pins-traced"))?;
    if traced.store != untraced.store {
        return Err("the traced store differs from the untraced store".into());
    }
    let layers = report::per_layer(&traced, untraced.wall_s);
    Ok(Pins::of(&untraced.store, &report::counters(&layers)))
}
