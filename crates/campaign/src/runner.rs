//! Executing a campaign: work-stealing across cells, streaming committed
//! results to the store in deterministic order.
//!
//! # Execution model
//!
//! Pending cells (those whose key is absent from the store) are claimed by
//! worker threads off a shared atomic counter — dynamic self-scheduling, so a
//! slow cell never idles the other workers. Finished measurements are handed
//! to a committer that appends them to the [`ResultStore`] strictly in
//! cell-expansion order. Two consequences:
//!
//! * **Determinism** — the store's byte content depends only on the campaign
//!   spec, never on thread scheduling (measurements are deterministic per
//!   cell; commit order is fixed).
//! * **Resumability** — a killed run leaves a clean expansion-order prefix
//!   (plus at most one torn line the store discards), and a resumed run
//!   appends exactly the missing suffix, reproducing the uninterrupted store
//!   byte for byte.
//!
//! Trials *within* a cell run sequentially when cells run in parallel (the
//! cell fan-out already saturates the cores); when only one cell is pending
//! the runner drops to the scenario layer's parallel trial runner instead.
//! Both modes produce identical measurements by the scenario runner's
//! parallel-equals-sequential guarantee. Curve-streaming cells
//! ([`CellSpec::curve`]) always run their trials sequentially through one
//! executor so each trial's collision curve folds straight into the
//! measurement — their scalar statistics are identical either way.
//!
//! # Topology residency
//!
//! Distinct topologies are built at most once per run and shared by every
//! cell that sweeps over them, but the cache is *scoped*: each topology is
//! built lazily when its first cell runs and dropped as soon as its **last
//! pending cell commits** (a per-topology reference count), so a campaign
//! sweeping many large distinct networks holds only the graphs its in-flight
//! window actually needs instead of all of them until the run ends. The
//! cache is invisible in the results — keys, measurements, and store bytes
//! are identical with and without it (pinned by this module's tests).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
// lint: allow(D2) -- wall-clock time feeds only the stderr progress meter,
// never a measurement or store byte
use std::time::Instant;

use dradio_scenario::{
    BuiltTopology, Measurement, Scenario, ScenarioBuilder, ScenarioRunner, TopologySpec,
    TrialAccumulator,
};

use crate::error::{CampaignError, Result};
use crate::spec::{CampaignSpec, CellSpec, StopRule, TrialPolicy};
use crate::store::{CellRecord, ResultStore};

/// What a [`CampaignRunner::run`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Total cells in the campaign's expansion.
    pub total: usize,
    /// Cells skipped because the store already held them.
    pub skipped: usize,
    /// Cells executed (and appended) by this call.
    pub executed: usize,
}

/// Executes the cells of a [`CampaignSpec`] against a [`ResultStore`].
#[derive(Debug, Clone, Copy)]
pub struct CampaignRunner<'a> {
    spec: &'a CampaignSpec,
    threads: Option<usize>,
    progress: bool,
}

impl<'a> CampaignRunner<'a> {
    /// Creates a runner over `spec` with automatic thread-count selection.
    pub fn new(spec: &'a CampaignSpec) -> Self {
        CampaignRunner {
            spec,
            threads: None,
            progress: false,
        }
    }

    /// Overrides the worker thread count (`1` forces fully sequential cell
    /// execution; measurements are identical either way).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Enables a per-commit progress line on stderr (`cells done/total,
    /// cells/sec, ETA`). Off by default so captured output stays stable;
    /// stdout and the store are never touched.
    pub fn progress(mut self, enabled: bool) -> Self {
        self.progress = enabled;
        self
    }

    /// Runs every cell not already present in `store`, appending results in
    /// cell-expansion order.
    ///
    /// # Errors
    ///
    /// * [`CampaignError::Spec`] if the campaign fails to validate or expand.
    /// * [`CampaignError::Cell`] if a cell fails to build or run; cells
    ///   committed before the failure remain in the store, so a fixed spec
    ///   can resume past them.
    /// * [`CampaignError::Store`] on store I/O failures.
    pub fn run(&self, store: &mut ResultStore) -> Result<RunReport> {
        let cells = self.spec.expand()?;
        let total = cells.len();
        let pending: Vec<CellSpec> = cells
            .into_iter()
            .filter(|cell| !store.contains(&cell.key()))
            .collect();
        let skipped = total - pending.len();
        if pending.is_empty() {
            return Ok(RunReport {
                total,
                skipped,
                executed: 0,
            });
        }

        // One scoped cache for the whole run: each distinct topology is
        // built once, on first use, and dropped when its last pending cell
        // commits.
        let topologies = TopologyCache::for_pending(&pending);

        let threads = self
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
            .min(pending.len());

        let meter = self
            .progress
            .then(|| ProgressMeter::new(pending.len(), skipped));
        let executed = if threads <= 1 {
            // Sequential cells: let each cell parallelize its own trials.
            let mut executed = 0;
            let mut trials_done = 0;
            for cell in &pending {
                let record = run_cell(cell, true, &topologies)?;
                trials_done += record.trials_run;
                store.append(record)?;
                topologies.committed(&cell.scenario.topology);
                executed += 1;
                if let Some(meter) = &meter {
                    meter.tick(executed, trials_done);
                }
            }
            executed
        } else {
            self.run_parallel(&pending, threads, store, meter.as_ref(), &topologies)?
        };

        Ok(RunReport {
            total,
            skipped,
            executed,
        })
    }

    /// Convenience: runs the whole campaign into a fresh in-memory store.
    ///
    /// # Errors
    ///
    /// See [`CampaignRunner::run`].
    pub fn run_in_memory(&self) -> Result<ResultStore> {
        let mut store = ResultStore::in_memory();
        self.run(&mut store)?;
        Ok(store)
    }

    /// Work-stealing execution: workers claim cell indices off an atomic
    /// counter; the calling thread commits results in expansion order as they
    /// become available.
    fn run_parallel(
        &self,
        pending: &[CellSpec],
        threads: usize,
        store: &mut ResultStore,
        meter: Option<&ProgressMeter>,
        topologies: &TopologyCache,
    ) -> Result<usize> {
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let slots: Mutex<Vec<Option<Result<CellRecord>>>> =
            Mutex::new((0..pending.len()).map(|_| None).collect());
        let ready = Condvar::new();

        let mut executed = 0usize;
        let mut trials_done = 0usize;
        let mut failure: Option<CampaignError> = None;

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= pending.len() {
                            break;
                        }
                        // Trials run sequentially here — the cell fan-out owns
                        // the cores. Panics are captured into the slot: an empty
                        // slot would wedge the in-order committer forever.
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_cell(&pending[i], false, topologies)
                        }))
                        .unwrap_or_else(|payload| {
                            Err(CampaignError::CellPanicked {
                                cell: pending[i].label(),
                                reason: panic_reason(payload.as_ref()),
                            })
                        });
                        let mut slots = ready_lock(&slots);
                        slots[i] = Some(result);
                        drop(slots);
                        ready.notify_all();
                    })
                })
                .collect();

            // In-order committer: wait for slot `commit`, append, advance.
            for commit in 0..pending.len() {
                let result = {
                    let mut slots = ready_lock(&slots);
                    loop {
                        if let Some(result) = slots[commit].take() {
                            break result;
                        }
                        slots = ready
                            .wait(slots)
                            // lint: allow(D4) -- workers publish results, they
                            // never panic while holding the slot lock
                            .expect("campaign workers do not poison the slot lock");
                    }
                };
                let trials_run = result.as_ref().map(|r| r.trials_run).unwrap_or(0);
                match result.and_then(|record| store.append(record)) {
                    Ok(()) => {
                        // The committed cell releases its topology
                        // reference; the last release drops the graph. Any
                        // still-pending cell sharing the topology holds a
                        // reference of its own, and cells commit strictly
                        // in expansion order, so nothing evicted here can
                        // be needed again.
                        topologies.committed(&pending[commit].scenario.topology);
                        executed += 1;
                        trials_done += trials_run;
                        if let Some(meter) = meter {
                            meter.tick(executed, trials_done);
                        }
                    }
                    Err(e) => {
                        // Stop claiming new cells; in-flight cells finish and
                        // are discarded. The store keeps the committed prefix.
                        stop.store(true, Ordering::Relaxed);
                        failure = Some(e);
                        break;
                    }
                }
            }
            // Unblock any worker between claim and publish.
            stop.store(true, Ordering::Relaxed);
            // Join each worker before the scope ends: the scope waits only
            // for the closures to return, not for their threads to exit, so
            // the next run's fresh threads could find every malloc arena
            // still taken and create new ones, growing peak RSS run by run.
            for worker in workers {
                if let Err(payload) = worker.join() {
                    failure.get_or_insert(CampaignError::CellPanicked {
                        cell: "worker thread, outside any cell".into(),
                        reason: panic_reason(payload.as_ref()),
                    });
                }
            }
        });

        match failure {
            Some(e) => Err(e),
            None => Ok(executed),
        }
    }
}

/// Stderr progress reporting for long campaign runs. The runner commits in
/// expansion order, so "cells committed" is an honest prefix of the work and
/// the throughput estimate is simply commits over elapsed wall time.
#[derive(Debug)]
struct ProgressMeter {
    started: Instant, // lint: allow(D2) -- progress display only
    pending: usize,
    skipped: usize,
}

impl ProgressMeter {
    fn new(pending: usize, skipped: usize) -> Self {
        ProgressMeter {
            // lint: allow(D2) -- progress display only
            started: Instant::now(),
            pending,
            skipped,
        }
    }

    /// Reports `done` of the pending cells as committed, with `trials` total
    /// trials executed so far across them.
    fn tick(&self, done: usize, trials: usize) {
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let trial_rate = if elapsed > 0.0 {
            trials as f64 / elapsed
        } else {
            0.0
        };
        let remaining = self.pending.saturating_sub(done);
        let eta = if rate > 0.0 {
            format!("{:.0}s", remaining as f64 / rate)
        } else {
            String::from("?")
        };
        eprintln!(
            "campaign: {done}/{} cells done ({} skipped), {rate:.2} cells/s, \
             {trial_rate:.1} trials/s, ETA {eta}",
            self.pending, self.skipped
        );
    }
}

fn ready_lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        // lint: allow(D4) -- trial panics are caught per-worker before they
        // can poison the slot lock
        .expect("campaign workers do not poison the slot lock")
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// One topology's slot in the scoped cache.
#[derive(Debug, Default)]
struct CacheEntry {
    /// Pending cells that still reference this topology (committed cells
    /// have released theirs). The graph is dropped when this reaches zero.
    remaining: AtomicUsize,
    /// The built topology, present between first use and last commit.
    slot: Mutex<Option<BuiltTopology>>,
}

/// A run-scoped cache of built topologies, keyed by the canonical JSON
/// serialization of the [`TopologySpec`] (specs carry their own seeds, so
/// equal content means equal network).
///
/// Each distinct topology is built **lazily** — by whichever worker first
/// runs a cell referencing it (later cells of the same topology share the
/// built graph, whose network is an `Arc<DualGraph>`, so the handoff is a
/// pointer copy) — and **evicted eagerly**: the in-order committer releases
/// one reference per committed cell, and the release that drops the count to
/// zero drops the graph. Peak residency is therefore bounded by the
/// topologies of the cells between the commit frontier and the claim
/// frontier, not by the campaign's full topology axis.
///
/// The cache is invisible in the results: a cell built from a cached
/// topology has the same spec, key, seeds, and measurement as one that
/// rebuilt the network itself, and eviction cannot affect any of them
/// (pinned by this module's tests). A topology whose generator fails is
/// simply never cached: the cells using it fail through their own per-cell
/// build, at their position in commit order — so earlier cells still run
/// and commit, and a corrected spec can resume past the committed prefix.
#[derive(Debug, Default)]
struct TopologyCache {
    entries: BTreeMap<String, CacheEntry>,
}

impl TopologyCache {
    /// An empty cache: every cell falls back to building its own topology.
    #[cfg(test)]
    fn empty() -> Self {
        TopologyCache::default()
    }

    /// Prepares reference counts for every distinct topology of `cells`
    /// (one reference per pending cell). Nothing is built yet.
    fn for_pending(cells: &[CellSpec]) -> Self {
        let mut entries: BTreeMap<String, CacheEntry> = BTreeMap::new();
        for cell in cells {
            entries
                .entry(Self::key(&cell.scenario.topology))
                .or_default()
                .remaining
                .fetch_add(1, Ordering::Relaxed);
        }
        TopologyCache { entries }
    }

    fn key(spec: &TopologySpec) -> String {
        // lint: allow(D4) -- spec serialization is infallible (no floats are
        // NaN by construction, pinned by the scenario serde tests)
        serde_json::to_string(spec).expect("topology specs always serialize")
    }

    /// The built topology for `spec`, building it on first use. `None` when
    /// the spec is not tracked (tests) or its generator fails — the caller
    /// then builds (and fails) through its own scenario build.
    fn get(&self, spec: &TopologySpec) -> Option<BuiltTopology> {
        let entry = self.entries.get(&Self::key(spec))?;
        let mut slot = entry
            .slot
            .lock()
            // lint: allow(D4) -- builders run no user code that can panic
            // while the cache lock is held
            .expect("topology builders do not poison the cache lock");
        if slot.is_none() {
            *slot = spec.build().ok();
        }
        slot.clone()
    }

    /// Releases one reference after a cell over `spec` committed; the last
    /// release drops the built graph.
    fn committed(&self, spec: &TopologySpec) {
        let Some(entry) = self.entries.get(&Self::key(spec)) else {
            return;
        };
        if entry.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *entry
                .slot
                .lock()
                // lint: allow(D4) -- builders run no user code that can panic
                // while the cache lock is held
                .expect("topology builders do not poison the cache lock") = None;
        }
    }

    /// How many built topologies are currently resident (for the eviction
    /// tests).
    #[cfg(test)]
    fn resident(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.slot.lock().unwrap().is_some())
            .count()
    }
}

/// Builds and measures one cell in isolation — the entry point fleet worker
/// processes use for the cells a coordinator assigns them.
///
/// Equivalent to the cell's slot in a full [`CampaignRunner`] run: same key,
/// same measurement, same serialized bytes (the runner's topology cache is
/// invisible in results, pinned by this module's tests), so shard stores
/// written from `execute_cell` records merge byte-identically with a
/// single-process store. `parallel_trials` mirrors the runner's two modes:
/// `true` lets the cell's trials fan out across cores (right when the caller
/// runs cells one at a time), `false` runs them sequentially (right when the
/// caller runs many cells concurrently) — both produce identical
/// measurements by the scenario runner's parallel-equals-sequential
/// guarantee.
///
/// # Errors
///
/// [`CampaignError::Cell`] if the cell fails to build or run.
pub fn execute_cell(cell: &CellSpec, parallel_trials: bool) -> Result<CellRecord> {
    // A default (empty) cache tracks nothing, so the cell builds its own
    // topology — correct for a worker that sees cells one at a time.
    run_cell(cell, parallel_trials, &TopologyCache::default())
}

/// Builds and measures one cell, sharing the campaign's built topology when
/// the cache tracks it.
fn run_cell(
    cell: &CellSpec,
    parallel_trials: bool,
    topologies: &TopologyCache,
) -> Result<CellRecord> {
    let at_cell = |source| CampaignError::Cell {
        cell: cell.label(),
        source,
    };
    let mut builder = ScenarioBuilder::from_spec(cell.scenario.clone());
    if let Some(topology) = topologies.get(&cell.scenario.topology) {
        builder = builder.with_topology(topology);
    }
    let scenario: Scenario = builder.build().map_err(at_cell)?;
    let runner = if parallel_trials {
        ScenarioRunner::new(&scenario)
    } else {
        ScenarioRunner::new(&scenario).sequential()
    }
    .record_mode(cell.record_mode)
    .curve(cell.curve);
    let (measurement, trials_run) = match cell.trials {
        TrialPolicy::Fixed(trials) => (runner.run_trials(trials).map_err(at_cell)?, trials),
        TrialPolicy::Adaptive {
            min,
            max,
            relative_width,
            stop,
        } => {
            let measurement =
                adaptive_trials(&runner, min, max, relative_width, stop).map_err(at_cell)?;
            let trials_run = measurement.rounds.count;
            (measurement, trials_run)
        }
    };
    Ok(CellRecord {
        key: cell.key(),
        cell: cell.clone(),
        trials_run,
        measurement,
    })
}

/// Evaluates an adaptive stop rule against the running aggregates.
fn stop_satisfied(acc: &TrialAccumulator, stop: StopRule, relative_width: f64) -> bool {
    match stop {
        StopRule::MeanCostCi => acc.cost_moments().relative_ci95() <= relative_width,
        StopRule::CompletionCi => acc.completion().wilson_half_width() <= relative_width,
    }
}

/// Adaptive allocation: run `min` trials, then keep doubling (capped at
/// `max`) until the [`StopRule`]'s target statistic is tighter than
/// `relative_width` — the mean-cost ~95% CI relative to the mean, or the
/// Wilson ~95% half-width of the completion rate.
///
/// Trial `t` always runs with `runner.trial_seed(t)`, and the stopping rule
/// is evaluated on the prefix of outcomes in index order — so the allocated
/// count, like the outcomes themselves, is a pure function of the cell spec.
///
/// Incremental on both axes: all doubling trials run through one reused
/// [`TrialExecutor`](dradio_scenario::TrialExecutor), and the stopping rule
/// reads the [`TrialAccumulator`]'s running aggregates (Welford cost
/// moments, integer completion counts), so each doubling costs O(new
/// trials) instead of re-summarizing the full cost vector. The module tests
/// pin that the stopping decisions match a full recompute. (Welford and the
/// summary's two-pass variance can differ in the last ULPs, so a cost
/// series whose relative CI lands *exactly* on the requested width could in
/// principle stop differently — the pinned cases and the CI store-stability
/// check guard the realistic range; the stored `Measurement` itself is
/// always the exact full-vector summary, unchanged.)
///
/// On a curve-streaming runner ([`ScenarioRunner::curve`]) every trial —
/// including the first batch — runs sequentially through the executor so its
/// collision curve folds into the measurement as it completes.
fn adaptive_trials(
    runner: &ScenarioRunner<'_>,
    min: usize,
    max: usize,
    relative_width: f64,
    stop: StopRule,
) -> dradio_scenario::Result<Measurement> {
    let first = min.min(max);
    if first == 0 {
        return Err(dradio_scenario::ScenarioError::NoTrials);
    }
    let mut acc = runner.accumulator();
    let mut executor = runner.executor();
    if runner.has_curve() {
        // Curves stream trial by trial; the fan-out path cannot fold them.
        for t in 0..first {
            runner.run_trial_into(&mut executor, t, &mut acc);
        }
    } else {
        // First batch through the runner's own fan-out (parallel when the
        // cell owns the cores), folded into the running aggregates after.
        for outcome in runner.collect_trials(first)? {
            acc.push(&outcome.metrics);
        }
    }
    if acc.len() >= max || stop_satisfied(&acc, stop, relative_width) {
        return acc.finish();
    }
    // Doublings run through the reused executor; each new trial is one O(1)
    // aggregate update plus the execution itself.
    loop {
        let target = (acc.len() * 2).min(max);
        for t in acc.len()..target {
            runner.run_trial_into(&mut executor, t, &mut acc);
        }
        if acc.len() >= max || stop_satisfied(&acc, stop, relative_width) {
            return acc.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RoundsRule, SweepGroup};
    use dradio_core::algorithms::GlobalAlgorithm;
    use dradio_scenario::{AdversarySpec, ProblemSpec, RecordMode, TopologySpec, TrialOutcome};

    fn small_campaign() -> CampaignSpec {
        CampaignSpec::named("runner-test")
            .seed(5)
            .trials(TrialPolicy::Fixed(3))
            .group(
                SweepGroup::product(
                    vec![
                        TopologySpec::Clique { n: 8 },
                        TopologySpec::Clique { n: 16 },
                    ],
                    vec![
                        GlobalAlgorithm::Bgi.into(),
                        GlobalAlgorithm::Permuted.into(),
                    ],
                    vec![AdversarySpec::StaticNone],
                    vec![ProblemSpec::GlobalFrom(0)],
                )
                .rounds(RoundsRule::Fixed(2_000)),
            )
    }

    #[test]
    fn runs_every_cell_once_in_expansion_order() {
        let campaign = small_campaign();
        let store = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        let cells = campaign.expand().unwrap();
        assert_eq!(store.len(), cells.len());
        for (record, cell) in store.records().iter().zip(&cells) {
            assert_eq!(record.key, cell.key());
            assert_eq!(&record.cell, cell);
            assert_eq!(record.trials_run, 3);
            assert_eq!(record.measurement.rounds.count, 3);
        }
    }

    #[test]
    fn parallel_and_sequential_cell_execution_agree() {
        let campaign = small_campaign();
        let parallel = CampaignRunner::new(&campaign)
            .threads(4)
            .run_in_memory()
            .unwrap();
        let sequential = CampaignRunner::new(&campaign)
            .threads(1)
            .run_in_memory()
            .unwrap();
        assert_eq!(parallel.records(), sequential.records());
    }

    #[test]
    fn campaign_measurements_match_direct_scenario_runs() {
        let campaign = small_campaign();
        let store = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        for record in store.records() {
            let direct = record
                .cell
                .scenario
                .clone()
                .build()
                .unwrap()
                .run_trials(3)
                .unwrap();
            assert_eq!(record.measurement, direct, "{}", record.cell.label());
        }
    }

    #[test]
    fn full_recording_cells_measure_identically() {
        // The fast default (RecordMode::None) and full recording produce the
        // same stored records — recording only changes what the engine
        // retains, never what it measures.
        let fast = small_campaign();
        let mut recorded = small_campaign();
        for group in &mut recorded.groups {
            group.record_mode = RecordMode::Full;
        }
        let a = CampaignRunner::new(&fast).run_in_memory().unwrap();
        let b = CampaignRunner::new(&recorded).run_in_memory().unwrap();
        assert_eq!(a.records().len(), b.records().len());
        for (x, y) in a.records().iter().zip(b.records()) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.measurement, y.measurement);
            assert_eq!(x.trials_run, y.trials_run);
        }
    }

    #[test]
    fn curve_cells_add_contention_without_changing_scalars() {
        let plain = small_campaign();
        let mut curved = small_campaign();
        for group in &mut curved.groups {
            group.curve = true;
        }
        let a = CampaignRunner::new(&plain).run_in_memory().unwrap();
        let b = CampaignRunner::new(&curved).run_in_memory().unwrap();
        assert_eq!(a.records().len(), b.records().len());
        for (x, y) in a.records().iter().zip(b.records()) {
            // Same identity: a curve is presentation, not measurement.
            assert_eq!(x.key, y.key, "curve must not change cell keys");
            assert_eq!(x.trials_run, y.trials_run);
            // Scalar statistics identical; only the curve is new.
            assert_eq!(x.measurement.rounds, y.measurement.rounds);
            assert_eq!(x.measurement.completion, y.measurement.completion);
            assert_eq!(x.measurement.mean_collisions, y.measurement.mean_collisions);
            assert!(x.measurement.contention.is_none());
            let curve = y.measurement.contention.as_ref().expect("curve requested");
            assert_eq!(curve.trials(), y.trials_run);
            assert_eq!(
                curve.len(),
                y.measurement.rounds.max as usize,
                "the curve spans the longest trial"
            );
            // The curve came from CollisionsOnly recording, not Full.
            assert_eq!(y.cell.record_mode, RecordMode::CollisionsOnly);
            assert!(y.cell.curve);
        }
        // Parallel and sequential cell execution agree for curve cells too.
        let c = CampaignRunner::new(&curved)
            .threads(1)
            .run_in_memory()
            .unwrap();
        assert_eq!(b.records(), c.records());
    }

    #[test]
    fn execute_cell_matches_the_full_campaign_run() {
        // The worker-process entry point must be indistinguishable from the
        // cell's slot in a campaign run — keys, measurements, trial counts,
        // and serialized bytes — in both trial-parallelism modes.
        let campaign = small_campaign();
        let store = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        for (record, cell) in store.records().iter().zip(campaign.expand().unwrap()) {
            for parallel_trials in [false, true] {
                let solo = execute_cell(&cell, parallel_trials).unwrap();
                assert_eq!(&solo, record, "{}", cell.label());
                assert_eq!(
                    serde_json::to_string(&solo).unwrap(),
                    serde_json::to_string(record).unwrap(),
                );
            }
        }
    }

    #[test]
    fn resume_skips_present_cells() {
        let campaign = small_campaign();
        let mut store = ResultStore::in_memory();
        // Pre-commit the first two cells.
        let cells = campaign.expand().unwrap();
        for cell in &cells[..2] {
            store
                .append(run_cell(cell, false, &TopologyCache::empty()).unwrap())
                .unwrap();
        }
        let report = CampaignRunner::new(&campaign).run(&mut store).unwrap();
        assert_eq!(report.total, 4);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.executed, 2);
        // Identical to an uninterrupted run.
        let fresh = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        assert_eq!(store.records(), fresh.records());
        // A second resume is a no-op.
        let again = CampaignRunner::new(&campaign).run(&mut store).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.skipped, 4);
    }

    #[test]
    fn failing_cells_keep_the_committed_prefix() {
        // Second group's problem references an out-of-range node, so its
        // cells fail to build while the first group's cells succeed.
        let campaign = CampaignSpec::named("failing")
            .trials(TrialPolicy::Fixed(1))
            .group(SweepGroup::cell(
                TopologySpec::Clique { n: 8 },
                GlobalAlgorithm::Bgi,
                AdversarySpec::StaticNone,
                ProblemSpec::GlobalFrom(0),
            ))
            .group(SweepGroup::cell(
                TopologySpec::Clique { n: 8 },
                GlobalAlgorithm::Bgi,
                AdversarySpec::StaticNone,
                ProblemSpec::GlobalFrom(99),
            ));
        let mut store = ResultStore::in_memory();
        let err = CampaignRunner::new(&campaign).run(&mut store).unwrap_err();
        assert!(matches!(err, CampaignError::Cell { .. }), "{err}");
        assert_eq!(store.len(), 1, "the good cell was committed");
    }

    #[test]
    fn adaptive_allocation_is_deterministic_and_bounded() {
        let campaign = CampaignSpec::named("adaptive")
            .seed(11)
            .trials(TrialPolicy::Adaptive {
                min: 2,
                max: 32,
                relative_width: 0.05,
                stop: StopRule::MeanCostCi,
            })
            .group(
                SweepGroup::cell(
                    TopologySpec::DualClique { n: 16 },
                    GlobalAlgorithm::Permuted,
                    AdversarySpec::Iid { p: 0.5 },
                    ProblemSpec::GlobalFrom(0),
                )
                .rounds(RoundsRule::Fixed(20_000)),
            );
        let a = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        let b = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        assert_eq!(a.records(), b.records());
        let record = &a.records()[0];
        assert!(record.trials_run >= 2 && record.trials_run <= 32);
        assert_eq!(record.measurement.rounds.count, record.trials_run);
        // Either the precision target was met or the budget was exhausted.
        assert!(
            record.measurement.rounds.relative_ci95() <= 0.05 || record.trials_run == 32,
            "stopped at {} trials with relative CI {}",
            record.trials_run,
            record.measurement.rounds.relative_ci95(),
        );
    }

    #[test]
    fn completion_ci_adaptive_stops_on_wilson_width() {
        // A deterministic always-completing cell: the mean-cost CI collapses
        // at 2 trials, but the Wilson half-width at p̂ = 1 is z²/(2(n + z²)),
        // which first dips under 0.2 at n = 6 — so doubling from 2 stops at
        // 8, not 2. The two stop rules are thereby demonstrably different,
        // and the completion rule demonstrably tracks the Wilson width.
        let cell = |stop| {
            CampaignSpec::named("completion-adaptive")
                .trials(TrialPolicy::Adaptive {
                    min: 2,
                    max: 64,
                    relative_width: 0.2,
                    stop,
                })
                .group(
                    SweepGroup::cell(
                        TopologySpec::Clique { n: 8 },
                        GlobalAlgorithm::RoundRobin,
                        AdversarySpec::StaticNone,
                        ProblemSpec::GlobalFrom(0),
                    )
                    .rounds(RoundsRule::Fixed(1_000)),
                )
        };
        let mean = CampaignRunner::new(&cell(StopRule::MeanCostCi))
            .run_in_memory()
            .unwrap();
        assert_eq!(mean.records()[0].trials_run, 2, "cost CI collapses at min");

        let completion = CampaignRunner::new(&cell(StopRule::CompletionCi))
            .run_in_memory()
            .unwrap();
        let record = &completion.records()[0];
        assert_eq!(
            record.trials_run, 8,
            "doubling stops at the first count whose Wilson half-width \
             is within 0.2"
        );
        assert_eq!(record.measurement.completion_rate(), 1.0);
        assert!(record.measurement.completion.wilson_half_width() <= 0.2);
        // The preceding doubling (4 trials) was genuinely too wide.
        let four = dradio_scenario::Completion {
            completed: 4,
            trials: 4,
        };
        assert!(four.wilson_half_width() > 0.2);
        // Different stop rules are different measurements: distinct keys.
        let mean_cells = cell(StopRule::MeanCostCi).expand().unwrap();
        let completion_cells = cell(StopRule::CompletionCi).expand().unwrap();
        assert_ne!(mean_cells[0].key(), completion_cells[0].key());
        // Determinism across runs.
        let again = CampaignRunner::new(&cell(StopRule::CompletionCi))
            .run_in_memory()
            .unwrap();
        assert_eq!(completion.records(), again.records());
    }

    #[test]
    fn completion_ci_adaptive_with_curve_streams_both() {
        let campaign = CampaignSpec::named("completion-curve")
            .trials(TrialPolicy::Adaptive {
                min: 2,
                max: 16,
                relative_width: 0.25,
                stop: StopRule::CompletionCi,
            })
            .group(
                SweepGroup::cell(
                    TopologySpec::DualClique { n: 16 },
                    GlobalAlgorithm::Permuted,
                    AdversarySpec::Iid { p: 0.5 },
                    ProblemSpec::GlobalFrom(0),
                )
                .rounds(RoundsRule::Fixed(2_000))
                .curve(true),
            );
        let store = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        let record = &store.records()[0];
        let curve = record.measurement.contention.as_ref().expect("curve");
        assert_eq!(curve.trials(), record.trials_run);
        assert_eq!(record.cell.record_mode, RecordMode::CollisionsOnly);
        assert!(
            record.trials_run == 16 || record.measurement.completion.wilson_half_width() <= 0.25
        );
    }

    #[test]
    fn failing_topology_cells_keep_the_committed_prefix() {
        // The second group's topology generator rejects its parameters (a
        // dual clique needs even n). The topology cache must not turn that
        // into an up-front abort: the first group's cell still runs and
        // commits, and the failure surfaces at the bad cell's own position.
        let campaign = CampaignSpec::named("failing-topology")
            .trials(TrialPolicy::Fixed(1))
            .group(SweepGroup::cell(
                TopologySpec::Clique { n: 8 },
                GlobalAlgorithm::Bgi,
                AdversarySpec::StaticNone,
                ProblemSpec::GlobalFrom(0),
            ))
            .group(SweepGroup::cell(
                TopologySpec::DualClique { n: 7 },
                GlobalAlgorithm::Bgi,
                AdversarySpec::StaticNone,
                ProblemSpec::GlobalFrom(0),
            ));
        let mut store = ResultStore::in_memory();
        let err = CampaignRunner::new(&campaign).run(&mut store).unwrap_err();
        assert!(matches!(err, CampaignError::Cell { .. }), "{err}");
        assert_eq!(store.len(), 1, "the good cell was committed");
    }

    #[test]
    fn topology_cache_preserves_keys_measurements_and_store_bytes() {
        // Many cells over few topologies — the configuration the cache
        // exists for. The cached run must be indistinguishable from one
        // where every cell rebuilds its own network.
        let campaign = CampaignSpec::named("cache-equivalence")
            .seed(13)
            .trials(TrialPolicy::Fixed(2))
            .group(
                SweepGroup::product(
                    vec![
                        TopologySpec::DualClique { n: 16 },
                        TopologySpec::RandomGeometric {
                            n: 24,
                            side: 2.0,
                            r: 1.5,
                            seed: 4,
                        },
                    ],
                    vec![
                        GlobalAlgorithm::Bgi.into(),
                        GlobalAlgorithm::Permuted.into(),
                        GlobalAlgorithm::RoundRobin.into(),
                    ],
                    vec![AdversarySpec::StaticNone, AdversarySpec::Iid { p: 0.5 }],
                    vec![ProblemSpec::GlobalFrom(0)],
                )
                .rounds(RoundsRule::Fixed(2_000)),
            );
        let cells = campaign.expand().unwrap();
        let cached = CampaignRunner::new(&campaign).run_in_memory().unwrap();

        // Reference: per-cell topology builds, bypassing the cache entirely.
        let mut fresh = ResultStore::in_memory();
        for cell in &cells {
            fresh
                .append(run_cell(cell, false, &TopologyCache::empty()).unwrap())
                .unwrap();
        }

        assert_eq!(cached.records(), fresh.records());
        for (a, b) in cached.records().iter().zip(fresh.records()) {
            assert_eq!(a.key, b.key, "{}", a.cell.label());
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "store line bytes diverged for {}",
                a.cell.label()
            );
        }
    }

    #[test]
    fn scoped_cache_builds_lazily_and_evicts_on_last_commit() {
        let campaign = small_campaign();
        let cells = campaign.expand().unwrap();
        // 4 cells over 2 topologies, 2 cells each, in topology-major order.
        let cache = TopologyCache::for_pending(&cells);
        assert_eq!(cache.resident(), 0, "nothing is built before first use");

        // First use builds; second use shares the same network.
        let first = cache.get(&cells[0].scenario.topology).expect("tracked");
        assert_eq!(cache.resident(), 1);
        let again = cache.get(&cells[1].scenario.topology).expect("tracked");
        assert!(
            std::sync::Arc::ptr_eq(&first.dual, &again.dual),
            "cells over one topology share one graph"
        );

        // One commit keeps the graph (a pending cell still references it);
        // the second — last — commit drops it.
        cache.committed(&cells[0].scenario.topology);
        assert_eq!(cache.resident(), 1);
        cache.committed(&cells[1].scenario.topology);
        assert_eq!(cache.resident(), 0, "last commit evicts the topology");

        // The second topology is untouched by the first one's lifecycle.
        let _second = cache.get(&cells[2].scenario.topology).expect("tracked");
        assert_eq!(cache.resident(), 1);
        cache.committed(&cells[2].scenario.topology);
        cache.committed(&cells[3].scenario.topology);
        assert_eq!(cache.resident(), 0);

        // Untracked specs (and the empty cache) fall back to per-cell
        // builds without panicking.
        let empty = TopologyCache::empty();
        assert!(empty.get(&cells[0].scenario.topology).is_none());
        empty.committed(&cells[0].scenario.topology);
    }

    #[test]
    fn scoped_cache_does_not_cache_failing_generators() {
        let bad = TopologySpec::DualClique { n: 7 }; // needs even n
        let cell = CellSpec {
            scenario: dradio_scenario::ScenarioSpec {
                topology: bad.clone(),
                algorithm: GlobalAlgorithm::Bgi.into(),
                adversary: AdversarySpec::StaticNone,
                problem: ProblemSpec::GlobalFrom(0),
                seed: 0,
                max_rounds: Some(100),
                collision_detection: false,
            },
            trials: TrialPolicy::Fixed(1),
            record_mode: RecordMode::None,
            curve: false,
        };
        let cache = TopologyCache::for_pending(std::slice::from_ref(&cell));
        assert!(cache.get(&bad).is_none(), "failed builds are not cached");
        assert_eq!(cache.resident(), 0);
        // The cell itself fails through its own build, like before.
        assert!(run_cell(&cell, false, &cache).is_err());
    }

    /// The pre-incremental adaptive allocator, kept verbatim as the
    /// reference: full `Measurement` recompute per doubling, fresh simulator
    /// per appended trial.
    fn reference_adaptive(
        runner: &ScenarioRunner<'_>,
        min: usize,
        max: usize,
        relative_width: f64,
    ) -> Vec<TrialOutcome> {
        let mut outcomes = runner.collect_trials(min.min(max)).unwrap();
        loop {
            let summary = Measurement::from_trials(&outcomes).unwrap().rounds;
            if outcomes.len() >= max || summary.relative_ci95() <= relative_width {
                return outcomes;
            }
            let target = (outcomes.len() * 2).min(max);
            for t in outcomes.len()..target {
                outcomes.push(runner.run_trial(t));
            }
        }
    }

    #[test]
    fn incremental_adaptive_matches_full_recompute() {
        // Across several cells (noisy and degenerate cost series, different
        // widths), the Welford-moments stopping rule allocates exactly the
        // trials the full-recompute rule allocated, with identical outcomes.
        let cases = vec![
            (
                SweepGroup::cell(
                    TopologySpec::DualClique { n: 16 },
                    GlobalAlgorithm::Permuted,
                    AdversarySpec::Iid { p: 0.5 },
                    ProblemSpec::GlobalFrom(0),
                )
                .rounds(RoundsRule::Fixed(20_000)),
                (2usize, 64usize, 0.05f64),
                7u64,
            ),
            (
                SweepGroup::cell(
                    TopologySpec::DualClique { n: 16 },
                    GlobalAlgorithm::Bgi,
                    AdversarySpec::GilbertElliott {
                        p_fail: 0.2,
                        p_recover: 0.3,
                    },
                    ProblemSpec::GlobalFrom(0),
                )
                .rounds(RoundsRule::Fixed(20_000)),
                (3, 48, 0.10),
                11,
            ),
            (
                // Deterministic costs: the CI collapses immediately.
                SweepGroup::cell(
                    TopologySpec::Clique { n: 8 },
                    GlobalAlgorithm::RoundRobin,
                    AdversarySpec::StaticNone,
                    ProblemSpec::GlobalFrom(0),
                )
                .rounds(RoundsRule::Fixed(1_000)),
                (2, 64, 0.10),
                0,
            ),
        ];
        for (group, (min, max, width), seed) in cases {
            let campaign = CampaignSpec::named("adaptive-pin").seed(seed).group(group);
            let cells = campaign.expand().unwrap();
            let scenario = cells[0].scenario.clone().build().unwrap();
            let runner = ScenarioRunner::new(&scenario).sequential();
            let incremental =
                adaptive_trials(&runner, min, max, width, StopRule::MeanCostCi).unwrap();
            let reference = reference_adaptive(&runner, min, max, width);
            assert_eq!(
                incremental.rounds.count,
                reference.len(),
                "{}: allocated trial counts diverged",
                cells[0].label()
            );
            assert_eq!(
                incremental,
                Measurement::from_trials(&reference).unwrap(),
                "{}",
                cells[0].label()
            );
        }
    }

    #[test]
    fn adaptive_stops_early_on_tight_series() {
        // A deterministic broadcast (no randomness in cost): the CI collapses
        // to zero immediately, so allocation stops at min.
        let campaign = CampaignSpec::named("tight")
            .trials(TrialPolicy::Adaptive {
                min: 2,
                max: 64,
                relative_width: 0.10,
                stop: StopRule::MeanCostCi,
            })
            .group(
                SweepGroup::cell(
                    TopologySpec::Clique { n: 8 },
                    GlobalAlgorithm::RoundRobin,
                    AdversarySpec::StaticNone,
                    ProblemSpec::GlobalFrom(0),
                )
                .rounds(RoundsRule::Fixed(1_000)),
            );
        let store = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        assert_eq!(store.records()[0].trials_run, 2);
    }
}
