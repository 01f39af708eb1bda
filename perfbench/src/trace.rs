//! The traced run: every cell rebuilt from public calls, with trial time
//! split across the layers.
//!
//! For each cell the pass builds the topology, the scenario and a
//! [`TrialExecutor`] itself. The executor gets the scenario's assignment,
//! stop condition, round budget and collision setting, but process and link
//! factories whose boxes time and count every call into [`Process`] and
//! [`LinkProcess`] and hand the callee a draw-counting wrapper around its
//! RNG. Every other trait method is forwarded unchanged, so the traced
//! outcomes fold into store lines byte-identical to an untraced run.
//!
//! Each timed call is a span on a per-thread stack. A span's self time is its
//! duration minus the time its child spans cover; the trial span's self time
//! is therefore what the engine itself (`sim`) spent between calls. Per-call
//! spans are folded into their trial span as per-layer totals; the coarse
//! spans (expansion, topology, scenario, executor, trial, append) are kept in
//! memory and written out when the pass ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dradio_campaign::{CampaignSpec, CellRecord, CellSpec, ResultStore, TrialPolicy};
use dradio_scenario::{BuiltTopology, Measurement, ScenarioBuilder, ScenarioRunner, TrialOutcome};
use dradio_sim::{
    Action, AdversaryClass, AdversarySetup, AdversaryView, BatchProfile, Feedback, LinkDecision,
    LinkFactory, LinkProcess, Metrics, Process, ProcessFactory, Round, SimConfig, TrialExecutor,
};
use rand::RngCore;
use serde::{Serialize, Value};

use crate::report::{object, render};

/// The layer a timed call belongs to.
#[derive(Debug, Clone, Copy)]
enum Layer {
    /// `LinkProcess::decide`.
    Decide,
    /// `LinkProcess::on_start`.
    AdversaryStart,
    /// `Process::on_round`.
    Round,
    /// `Process::on_start` and `Process::on_feedback`.
    Process,
    /// `Process::transmit_probability`.
    TransmitProbability,
}

/// Per-layer self times and counts inside one trial span.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Self time in `LinkProcess::decide`.
    pub decide_ns: u64,
    /// Self time in `LinkProcess::on_start`.
    pub adversary_start_ns: u64,
    /// Self time in `Process::on_start`, `on_round` and `on_feedback`.
    pub core_ns: u64,
    /// Self time in `Process::transmit_probability`.
    pub transmit_probability_ns: u64,
    /// Calls to `Process::on_round`.
    pub core_calls: u64,
    /// Words drawn from the processes' RNGs.
    pub core_rng_draws: u64,
    /// Words drawn from the adversary's RNG.
    pub adversary_rng_draws: u64,
    /// Σ `LinkDecision::len` over the trial's rounds.
    pub edges_proposed: u64,
    /// Self time of each `decide` call, in call order.
    pub decide_samples_ns: Vec<u64>,
}

/// An open span: how much of its duration its children covered so far.
struct Frame {
    child_ns: u64,
}

#[derive(Default)]
struct ThreadTrace {
    stack: Vec<Frame>,
    totals: LayerTotals,
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

fn enter() {
    TRACE.with(|t| t.borrow_mut().stack.push(Frame { child_ns: 0 }));
}

/// Closes the innermost span, which lasted `ns`, charging its self time to
/// `layer` and its whole duration to its parent's children.
fn exit(layer: Layer, ns: u64, draws: u64) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let child_ns = t.stack.pop().map_or(0, |frame| frame.child_ns);
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += ns;
        }
        let self_ns = ns.saturating_sub(child_ns);
        let totals = &mut t.totals;
        match layer {
            Layer::Decide => {
                totals.decide_ns += self_ns;
                totals.adversary_rng_draws += draws;
                totals.decide_samples_ns.push(self_ns);
            }
            Layer::AdversaryStart => {
                totals.adversary_start_ns += self_ns;
                totals.adversary_rng_draws += draws;
            }
            Layer::Round => {
                totals.core_ns += self_ns;
                totals.core_calls += 1;
                totals.core_rng_draws += draws;
            }
            Layer::Process => {
                totals.core_ns += self_ns;
                totals.core_rng_draws += draws;
            }
            Layer::TransmitProbability => totals.transmit_probability_ns += self_ns,
        }
    });
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `call` as a span of `layer`, handing it a draw-counting view of
/// `rng`.
fn traced<R>(layer: Layer, rng: &mut dyn RngCore, call: impl FnOnce(&mut dyn RngCore) -> R) -> R {
    let mut counting = CountingRng {
        inner: rng,
        draws: 0,
    };
    enter();
    let start = Instant::now();
    let out = call(&mut counting);
    let ns = nanos_since(start);
    exit(layer, ns, counting.draws);
    out
}

/// Forwards every call to the wrapped RNG, counting 64-bit words drawn.
struct CountingRng<'a> {
    inner: &'a mut dyn RngCore,
    draws: u64,
}

impl RngCore for CountingRng<'_> {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest);
    }
}

/// A process whose calls are timed and counted.
struct TracedProcess(Box<dyn Process>);

impl Process for TracedProcess {
    fn on_start(&mut self, rng: &mut dyn RngCore) {
        let inner = &mut self.0;
        traced(Layer::Process, rng, |rng| inner.on_start(rng));
    }

    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        let inner = &mut self.0;
        traced(Layer::Round, rng, |rng| inner.on_round(round, rng))
    }

    fn on_feedback(&mut self, round: Round, feedback: &Feedback, rng: &mut dyn RngCore) {
        let inner = &mut self.0;
        traced(Layer::Process, rng, |rng| {
            inner.on_feedback(round, feedback, rng)
        });
    }

    fn transmit_probability(&self, round: Round) -> f64 {
        enter();
        let start = Instant::now();
        let p = self.0.transmit_probability(round);
        exit(Layer::TransmitProbability, nanos_since(start), 0);
        p
    }

    fn is_informed(&self) -> bool {
        self.0.is_informed()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn batch_profile(&self) -> BatchProfile {
        self.0.batch_profile()
    }
}

/// A link process whose calls are timed and counted.
struct TracedLink(Box<dyn LinkProcess>);

impl LinkProcess for TracedLink {
    fn class(&self) -> AdversaryClass {
        self.0.class()
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        let inner = &mut self.0;
        traced(Layer::AdversaryStart, rng, |rng| inner.on_start(setup, rng));
    }

    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        let inner = &mut self.0;
        let decision = traced(Layer::Decide, rng, |rng| inner.decide(view, rng));
        TRACE.with(|t| t.borrow_mut().totals.edges_proposed += decision.len() as u64);
        decision
    }

    fn reset(&mut self) -> bool {
        self.0.reset()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Runs `trial` as the root span of this thread's stack and returns its
/// result, its duration, the part its children covered, and the per-layer
/// totals of the calls inside it.
fn trial_span<R>(trial: impl FnOnce() -> R) -> (R, u64, u64, LayerTotals) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        t.totals = LayerTotals::default();
    });
    enter();
    let start = Instant::now();
    let out = trial();
    let ns = nanos_since(start);
    let (child_ns, totals) = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let child_ns = t.stack.pop().map_or(0, |frame| frame.child_ns);
        (child_ns, std::mem::take(&mut t.totals))
    });
    (out, ns, child_ns, totals)
}

/// One distinct topology of a traced pass.
#[derive(Debug, Clone)]
pub struct TopologyTrace {
    /// The topology's label.
    pub label: String,
    /// Span start, relative to the pass start.
    pub start_ns: u64,
    /// `TopologySpec::build`.
    pub build_ns: u64,
    /// One `DualGraph::dynamic_edges()`.
    pub dynamic_edges_ns: u64,
    /// Edges of `G'`.
    pub edges: u64,
    /// Edges of `G' \ G`.
    pub dynamic_edges: u64,
}

/// One cell of a traced pass.
#[derive(Debug, Clone)]
pub struct CellTrace {
    /// The cell's label.
    pub label: String,
    /// `CellSpec::key`.
    pub key_ns: u64,
    /// Cell span start (scenario build), relative to the pass start.
    pub start_ns: u64,
    /// Cell span end (after its last trial), relative to the pass start.
    pub end_ns: u64,
    /// `ScenarioBuilder::build` on the built topology.
    pub build_ns: u64,
    /// `Scenario::executor()`.
    pub executor_ns: u64,
    /// `ResultStore::append` of the cell's record.
    pub append_ns: u64,
    /// Σ n · rounds over the cell's trials.
    pub node_rounds: u64,
}

/// One trial of a traced pass.
#[derive(Debug, Clone)]
pub struct TrialTrace {
    /// Index of the cell in the campaign's expansion.
    pub cell: usize,
    /// Trial index within the cell.
    pub trial: usize,
    /// Span start, relative to the pass start.
    pub start_ns: u64,
    /// `TrialExecutor::execute`.
    pub ns: u64,
    /// The part of `ns` spent inside process and link-process calls.
    pub children_ns: u64,
    /// The calls inside the trial, by layer (decide samples moved out).
    pub totals: LayerTotals,
    /// Network size.
    pub n: u64,
    /// The engine's counters.
    pub metrics: Metrics,
}

/// A whole traced pass over a workload.
#[derive(Debug, Clone)]
pub struct TracedPass {
    /// Wall time of the pass, expansion to last append.
    pub wall_s: f64,
    /// `CampaignSpec::expand`.
    pub expand_ns: u64,
    /// Distinct topologies, in first-use order.
    pub topologies: Vec<TopologyTrace>,
    /// Cells, in expansion order.
    pub cells: Vec<CellTrace>,
    /// Trials, by cell then trial index.
    pub trials: Vec<TrialTrace>,
    /// Self time of every `decide` call.
    pub decide_samples_ns: Vec<u64>,
    /// The traced store file's bytes.
    pub store: Vec<u8>,
}

/// What one traced cell produced before its record is appended.
struct CellRun {
    start_ns: u64,
    end_ns: u64,
    build_ns: u64,
    executor_ns: u64,
    record: CellRecord,
    trials: Vec<TrialTrace>,
    decide_samples_ns: Vec<u64>,
}

/// Runs one traced pass of `spec` with the runner's scheduling: with more
/// than one thread and more than one cell, `threads` workers claim cells
/// and run their trials sequentially; otherwise cells run one at a time and
/// their trials fan out over the cores. Records are appended in expansion
/// order to a fresh store at `path`, whose bytes are kept in the result.
///
/// # Errors
///
/// Any build, run or store error (a panic included), as text.
pub fn traced_pass(spec: &CampaignSpec, threads: usize, path: &Path) -> Result<TracedPass, String> {
    let pass = Instant::now();
    let cells = spec.expand().map_err(|e| e.to_string())?;
    let expand_ns = nanos_since(pass);

    let mut topologies: Vec<TopologyTrace> = Vec::new();
    let mut built: BTreeMap<String, BuiltTopology> = BTreeMap::new();
    let mut cell_topology = Vec::with_capacity(cells.len());
    for cell in &cells {
        let key = serde_json::to_string(&cell.scenario.topology).map_err(|e| e.to_string())?;
        if !built.contains_key(&key) {
            let start_ns = nanos_since(pass);
            let start = Instant::now();
            let topology = cell.scenario.topology.build().map_err(|e| e.to_string())?;
            let build_ns = nanos_since(start);
            let start = Instant::now();
            let dynamic = topology.dual.dynamic_edges();
            let dynamic_edges_ns = nanos_since(start);
            topologies.push(TopologyTrace {
                label: cell.scenario.topology.label(),
                start_ns,
                build_ns,
                dynamic_edges_ns,
                edges: topology.dual.g_prime().edge_count() as u64,
                dynamic_edges: dynamic.len() as u64,
            });
            built.insert(key.clone(), topology);
        }
        cell_topology.push(built[&key].clone());
    }

    let mut key_ns = Vec::with_capacity(cells.len());
    for cell in &cells {
        let start = Instant::now();
        std::hint::black_box(cell.key());
        key_ns.push(nanos_since(start));
    }

    let threads = threads.min(cells.len()).max(1);
    let runs: Vec<Result<CellRun, String>> = if threads > 1 {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Result<CellRun, String>>>> =
            Mutex::new((0..cells.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let run = run_cell(i, &cells[i], &cell_topology[i], 1, pass);
                    slots
                        .lock()
                        .expect("cell workers do not panic holding the slots")[i] = Some(run);
                });
            }
        });
        slots
            .into_inner()
            .expect("cell workers joined")
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| Err("cell was never run".into())))
            .collect()
    } else {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        cells
            .iter()
            .enumerate()
            .map(|(i, cell)| run_cell(i, cell, &cell_topology[i], cores, pass))
            .collect()
    };

    let _ = fs::remove_file(path);
    let mut store = ResultStore::open(path).map_err(|e| e.to_string())?;
    let mut traced = TracedPass {
        wall_s: 0.0,
        expand_ns,
        topologies,
        cells: Vec::with_capacity(cells.len()),
        trials: Vec::new(),
        decide_samples_ns: Vec::new(),
        store: Vec::new(),
    };
    for ((cell, run), key_ns) in cells.iter().zip(runs).zip(key_ns) {
        let run = run?;
        let start = Instant::now();
        store.append(run.record).map_err(|e| e.to_string())?;
        let append_ns = nanos_since(start);
        traced.cells.push(CellTrace {
            label: cell.label(),
            key_ns,
            start_ns: run.start_ns,
            end_ns: run.end_ns,
            build_ns: run.build_ns,
            executor_ns: run.executor_ns,
            append_ns,
            node_rounds: run
                .trials
                .iter()
                .map(|t| t.n * t.metrics.rounds as u64)
                .sum(),
        });
        traced.trials.extend(run.trials);
        traced.decide_samples_ns.extend(run.decide_samples_ns);
    }
    drop(store);
    traced.wall_s = pass.elapsed().as_secs_f64();
    traced.store = fs::read(path).map_err(|e| e.to_string())?;
    let _ = fs::remove_file(path);
    Ok(traced)
}

/// Builds and runs one cell with traced components, fanning its trials out
/// over `workers` threads (one traced executor each).
fn run_cell(
    index: usize,
    cell: &CellSpec,
    topology: &BuiltTopology,
    workers: usize,
    pass: Instant,
) -> Result<CellRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_cell_inner(index, cell, topology, workers, pass)
    }))
    .unwrap_or_else(|_| Err(format!("cell {} panicked", cell.label())))
}

fn run_cell_inner(
    index: usize,
    cell: &CellSpec,
    topology: &BuiltTopology,
    workers: usize,
    pass: Instant,
) -> Result<CellRun, String> {
    let TrialPolicy::Fixed(trials) = cell.trials else {
        return Err(format!(
            "{}: the traced run needs a fixed trial count",
            cell.label()
        ));
    };
    let start_ns = nanos_since(pass);
    let start = Instant::now();
    let scenario = ScenarioBuilder::from_spec(cell.scenario.clone())
        .with_topology(topology.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let build_ns = nanos_since(start);
    let start = Instant::now();
    let executor = scenario.executor();
    let executor_ns = nanos_since(start);
    drop(executor);

    let inner: ProcessFactory = cell
        .scenario
        .algorithm
        .factory(topology.len(), topology.max_degree())
        .map_err(|e| e.to_string())?;
    let factory: ProcessFactory =
        Arc::new(move |ctx| Box::new(TracedProcess(inner(ctx))) as Box<dyn Process>);
    let adversary = cell.scenario.adversary.clone();
    adversary.build(topology).map_err(|e| e.to_string())?;
    let link_topology = topology.clone();
    let link: LinkFactory = Arc::new(move || {
        let inner = adversary
            .build(&link_topology)
            .expect("the adversary spec was validated before the first trial");
        Box::new(TracedLink(inner)) as Box<dyn LinkProcess>
    });
    let config = SimConfig::default()
        .with_seed(scenario.seed())
        .with_max_rounds(scenario.max_rounds())
        .with_collision_detection(scenario.spec().collision_detection)
        .with_record_mode(cell.record_mode);
    let new_executor = || {
        TrialExecutor::new(
            Arc::clone(&topology.dual),
            factory.clone(),
            scenario.assignment().clone(),
            link.clone(),
            scenario.stop_condition().clone(),
            config,
        )
        .map_err(|e| e.to_string())
    };
    let runner = ScenarioRunner::new(&scenario);
    let n = topology.len() as u64;
    let run_trial = |executor: &mut TrialExecutor, trial: usize| {
        let seed = runner.trial_seed(trial);
        let start_ns = nanos_since(pass);
        let (outcome, ns, children_ns, totals) =
            trial_span(|| executor.execute(seed, cell.record_mode));
        let metrics = outcome.metrics;
        let trace = TrialTrace {
            cell: index,
            trial,
            start_ns,
            ns,
            children_ns,
            totals,
            n,
            metrics,
        };
        let outcome = TrialOutcome {
            trial,
            seed,
            metrics: outcome.into_trial_metrics().without_curve(),
        };
        (outcome, trace)
    };

    let workers = workers.min(trials).max(1);
    let done: Vec<(TrialOutcome, TrialTrace)> = if workers > 1 {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<(TrialOutcome, TrialTrace)>>> =
            Mutex::new((0..trials).map(|_| None).collect());
        let failure: Mutex<Option<String>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut executor = match new_executor() {
                        Ok(executor) => executor,
                        Err(e) => {
                            *failure
                                .lock()
                                .expect("trial workers do not panic holding it") = Some(e);
                            return;
                        }
                    };
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= trials {
                            break;
                        }
                        let result = run_trial(&mut executor, t);
                        slots
                            .lock()
                            .expect("trial workers do not panic holding the slots")[t] =
                            Some(result);
                    }
                });
            }
        });
        if let Some(e) = failure.into_inner().expect("trial workers joined") {
            return Err(e);
        }
        slots
            .into_inner()
            .expect("trial workers joined")
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("{}: a trial was never run", cell.label()))?
    } else {
        let mut executor = new_executor()?;
        (0..trials).map(|t| run_trial(&mut executor, t)).collect()
    };

    let mut outcomes = Vec::with_capacity(trials);
    let mut traces = Vec::with_capacity(trials);
    let mut decide_samples_ns = Vec::new();
    for (outcome, mut trace) in done {
        decide_samples_ns.append(&mut trace.totals.decide_samples_ns);
        outcomes.push(outcome);
        traces.push(trace);
    }
    let measurement = Measurement::from_trials(&outcomes).map_err(|e| e.to_string())?;
    Ok(CellRun {
        start_ns,
        build_ns,
        executor_ns,
        record: CellRecord {
            key: cell.key(),
            cell: cell.clone(),
            trials_run: trials,
            measurement,
        },
        end_ns: nanos_since(pass),
        trials: traces,
        decide_samples_ns,
    })
}

/// Writes the pass's spans as JSON lines to `path`, one span a line: its
/// name, parent, topology, cell and trial ids, and start and end in
/// nanoseconds from the pass start. Trial spans also carry the self time of
/// each layer inside them (the per-call spans, folded).
///
/// # Errors
///
/// I/O errors writing the file.
pub fn write_spans(traced: &TracedPass, path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    let mut span = |name: &str,
                    parent: Option<&str>,
                    start_ns: u64,
                    end_ns: u64,
                    fields: Vec<(&str, Value)>| {
        let head = [
            ("span", name.to_value()),
            ("parent", parent.to_value()),
            ("start_ns", start_ns.to_value()),
            ("end_ns", end_ns.to_value()),
        ];
        writeln!(out, "{}", render(&object(head.into_iter().chain(fields))))
    };
    let (pass, cell) = (Some("campaign.pass"), Some("campaign.cell"));
    span(
        "campaign.pass",
        None,
        0,
        (traced.wall_s * 1e9) as u64,
        vec![],
    )?;
    span("campaign.expand", pass, 0, traced.expand_ns, vec![])?;
    for (i, t) in traced.topologies.iter().enumerate() {
        let ids = || vec![("topology", i.to_value()), ("label", t.label.to_value())];
        let built = t.start_ns + t.build_ns;
        span("graphs.build", pass, t.start_ns, built, ids())?;
        let end = built + t.dynamic_edges_ns;
        span("graphs.dynamic_edges", pass, built, end, ids())?;
    }
    for (i, c) in traced.cells.iter().enumerate() {
        let fields = vec![
            ("cell", i.to_value()),
            ("label", c.label.to_value()),
            ("campaign.key_ns", c.key_ns.to_value()),
            ("campaign.append_ns", c.append_ns.to_value()),
        ];
        span("campaign.cell", pass, c.start_ns, c.end_ns, fields)?;
        let built = c.start_ns + c.build_ns;
        span(
            "scenario.build",
            cell,
            c.start_ns,
            built,
            vec![("cell", i.to_value())],
        )?;
        let end = built + c.executor_ns;
        span(
            "scenario.executor",
            cell,
            built,
            end,
            vec![("cell", i.to_value())],
        )?;
    }
    for t in &traced.trials {
        let l = &t.totals;
        let self_ns = object([
            ("adversary.decide", l.decide_ns.to_value()),
            ("adversary.start", l.adversary_start_ns.to_value()),
            ("core", l.core_ns.to_value()),
            (
                "core.transmit_probability",
                l.transmit_probability_ns.to_value(),
            ),
            ("sim", t.ns.saturating_sub(t.children_ns).to_value()),
        ]);
        let fields = vec![
            ("cell", t.cell.to_value()),
            ("trial", t.trial.to_value()),
            ("self_ns", self_ns),
            ("rounds", t.metrics.rounds.to_value()),
        ];
        span(
            "scenario.trial",
            cell,
            t.start_ns,
            t.start_ns + t.ns,
            fields,
        )?;
    }
    out.flush()
}
