//! The coordinator half of the fleet: spec checking, worker-pull
//! scheduling, worker process supervision, and supervised restarts.
//!
//! [`run_fleet`] expands a campaign, diffs the expansion against whatever
//! the output store and the shard stores already hold, and serves the
//! pending cells to `N` worker processes (each a `repro campaign worker`
//! child speaking the line-delimited [`crate::protocol`] over
//! stdin/stdout). Scheduling is **worker-pull**: the coordinator holds one
//! pending queue and answers each worker `Request` frame with one `Assign`,
//! so heterogeneous (or freshly restarted) workers drain cells at their own
//! rate instead of receiving a fixed `i mod N` shard up front. Each
//! assignment is a **lease**: if [`FleetConfig::lease_timeout`] passes
//! without an acknowledgement the cell is re-queued (exactly once per
//! expiry) and the eventual late ack — if it ever arrives — just marks the
//! cell done.
//!
//! # Failure handling
//!
//! A worker that closes its stdout (crash, kill, clean exit), corrupts its
//! stream, stops responding past [`FleetConfig::hang_timeout`], or never
//! completes the `Ready` handshake within [`FleetConfig::ready_timeout`]
//! is declared dead: its leases are re-queued and — new in this layer — the
//! coordinator **respawns** it on its original shard store, with capped
//! exponential backoff, up to [`FleetConfig::restart_budget`] times per
//! shard. The restarted worker resumes from its shard store, skipping its
//! own committed cells; a worker killed *after* appending a cell but
//! *before* acknowledging it leaves a durable record behind, the re-run
//! produces byte-identical bytes, and `campaign merge` collapses the pair.
//! Budget exhaustion degrades to plain re-assignment (the remaining workers
//! absorb the queue); only when every worker is dead with no restart in
//! flight and cells still owed does the fleet fail
//! ([`FleetError::NoSurvivors`], or [`FleetError::NeverReady`] naming the
//! shard when a worker produced no frames at all). Everything already
//! appended stays durable and a rerun resumes from the shard stores.

// lint: allow-file(D2) -- wall-clock here only tracks worker-process
// liveness (spawn/last-frame/lease/backoff times for supervision); every
// measurement is produced inside the workers from seeded RNGs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use dradio_campaign::{check, CampaignSpec, CellSpec, ResultStore};

use crate::error::{FleetError, Result};
use crate::faults::FaultPlan;
use crate::protocol::{parse_frame, write_frame, CoordinatorFrame, WorkerFrame};

/// Restart backoff never waits longer than this, however deep the attempt.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// How a fleet runs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker processes to spawn (capped at the pending-cell count).
    pub workers: usize,
    /// Cell-runner threads per worker (`0` keeps the worker default: one
    /// runner with parallel trials). Forwarded as `--threads`.
    pub threads: usize,
    /// Report per-cell completions, deaths, and restarts on stderr.
    pub progress: bool,
    /// Declare a ready worker dead when it owes work (or is starving the
    /// queue without requesting) and has not sent a frame for this long.
    /// `None` trusts workers to either answer or crash.
    pub hang_timeout: Option<Duration>,
    /// Re-queue a leased cell when its acknowledgement has not arrived
    /// within this long of assignment. `None` leaves leases open until the
    /// worker dies (death re-queues everything it owed regardless).
    pub lease_timeout: Option<Duration>,
    /// Kill a worker that has not completed the `Ready` handshake within
    /// this long of spawning — a worker that produces *no* frames is
    /// usually a broken worker command, not a slow cell. `None` disables
    /// the check.
    pub ready_timeout: Option<Duration>,
    /// Times each shard's worker may be respawned after dying, hanging, or
    /// corrupting its stream. `0` restores the old die-once behavior.
    pub restart_budget: usize,
    /// Base delay before a shard's first restart; doubles per attempt,
    /// capped at five seconds.
    pub restart_backoff: Duration,
    /// The chaos schedule ([`FaultPlan`]) to forward shard-by-shard as
    /// `--faults`. `None` in real runs.
    pub faults: Option<FaultPlan>,
    /// Override the worker argv (the shard flags are appended). `None`
    /// re-invokes the current executable as `campaign worker`, which is
    /// what the `repro` binary wants.
    pub worker_command: Option<Vec<String>>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 2,
            threads: 0,
            progress: false,
            hang_timeout: None,
            lease_timeout: None,
            ready_timeout: Some(Duration::from_secs(30)),
            restart_budget: 2,
            restart_backoff: Duration::from_millis(250),
            faults: None,
            worker_command: None,
        }
    }
}

/// What a [`run_fleet`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetReport {
    /// Cells in the campaign expansion.
    pub total: usize,
    /// Cells already durable (output store or shard stores) before launch.
    pub skipped: usize,
    /// Cells measured and acknowledged by this run.
    pub completed: usize,
    /// Cells re-queued after a worker died, hung, or corrupted its stream.
    pub reassigned: usize,
    /// Worker processes respawned by the supervisor.
    pub restarted: usize,
    /// Leases that expired unacknowledged and re-queued their cell.
    pub lease_expired: usize,
    /// Worker processes spawned initially (restarts not counted).
    pub workers: usize,
}

/// Where worker `shard`'s store lives for a fleet writing toward `store`:
/// `results.jsonl` → `results.shard0.jsonl` (the `.shardN` lands before a
/// `.jsonl` extension, after anything else).
pub fn shard_store_path(store: &Path, shard: usize) -> PathBuf {
    let text = store.to_string_lossy();
    match text.strip_suffix(".jsonl") {
        Some(stem) => PathBuf::from(format!("{stem}.shard{shard}.jsonl")),
        None => PathBuf::from(format!("{text}.shard{shard}.jsonl")),
    }
}

/// The backoff before restart attempt `attempt` (1-based). The first
/// respawn is immediate — a single crash should not stall the shard, and
/// the resume-aware store makes an eager restart safe — then the base
/// delay doubles per repeated crash, capped at [`BACKOFF_CAP`].
fn restart_delay(backoff: Duration, attempt: usize) -> Duration {
    match attempt {
        0 | 1 => Duration::ZERO,
        _ => {
            let factor = 1u32 << (attempt - 2).min(16) as u32;
            backoff.saturating_mul(factor).min(BACKOFF_CAP)
        }
    }
}

/// Why a worker incarnation was declared dead — drives diagnostics and the
/// final error when nobody survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Demise {
    /// Its stdout closed: crash, kill, or unexpected clean exit.
    Exited,
    /// It emitted an unparseable frame; the stream is untrusted from there.
    CorruptStream,
    /// It went silent past `hang_timeout` while owing (or starving) work.
    Hung,
    /// It never completed the `Ready` handshake within `ready_timeout`.
    NeverReady,
}

impl Demise {
    fn describe(self) -> &'static str {
        match self {
            Demise::Exited => "died",
            Demise::CorruptStream => "corrupted its stream",
            Demise::Hung => "hung",
            Demise::NeverReady => "never sent Ready",
        }
    }
}

/// One cell out on lease to a worker.
struct Lease {
    cell: CellSpec,
    /// When the lease expires unacknowledged (`None`: open-ended).
    expires: Option<Instant>,
}

/// One worker's supervision state, generic over the assignment sink so the
/// scheduling logic is testable without processes.
struct WorkerState<S: Write> {
    /// Where `Assign` frames go (`None` once closed).
    sink: Option<S>,
    /// Leased-but-unacknowledged cells, by key.
    outstanding: BTreeMap<String, Lease>,
    /// Still believed able to take work.
    alive: bool,
    /// Completed the `Ready` handshake (this incarnation).
    ready: bool,
    /// `Request` frames received but not yet answered with an `Assign`.
    credits: usize,
    /// When the worker last sent any frame (or was spawned).
    last_heard: Instant,
    /// When this incarnation was spawned (for the `Ready` deadline).
    spawned_at: Instant,
    /// Incarnation counter: events from readers of dead incarnations carry
    /// a stale generation and are ignored.
    generation: u64,
    /// Restart attempts consumed from the budget.
    restarts_used: usize,
    /// When the next restart attempt is due (`None`: not scheduled).
    restart_due: Option<Instant>,
    /// How the most recent incarnation ended.
    last_demise: Option<Demise>,
}

impl<S: Write> WorkerState<S> {
    fn new(sink: S) -> Self {
        let now = Instant::now();
        WorkerState {
            sink: Some(sink),
            outstanding: BTreeMap::new(),
            alive: true,
            ready: false,
            credits: 0,
            last_heard: now,
            spawned_at: now,
            generation: 0,
            restarts_used: 0,
            restart_due: None,
            last_demise: None,
        }
    }
}

/// Writes one `Assign` to a worker; a failure means the worker is gone.
fn try_assign<S: Write>(worker: &mut WorkerState<S>, cell: &CellSpec) -> Result<()> {
    let Some(sink) = worker.sink.as_mut() else {
        return Err(FleetError::io("worker sink already closed"));
    };
    write_frame(sink, &CoordinatorFrame::Assign { cell: cell.clone() })
}

/// The worker-pull scheduler: one pending queue, per-worker lease tables,
/// and the done-set that makes every hand-off idempotent. Pure bookkeeping
/// over abstract sinks — process supervision lives in [`run_fleet`].
struct Scheduler<S: Write> {
    /// Cells waiting for a lease, in expansion (then re-queue) order.
    pending: VecDeque<CellSpec>,
    /// Every pending cell key this fleet set out to measure.
    universe: BTreeSet<String>,
    /// Keys acknowledged durable by some worker.
    done: BTreeSet<String>,
    /// Supervision state per shard.
    workers: Vec<WorkerState<S>>,
    /// Copied from [`FleetConfig::lease_timeout`].
    lease_timeout: Option<Duration>,
    /// Round-robin cursor over workers with credits.
    next_serve: usize,
    /// Cells re-queued after their worker was declared dead.
    reassigned: usize,
    /// Leases that expired unacknowledged.
    lease_expired: usize,
    /// Universe cells acknowledged (each counted once).
    completed: usize,
}

impl<S: Write> Scheduler<S> {
    fn new(pending: Vec<CellSpec>, lease_timeout: Option<Duration>) -> Self {
        let universe = pending.iter().map(CellSpec::key).collect();
        Scheduler {
            pending: pending.into(),
            universe,
            done: BTreeSet::new(),
            workers: Vec::new(),
            lease_timeout,
            next_serve: 0,
            reassigned: 0,
            lease_expired: 0,
            completed: 0,
        }
    }

    /// Every cell the fleet owes is acknowledged durable.
    fn finished(&self) -> bool {
        self.done.len() == self.universe.len()
    }

    /// Cells not yet acknowledged durable.
    fn unassigned(&self) -> usize {
        self.universe.len() - self.done.len()
    }

    /// A worker announced an idle cell runner.
    fn on_request(&mut self, shard: usize) {
        let worker = &mut self.workers[shard];
        if worker.alive && worker.ready {
            worker.credits += 1;
        }
    }

    /// A worker acknowledged `key` durable. Returns whether this was the
    /// first acknowledgement of a universe cell (i.e. progress).
    fn on_done(&mut self, shard: usize, key: &str) -> bool {
        self.workers[shard].outstanding.remove(key);
        if self.universe.contains(key) && !self.done.contains(key) {
            self.done.insert(key.to_string());
            // A lease-expired or re-assigned twin may still be queued;
            // the late ack supersedes it.
            self.pending.retain(|cell| cell.key() != key);
            self.completed += 1;
            true
        } else {
            false
        }
    }

    /// Declares a worker unable to continue and re-queues everything it
    /// still owed (skipping cells that were acknowledged elsewhere).
    /// Returns how many cells were re-queued.
    fn abandon(&mut self, shard: usize) -> usize {
        let leases = {
            let worker = &mut self.workers[shard];
            worker.alive = false;
            worker.ready = false;
            worker.sink = None;
            worker.credits = 0;
            std::mem::take(&mut worker.outstanding)
        };
        let mut requeued = 0;
        for (key, lease) in leases {
            if !self.done.contains(&key) {
                self.pending.push_back(lease.cell);
                requeued += 1;
            }
        }
        self.reassigned += requeued;
        requeued
    }

    /// Re-queues every lease that expired unacknowledged. Removal from the
    /// lease table is what guarantees exactly one re-queue per expiry: the
    /// next expiry pass has nothing left to find.
    fn expire_leases(&mut self, now: Instant) {
        for shard in 0..self.workers.len() {
            let expired: Vec<String> = self.workers[shard]
                .outstanding
                .iter()
                .filter(|(_, lease)| lease.expires.is_some_and(|at| at <= now))
                .map(|(key, _)| key.clone())
                .collect();
            for key in expired {
                let Some(lease) = self.workers[shard].outstanding.remove(&key) else {
                    continue;
                };
                self.lease_expired += 1;
                if !self.done.contains(&key) {
                    self.pending.push_back(lease.cell);
                }
            }
        }
    }

    /// Answers outstanding `Request` credits with leases, round-robin
    /// across ready workers. Returns the shards whose sinks broke
    /// mid-assignment (their cell is back at the queue front; the caller
    /// owns their demise).
    fn serve(&mut self, now: Instant) -> Vec<usize> {
        let mut broken: Vec<usize> = Vec::new();
        let n = self.workers.len();
        loop {
            while matches!(self.pending.front(), Some(cell) if self.done.contains(&cell.key())) {
                self.pending.pop_front();
            }
            if self.pending.is_empty() {
                break;
            }
            let servable = |k: &usize| {
                let worker = &self.workers[*k];
                worker.alive
                    && worker.ready
                    && worker.credits > 0
                    && worker.sink.is_some()
                    && !broken.contains(k)
            };
            let Some(k) = (0..n).map(|i| (self.next_serve + i) % n).find(servable) else {
                break;
            };
            let Some(cell) = self.pending.pop_front() else {
                break;
            };
            match try_assign(&mut self.workers[k], &cell) {
                Ok(()) => {
                    let key = cell.key();
                    let expires = self.lease_timeout.map(|t| now + t);
                    self.workers[k]
                        .outstanding
                        .insert(key, Lease { cell, expires });
                    self.workers[k].credits -= 1;
                    self.next_serve = (k + 1) % n;
                }
                Err(_) => {
                    self.pending.push_front(cell);
                    broken.push(k);
                }
            }
        }
        broken
    }
}

/// What a worker's stdout reader forwards to the supervision loop.
enum Event {
    /// A parsed frame.
    Frame(WorkerFrame),
    /// An unparseable line — protocol corruption, the worker is untrusted
    /// from here on.
    Corrupt(String),
    /// The worker's stdout closed: it exited or crashed.
    Eof,
}

/// Drains one worker incarnation's stdout into the event channel, tagging
/// every event with the incarnation's generation so the supervision loop
/// can discard stragglers from replaced workers.
fn reader_loop(
    stdout: ChildStdout,
    shard: usize,
    generation: u64,
    tx: mpsc::Sender<(usize, u64, Event)>,
) {
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let event = match parse_frame::<WorkerFrame>(&line) {
            Ok(frame) => Event::Frame(frame),
            Err(e) => Event::Corrupt(e.to_string()),
        };
        let corrupt = matches!(event, Event::Corrupt(_));
        if tx.send((shard, generation, event)).is_err() || corrupt {
            return;
        }
    }
    let _ = tx.send((shard, generation, Event::Eof));
}

/// Collects the keys already durable in `path`, if it exists. A store that
/// exists but fails validation is a hard error — fleeting past corruption
/// would burn cycles re-measuring cells that merge would then refuse.
fn known_keys(path: &Path, known: &mut BTreeSet<String>) -> Result<()> {
    if !path.exists() {
        return Ok(());
    }
    let store = ResultStore::open(path).map_err(FleetError::from)?;
    for record in store.records() {
        known.insert(record.key.clone());
    }
    Ok(())
}

/// Builds the argv for one worker process.
fn worker_command(config: &FleetConfig, store: &Path, shard: usize) -> Result<Command> {
    let mut cmd = match &config.worker_command {
        Some(argv) => {
            let Some((head, tail)) = argv.split_first() else {
                return Err(FleetError::config("worker command must not be empty"));
            };
            let mut cmd = Command::new(head);
            cmd.args(tail);
            cmd
        }
        None => {
            let exe = std::env::current_exe()
                .map_err(|e| FleetError::io(format!("cannot locate own executable: {e}")))?;
            let mut cmd = Command::new(exe);
            cmd.args(["campaign", "worker"]);
            cmd
        }
    };
    cmd.arg("--store").arg(shard_store_path(store, shard));
    cmd.arg("--shard").arg(shard.to_string());
    if config.threads > 0 {
        cmd.arg("--threads").arg(config.threads.to_string());
    }
    if let Some(plan) = &config.faults {
        let shard_faults = plan.for_shard(shard);
        if !shard_faults.is_empty() {
            let json = serde_json::to_string(&shard_faults)
                .map_err(|e| FleetError::protocol(format!("cannot serialize faults: {e}")))?;
            cmd.arg("--faults").arg(json);
        }
    }
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    Ok(cmd)
}

/// Spawns one worker incarnation with piped stdio.
fn spawn_worker(
    config: &FleetConfig,
    store: &Path,
    shard: usize,
) -> Result<(Child, ChildStdin, ChildStdout)> {
    let mut child = worker_command(config, store, shard)?
        .spawn()
        .map_err(|e| FleetError::io(format!("cannot spawn worker {shard}: {e}")))?;
    match (child.stdin.take(), child.stdout.take()) {
        (Some(stdin), Some(stdout)) => Ok((child, stdin, stdout)),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(FleetError::io("worker stdio was not piped"))
        }
    }
}

/// Declares a worker incarnation dead: kills and reaps the child, re-queues
/// its leases, and schedules a supervised restart if the shard's budget
/// allows. Idempotent per incarnation (straggler events no-op).
fn note_worker_gone(
    scheduler: &mut Scheduler<ChildStdin>,
    children: &mut [Option<Child>],
    config: &FleetConfig,
    shard: usize,
    demise: Demise,
    now: Instant,
) {
    if !scheduler.workers[shard].alive {
        return;
    }
    if let Some(child) = children[shard].as_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    children[shard] = None;
    let requeued = scheduler.abandon(shard);
    let worker = &mut scheduler.workers[shard];
    worker.last_demise = Some(demise);
    let restarting = worker.restarts_used < config.restart_budget;
    if restarting {
        worker.restarts_used += 1;
        worker.restart_due =
            Some(now + restart_delay(config.restart_backoff, worker.restarts_used));
    }
    if config.progress {
        eprintln!(
            "fleet: worker {shard} {} owing {requeued} cell(s); {}",
            demise.describe(),
            if restarting {
                "restart scheduled"
            } else {
                "restart budget spent, re-assigning"
            }
        );
    }
}

/// Runs a campaign across a self-healing fleet of local worker processes,
/// each appending to its own shard store next to `store`. Finish with
/// [`ResultStore::merge`] (`repro campaign merge`) to fold the shards into
/// `store` itself.
///
/// # Errors
///
/// [`FleetError::SpecRejected`] when `campaign check` reports warnings —
/// the coordinator refuses to fan a questionable sweep out across
/// processes. [`FleetError::Worker`] when a worker reports a cell that
/// cannot run, [`FleetError::NoSurvivors`] when every worker dies (restart
/// budgets spent) with cells still owed, [`FleetError::NeverReady`] when
/// the fleet dies and some worker never produced a single frame,
/// [`FleetError::Io`]/[`FleetError::Config`] for spawn and configuration
/// problems. Whatever completed before an error remains durable in the
/// shard stores; rerunning resumes.
pub fn run_fleet(spec: &CampaignSpec, store: &Path, config: &FleetConfig) -> Result<FleetReport> {
    if config.workers == 0 {
        return Err(FleetError::config("a fleet needs at least one worker"));
    }
    let report = check(spec).map_err(FleetError::from)?;
    if !report.is_clean() {
        return Err(FleetError::SpecRejected {
            warnings: report.warnings.iter().map(|w| w.message.clone()).collect(),
        });
    }

    let cells = spec.expand().map_err(FleetError::from)?;
    let total = cells.len();
    let mut known = BTreeSet::new();
    known_keys(store, &mut known)?;
    for shard in 0..config.workers {
        known_keys(&shard_store_path(store, shard), &mut known)?;
    }
    let pending: Vec<CellSpec> = cells
        .into_iter()
        .filter(|cell| !known.contains(&cell.key()))
        .collect();
    let skipped = total - pending.len();
    if pending.is_empty() {
        return Ok(FleetReport {
            total,
            skipped,
            ..FleetReport::default()
        });
    }

    let worker_count = config.workers.min(pending.len());
    let pending_count = pending.len();
    let mut scheduler: Scheduler<ChildStdin> = Scheduler::new(pending, config.lease_timeout);
    let mut children: Vec<Option<Child>> = Vec::with_capacity(worker_count);
    let mut stdouts: Vec<(usize, ChildStdout)> = Vec::with_capacity(worker_count);
    for shard in 0..worker_count {
        match spawn_worker(config, store, shard) {
            Ok((child, stdin, stdout)) => {
                children.push(Some(child));
                scheduler.workers.push(WorkerState::new(stdin));
                stdouts.push((shard, stdout));
            }
            Err(e) => {
                // Reap whatever already launched before reporting.
                for child in children.iter_mut().flatten() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(e);
            }
        }
    }

    let mut restarted = 0usize;
    let mut failure: Option<FleetError> = None;

    std::thread::scope(|scope| {
        // Readers first: each worker's stdout is drained into the event
        // channel before any assignment is written, so neither side can
        // block the other on a full pipe. The sender stays alive for the
        // whole scope — liveness is decided by explicit supervision state,
        // not channel disconnection.
        let (tx, rx) = mpsc::channel::<(usize, u64, Event)>();
        for (shard, stdout) in stdouts {
            let tx = tx.clone();
            scope.spawn(move || reader_loop(stdout, shard, 0, tx));
        }

        while failure.is_none() && !scheduler.finished() {
            let now = Instant::now();

            // Respawn workers whose backoff has elapsed.
            let due: Vec<usize> = scheduler
                .workers
                .iter_mut()
                .enumerate()
                .filter(|(_, worker)| worker.restart_due.is_some_and(|due| due <= now))
                .map(|(shard, worker)| {
                    worker.restart_due = None;
                    shard
                })
                .collect();
            for shard in due {
                match spawn_worker(config, store, shard) {
                    Ok((child, stdin, stdout)) => {
                        children[shard] = Some(child);
                        let worker = &mut scheduler.workers[shard];
                        worker.sink = Some(stdin);
                        worker.alive = true;
                        worker.ready = false;
                        worker.credits = 0;
                        worker.generation += 1;
                        worker.spawned_at = now;
                        worker.last_heard = now;
                        let generation = worker.generation;
                        restarted += 1;
                        if config.progress {
                            eprintln!(
                                "fleet: worker {shard} restarted (attempt {}/{})",
                                worker.restarts_used, config.restart_budget
                            );
                        }
                        let tx = tx.clone();
                        scope.spawn(move || reader_loop(stdout, shard, generation, tx));
                    }
                    Err(e) => {
                        // A failed respawn is another demise: burn more
                        // budget on a later attempt, or degrade to plain
                        // re-assignment.
                        if config.progress {
                            eprintln!("fleet: worker {shard} failed to respawn: {e}");
                        }
                        let worker = &mut scheduler.workers[shard];
                        if worker.restarts_used < config.restart_budget {
                            worker.restarts_used += 1;
                            worker.restart_due = Some(
                                now + restart_delay(config.restart_backoff, worker.restarts_used),
                            );
                        }
                    }
                }
            }

            scheduler.expire_leases(now);
            for shard in scheduler.serve(now) {
                note_worker_gone(
                    &mut scheduler,
                    &mut children,
                    config,
                    shard,
                    Demise::Exited,
                    now,
                );
            }

            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok((shard, generation, event)) => {
                    if generation != scheduler.workers[shard].generation {
                        // A straggler from a replaced incarnation.
                        continue;
                    }
                    match event {
                        Event::Frame(frame) => {
                            scheduler.workers[shard].last_heard = Instant::now();
                            match frame {
                                WorkerFrame::Ready { resumed, .. } => {
                                    scheduler.workers[shard].ready = true;
                                    if config.progress && resumed > 0 {
                                        eprintln!(
                                            "fleet: worker {shard} resumed {resumed} durable \
                                             cell(s) from its shard store"
                                        );
                                    }
                                }
                                WorkerFrame::Request => scheduler.on_request(shard),
                                WorkerFrame::Done { key, .. } => {
                                    if scheduler.on_done(shard, &key) && config.progress {
                                        eprintln!(
                                            "fleet: {}/{pending_count} cells done ({} \
                                             re-assigned, {} lease(s) expired, {restarted} \
                                             restarted)",
                                            scheduler.completed,
                                            scheduler.reassigned,
                                            scheduler.lease_expired
                                        );
                                    }
                                }
                                WorkerFrame::Failed { key, reason } => {
                                    failure = Some(FleetError::worker(
                                        shard,
                                        format!("cell {key} cannot run: {reason}"),
                                    ));
                                }
                            }
                        }
                        Event::Corrupt(reason) => {
                            if config.progress {
                                eprintln!("fleet: worker {shard} stream corrupt: {reason}");
                            }
                            note_worker_gone(
                                &mut scheduler,
                                &mut children,
                                config,
                                shard,
                                Demise::CorruptStream,
                                now,
                            );
                        }
                        Event::Eof => {
                            note_worker_gone(
                                &mut scheduler,
                                &mut children,
                                config,
                                shard,
                                Demise::Exited,
                                now,
                            );
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {}
            }

            // Deadline sweeps: never-Ready and hung workers.
            let now = Instant::now();
            let queue_waiting = !scheduler.pending.is_empty();
            let mut doomed: Vec<(usize, Demise)> = Vec::new();
            for (shard, worker) in scheduler.workers.iter().enumerate() {
                if !worker.alive {
                    continue;
                }
                if !worker.ready {
                    if config
                        .ready_timeout
                        .is_some_and(|t| now.duration_since(worker.spawned_at) > t)
                    {
                        doomed.push((shard, Demise::NeverReady));
                    }
                    continue;
                }
                if let Some(timeout) = config.hang_timeout {
                    let silent = now.duration_since(worker.last_heard) > timeout;
                    let owes = !worker.outstanding.is_empty();
                    // Ready but neither owing nor requesting while cells
                    // wait: the worker is wedged between cells.
                    let starving = queue_waiting && worker.credits == 0 && !owes;
                    if silent && (owes || starving) {
                        doomed.push((shard, Demise::Hung));
                    }
                }
            }
            for (shard, demise) in doomed {
                note_worker_gone(&mut scheduler, &mut children, config, shard, demise, now);
            }

            // Nobody alive, no restart in flight, cells still owed: done
            // for. NeverReady outranks the generic verdict because it names
            // the actionable shard (usually a broken worker command).
            if failure.is_none()
                && !scheduler.finished()
                && scheduler
                    .workers
                    .iter()
                    .all(|w| !w.alive && w.restart_due.is_none())
            {
                let unassigned = scheduler.unassigned();
                let never_ready = scheduler
                    .workers
                    .iter()
                    .position(|w| w.last_demise == Some(Demise::NeverReady));
                failure = Some(match never_ready {
                    Some(shard) => FleetError::NeverReady { shard, unassigned },
                    None => FleetError::NoSurvivors { unassigned },
                });
            }
        }

        // Shut down survivors: on success there is nothing left to assign,
        // on failure we abandon whatever is still queued. Dropping the sink
        // closes the worker's stdin, so even a worker that missed the
        // Shutdown frame exits on EOF; the readers then see stdout close
        // and the scope joins.
        for state in &mut scheduler.workers {
            if let Some(mut sink) = state.sink.take() {
                let _ = write_frame(&mut sink, &CoordinatorFrame::Shutdown);
            }
        }
        if failure.is_some() {
            // The fleet is being abandoned: kill inside the scope so every
            // reader sees EOF and the scope can join (a kill at worst
            // leaves a torn tail, which the stores repair on resume).
            for child in children.iter_mut().flatten() {
                let _ = child.kill();
            }
        }
    });

    for child in children.iter_mut().flatten() {
        let _ = child.wait();
    }

    match failure {
        Some(error) => Err(error),
        None => Ok(FleetReport {
            total,
            skipped,
            completed: scheduler.completed,
            reassigned: scheduler.reassigned,
            restarted,
            lease_expired: scheduler.lease_expired,
            workers: worker_count,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dradio_campaign::{CampaignRunner, RoundsRule, SweepGroup, TrialPolicy};
    use dradio_core::algorithms::GlobalAlgorithm;
    use dradio_scenario::{AdversarySpec, ProblemSpec, TopologySpec};

    fn small_campaign() -> CampaignSpec {
        CampaignSpec::named("fleet-test")
            .seed(9)
            .trials(TrialPolicy::Fixed(2))
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

    fn temp_store(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "dradio-fleet-coord-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// A worker state that has handshaken and requested `credits` cells.
    fn ready_worker<S: Write>(sink: S, credits: usize) -> WorkerState<S> {
        let mut worker = WorkerState::new(sink);
        worker.ready = true;
        worker.credits = credits;
        worker
    }

    #[test]
    fn shard_stores_sit_next_to_the_output_store() {
        assert_eq!(
            shard_store_path(Path::new("results/run.campaign.jsonl"), 0),
            Path::new("results/run.campaign.shard0.jsonl")
        );
        assert_eq!(
            shard_store_path(Path::new("plain"), 12),
            Path::new("plain.shard12.jsonl")
        );
    }

    #[test]
    fn restart_backoff_doubles_per_attempt_and_caps() {
        let base = Duration::from_millis(250);
        assert_eq!(restart_delay(base, 1), Duration::ZERO);
        assert_eq!(restart_delay(base, 2), Duration::from_millis(250));
        assert_eq!(restart_delay(base, 3), Duration::from_millis(500));
        assert_eq!(restart_delay(base, 4), Duration::from_millis(1_000));
        assert_eq!(restart_delay(base, 20), BACKOFF_CAP);
        assert_eq!(restart_delay(Duration::from_secs(4), 3), BACKOFF_CAP);
    }

    #[test]
    fn serving_answers_credits_round_robin_and_leases_each_cell() {
        let cells = small_campaign().expand().unwrap();
        let now = Instant::now();
        let mut sched: Scheduler<Vec<u8>> = Scheduler::new(cells.clone(), None);
        for _ in 0..3 {
            sched.workers.push(ready_worker(Vec::new(), 1));
        }
        assert!(sched.serve(now).is_empty());
        // One credit each: cells 0..3 land round-robin, cell 3 waits.
        for (k, cell) in cells.iter().enumerate().take(3) {
            assert!(sched.workers[k].outstanding.contains_key(&cell.key()));
            assert_eq!(sched.workers[k].credits, 0);
        }
        assert_eq!(sched.pending.len(), 1);

        // The next Request gets the queued cell; the wire carries exactly
        // the assigned cells, in order.
        sched.on_request(0);
        assert!(sched.serve(now).is_empty());
        assert!(sched.workers[0].outstanding.contains_key(&cells[3].key()));
        let wire = String::from_utf8(sched.workers[0].sink.clone().unwrap()).unwrap();
        let assigned: Vec<CoordinatorFrame> =
            wire.lines().map(|l| parse_frame(l).unwrap()).collect();
        assert_eq!(
            assigned,
            vec![
                CoordinatorFrame::Assign {
                    cell: cells[0].clone()
                },
                CoordinatorFrame::Assign {
                    cell: cells[3].clone()
                },
            ]
        );
    }

    /// A sink that fails every write, like the stdin of a dead child.
    struct BrokenPipe;
    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "worker is gone",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Adapts the two sink shapes into one slice element type.
    enum TestSink {
        Ok(Vec<u8>),
        Broken(BrokenPipe),
    }
    impl Write for TestSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self {
                TestSink::Ok(v) => v.write(buf),
                TestSink::Broken(b) => b.write(buf),
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn broken_sinks_are_reported_and_the_survivors_absorb_the_queue() {
        let cells = small_campaign().expand().unwrap();
        let mut sched: Scheduler<TestSink> = Scheduler::new(cells.clone(), None);
        sched
            .workers
            .push(ready_worker(TestSink::Broken(BrokenPipe), 4));
        sched
            .workers
            .push(ready_worker(TestSink::Ok(Vec::new()), 4));
        let broken = sched.serve(Instant::now());
        assert_eq!(broken, vec![0], "the broken worker is handed back");
        assert_eq!(
            sched.workers[1].outstanding.len(),
            cells.len(),
            "the survivor absorbs everything"
        );
        assert!(sched.pending.is_empty());
    }

    #[test]
    fn abandoning_a_worker_requeues_only_unacknowledged_cells() {
        let cells = small_campaign().expand().unwrap();
        let mut sched: Scheduler<Vec<u8>> = Scheduler::new(cells.clone(), None);
        sched.workers.push(ready_worker(Vec::new(), 4));
        assert!(sched.serve(Instant::now()).is_empty());
        assert!(sched.on_done(0, &cells[0].key()));
        let requeued = sched.abandon(0);
        assert_eq!(requeued, 3, "the acknowledged cell stays done");
        assert_eq!(sched.reassigned, 3);
        assert_eq!(sched.pending.len(), 3);
        assert!(!sched.workers[0].alive);
        assert_eq!(sched.completed, 1);
    }

    #[test]
    fn lease_expiry_requeues_exactly_once_per_expiry() {
        let cells = small_campaign().expand().unwrap();
        let now = Instant::now();
        let mut sched: Scheduler<Vec<u8>> = Scheduler::new(cells.clone(), Some(Duration::ZERO));
        sched.workers.push(ready_worker(Vec::new(), 4));
        assert!(sched.serve(now).is_empty());
        assert_eq!(sched.workers[0].outstanding.len(), 4);

        // Zero-length leases are expired the moment they are checked.
        sched.expire_leases(now);
        assert_eq!(sched.lease_expired, 4);
        assert_eq!(sched.pending.len(), 4, "each expiry re-queues its cell");
        assert!(sched.workers[0].outstanding.is_empty());

        // A second sweep finds nothing: one re-queue per expiry, not per
        // sweep.
        sched.expire_leases(now);
        assert_eq!(sched.lease_expired, 4);
        assert_eq!(sched.pending.len(), 4);
    }

    #[test]
    fn a_late_ack_after_expiry_supersedes_the_requeued_twin() {
        let cells = small_campaign().expand().unwrap();
        let now = Instant::now();
        let mut sched: Scheduler<Vec<u8>> = Scheduler::new(cells.clone(), Some(Duration::ZERO));
        sched.workers.push(ready_worker(Vec::new(), 4));
        assert!(sched.serve(now).is_empty());
        sched.expire_leases(now);
        assert_eq!(sched.pending.len(), 4);

        // The slow worker finishes anyway: the cell is durable in its
        // shard, so the queued twin is dropped and progress counts once.
        assert!(sched.on_done(0, &cells[0].key()));
        assert!(!sched.on_done(0, &cells[0].key()), "acks are idempotent");
        assert_eq!(sched.completed, 1);
        assert_eq!(sched.pending.len(), 3);
        assert!(!sched.finished());
        for cell in &cells[1..] {
            assert!(sched.on_done(0, &cell.key()));
        }
        assert!(sched.finished());
        assert_eq!(sched.unassigned(), 0);
    }

    #[test]
    fn zero_workers_is_a_config_error() {
        let err = run_fleet(
            &small_campaign(),
            Path::new("unused.jsonl"),
            &FleetConfig {
                workers: 0,
                ..FleetConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::Config { .. }), "{err}");
    }

    #[test]
    fn a_spec_that_fails_check_is_refused_before_any_spawn() {
        // Duplicated groups make `campaign check` warn; the bogus worker
        // command would fail loudly if the coordinator tried to spawn.
        let dup = small_campaign().group(
            SweepGroup::product(
                vec![TopologySpec::Clique { n: 8 }],
                vec![GlobalAlgorithm::Bgi.into()],
                vec![AdversarySpec::StaticNone],
                vec![ProblemSpec::GlobalFrom(0)],
            )
            .rounds(RoundsRule::Fixed(2_000)),
        );
        let err = run_fleet(
            &dup,
            Path::new("unused.jsonl"),
            &FleetConfig {
                worker_command: Some(vec!["/nonexistent-worker".into()]),
                ..FleetConfig::default()
            },
        )
        .unwrap_err();
        let FleetError::SpecRejected { warnings } = err else {
            panic!("want SpecRejected, got {err}");
        };
        assert!(!warnings.is_empty());
    }

    #[test]
    fn a_complete_store_launches_no_workers() {
        let campaign = small_campaign();
        let path = temp_store("complete");
        let reference = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        let mut bytes = Vec::new();
        for record in reference.records() {
            bytes.extend_from_slice(serde_json::to_string(record).unwrap().as_bytes());
            bytes.push(b'\n');
        }
        std::fs::write(&path, bytes).unwrap();

        let report = run_fleet(
            &campaign,
            &path,
            &FleetConfig {
                // Spawning would explode; a complete store must not spawn.
                worker_command: Some(vec!["/nonexistent-worker".into()]),
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.total, 4);
        assert_eq!(report.skipped, 4);
        assert_eq!(report.workers, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn workers_that_never_handshake_fail_with_the_ready_deadline() {
        // `sh -c 'exec sleep 60'` ignores the appended shard flags, never
        // sends Ready, and never exits on its own (the exec makes kill()
        // reach the sleep itself, so its stdout closes). The old generic
        // hang_timeout cannot see this worker — it never owes a cell — so
        // the distinct spawn-to-Ready deadline must catch it, name the
        // shard, and fail once the (zero) restart budget is spent.
        let path = temp_store("never-ready");
        let err = run_fleet(
            &small_campaign(),
            &path,
            &FleetConfig {
                workers: 2,
                ready_timeout: Some(Duration::from_millis(300)),
                restart_budget: 0,
                worker_command: Some(vec!["sh".into(), "-c".into(), "exec sleep 60".into()]),
                ..FleetConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                FleetError::NeverReady {
                    shard: 0,
                    unassigned: 4
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
