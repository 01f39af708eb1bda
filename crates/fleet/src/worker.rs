//! The worker half of the fleet: pulls cells from the coordinator, appends
//! them to its own shard store, reports completions upstream.
//!
//! [`run_worker`] is generic over the transport (`BufRead` in, `Write`
//! out), so the whole loop is unit-testable in process; the `repro campaign
//! worker` subcommand binds it to stdin/stdout under a coordinator.
//!
//! # Concurrency shape
//!
//! A dedicated reader thread drains the inbound stream into an internal
//! queue no matter what the cell runners are doing — so the coordinator can
//! write assignments without ever blocking on a pipe the worker is too busy
//! to read (the classic parent/child pipe deadlock). `threads` cell-runner
//! threads pull from that queue, each announcing its idleness upstream with
//! a `Request` frame before blocking — the worker-pull half of the
//! scheduling protocol: the coordinator leases one cell per `Request`, so a
//! slow (or freshly restarted) worker simply requests less often. One
//! runner (the default) executes cells with each cell's trials fanned out
//! across cores, mirroring `CampaignRunner`'s sequential mode; more runners
//! execute cells concurrently with sequential trials per cell. Either way
//! each record's bytes are a pure function of its cell spec, so the shard
//! stores merge identically.
//!
//! # Durability ordering
//!
//! A cell is appended to the shard store **before** its `Done` frame is
//! written. A crash between the two makes the coordinator re-assign a cell
//! that is already durable — the re-run produces byte-identical records and
//! `campaign merge` deduplicates them — whereas the opposite order could
//! acknowledge work that never hit disk.
//!
//! # Fault injection
//!
//! [`WorkerConfig::faults`] arms a [`FaultPlan`](crate::FaultPlan) slice
//! for this shard: each [`WorkerFault`] fires right after the process's
//! n-th fresh append — kill, torn-tail-then-kill, hang, or a corrupted
//! frame — always inside the durable-but-unacknowledged window the
//! coordinator must recover from. Kill-class faults fire while the store
//! lock is held, so an injected tear can only ever reach the runner's own
//! just-appended (unacknowledged) line, never an acknowledged record.

use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use dradio_campaign::{execute_cell, CellSpec, ResultStore};

use crate::error::{FleetError, Result};
use crate::faults::{FaultKind, WorkerFault};
use crate::protocol::{parse_frame, write_frame, CoordinatorFrame, WorkerFrame};

/// The process exit code injected kills abort with — distinguishable from a
/// panic or a clean shutdown in CI logs.
pub const INJECTED_EXIT_CODE: i32 = 17;

/// The line a [`FaultKind::CorruptFrame`] fault emits in place of a `Done`
/// frame — deliberately unparseable, so the coordinator's corrupt-stream
/// path triggers.
pub const CORRUPT_FRAME_LINE: &[u8] = b"%%chaos:corrupt-frame%%\n";

/// How a worker runs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// This worker's shard index (echoed in the `Ready` handshake and used
    /// only for diagnostics — the store path is what actually isolates
    /// shards).
    pub shard: usize,
    /// The shard store this worker appends to.
    pub store: PathBuf,
    /// Cell-runner threads. `0` or `1`: cells in assignment order, trials
    /// parallel within each cell; `n > 1`: `n` cells concurrently, trials
    /// sequential per cell. Measurements are identical either way.
    pub threads: usize,
    /// The chaos faults armed for this shard (empty in real runs). Each
    /// fires once, right after this process's `after_cells`-th fresh
    /// append. Forwarded by the coordinator as `--faults`.
    pub faults: Vec<WorkerFault>,
}

/// What a [`run_worker`] call did, for the caller's diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// The shard index served.
    pub shard: usize,
    /// Records already in the shard store when it was opened.
    pub resumed: usize,
    /// Torn-tail bytes the store repaired (truncated) on open — nonzero
    /// exactly when the previous incarnation of this shard died mid-append.
    pub repaired_tail_bytes: usize,
    /// Cells executed and appended by this run.
    pub executed: usize,
    /// Assigned cells skipped because the shard store already held them.
    pub skipped: usize,
    /// Assigned cells that failed to build or run (reported upstream as
    /// `Failed`, the worker keeps serving).
    pub failed: usize,
}

/// The internal assignment queue between the reader thread and the cell
/// runners. Closing stops *new* cells from arriving; whatever is already
/// queued still drains, matching the protocol's `Shutdown` contract
/// (finish everything assigned, then exit).
#[derive(Debug, Default)]
struct AssignQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct QueueState {
    cells: VecDeque<CellSpec>,
    closed: bool,
}

impl AssignQueue {
    fn push(&self, cell: CellSpec) {
        let mut state = self.lock();
        if !state.closed {
            state.cells.push_back(cell);
        }
        drop(state);
        self.ready.notify_one();
    }

    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }

    /// Blocks for the next cell; `None` once the queue is closed *and*
    /// drained.
    fn pop(&self) -> Option<CellSpec> {
        let mut state = self.lock();
        loop {
            if let Some(cell) = state.cells.pop_front() {
                return Some(cell);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                // lint: allow(D4) -- queue users never panic while holding
                // the queue lock
                .expect("queue users do not poison the queue lock");
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state
            .lock()
            // lint: allow(D4) -- queue users never panic while holding the
            // queue lock
            .expect("queue users do not poison the queue lock")
    }
}

/// The fault armed to fire right after this process's `fresh`-th fresh
/// append, if any. At most one fault fires per trigger point; triggers are
/// per-process, so a restarted worker re-arms against its next fresh cell.
fn firing(faults: &[WorkerFault], fresh: usize) -> Option<&FaultKind> {
    faults
        .iter()
        .find(|f| f.after_cells == fresh)
        .map(|f| &f.kind)
}

/// Truncates `tear` bytes off the end of the shard store file — the
/// injected version of the torn tail a kill mid-append leaves behind.
/// Callers cap `tear` to the just-appended line and hold the store lock, so
/// the tear never destroys an acknowledged record.
fn tear_store_tail(path: &Path, tear: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    file.set_len(len.saturating_sub(tear))
}

/// Serves one worker session over the given transport: handshakes `Ready`,
/// pulls work with `Request` frames, executes `Assign`ed cells into the
/// shard store, and exits on `Shutdown` or end-of-stream.
///
/// # Errors
///
/// [`FleetError::Campaign`] if the shard store fails to open or append,
/// [`FleetError::Protocol`] on malformed inbound frames, [`FleetError::Io`]
/// when the outbound transport breaks. Per-cell execution failures are
/// *not* errors here — they are reported upstream as `Failed` frames and
/// counted in the report.
pub fn run_worker<R, W>(config: &WorkerConfig, input: R, output: W) -> Result<WorkerReport>
where
    R: BufRead + Send,
    W: Write + Send,
{
    let store = ResultStore::open(&config.store).map_err(FleetError::from)?;
    let resumed = store.len();
    let repaired_tail_bytes = store.repaired_tail_bytes();
    if repaired_tail_bytes > 0 {
        // The previous incarnation died mid-append; the store has already
        // truncated the torn line, resume re-measures that cell.
        eprintln!(
            "worker {}: repaired a torn shard-store tail ({repaired_tail_bytes} byte(s)) \
             before resuming",
            config.shard
        );
    }
    let mut output = output;
    write_frame(
        &mut output,
        &WorkerFrame::Ready {
            shard: config.shard,
            resumed,
        },
    )?;

    let output = Mutex::new(output);
    let store = Mutex::new(store);
    let queue = AssignQueue::default();
    let executed = AtomicUsize::new(0);
    let skipped = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let fatal: Mutex<Option<FleetError>> = Mutex::new(None);
    let threads = config.threads.max(1);
    let parallel_trials = threads == 1;

    std::thread::scope(|scope| {
        // The reader: drains the transport into the queue unconditionally,
        // so the coordinator's assignment writes never block on a busy
        // worker.
        {
            let queue = &queue;
            let fatal = &fatal;
            scope.spawn(move || {
                for line in input.lines() {
                    let line = match line {
                        Ok(line) => line,
                        Err(e) => {
                            set_fatal(fatal, FleetError::io(format!("cannot read frame: {e}")));
                            break;
                        }
                    };
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_frame::<CoordinatorFrame>(&line) {
                        Ok(CoordinatorFrame::Assign { cell }) => queue.push(cell),
                        Ok(CoordinatorFrame::Shutdown) => break,
                        Err(e) => {
                            set_fatal(fatal, e);
                            break;
                        }
                    }
                }
                // Shutdown, EOF, and transport errors all end the session.
                queue.close();
            });
        }

        for _ in 0..threads {
            let queue = &queue;
            let store = &store;
            let output = &output;
            let fatal = &fatal;
            let (executed, skipped, failed) = (&executed, &skipped, &failed);
            scope.spawn(move || {
                loop {
                    // Pull: announce this runner is idle, then block for the
                    // lease the coordinator answers with. Assignments queued
                    // without a matching Request (scripted tests, legacy
                    // coordinators) drain exactly the same way.
                    if let Err(e) = send_frame(output, &WorkerFrame::Request) {
                        set_fatal(fatal, e);
                        queue.close();
                        return;
                    }
                    let Some(cell) = queue.pop() else { return };
                    let key = cell.key();
                    let already = {
                        let store = lock_store(store);
                        store.get(&key).map(|record| record.trials_run)
                    };
                    let frame = if let Some(trials_run) = already {
                        // Resumed shard: the cell is already durable, just
                        // acknowledge it.
                        skipped.fetch_add(1, Ordering::Relaxed);
                        WorkerFrame::Done { key, trials_run }
                    } else {
                        match execute_cell(&cell, parallel_trials) {
                            Ok(record) => {
                                let trials_run = record.trials_run;
                                // The exact bytes append writes (line +
                                // newline): the cap that keeps an injected
                                // tear inside the unacknowledged record.
                                let line_len =
                                    serde_json::to_string(&record).map(|s| s.len() + 1).ok();
                                let fresh = {
                                    let mut store_guard = lock_store(store);
                                    if let Err(e) = store_guard.append(record) {
                                        set_fatal(fatal, FleetError::Campaign(e));
                                        queue.close();
                                        return;
                                    }
                                    let fresh = executed.fetch_add(1, Ordering::Relaxed) + 1;
                                    // Kill-class faults fire under the store
                                    // lock: the file tail is still this
                                    // runner's own unacknowledged line.
                                    match firing(&config.faults, fresh) {
                                        Some(FaultKind::Kill) => {
                                            std::process::exit(INJECTED_EXIT_CODE);
                                        }
                                        Some(FaultKind::TornTail { tear_bytes }) => {
                                            if let Some(len) = line_len {
                                                let tear = (*tear_bytes).clamp(1, len - 1);
                                                let _ = tear_store_tail(&config.store, tear as u64);
                                            }
                                            std::process::exit(INJECTED_EXIT_CODE);
                                        }
                                        _ => {}
                                    }
                                    fresh
                                };
                                match firing(&config.faults, fresh) {
                                    Some(FaultKind::Hang { millis }) => {
                                        // Go silent in the durable-but-
                                        // unacknowledged window; the
                                        // coordinator's hang_timeout decides
                                        // whether to outwait or kill us.
                                        std::thread::sleep(Duration::from_millis(*millis));
                                    }
                                    Some(FaultKind::CorruptFrame) => {
                                        // Garbage instead of the Done frame;
                                        // the coordinator kills and restarts
                                        // us, and the restarted incarnation
                                        // re-acknowledges the durable cell.
                                        let sent = {
                                            let mut output = lock_output(output);
                                            output
                                                .write_all(CORRUPT_FRAME_LINE)
                                                .and_then(|()| output.flush())
                                        };
                                        if sent.is_err() {
                                            return;
                                        }
                                        continue;
                                    }
                                    _ => {}
                                }
                                WorkerFrame::Done { key, trials_run }
                            }
                            Err(e) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                                WorkerFrame::Failed {
                                    key,
                                    reason: e.to_string(),
                                }
                            }
                        }
                    };
                    if let Err(e) = send_frame(output, &frame) {
                        set_fatal(fatal, e);
                        queue.close();
                        return;
                    }
                }
            });
        }
    });

    let fatal = fatal
        .into_inner()
        // lint: allow(D4) -- set_fatal cannot panic while holding the lock
        .expect("worker threads do not poison the fatal-error slot");
    match fatal {
        Some(error) => Err(error),
        None => Ok(WorkerReport {
            shard: config.shard,
            resumed,
            repaired_tail_bytes,
            executed: executed.into_inner(),
            skipped: skipped.into_inner(),
            failed: failed.into_inner(),
        }),
    }
}

/// Records the first fatal error; later ones (usually cascades of the
/// first) are dropped.
fn set_fatal(slot: &Mutex<Option<FleetError>>, error: FleetError) {
    let mut slot = slot
        .lock()
        // lint: allow(D4) -- the assignment below cannot panic
        .expect("worker threads do not poison the fatal-error slot");
    slot.get_or_insert(error);
}

fn lock_store(store: &Mutex<ResultStore>) -> std::sync::MutexGuard<'_, ResultStore> {
    store
        .lock()
        // lint: allow(D4) -- store users never panic while holding the
        // store lock
        .expect("store users do not poison the store lock")
}

fn lock_output<W: Write>(output: &Mutex<W>) -> std::sync::MutexGuard<'_, W> {
    output
        .lock()
        // lint: allow(D4) -- frame writers never panic while holding the
        // output lock
        .expect("frame writers do not poison the output lock")
}

/// Writes one frame under the output lock.
fn send_frame<W: Write>(output: &Mutex<W>, frame: &WorkerFrame) -> Result<()> {
    let mut output = lock_output(output);
    write_frame(&mut *output, frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dradio_campaign::{CampaignRunner, CampaignSpec, RoundsRule, SweepGroup, TrialPolicy};
    use dradio_core::algorithms::GlobalAlgorithm;
    use dradio_scenario::{AdversarySpec, ProblemSpec, TopologySpec};
    use std::io::Cursor;

    fn small_campaign() -> CampaignSpec {
        CampaignSpec::named("worker-test")
            .seed(5)
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
            "dradio-fleet-worker-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn config(store: PathBuf, threads: usize) -> WorkerConfig {
        WorkerConfig {
            shard: 3,
            store,
            threads,
            faults: Vec::new(),
        }
    }

    /// Serializes a script of coordinator frames into transport bytes.
    fn script(frames: &[CoordinatorFrame]) -> Vec<u8> {
        let mut wire = Vec::new();
        for frame in frames {
            write_frame(&mut wire, frame).unwrap();
        }
        wire
    }

    /// Parses the outbound wire, dropping the pull-scheduling `Request`
    /// frames (their count is runner/timing-dependent) so tests can assert
    /// on the meaningful Ready/Done/Failed sequence.
    fn output_frames(wire: &[u8]) -> Vec<WorkerFrame> {
        String::from_utf8(wire.to_vec())
            .unwrap()
            .lines()
            .map(|line| parse_frame(line).unwrap())
            .filter(|frame| *frame != WorkerFrame::Request)
            .collect()
    }

    #[test]
    fn a_worker_session_runs_assigned_cells_and_acknowledges_each() {
        let campaign = small_campaign();
        let cells = campaign.expand().unwrap();
        let path = temp_store("session");
        let mut input = vec![];
        for cell in &cells {
            input.push(CoordinatorFrame::Assign { cell: cell.clone() });
        }
        input.push(CoordinatorFrame::Shutdown);

        let mut wire = Vec::new();
        let report = run_worker(
            &config(path.clone(), 1),
            Cursor::new(script(&input)),
            &mut wire,
        )
        .unwrap();
        assert_eq!(report.shard, 3);
        assert_eq!(report.resumed, 0);
        assert_eq!(report.repaired_tail_bytes, 0);
        assert_eq!(report.executed, cells.len());
        assert_eq!(report.skipped, 0);
        assert_eq!(report.failed, 0);

        // Handshake first, then one Done per cell in assignment order.
        let frames = output_frames(&wire);
        assert_eq!(
            frames[0],
            WorkerFrame::Ready {
                shard: 3,
                resumed: 0
            }
        );
        for (frame, cell) in frames[1..].iter().zip(&cells) {
            assert_eq!(
                frame,
                &WorkerFrame::Done {
                    key: cell.key(),
                    trials_run: 2,
                }
            );
        }

        // The shard store holds exactly what a campaign run would: the
        // worker path and the single-process path agree byte-for-byte.
        let reference = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        let shard = ResultStore::open(&path).unwrap();
        assert_eq!(shard.records(), reference.records());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn idle_runners_announce_themselves_with_request_frames() {
        let campaign = small_campaign();
        let cell = campaign.expand().unwrap()[0].clone();
        let path = temp_store("request");
        let mut wire = Vec::new();
        run_worker(
            &config(path.clone(), 1),
            Cursor::new(script(&[
                CoordinatorFrame::Assign { cell },
                CoordinatorFrame::Shutdown,
            ])),
            &mut wire,
        )
        .unwrap();
        let raw: Vec<WorkerFrame> = String::from_utf8(wire)
            .unwrap()
            .lines()
            .map(|line| parse_frame(line).unwrap())
            .collect();
        assert!(
            matches!(raw[0], WorkerFrame::Ready { .. }),
            "handshake first: {raw:?}"
        );
        assert_eq!(
            raw[1],
            WorkerFrame::Request,
            "the runner requests before its first pop: {raw:?}"
        );
        assert!(
            raw.iter().any(|f| matches!(f, WorkerFrame::Done { .. })),
            "{raw:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumed_shards_skip_durable_cells_but_still_acknowledge() {
        let campaign = small_campaign();
        let cells = campaign.expand().unwrap();
        let path = temp_store("resume");
        let mut input = vec![];
        for cell in &cells {
            input.push(CoordinatorFrame::Assign { cell: cell.clone() });
        }
        input.push(CoordinatorFrame::Shutdown);
        let wire_script = script(&input);

        run_worker(
            &config(path.clone(), 1),
            Cursor::new(wire_script.clone()),
            Vec::new(),
        )
        .unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Same session again: everything is already durable.
        let mut wire = Vec::new();
        let report = run_worker(
            &config(path.clone(), 1),
            Cursor::new(wire_script),
            &mut wire,
        )
        .unwrap();
        assert_eq!(report.resumed, cells.len());
        assert_eq!(report.executed, 0);
        assert_eq!(report.skipped, cells.len());
        let frames = output_frames(&wire);
        assert_eq!(
            frames[0],
            WorkerFrame::Ready {
                shard: 3,
                resumed: cells.len(),
            }
        );
        assert_eq!(frames.len(), 1 + cells.len(), "every skip is acknowledged");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "no re-appends");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_shard_tail_is_repaired_and_reported_on_resume() {
        let campaign = small_campaign();
        let cells = campaign.expand().unwrap();
        let path = temp_store("torn-resume");
        let mut input = vec![];
        for cell in &cells {
            input.push(CoordinatorFrame::Assign { cell: cell.clone() });
        }
        input.push(CoordinatorFrame::Shutdown);
        let wire_script = script(&input);
        run_worker(
            &config(path.clone(), 1),
            Cursor::new(wire_script.clone()),
            Vec::new(),
        )
        .unwrap();
        let full = std::fs::read(&path).unwrap();

        // Tear 17 bytes off the final line, as a kill mid-append would.
        tear_store_tail(&path, 17).unwrap();
        let report = run_worker(
            &config(path.clone(), 1),
            Cursor::new(wire_script),
            Vec::new(),
        )
        .unwrap();
        assert!(report.repaired_tail_bytes > 0, "{report:?}");
        assert_eq!(report.resumed, cells.len() - 1);
        assert_eq!(report.executed, 1, "only the torn cell re-runs");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            full,
            "repair + re-run reproduces the untorn bytes"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_corrupt_frame_fault_garbles_the_ack_but_not_the_store() {
        let campaign = small_campaign();
        let cells = campaign.expand().unwrap();
        let path = temp_store("corrupt-fault");
        let mut cfg = config(path.clone(), 1);
        cfg.faults = vec![WorkerFault {
            shard: cfg.shard,
            after_cells: 1,
            kind: FaultKind::CorruptFrame,
        }];
        let mut input = vec![];
        for cell in &cells[..2] {
            input.push(CoordinatorFrame::Assign { cell: cell.clone() });
        }
        input.push(CoordinatorFrame::Shutdown);

        let mut wire = Vec::new();
        let report = run_worker(&cfg, Cursor::new(script(&input)), &mut wire).unwrap();
        assert_eq!(report.executed, 2, "the worker keeps serving after chaos");

        let text = String::from_utf8(wire).unwrap();
        assert!(
            text.contains("%%chaos:corrupt-frame%%"),
            "the garbage line replaces the first Done: {text}"
        );
        let dones = text
            .lines()
            .filter_map(|l| parse_frame::<WorkerFrame>(l).ok())
            .filter(|f| matches!(f, WorkerFrame::Done { .. }))
            .count();
        assert_eq!(dones, 1, "only the second cell is acknowledged: {text}");
        // Both cells are durable regardless: the store never lies.
        let shard = ResultStore::open(&path).unwrap();
        assert_eq!(shard.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_hang_fault_delays_but_still_acknowledges() {
        let campaign = small_campaign();
        let cell = campaign.expand().unwrap()[0].clone();
        let path = temp_store("hang-fault");
        let mut cfg = config(path.clone(), 1);
        cfg.faults = vec![WorkerFault {
            shard: cfg.shard,
            after_cells: 1,
            kind: FaultKind::Hang { millis: 20 },
        }];
        let mut wire = Vec::new();
        let report = run_worker(
            &cfg,
            Cursor::new(script(&[
                CoordinatorFrame::Assign { cell: cell.clone() },
                CoordinatorFrame::Shutdown,
            ])),
            &mut wire,
        )
        .unwrap();
        assert_eq!(report.executed, 1);
        let frames = output_frames(&wire);
        assert!(
            matches!(&frames[1], WorkerFrame::Done { key, .. } if key == &cell.key()),
            "{frames:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tear_store_tail_clamps_to_the_requested_bytes() {
        let path = temp_store("tear");
        std::fs::write(&path, b"0123456789").unwrap();
        tear_store_tail(&path, 4).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"012345");
        // Over-tearing empties the file rather than erroring.
        tear_store_tail(&path, 100).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failing_cells_report_failed_and_the_worker_keeps_serving() {
        // GlobalFrom(99) on an 8-node clique cannot build; the next
        // assignment must still run.
        let campaign = small_campaign();
        let good = campaign.expand().unwrap()[0].clone();
        let mut bad = good.clone();
        bad.scenario.problem = ProblemSpec::GlobalFrom(99);

        let path = temp_store("failing");
        let mut wire = Vec::new();
        let report = run_worker(
            &config(path.clone(), 1),
            Cursor::new(script(&[
                CoordinatorFrame::Assign { cell: bad.clone() },
                CoordinatorFrame::Assign { cell: good.clone() },
                CoordinatorFrame::Shutdown,
            ])),
            &mut wire,
        )
        .unwrap();
        assert_eq!(report.failed, 1);
        assert_eq!(report.executed, 1);
        let frames = output_frames(&wire);
        assert!(
            matches!(&frames[1], WorkerFrame::Failed { key, .. } if key == &bad.key()),
            "{frames:?}"
        );
        assert!(
            matches!(&frames[2], WorkerFrame::Done { key, .. } if key == &good.key()),
            "{frames:?}"
        );
        let shard = ResultStore::open(&path).unwrap();
        assert_eq!(shard.len(), 1, "only the good cell is durable");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn end_of_stream_without_shutdown_ends_the_session_cleanly() {
        // A vanished coordinator (EOF on the transport) must not wedge the
        // worker: it finishes and exits as if shut down.
        let campaign = small_campaign();
        let cell = campaign.expand().unwrap()[0].clone();
        let path = temp_store("eof");
        let report = run_worker(
            &config(path.clone(), 1),
            Cursor::new(script(&[CoordinatorFrame::Assign { cell }])),
            Vec::new(),
        )
        .unwrap();
        assert_eq!(report.executed, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multi_threaded_workers_store_the_same_records_in_some_order() {
        let campaign = small_campaign();
        let cells = campaign.expand().unwrap();
        let path = temp_store("threads");
        let mut input = vec![];
        for cell in &cells {
            input.push(CoordinatorFrame::Assign { cell: cell.clone() });
        }
        input.push(CoordinatorFrame::Shutdown);

        let report = run_worker(
            &config(path.clone(), 4),
            Cursor::new(script(&input)),
            Vec::new(),
        )
        .unwrap();
        assert_eq!(report.executed, cells.len());

        // Append order is scheduling-dependent, record content is not: the
        // key set and each record's bytes match the single-process run
        // (merge re-establishes expansion order).
        let reference = CampaignRunner::new(&campaign).run_in_memory().unwrap();
        let shard = ResultStore::open(&path).unwrap();
        assert_eq!(shard.len(), reference.len());
        for record in reference.records() {
            assert_eq!(shard.get(&record.key), Some(record));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_inbound_frames_are_fatal() {
        let path = temp_store("malformed");
        let err = run_worker(
            &config(path.clone(), 1),
            Cursor::new(b"this is not a frame\n".to_vec()),
            Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::Protocol { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
