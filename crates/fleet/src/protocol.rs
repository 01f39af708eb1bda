//! The coordinator ↔ worker wire protocol: line-delimited JSON frames.
//!
//! One frame per line, serialized with the workspace serde (externally
//! tagged enums, the exact layout the result store already pins), written
//! newline-included in a single call and flushed immediately. The transport
//! is deliberately minimal — any ordered byte stream carries it, so the
//! process-pipe transport the coordinator uses today (worker stdin/stdout)
//! can be swapped for a socket without touching a frame.
//!
//! The conversation:
//!
//! ```text
//! worker  -> Ready { shard, resumed }          (once, on startup)
//! worker  -> Request                           (one per idle cell runner)
//! coord   -> Assign { cell }                   (answers a Request; leased)
//! worker  -> Done { key, trials_run }          (one per finished cell)
//! worker  -> Failed { key, reason }            (cell could not run)
//! coord   -> Shutdown                          (drain and exit)
//! ```
//!
//! Scheduling is worker-pull: the coordinator holds the pending queue and
//! answers each `Request` with one `Assign`, so heterogeneous (or freshly
//! restarted) workers drain cells at their own rate instead of receiving a
//! fixed `i mod N` shard up front.
//!
//! Workers append each measured cell to their shard store **before**
//! emitting its `Done`, so the coordinator's knowledge is conservative: a
//! worker that crashes between append and `Done` gets the cell re-assigned,
//! the second copy is byte-identical, and `campaign merge` deduplicates it.

use std::io::Write;

use dradio_campaign::CellSpec;
use serde::{Deserialize, Serialize};

use crate::error::{FleetError, Result};

/// A frame the coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorFrame {
    /// Run this cell and report back.
    Assign {
        /// The cell to measure.
        cell: CellSpec,
    },
    /// No more work is coming: finish anything queued and exit cleanly.
    Shutdown,
}

serde::serde_enum!(CoordinatorFrame {
    Assign { cell: CellSpec },
    Shutdown,
});

/// A frame a worker sends to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFrame {
    /// Startup handshake: the worker's shard index and how many records its
    /// shard store already held (a resumed fleet run).
    Ready {
        /// The worker's shard index.
        shard: usize,
        /// Records already present in the shard store on open.
        resumed: usize,
    },
    /// One cell runner is idle: the coordinator should answer with an
    /// `Assign` (or nothing, if the pending queue is dry — `Shutdown`
    /// eventually follows). The shard is implied by the transport.
    Request,
    /// A cell is measured and durably appended to the shard store.
    Done {
        /// The cell's content-hash key.
        key: String,
        /// Trials the stored measurement aggregates.
        trials_run: usize,
    },
    /// A cell failed to build or run; the worker stays alive for other
    /// cells, the coordinator decides whether to abort the fleet.
    Failed {
        /// The cell's content-hash key.
        key: String,
        /// Human-readable failure description.
        reason: String,
    },
}

serde::serde_enum!(WorkerFrame {
    Ready { shard: usize, resumed: usize },
    Request,
    Done { key: String, trials_run: usize },
    Failed { key: String, reason: String },
});

/// Writes one frame as a JSON line (newline included, single write call)
/// and flushes, so the peer sees it immediately.
///
/// # Errors
///
/// [`FleetError::Protocol`] if the frame fails to serialize,
/// [`FleetError::Io`] if the transport write fails (a vanished peer).
pub fn write_frame<W: Write, T: Serialize>(writer: &mut W, frame: &T) -> Result<()> {
    let mut line = serde_json::to_string(frame)
        .map_err(|e| FleetError::protocol(format!("cannot serialize frame: {e}")))?;
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| FleetError::io(format!("cannot write frame: {e}")))
}

/// Parses one received line as a frame.
///
/// # Errors
///
/// [`FleetError::Protocol`] when the line is not a valid frame — the peers
/// are release-locked halves of one binary, so this is a bug or a corrupted
/// transport, never something to retry.
pub fn parse_frame<T: Deserialize>(line: &str) -> Result<T> {
    serde_json::from_str(line.trim_end_matches('\n'))
        .map_err(|e| FleetError::protocol(format!("malformed frame {line:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dradio_campaign::TrialPolicy;
    use dradio_core::algorithms::GlobalAlgorithm;
    use dradio_scenario::{AdversarySpec, ProblemSpec, RecordMode, ScenarioSpec, TopologySpec};

    fn sample_cell() -> CellSpec {
        CellSpec {
            scenario: ScenarioSpec {
                topology: TopologySpec::Clique { n: 4 },
                algorithm: GlobalAlgorithm::Bgi.into(),
                adversary: AdversarySpec::StaticNone,
                problem: ProblemSpec::GlobalFrom(0),
                seed: 1,
                max_rounds: Some(64),
                collision_detection: false,
            },
            trials: TrialPolicy::Fixed(1),
            record_mode: RecordMode::None,
            curve: false,
        }
    }

    #[test]
    fn coordinator_frames_pin_their_wire_bytes() {
        let cell = sample_cell();
        let assign = CoordinatorFrame::Assign { cell: cell.clone() };
        // The envelope is pinned here; the embedded CellSpec bytes are
        // pinned by the campaign spec's own registry entries.
        assert_eq!(
            serde_json::to_string(&assign).unwrap(),
            format!(
                "{{\"Assign\":{{\"cell\":{}}}}}",
                serde_json::to_string(&cell).unwrap()
            )
        );
        assert_eq!(
            serde_json::to_string(&CoordinatorFrame::Shutdown).unwrap(),
            "\"Shutdown\""
        );
        for frame in [assign, CoordinatorFrame::Shutdown] {
            let line = serde_json::to_string(&frame).unwrap();
            assert_eq!(parse_frame::<CoordinatorFrame>(&line).unwrap(), frame);
        }
    }

    #[test]
    fn worker_frames_pin_their_wire_bytes() {
        let cases = [
            (
                WorkerFrame::Ready {
                    shard: 2,
                    resumed: 3,
                },
                r#"{"Ready":{"shard":2,"resumed":3}}"#,
            ),
            (WorkerFrame::Request, r#""Request""#),
            (
                WorkerFrame::Done {
                    key: "00ff".into(),
                    trials_run: 8,
                },
                r#"{"Done":{"key":"00ff","trials_run":8}}"#,
            ),
            (
                WorkerFrame::Failed {
                    key: "00ff".into(),
                    reason: "bad topology".into(),
                },
                r#"{"Failed":{"key":"00ff","reason":"bad topology"}}"#,
            ),
        ];
        for (frame, bytes) in cases {
            assert_eq!(serde_json::to_string(&frame).unwrap(), bytes);
            assert_eq!(parse_frame::<WorkerFrame>(bytes).unwrap(), frame);
        }
    }

    #[test]
    fn frames_stream_one_per_line_and_flush() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &CoordinatorFrame::Assign {
                cell: sample_cell(),
            },
        )
        .unwrap();
        write_frame(&mut wire, &CoordinatorFrame::Shutdown).unwrap();
        let text = String::from_utf8(wire).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(matches!(
            parse_frame::<CoordinatorFrame>(lines[0]).unwrap(),
            CoordinatorFrame::Assign { .. }
        ));
        assert_eq!(
            parse_frame::<CoordinatorFrame>(lines[1]).unwrap(),
            CoordinatorFrame::Shutdown
        );
    }

    #[test]
    fn malformed_frames_are_protocol_errors() {
        let err = parse_frame::<WorkerFrame>("not json").unwrap_err();
        assert!(matches!(err, FleetError::Protocol { .. }), "{err}");
        let err = parse_frame::<WorkerFrame>(r#"{"Unknown":{}}"#).unwrap_err();
        assert!(err.to_string().contains("malformed frame"), "{err}");
    }
}
