//! Offline stand-in for the slice of `rayon` this workspace uses:
//! `(range).into_par_iter().map_init(init, f).collect::<Vec<_>>()`.
//!
//! Work really is fanned out across OS threads (one per available core,
//! capped by the job count) with dynamic self-scheduling over an atomic
//! index, and results are written back by index — so output order equals
//! input order regardless of scheduling, exactly like rayon's indexed
//! parallel iterators. `collect` returns only once every worker thread has
//! exited, thread-local destructors included.

#![forbid(unsafe_code)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Types convertible into a parallel iterator.
pub trait IntoParallelIterator {
    /// Element type.
    type Item;
    /// The parallel iterator produced.
    type Iter;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// A parallel iterator over a `Range<usize>`.
#[derive(Debug, Clone)]
pub struct ParRange {
    range: Range<usize>,
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

impl ParRange {
    /// Maps each index through `f` in parallel, threading a per-worker state
    /// created by `init` through every call that worker makes — rayon's
    /// `map_init`. Like rayon, `init` may be invoked more than once (here:
    /// exactly once per worker thread), so results must not depend on how
    /// indices are grouped onto states.
    pub fn map_init<S, T, INIT, F>(self, init: INIT, f: F) -> ParMapInit<INIT, F>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
        T: Send,
    {
        ParMapInit {
            range: self.range,
            init,
            f,
        }
    }
}

/// The result of [`ParRange::map_init`], awaiting a `collect`.
pub struct ParMapInit<INIT, F> {
    range: Range<usize>,
    init: INIT,
    f: F,
}

impl<INIT, F> ParMapInit<INIT, F> {
    /// Runs the map on every index, in parallel with one state per worker,
    /// and collects the results in index order.
    pub fn collect<S, T, C>(self) -> C
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
        T: Send,
        C: From<Vec<T>>,
    {
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        if len == 0 {
            return Vec::new().into();
        }
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(len);
        if threads <= 1 {
            let mut state = (self.init)();
            let out: Vec<T> = (start..self.range.end)
                .map(|i| (self.f)(&mut state, i))
                .collect();
            return out.into();
        }

        let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let init = &self.init;
        let f = &self.f;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = init();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= len {
                                break;
                            }
                            let value = f(&mut state, start + i);
                            *slots[i].lock().expect("no panics hold the slot lock") = Some(value);
                        }
                    })
                })
                .collect();
            // The scope alone waits only until each closure has returned;
            // joining waits until each thread has exited, its thread-local
            // destructors (allocator caches among them) included, so no
            // worker outlives the call that spawned it.
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        let out: Vec<T> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker threads joined")
                    .expect("every index was scheduled exactly once")
            })
            .collect();
        out.into()
    }
}

/// Mirrors `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    /// `map` as this workspace writes it: `map_init` with no state.
    fn par_map<T: Send>(range: std::ops::Range<usize>, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        range
            .into_par_iter()
            .map_init(|| (), |(), i| f(i))
            .collect()
    }

    #[test]
    fn collect_preserves_index_order() {
        let out = par_map(0..1000, |i| i * 2);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range_collects_empty() {
        let out = par_map(5..5, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = par_map(0..257, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn map_init_matches_map_and_reuses_state_per_worker() {
        let out: Vec<usize> = (0..500)
            .into_par_iter()
            .map_init(
                || 0usize,
                |calls, i| {
                    *calls += 1;
                    i * 3
                },
            )
            .collect();
        assert_eq!(out, (0..500).map(|i| i * 3).collect::<Vec<_>>());

        // Every index runs exactly once, summed across all worker states.
        let total = AtomicUsize::new(0);
        let _: Vec<()> = (0..257)
            .into_par_iter()
            .map_init(
                || (),
                |(), _| {
                    total.fetch_add(1, Ordering::Relaxed);
                },
            )
            .collect();
        assert_eq!(total.load(Ordering::Relaxed), 257);

        // Empty ranges never invoke init or f.
        let inits = AtomicUsize::new(0);
        let out: Vec<usize> = (5..5)
            .into_par_iter()
            .map_init(|| inits.fetch_add(1, Ordering::Relaxed), |_, i| i)
            .collect();
        assert!(out.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn work_spreads_across_threads_when_cores_allow() {
        let ids = par_map(0..64, |_| {
            // Give the scheduler a chance to interleave.
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        let distinct: HashSet<ThreadId> = ids.into_iter().collect();
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        if cores > 1 {
            assert!(
                distinct.len() > 1,
                "expected parallel execution on {cores} cores"
            );
        }
    }

    /// Counts the exits of the threads that touched [`EXIT_PROBE`].
    static EXITS: AtomicUsize = AtomicUsize::new(0);

    struct ExitProbe;

    impl Drop for ExitProbe {
        fn drop(&mut self) {
            // A slow teardown, like a thread handing back its allocator
            // cache, holds the thread open after its closure has returned.
            // Joining waits for it whatever its length; the delay only makes
            // a `collect` that returns without joining fail reliably.
            std::thread::sleep(std::time::Duration::from_millis(20));
            EXITS.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static EXIT_PROBE: ExitProbe = const { ExitProbe };
    }

    #[test]
    fn collect_returns_after_every_worker_has_exited() {
        let caller = std::thread::current().id();
        let workers = AtomicUsize::new(0);
        let out: Vec<usize> = (0..64)
            .into_par_iter()
            .map_init(
                || {
                    // Each spawned worker registers a thread-local destructor,
                    // which runs only when its thread exits.
                    if std::thread::current().id() != caller {
                        EXIT_PROBE.with(|_| {});
                        workers.fetch_add(1, Ordering::SeqCst);
                    }
                },
                |(), i| i,
            )
            .collect();
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(
            EXITS.load(Ordering::SeqCst),
            workers.load(Ordering::SeqCst),
            "every worker thread has exited when collect returns"
        );
    }
}
