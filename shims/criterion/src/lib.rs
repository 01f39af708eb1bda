//! Offline stand-in for the slice of `criterion` this workspace's benches
//! use: `criterion_group!` / `criterion_main!`, benchmark groups,
//! `bench_with_input`, and `Bencher::iter`.
//!
//! Timing is a plain wall-clock mean over `sample_size` runs after one
//! warm-up run — adequate for spotting order-of-magnitude regressions in the
//! simulation workloads, with none of the real crate's statistics, plotting
//! or comparison machinery.

#![forbid(unsafe_code)]

use std::fmt;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// An opaque barrier preventing the optimizer from deleting a computation.
pub fn black_box<T>(value: T) -> T {
    std_black_box(value)
}

/// Identifies one benchmark within a group as `name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    parameter: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: name.into(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.parameter)
    }
}

/// Passed to the measured closure; runs and times the workload.
pub struct Bencher {
    iterations: usize,
    total: Duration,
}

impl Bencher {
    /// Times `routine`, running it once to warm up and then `sample_size`
    /// times for the measurement.
    pub fn iter<T, R: FnMut() -> T>(&mut self, mut routine: R) {
        let _warmup = black_box(routine());
        let start = Instant::now();
        for _ in 0..self.iterations {
            black_box(routine());
        }
        self.total = start.elapsed();
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measured runs per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Runs one benchmark over an input value, unless the harness's name
    /// filter skips it.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        if let Some(filter) = &self.criterion.filter {
            if !format!("{}/{}", self.name, id).contains(filter.as_str()) {
                return self;
            }
        }
        let mut bencher = Bencher {
            iterations: if self.criterion.test_mode {
                1
            } else {
                self.sample_size
            },
            total: Duration::ZERO,
        };
        f(&mut bencher, input);
        if self.criterion.test_mode {
            println!("{}/{}: test mode, 1 run, ok", self.name, id);
        } else {
            let mean = bencher
                .total
                .checked_div(bencher.iterations as u32)
                .unwrap_or_default();
            println!(
                "{}/{}: {:>12.3?} mean over {} runs",
                self.name, id, mean, bencher.iterations
            );
        }
        self.criterion.ran += 1;
        self
    }

    /// Runs one benchmark with no input.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.bench_with_input(id, &(), |b, ()| f(b))
    }

    /// Ends the group (printing is immediate, so this is bookkeeping only).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Debug, Default)]
pub struct Criterion {
    ran: usize,
    test_mode: bool,
    /// Runs only the benchmarks whose `group/id` contains this.
    filter: Option<String>,
}

impl Criterion {
    /// Builds a harness configured from the benchmark binary's command line,
    /// mirroring the real crate: `--test` runs every selected benchmark
    /// exactly once without measuring (the CI smoke mode), and the first
    /// argument that is not a flag selects the benchmarks whose `group/id`
    /// contains it (`cargo bench --bench engine -- engine_round`). Other
    /// flags, such as the `--bench` cargo appends, are ignored.
    pub fn from_args() -> Self {
        Criterion::from_arg_list(std::env::args().skip(1))
    }

    fn from_arg_list(args: impl IntoIterator<Item = String>) -> Self {
        let (mut test_mode, mut filter) = (false, None);
        for arg in args {
            if arg == "--test" {
                test_mode = true;
            } else if !arg.starts_with('-') && filter.is_none() {
                filter = Some(arg);
            }
        }
        Criterion {
            ran: 0,
            test_mode,
            filter,
        }
    }

    /// Switches the harness into test mode (each benchmark runs once).
    pub fn with_test_mode(mut self, enabled: bool) -> Self {
        self.test_mode = enabled;
        self
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("== bench group {name} ==");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: 10,
        }
    }
}

/// Declares a benchmark group function list (mirrors the real macro's
/// `criterion_group!(benches, f, g, ...)` form).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_times_workloads() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("demo");
        group.sample_size(3);
        let mut calls = 0usize;
        group.bench_with_input(BenchmarkId::new("count", 7), &7usize, |b, &n| {
            b.iter(|| {
                calls += 1;
                (0..n).sum::<usize>()
            });
        });
        group.finish();
        // One warm-up + three measured runs.
        assert_eq!(calls, 4);
        assert_eq!(criterion.ran, 1);
    }

    #[test]
    fn id_formats_as_name_slash_parameter() {
        assert_eq!(BenchmarkId::new("bgi", 64).to_string(), "bgi/64");
    }

    /// Runs `engine_round/a/1`, `engine_round/b/1` and `other/a/1` under a
    /// harness built from `list`, returning how often each closure ran and
    /// how many benchmarks the harness counted.
    fn run_filtered(list: &[&str]) -> ([usize; 3], usize) {
        let mut criterion = Criterion::from_arg_list(list.iter().map(|arg| arg.to_string()));
        let mut calls = [0usize; 3];
        for (group, name, slot) in [
            ("engine_round", "a", 0),
            ("engine_round", "b", 1),
            ("other", "a", 2),
        ] {
            let mut group = criterion.benchmark_group(group);
            group.sample_size(2);
            group.bench_function(BenchmarkId::new(name, 1), |b| b.iter(|| calls[slot] += 1));
            group.finish();
        }
        (calls, criterion.ran)
    }

    #[test]
    fn the_first_non_flag_argument_filters_by_group_and_id() {
        // Cargo appends `--bench`; no filter runs everything.
        assert_eq!(run_filtered(&["--bench"]), ([3, 3, 3], 3));
        // A skipped benchmark's closure never runs.
        assert_eq!(run_filtered(&["--bench", "engine_round"]), ([3, 3, 0], 2));
        assert_eq!(run_filtered(&["engine_round/b", "--bench"]), ([0, 3, 0], 1));
        assert_eq!(run_filtered(&["a/1", "--bench", "other"]), ([3, 0, 3], 2));
    }

    #[test]
    fn test_mode_combines_with_a_filter() {
        assert_eq!(run_filtered(&["--test"]), ([2, 2, 2], 3));
        assert_eq!(run_filtered(&["other", "--test"]), ([0, 0, 2], 1));
        assert_eq!(
            run_filtered(&["--test", "--bench", "round/a"]),
            ([2, 0, 0], 1)
        );
    }

    #[test]
    fn test_mode_runs_each_benchmark_once() {
        let mut criterion = Criterion::default().with_test_mode(true);
        let mut group = criterion.benchmark_group("smoke");
        group.sample_size(50);
        let mut calls = 0usize;
        group.bench_function(BenchmarkId::new("noop", 0), |b| {
            b.iter(|| {
                calls += 1;
            });
        });
        group.finish();
        // One warm-up + one measured run, regardless of sample size.
        assert_eq!(calls, 2);
        assert_eq!(criterion.ran, 1);
    }
}
