//! Metric tables, per-layer metrics from a traced pass, the result line,
//! provenance, and the pinned digests and work counters.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize, Value};

use crate::trace::TracedPass;
use crate::workloads::{Seeds, Size, DEFAULT_SEED};
use crate::{median, nearest_rank};

/// One named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value, as measured.
    pub value: f64,
}

/// The end-to-end metrics a run with tracing off reports, with units.
/// (`failed_cells_share` is printed beside them; in the result line it is
/// the `failed` ÷ `attempted` cell counts.)
pub const END_TO_END: [(&str, &str); 3] = [
    ("trials_per_s", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics a traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("graphs.build_s", "s"),
    ("graphs.dynamic_edges_s", "s"),
    ("graphs.edge_count", "count"),
    ("graphs.dynamic_edge_count", "count"),
    ("scenario.build_s", "s"),
    ("scenario.executor_s", "s"),
    ("scenario.trial_ms.p50", "ms"),
    ("scenario.trial_ms.p99", "ms"),
    ("scenario.trial_ms.n", "count"),
    ("adversary.decide_s", "s"),
    ("adversary.decide_us.p50", "us"),
    ("adversary.decide_us.p99", "us"),
    ("adversary.decide_us.n", "count"),
    ("adversary.start_s", "s"),
    ("adversary.rng_draws", "count"),
    ("adversary.edges_proposed", "count"),
    ("core.self_s", "s"),
    ("core.transmit_probability_s", "s"),
    ("core.calls", "count"),
    ("core.rng_draws", "count"),
    ("sim.self_s", "s"),
    ("sim.self_ns_per_node_round", "ns"),
    ("sim.rounds", "count"),
    ("sim.node_rounds", "count"),
    ("sim.transmissions", "count"),
    ("sim.deliveries", "count"),
    ("sim.collisions", "count"),
    ("sim.rejected_link_edges", "count"),
    ("sim.accepted_edge_share", "ratio"),
    ("campaign.expand_s", "s"),
    ("campaign.key_s", "s"),
    ("campaign.append_s", "s"),
    ("campaign.store_bytes", "bytes"),
    ("campaign.max_cell_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The deterministic work counters pinned per workload: they must repeat
/// exactly across runs at a seed and match `pins.json` at the pinned seed.
pub const COUNTERS: [&str; 13] = [
    "adversary.rng_draws",
    "adversary.edges_proposed",
    "core.calls",
    "core.rng_draws",
    "sim.rounds",
    "sim.node_rounds",
    "sim.transmissions",
    "sim.deliveries",
    "sim.collisions",
    "sim.rejected_link_edges",
    "campaign.store_bytes",
    "graphs.edge_count",
    "graphs.dynamic_edge_count",
];

/// The per-layer metrics of one traced pass, keyed by name, with
/// `trace.overhead` taken against `untraced_wall_s`.
pub fn per_layer(traced: &TracedPass, untraced_wall_s: f64) -> BTreeMap<&'static str, f64> {
    let secs = |ns: u64| ns as f64 / 1e9;
    let sum =
        |f: &dyn Fn(&crate::trace::TrialTrace) -> u64| -> u64 { traced.trials.iter().map(f).sum() };
    let mut trial_ns: Vec<u64> = traced.trials.iter().map(|t| t.ns).collect();
    trial_ns.sort_unstable();
    let mut decide_ns = traced.decide_samples_ns.clone();
    decide_ns.sort_unstable();
    let node_rounds = sum(&|t| t.n * t.metrics.rounds as u64);
    let sim_self_ns = sum(&|t| t.ns.saturating_sub(t.children_ns));
    let proposed = sum(&|t| t.totals.edges_proposed);
    let rejected = sum(&|t| t.metrics.rejected_link_edges as u64);
    let max_cell = traced
        .cells
        .iter()
        .map(|c| c.node_rounds)
        .max()
        .unwrap_or(0);

    let mut m = BTreeMap::new();
    m.insert(
        "graphs.build_s",
        secs(traced.topologies.iter().map(|t| t.build_ns).sum()),
    );
    m.insert(
        "graphs.dynamic_edges_s",
        secs(traced.topologies.iter().map(|t| t.dynamic_edges_ns).sum()),
    );
    m.insert(
        "graphs.edge_count",
        traced.topologies.iter().map(|t| t.edges).sum::<u64>() as f64,
    );
    m.insert(
        "graphs.dynamic_edge_count",
        traced
            .topologies
            .iter()
            .map(|t| t.dynamic_edges)
            .sum::<u64>() as f64,
    );
    m.insert(
        "scenario.build_s",
        secs(traced.cells.iter().map(|c| c.build_ns).sum()),
    );
    m.insert(
        "scenario.executor_s",
        secs(traced.cells.iter().map(|c| c.executor_ns).sum()),
    );
    m.insert(
        "scenario.trial_ms.p50",
        nearest_rank(&trial_ns, 0.50) as f64 / 1e6,
    );
    m.insert(
        "scenario.trial_ms.p99",
        nearest_rank(&trial_ns, 0.99) as f64 / 1e6,
    );
    m.insert("scenario.trial_ms.n", trial_ns.len() as f64);
    m.insert("adversary.decide_s", secs(sum(&|t| t.totals.decide_ns)));
    m.insert(
        "adversary.decide_us.p50",
        nearest_rank(&decide_ns, 0.50) as f64 / 1e3,
    );
    m.insert(
        "adversary.decide_us.p99",
        nearest_rank(&decide_ns, 0.99) as f64 / 1e3,
    );
    m.insert("adversary.decide_us.n", decide_ns.len() as f64);
    m.insert(
        "adversary.start_s",
        secs(sum(&|t| t.totals.adversary_start_ns)),
    );
    m.insert(
        "adversary.rng_draws",
        sum(&|t| t.totals.adversary_rng_draws) as f64,
    );
    m.insert("adversary.edges_proposed", proposed as f64);
    m.insert("core.self_s", secs(sum(&|t| t.totals.core_ns)));
    m.insert(
        "core.transmit_probability_s",
        secs(sum(&|t| t.totals.transmit_probability_ns)),
    );
    m.insert("core.calls", sum(&|t| t.totals.core_calls) as f64);
    m.insert("core.rng_draws", sum(&|t| t.totals.core_rng_draws) as f64);
    m.insert("sim.self_s", secs(sim_self_ns));
    m.insert(
        "sim.self_ns_per_node_round",
        sim_self_ns as f64 / node_rounds.max(1) as f64,
    );
    m.insert("sim.rounds", sum(&|t| t.metrics.rounds as u64) as f64);
    m.insert("sim.node_rounds", node_rounds as f64);
    m.insert(
        "sim.transmissions",
        sum(&|t| t.metrics.transmissions as u64) as f64,
    );
    m.insert(
        "sim.deliveries",
        sum(&|t| t.metrics.deliveries as u64) as f64,
    );
    m.insert(
        "sim.collisions",
        sum(&|t| t.metrics.collisions as u64) as f64,
    );
    m.insert("sim.rejected_link_edges", rejected as f64);
    // With nothing proposed nothing was wasted.
    m.insert(
        "sim.accepted_edge_share",
        if proposed == 0 {
            1.0
        } else {
            1.0 - rejected as f64 / proposed as f64
        },
    );
    m.insert("campaign.expand_s", secs(traced.expand_ns));
    m.insert(
        "campaign.key_s",
        secs(traced.cells.iter().map(|c| c.key_ns).sum()),
    );
    m.insert(
        "campaign.append_s",
        secs(traced.cells.iter().map(|c| c.append_ns).sum()),
    );
    m.insert("campaign.store_bytes", traced.store.len() as f64);
    m.insert(
        "campaign.max_cell_share",
        max_cell as f64 / node_rounds.max(1) as f64,
    );
    m.insert("trace.overhead", traced.wall_s / untraced_wall_s);
    m
}

/// The per-metric median over several traced passes, in table order.
pub fn median_per_layer(passes: &[BTreeMap<&'static str, f64>]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
            Metric {
                name,
                unit,
                value: median(&values),
            }
        })
        .collect()
}

/// The pinned counters of a per-layer map.
pub fn counters(per_layer: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, u64)> {
    COUNTERS
        .iter()
        .map(|&name| (name, per_layer.get(name).copied().unwrap_or(-1.0) as u64))
        .collect()
}

/// Lends a [`Value`] to `serde_json`, which renders [`Serialize`] types.
struct Json<'a>(&'a Value);

impl Serialize for Json<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// `value` as one line of JSON (a number that is not finite becomes `null`).
pub fn render(value: &Value) -> String {
    serde_json::to_string(&Json(value)).expect("the serde shim renders every value")
}

/// A JSON object of `entries`, in order.
pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The result line's `"name": {"value": .., "unit": ..}` entries of
/// `metrics`.
pub fn metric_entries(metrics: &[Metric]) -> Vec<(String, Value)> {
    metrics
        .iter()
        .map(|m| {
            let entry = object([("value", m.value.to_value()), ("unit", m.unit.to_value())]);
            (m.name.to_string(), entry)
        })
        .collect()
}

/// The result line, the last line a run prints.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, Value)>,
) -> String {
    render(&object([
        ("correct", correct.to_value()),
        ("attempted", attempted.to_value()),
        ("failed", failed.to_value()),
        ("metrics", Value::Map(metrics)),
    ]))
}

/// Where and how a result was produced, as one JSON object: the workload,
/// its seed and the seeds derived from it, the start time, the git revision
/// and dirty flag of the working directory (when it is a git checkout), the
/// parallelism available and used, and the toolchain and build settings.
pub fn provenance(workload: &str, size: Size, seed: u64, runner_threads: usize) -> String {
    let git = |args: &[&str]| -> Option<String> {
        if !Path::new(".git").exists() {
            return None;
        }
        let out = Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    let start = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let seeds = Seeds::derive(seed);
    render(&object([
        ("workload", workload.to_value()),
        ("size", size.name().to_value()),
        ("seed", seed.to_value()),
        ("default_seed", (seed == DEFAULT_SEED).to_value()),
        ("campaign_seed", seeds.campaign.to_value()),
        ("topology_seed", seeds.topology.to_value()),
        ("problem_seed", seeds.problem.to_value()),
        ("start_unix_s", start.to_value()),
        ("git_rev", rev.to_value()),
        ("git_dirty", dirty.to_value()),
        ("available_parallelism", available_parallelism().to_value()),
        ("runner_threads", runner_threads.to_value()),
        ("rustc", env!("PERFBENCH_RUSTC").to_value()),
        ("profile", env!("PERFBENCH_PROFILE").to_value()),
        ("opt_level", env!("PERFBENCH_OPT_LEVEL").to_value()),
        ("rustflags", env!("PERFBENCH_RUSTFLAGS").to_value()),
    ]))
}

/// `std::thread::available_parallelism`, or 1 where it is unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// FNV-1a 64 of `bytes`, hex-encoded (the hash the store's cell keys use).
pub fn fnv64(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    format!("{hash:016x}")
}

/// One workload's pins at the pinned seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Pins {
    /// FNV-1a 64 of the whole store file.
    pub store: String,
    /// FNV-1a 64 of each cell's store line (newline included).
    pub cells: Vec<String>,
    /// The work counters.
    pub counters: Vec<(String, u64)>,
}

impl Pins {
    /// The pins of a store and the counters of a traced pass over it.
    pub fn of(store: &[u8], counters: &[(&str, u64)]) -> Pins {
        Pins {
            store: fnv64(store),
            cells: store.split_inclusive(|&b| b == b'\n').map(fnv64).collect(),
            counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        }
    }

    /// Every difference from `expected`, one line each.
    pub fn drift(&self, expected: &Pins) -> Vec<String> {
        let mut drift = self.store_drift(expected);
        for (name, want) in &expected.counters {
            match self.counters.iter().find(|(n, _)| n == name) {
                Some((_, got)) if got == want => {}
                Some((_, got)) => drift.push(format!("{name} {got} != pinned {want}")),
                None => drift.push(format!("{name} missing")),
            }
        }
        drift
    }

    /// Differences from `expected` in the store digests alone.
    pub fn store_drift(&self, expected: &Pins) -> Vec<String> {
        let mut drift = Vec::new();
        if self.store != expected.store {
            drift.push(format!(
                "store digest {} != pinned {}",
                self.store, expected.store
            ));
        }
        if self.cells.len() != expected.cells.len() {
            drift.push(format!(
                "{} store lines != pinned {}",
                self.cells.len(),
                expected.cells.len()
            ));
        }
        for (i, (got, want)) in self.cells.iter().zip(&expected.cells).enumerate() {
            if got != want {
                drift.push(format!("cell {i} line digest {got} != pinned {want}"));
            }
        }
        drift
    }

    /// Store lines whose digest differs from `expected`'s at the same
    /// position, lines missing from either side counting as differing.
    pub fn failed_cells(&self, expected: &Pins) -> usize {
        let differing = self
            .cells
            .iter()
            .zip(&expected.cells)
            .filter(|(a, b)| a != b)
            .count();
        differing + expected.cells.len().abs_diff(self.cells.len())
    }
}

impl Serialize for Pins {
    fn to_value(&self) -> Value {
        let counters = self.counters.iter().map(|(n, v)| (n.clone(), v.to_value()));
        object([
            ("store_fnv64", self.store.to_value()),
            ("cell_fnv64", self.cells.to_value()),
            ("counters", Value::Map(counters.collect())),
        ])
    }
}

impl Deserialize for Pins {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| serde::Error::new(format!("pins lack {key:?}")))
        };
        let counters = match field("counters")? {
            Value::Map(entries) => entries
                .iter()
                .map(|(name, count)| Ok((name.clone(), u64::from_value(count)?)))
                .collect::<Result<_, serde::Error>>()?,
            other => return Err(serde::Error::expected("a map of counters", other)),
        };
        Ok(Pins {
            store: String::from_value(field("store_fnv64")?)?,
            cells: Vec::from_value(field("cell_fnv64")?)?,
            counters,
        })
    }
}

/// The pins file: workload pins by size, at [`DEFAULT_SEED`].
pub fn pins_file(pins: &[(Size, Vec<(&str, Pins)>)]) -> String {
    let sizes = pins.iter().map(|(size, workloads)| {
        let workloads = workloads.iter().map(|(w, p)| (w.to_string(), p.to_value()));
        (size.name().to_string(), Value::Map(workloads.collect()))
    });
    let root = std::iter::once(("seed".to_string(), DEFAULT_SEED.to_value())).chain(sizes);
    let text = serde_json::to_string_pretty(&Json(&Value::Map(root.collect())))
        .expect("the serde shim renders every value");
    format!("{text}\n")
}

/// The pins of `workload` at `size` from the embedded `pins.json`, if any.
pub fn pinned(workload: &str, size: Size) -> Option<Pins> {
    let root = parse_json(include_str!("../pins.json"))?;
    if root.get("seed")?.as_u64()? != DEFAULT_SEED {
        return None;
    }
    Pins::from_value(root.get(size.name())?.get(workload)?).ok()
}

/// Parses JSON text into the serde shim's value model.
pub fn parse_json(text: &str) -> Option<Value> {
    /// Keeps the parsed value as is.
    struct Raw(Value);
    impl Deserialize for Raw {
        fn from_value(value: &Value) -> Result<Self, serde::Error> {
            Ok(Raw(value.clone()))
        }
    }
    serde_json::from_str::<Raw>(text).ok().map(|raw| raw.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_keep_key_order_and_null_what_is_not_finite() {
        let metrics = [
            Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            },
            Metric {
                name: "peak_rss_mib",
                unit: "MiB",
                value: f64::NAN,
            },
        ];
        assert_eq!(
            result_line(true, 3, 0, metric_entries(&metrics)),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\
             \"peak_rss_mib\":{\"value\":null,\"unit\":\"MiB\"}}}"
        );
    }

    #[test]
    fn pins_round_trip_through_the_file_format() {
        let pins = Pins::of(b"{\"a\":1}\n{\"b\":2}\n", &[("sim.rounds", 7)]);
        let file = pins_file(&[(Size::Smoke, vec![("w", pins.clone())])]);
        let root = parse_json(&file).expect("the pins file is JSON");
        let entry = root.get("smoke").and_then(|s| s.get("w")).expect("entry");
        assert_eq!(Pins::from_value(entry), Ok(pins.clone()));
        assert_eq!(pins.cells.len(), 2);
        assert!(pins.drift(&pins).is_empty());
    }
}
