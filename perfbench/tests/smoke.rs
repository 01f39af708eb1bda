//! The benchmark's own tests, at the smoke size of all four workloads:
//! metric names and units agree everywhere they are written down, the traced
//! run reproduces the untraced store byte for byte, and the work counters
//! repeat and match their pins.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use perfbench::report::{self, parse_json, END_TO_END, PER_LAYER};
use perfbench::run::{self, Options};
use perfbench::timed;
use perfbench::trace;
use perfbench::workloads::{self, Size, DEFAULT_SEED, NAMES};
use serde::Value;

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("the test output directory can be created");
    dir
}

fn read_json(relative: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
    let text = std::fs::read_to_string(&path).expect("the file is readable");
    parse_json(&text).unwrap_or_else(|| panic!("{} is not JSON", path.display()))
}

fn named(list: &Value) -> Vec<(String, String)> {
    list.as_seq()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(entries: &[(&str, &str)]) -> Vec<(String, String)> {
    entries
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_names_and_units_agree_with_benchmark_json_and_the_rationale() {
    let bench = read_json("../BENCHMARK.json");
    assert_eq!(
        named(bench.get("end_to_end").expect("end_to_end")),
        table(&END_TO_END)
    );
    assert_eq!(
        named(bench.get("per_layer").expect("per_layer")),
        table(&PER_LAYER)
    );
    let workload_names: Vec<String> = named(bench.get("workloads").expect("workloads"))
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workload_names, NAMES);

    let rationale = read_json("rationale.json");
    let keys = |v: &Value| -> BTreeSet<String> {
        match v {
            Value::Map(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
            _ => BTreeSet::new(),
        }
    };
    let per_layer: BTreeSet<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(
        keys(rationale.get("per_layer").expect("per_layer")),
        per_layer
    );
    let workloads: BTreeSet<String> = NAMES.iter().map(|n| n.to_string()).collect();
    assert_eq!(
        keys(rationale.get("workloads").expect("workloads")),
        workloads
    );
    for (name, _) in PER_LAYER {
        let entry = rationale
            .get("per_layer")
            .and_then(|p| p.get(name))
            .expect("entry");
        assert!(
            entry.get("moves").is_some(),
            "{name} says which metric it moves"
        );
    }
}

#[test]
fn traced_passes_reproduce_the_untraced_store_on_every_workload() {
    let out = out_dir("byte_identity");
    for workload in NAMES {
        for seed in [DEFAULT_SEED, 1234] {
            let spec = workloads::campaign(workload, seed, Size::Smoke).expect("known workload");
            let untraced = timed::campaign_pass(&spec, 2, &out.join(format!("{workload}-u.jsonl")));
            assert!(untraced.error.is_none(), "{workload}: {:?}", untraced.error);
            assert_eq!(untraced.failed_cells(), 0);
            let traced = trace::traced_pass(&spec, 2, &out.join(format!("{workload}-t.jsonl")))
                .expect("the traced pass runs");
            assert!(!untraced.store.is_empty());
            assert!(
                traced.store == untraced.store,
                "{workload} seed {seed}: traced store differs"
            );
        }
    }
}

#[test]
fn work_counters_repeat_and_match_their_pins() {
    let out = out_dir("counters");
    for workload in NAMES {
        let first = run::measure_pins(workload, Size::Smoke, 2, out.clone()).expect("pins");
        let again = run::measure_pins(workload, Size::Smoke, 1, out.clone()).expect("pins");
        assert_eq!(
            first, again,
            "{workload}: counters or stores drifted between runs"
        );
        let pinned = report::pinned(workload, Size::Smoke).expect("smoke pins are recorded");
        assert_eq!(first.drift(&pinned), Vec::<String>::new(), "{workload}");
    }
}

#[test]
fn a_tampered_store_line_counts_as_one_failed_cell() {
    let out = out_dir("tampered");
    let pins = run::measure_pins("oblivious-global", Size::Smoke, 2, out.clone()).expect("pins");
    let spec = workloads::campaign("oblivious-global", DEFAULT_SEED, Size::Smoke).expect("known");
    let pass = timed::campaign_pass(&spec, 2, &out.join("store.jsonl"));
    let mut store = pass.store.clone();
    let digit = store
        .iter()
        .position(|&b| b == b'7')
        .expect("the store holds a 7");
    store[digit] = b'8';
    let tampered = report::Pins::of(&store, &[]);
    assert_eq!(tampered.failed_cells(&pins), 1);
    assert!(!tampered.store_drift(&pins).is_empty());
}

#[test]
fn a_failed_run_reports_no_metrics() {
    let opts = Options {
        workload: "no-such-workload".into(),
        seed: 1,
        seconds: 0.0,
        size: Size::Smoke,
        threads: 2,
        out: out_dir("failed"),
    };
    for outcome in [run::timed_run(&opts), run::traced_run(&opts)] {
        assert!(!outcome.correct);
        assert!(outcome.metrics.is_empty());
        assert!(!outcome.problems.is_empty());
    }
}

#[test]
fn all_mode_reports_each_workloads_own_peak_rss() {
    let out = out_dir("all");
    let run = |workload: &str| -> Value {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", workload, "--size", "smoke"])
            .args(["--seconds", "0", "--trace", "0", "--out"])
            .arg(&out)
            .output()
            .expect("the benchmark runs");
        assert!(output.status.success(), "{workload} failed");
        let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
        parse_json(stdout.lines().last().expect("a result line")).expect("a JSON result line")
    };
    let rss = |result: &Value, name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} is reported"))
    };
    let all = run("all");
    for workload in NAMES {
        let alone = rss(&run(workload), "peak_rss_mib");
        let in_all = rss(&all, &format!("{workload}/peak_rss_mib"));
        assert!(
            (in_all - alone).abs() <= 0.1 * alone,
            "{workload}: {in_all} MiB in all mode, {alone} MiB alone"
        );
    }
}

#[test]
fn runs_report_every_metric_with_its_unit() {
    let out = out_dir("runs");
    for workload in NAMES {
        let opts = Options {
            workload: workload.to_string(),
            seed: 77,
            seconds: 0.0,
            size: Size::Smoke,
            threads: 2,
            out: out.clone(),
        };
        let timed = run::timed_run(&opts);
        assert!(timed.correct, "{workload}: {:?}", timed.problems);
        let got: Vec<(String, String)> = timed
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(got, table(&END_TO_END));
        assert!(timed.metrics.iter().all(|m| m.value > 0.0), "{workload}");

        let traced = run::traced_run(&opts);
        assert!(traced.correct, "{workload}: {:?}", traced.problems);
        let got: Vec<(String, String)> = traced
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(got, table(&PER_LAYER));
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("reported")
        };
        // Only the adaptive adversaries read transmit probabilities, and
        // they draw no randomness of their own.
        if workload == "adaptive-global" {
            assert!(value("core.transmit_probability_s") > 0.0);
            assert_eq!(value("adversary.rng_draws"), 0.0);
        } else {
            assert_eq!(value("core.transmit_probability_s"), 0.0, "{workload}");
        }
        assert!(value("sim.node_rounds") > 0.0);
        assert!(value("trace.overhead") > 0.0);
    }
}
