//! Process-level fleet tests: the `repro` binary coordinating real worker
//! processes (itself, re-invoked as `campaign worker`), then merging the
//! shard stores and comparing bytes against a single-process run.
//!
//! These are the acceptance checks for distributed campaigns: fan-out plus
//! merge must be invisible in the output bytes, even when a worker is
//! killed mid-run.

use std::path::{Path, PathBuf};
use std::process::Command;

use dradio_campaign::{CampaignSpec, RoundsRule, SweepGroup, TrialPolicy};
use dradio_core::algorithms::GlobalAlgorithm;
use dradio_scenario::{AdversarySpec, ProblemSpec, TopologySpec};

/// A fresh scratch directory per test (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dradio-fleet-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `repro` binary, run inside `dir`.
fn repro(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.current_dir(dir);
    cmd
}

/// A small check-clean sweep, written to `campaign.json` in `dir`.
fn write_campaign(dir: &Path) -> String {
    let spec = CampaignSpec::named("fleet-it")
        .seed(11)
        .trials(TrialPolicy::Fixed(2))
        .group(
            SweepGroup::product(
                vec![
                    TopologySpec::Clique { n: 8 },
                    TopologySpec::Clique { n: 16 },
                    TopologySpec::DualClique { n: 16 },
                ],
                vec![
                    GlobalAlgorithm::Bgi.into(),
                    GlobalAlgorithm::Permuted.into(),
                ],
                vec![AdversarySpec::StaticNone],
                vec![ProblemSpec::GlobalFrom(0)],
            )
            .rounds(RoundsRule::Fixed(2_000)),
        );
    let json = serde_json::to_string(&spec).unwrap();
    std::fs::write(dir.join("campaign.json"), &json).unwrap();
    "campaign.json".into()
}

/// Runs a command expecting success; panics with its output otherwise.
fn run_ok(cmd: &mut Command) {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "command failed ({:?}):\nstdout: {}\nstderr: {}",
        cmd,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap()
}

#[test]
fn fleet_plus_merge_is_byte_identical_to_a_single_process_run() {
    let dir = scratch("bytes");
    let camp = write_campaign(&dir);

    run_ok(repro(&dir).args([
        "campaign",
        "run",
        "--campaign",
        &camp,
        "--store",
        "single.jsonl",
    ]));
    run_ok(repro(&dir).args([
        "campaign",
        "fleet",
        "--campaign",
        &camp,
        "--store",
        "fleet.jsonl",
        "--workers",
        "2",
    ]));
    assert!(dir.join("fleet.shard0.jsonl").exists());
    assert!(dir.join("fleet.shard1.jsonl").exists());
    assert!(
        !dir.join("fleet.jsonl").exists(),
        "the fleet writes shards; only merge writes the output store"
    );
    run_ok(repro(&dir).args([
        "campaign",
        "merge",
        "--campaign",
        &camp,
        "--store",
        "fleet.jsonl",
        "fleet.shard0.jsonl",
        "fleet.shard1.jsonl",
    ]));

    assert_eq!(
        read(&dir, "single.jsonl"),
        read(&dir, "fleet.jsonl"),
        "fleet + merge must be invisible in the output bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_killed_mid_run_still_converges_to_the_same_bytes() {
    let dir = scratch("kill");
    let camp = write_campaign(&dir);

    run_ok(repro(&dir).args([
        "campaign",
        "run",
        "--campaign",
        &camp,
        "--store",
        "single.jsonl",
    ]));

    // Worker 0 aborts right after its first durable append, before the
    // acknowledgement — the worst crash window. The coordinator re-assigns
    // its cells to the survivor.
    run_ok(repro(&dir).args([
        "campaign",
        "fleet",
        "--campaign",
        &camp,
        "--store",
        "fleet.jsonl",
        "--workers",
        "2",
        "--worker-exit-after",
        "1",
    ]));
    // A second (no-fault) pass proves the shard stores resume cleanly; with
    // everything already durable it must launch no workers.
    let out = repro(&dir)
        .args([
            "campaign",
            "fleet",
            "--campaign",
            &camp,
            "--store",
            "fleet.jsonl",
            "--workers",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("6 skipped (already durable)"),
        "resume must skip everything: {stdout}"
    );

    run_ok(repro(&dir).args([
        "campaign",
        "merge",
        "--campaign",
        &camp,
        "--store",
        "fleet.jsonl",
        "fleet.shard0.jsonl",
        "fleet.shard1.jsonl",
    ]));
    assert_eq!(
        read(&dir, "single.jsonl"),
        read(&dir, "fleet.jsonl"),
        "a killed worker must not change the merged bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_refuses_a_spec_that_fails_check() {
    let dir = scratch("refuse");
    // Two identical groups: expansion-level duplicates, a check warning.
    let dup = CampaignSpec::named("fleet-it-dup")
        .seed(11)
        .trials(TrialPolicy::Fixed(1))
        .group(
            SweepGroup::cell(
                TopologySpec::Clique { n: 8 },
                GlobalAlgorithm::Bgi,
                AdversarySpec::StaticNone,
                ProblemSpec::GlobalFrom(0),
            )
            .rounds(RoundsRule::Fixed(2_000)),
        )
        .group(
            SweepGroup::cell(
                TopologySpec::Clique { n: 8 },
                GlobalAlgorithm::Bgi,
                AdversarySpec::StaticNone,
                ProblemSpec::GlobalFrom(0),
            )
            .rounds(RoundsRule::Fixed(2_000)),
        );
    std::fs::write(dir.join("dup.json"), serde_json::to_string(&dup).unwrap()).unwrap();

    let out = repro(&dir)
        .args([
            "campaign",
            "fleet",
            "--campaign",
            "dup.json",
            "--store",
            "dup.jsonl",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a warned spec must not launch");
    assert!(
        !dir.join("dup.shard0.jsonl").exists(),
        "no shard store may be created for a refused spec"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_without_shard_paths_is_a_usage_error() {
    let dir = scratch("usage");
    let camp = write_campaign(&dir);
    let out = repro(&dir)
        .args([
            "campaign",
            "merge",
            "--campaign",
            &camp,
            "--store",
            "out.jsonl",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("at least one shard store"),
        "the error must say shard paths are missing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI scale-smoke spec: one 100 000-node grid cell, whose topology
/// estimate exceeds a 1 MiB memory budget.
const SCALE_SMOKE: &str = r#"{"name":"scale-smoke","seed":5,"trials":{"Fixed":2},"groups":[{"topologies":[{"Grid":{"cols":400,"rows":250}}],"algorithms":[{"Global":"Permuted"}],"adversaries":[{"Iid":{"p":0.5}}],"problems":[{"GlobalFrom":0}],"seed":null,"trials":null,"rounds":{"Fixed":64},"collision_detection":false,"record_mode":"None","curve":false}]}"#;

#[test]
fn campaign_check_exit_status_tells_warnings_from_invalid_specs() {
    let dir = scratch("check-status");
    let example = repro(&dir).arg("--example-campaign").output().unwrap();
    assert!(example.status.success());
    std::fs::write(dir.join("example.json"), &example.stdout).unwrap();
    std::fs::write(dir.join("scale.json"), SCALE_SMOKE).unwrap();
    std::fs::write(dir.join("malformed.json"), "{\"name\": ").unwrap();
    let zero_trials = CampaignSpec::named("zero-trials")
        .trials(TrialPolicy::Fixed(0))
        .group(SweepGroup::cell(
            TopologySpec::Clique { n: 8 },
            GlobalAlgorithm::Bgi,
            AdversarySpec::StaticNone,
            ProblemSpec::GlobalFrom(0),
        ));
    std::fs::write(
        dir.join("zero-trials.json"),
        serde_json::to_string(&zero_trials).unwrap(),
    )
    .unwrap();

    let status = |args: &[&str]| {
        let out = repro(&dir)
            .args(["campaign", "check"])
            .args(args)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (code, report) = status(&["--campaign", "example.json"]);
    assert_eq!(code, Some(0), "the example campaign is clean:\n{report}");
    let (code, report) = status(&["--campaign", "scale.json", "--mem-budget", "1mib"]);
    assert_eq!(code, Some(1), "a budget warning alone exits 1:\n{report}");
    assert!(report.contains("warning"), "{report}");
    assert_eq!(status(&["--campaign", "malformed.json"]).0, Some(2));
    assert_eq!(status(&["--campaign", "zero-trials.json"]).0, Some(2));
    assert_eq!(
        status(&["--campaign", "scale.json", "--mem-budget", "lots"]).0,
        Some(2),
        "a bad argument exits 2"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
