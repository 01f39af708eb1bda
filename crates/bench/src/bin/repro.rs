//! `repro` — regenerate every experiment table of the PODC 2013 reproduction,
//! run an ad-hoc serialized scenario, or drive a persistent measurement
//! campaign.
//!
//! Usage:
//!
//! ```text
//! cargo run -p dradio-bench --bin repro --release [-- OPTIONS]
//! cargo run -p dradio-bench --bin repro --release -- campaign <run|resume|report|compact> \
//!     --campaign <json-or-path> [--store <path>]
//!
//! OPTIONS:
//!     --smoke             tiny sizes, 1 trial (sanity check)
//!     --quick             moderate sizes, 3 trials (default)
//!     --full              larger sizes, 8 trials
//!     --only <ID>         run only the experiment with this id (e.g. E5)
//!     --csv               also print each table as CSV
//!     --list              list experiments and exit
//!     --scenario <JSON>   run a serialized ScenarioSpec instead of the
//!                         experiments (use --trials to repeat it)
//!     --trials <N>        trials for --scenario (default 8)
//!     --example-scenario  print a ScenarioSpec JSON template and exit
//!     --example-campaign  print a CampaignSpec JSON template and exit
//!
//! CAMPAIGN SUBCOMMANDS (all but worker take --campaign <inline JSON or path>):
//!     campaign check      statically validate the spec without running a
//!                         cell: duplicate cells, degenerate or unreachable
//!                         adaptive stop targets, and a per-group worst-case
//!                         budget estimate — rounds and peak topology memory
//!                         in the layout the dual graph will pick; exits 0
//!                         when clean, 1 on warnings only, 2 when the spec
//!                         cannot be loaded or expanded or an argument is bad
//!     campaign run        execute every cell missing from the store
//!                         (creates the store; resumes it if it exists)
//!     campaign resume     like run, but requires the store to exist already
//!     campaign report     render the stored results as a table (no execution)
//!     campaign compact    rewrite the store keeping only records in the
//!                         spec's expansion, in expansion order (refuses to
//!                         touch a store that fails its integrity checks)
//!     campaign fleet      serve the pending cells to worker *processes*
//!                         (--workers N) with worker-pull scheduling, each
//!                         worker appending to its own shard store
//!                         <store>.shardK.jsonl; refuses specs that fail
//!                         `campaign check`, restarts crashed/hung/corrupt
//!                         workers (capped backoff, per-shard budget),
//!                         re-queues expired leases, and is resumable
//!     campaign worker     serve one fleet shard over stdin/stdout (spawned
//!                         by `campaign fleet`; not for interactive use)
//!     campaign merge      union shard stores into --store, in spec expansion
//!                         order, byte-identical to a single-process run
//!                         (shard paths are positional arguments)
//!     campaign fsck       read-only integrity inspection of --store: torn
//!                         tail location, key integrity, duplicate keys,
//!                         malformed lines; never modifies the file (exits
//!                         non-zero on findings)
//!     --store <path>      JSONL result store (default: <name>.campaign.jsonl)
//!     --threads <N>       run/resume/fleet: cap cell-runner threads (fleet
//!                         forwards the cap to every worker)
//!     --mem-budget <SZ>   check/fleet: per-cell topology memory ceiling —
//!                         plain bytes or a binary-suffixed size ("512MiB",
//!                         "4GiB"); any cell whose estimated topology
//!                         footprint, in its automatic layout, exceeds it
//!                         draws a warning (check exits 1; fleet refuses)
//!     --workers <N>       fleet: worker processes to spawn (default 2)
//!     --hang-timeout <S>  fleet: declare a silent worker dead after S seconds
//!     --lease-timeout <S> fleet: re-queue an assigned cell not acknowledged
//!                         within S seconds (default: only on worker death)
//!     --ready-timeout <S> fleet: kill a worker that has not completed the
//!                         Ready handshake within S seconds of spawning
//!                         (default 30; distinct from --hang-timeout — no
//!                         frames at all usually means a broken worker)
//!     --restart-budget <N> fleet: supervised restarts per shard before the
//!                         shard's work degrades to re-assignment only
//!                         (default 2; 0 disables restarts)
//!     --chaos <plan>      fleet: arm the deterministic fault-injection
//!                         harness — a u64 derives a seeded FaultPlan over
//!                         the fleet, `{`/`[` is inline plan JSON, anything
//!                         else is a path to plan JSON; the merged store
//!                         must still match a single-process run byte for
//!                         byte
//!     --worker-exit-after <N>  fleet: sugar for a --chaos plan that kills
//!                         worker 0 after N fresh cells (smoke tests)
//!     --progress          emit a `cells done/total, cells/sec, ETA` line to
//!                         stderr after each committed cell
//!     --curves            with report: also render each stored
//!                         contention-over-time curve (cells measured with
//!                         "curve": true) as a bucketed table
//!
//! STATIC ANALYSIS:
//!     repro lint [--fix-hints]
//!                         run the dradio-lint determinism & invariant pass
//!                         over the workspace (same rules as CI)
//!
//! MICRO-BENCH:
//!     repro bench --scale [--scale-n <N>]
//!                         million-node broadcast on CSR rows: a grid and a
//!                         random-geometric network at ~N nodes (default
//!                         1,000,000), built in O(n + m) with no bit matrix
//!                         attached, with build/run timings, dense-vs-CSR
//!                         memory estimates, and peak RSS; writes
//!                         BENCH_sparse.json
//! ```

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use dradio_analysis::experiments::{self, ExperimentConfig};
use dradio_analysis::Table;
use dradio_campaign::{
    CampaignRunner, CampaignSpec, ResultStore, RoundsRule, StopRule, SweepGroup, TrialPolicy,
};
use dradio_core::algorithms::GlobalAlgorithm;
use dradio_fleet::{
    run_fleet, run_worker, shard_store_path, FaultKind, FaultPlan, FleetConfig, WorkerConfig,
    WorkerFault,
};
use dradio_scenario::{AdversarySpec, ProblemSpec, ScenarioSpec, TopologySpec};

fn run_scenario(json: &str, trials: usize) -> ExitCode {
    let spec: ScenarioSpec = match serde_json::from_str(json) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("could not parse the scenario spec: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scenario = match spec.build() {
        Ok(scenario) => scenario,
        Err(e) => {
            eprintln!("could not build the scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("scenario: {scenario}");
    match scenario.run_trials(trials) {
        Ok(m) => {
            println!("trials:      {trials}");
            println!("rounds:      {}", m.rounds);
            println!("completion:  {}", m.completion);
            println!("collisions:  {:.1} per trial", m.mean_collisions);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not run the scenario: {e}");
            ExitCode::FAILURE
        }
    }
}

fn example_scenario() -> String {
    let spec = ScenarioSpec {
        topology: TopologySpec::DualClique { n: 64 },
        algorithm: GlobalAlgorithm::Permuted.into(),
        adversary: AdversarySpec::Iid { p: 0.5 },
        problem: ProblemSpec::GlobalFrom(0),
        seed: 1,
        max_rounds: None,
        collision_detection: false,
    };
    serde_json::to_string_pretty(&spec).expect("specs always serialize")
}

/// A small 2-axis sweep (network size × algorithm) with adaptive trial
/// allocation — the template for `--campaign`, also exercised by CI. The
/// second group showcases the completion-targeted stop rule
/// ([`StopRule::CompletionCi`]) and contention-curve streaming
/// (`"curve": true`, reported by `campaign report --curves`). The third
/// runs the bursty Gilbert–Elliott links and the decay-aware attack, so
/// CI's Full-vs-None comparison checks the Gilbert–Elliott link profile
/// against `decide`.
fn example_campaign() -> CampaignSpec {
    CampaignSpec::named("example-clique-sweep")
        .seed(1)
        .trials(TrialPolicy::Adaptive {
            min: 2,
            max: 8,
            relative_width: 0.2,
            stop: StopRule::MeanCostCi,
        })
        .group(
            SweepGroup::product(
                vec![
                    TopologySpec::DualClique { n: 16 },
                    TopologySpec::DualClique { n: 32 },
                ],
                vec![
                    GlobalAlgorithm::Bgi.into(),
                    GlobalAlgorithm::Permuted.into(),
                ],
                vec![AdversarySpec::Iid { p: 0.5 }],
                vec![ProblemSpec::GlobalFrom(0)],
            )
            .rounds(RoundsRule::PerNode {
                per_node: 60,
                base: 0,
                min_nodes: 16,
            }),
        )
        .group(
            SweepGroup::cell(
                TopologySpec::DualClique { n: 16 },
                GlobalAlgorithm::Permuted,
                AdversarySpec::Iid { p: 0.5 },
                ProblemSpec::GlobalFrom(0),
            )
            .trials(TrialPolicy::Adaptive {
                min: 2,
                max: 16,
                relative_width: 0.25,
                stop: StopRule::CompletionCi,
            })
            .rounds(RoundsRule::Fixed(960))
            .curve(true),
        )
        .group(
            SweepGroup::product(
                vec![
                    TopologySpec::DualClique { n: 16 },
                    TopologySpec::DualClique { n: 32 },
                ],
                vec![
                    GlobalAlgorithm::Bgi.into(),
                    GlobalAlgorithm::Permuted.into(),
                ],
                vec![
                    AdversarySpec::GilbertElliott {
                        p_fail: 0.1,
                        p_recover: 0.1,
                    },
                    AdversarySpec::DecayAware {
                        levels: None,
                        assumed_transmitters: Vec::new(),
                    },
                ],
                vec![ProblemSpec::GlobalFrom(0)],
            )
            .rounds(RoundsRule::PerNode {
                per_node: 60,
                base: 0,
                min_nodes: 16,
            }),
        )
}

/// Renders a store's records as the standard result table.
fn campaign_table(spec: &CampaignSpec, store: &ResultStore) -> Table {
    let mut table = Table::new(
        format!("campaign {:?} ({} cells measured)", spec.name, store.len()),
        vec![
            "topology",
            "algorithm",
            "adversary",
            "problem",
            "seed",
            "trials",
            "rounds (mean ± ci95)",
            "median",
            "p95",
            "completion (wilson 95%)",
        ],
    );
    for record in store.records() {
        let s = &record.cell.scenario;
        let m = &record.measurement;
        table.push_row(vec![
            s.topology.label(),
            s.algorithm.name().to_string(),
            s.adversary.label(),
            s.problem.label(),
            s.seed.to_string(),
            record.trials_run.to_string(),
            format!("{:.1} ± {:.1}", m.rounds.mean, m.rounds.ci95_half_width()),
            format!("{:.1}", m.rounds.median),
            format!("{:.1}", m.rounds.p95),
            m.completion.to_string(),
        ]);
    }
    table
}

/// Parses a memory size: plain bytes, or a binary-suffixed form like
/// "512MiB" / "4GiB" (case-insensitive; a fractional number is fine).
fn parse_mem_size(raw: &str) -> Option<u64> {
    let s = raw.trim();
    if let Ok(bytes) = s.parse::<u64>() {
        return Some(bytes);
    }
    let lower = s.to_ascii_lowercase();
    let (num, mult) = if let Some(v) = lower.strip_suffix("kib") {
        (v, 1u64 << 10)
    } else if let Some(v) = lower.strip_suffix("mib") {
        (v, 1 << 20)
    } else if let Some(v) = lower.strip_suffix("gib") {
        (v, 1 << 30)
    } else if let Some(v) = lower.strip_suffix("tib") {
        (v, 1 << 40)
    } else {
        return None;
    };
    let value: f64 = num.trim().parse().ok()?;
    if !value.is_finite() || value < 0.0 {
        return None;
    }
    Some((value * mult as f64) as u64)
}

/// Loads a campaign spec from inline JSON or a file path.
fn load_campaign(arg: &str) -> Result<CampaignSpec, String> {
    let json = if arg.trim_start().starts_with('{') {
        arg.to_string()
    } else {
        std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?
    };
    serde_json::from_str(&json).map_err(|e| format!("could not parse the campaign spec: {e}"))
}

fn campaign_command(args: &[String]) -> ExitCode {
    let Some(action) = args.first().map(String::as_str) else {
        eprintln!(
            "campaign needs an action: check | run | resume | report | compact | fleet | \
             worker | merge | fsck"
        );
        return ExitCode::FAILURE;
    };
    if !matches!(
        action,
        "check" | "run" | "resume" | "report" | "compact" | "fleet" | "worker" | "merge" | "fsck"
    ) {
        eprintln!(
            "unknown campaign action {action}; use check, run, resume, report, compact, \
             fleet, worker, merge, or fsck"
        );
        return ExitCode::FAILURE;
    }
    // `campaign check` follows dradio-lint's exit convention (0 clean,
    // 1 warnings only, 2 a bad argument or a spec that cannot be loaded or
    // expanded), so a script can tell a warning from an invalid spec. Every
    // other action fails with 1.
    let bad_input = if action == "check" {
        ExitCode::from(2)
    } else {
        ExitCode::FAILURE
    };
    let mut campaign_arg: Option<String> = None;
    let mut store_arg: Option<String> = None;
    let mut csv = false;
    let mut progress = false;
    let mut curves = false;
    let mut threads = 0usize;
    let mut workers = 2usize;
    let mut shard = 0usize;
    let mut faults_arg: Option<String> = None;
    let mut chaos_arg: Option<String> = None;
    let mut worker_exit_after: Option<usize> = None;
    let mut hang_timeout: Option<Duration> = None;
    let mut lease_timeout: Option<Duration> = None;
    let mut ready_timeout: Option<Duration> = None;
    let mut restart_budget = 2usize;
    let mut mem_budget: Option<u64> = None;
    let mut shard_paths: Vec<PathBuf> = Vec::new();
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--campaign" => match iter.next() {
                Some(v) => campaign_arg = Some(v.clone()),
                None => {
                    eprintln!("--campaign requires a JSON string or file path");
                    return bad_input;
                }
            },
            "--store" => match iter.next() {
                Some(v) => store_arg = Some(v.clone()),
                None => {
                    eprintln!("--store requires a file path");
                    return bad_input;
                }
            },
            "--csv" => csv = true,
            "--progress" => progress = true,
            "--curves" => curves = true,
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => {
                    eprintln!("--threads requires a positive integer");
                    return bad_input;
                }
            },
            "--workers" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => workers = n,
                _ => {
                    eprintln!("--workers requires a positive integer");
                    return bad_input;
                }
            },
            "--shard" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => shard = n,
                None => {
                    eprintln!("--shard requires a shard index");
                    return bad_input;
                }
            },
            "--faults" => match iter.next() {
                Some(v) => faults_arg = Some(v.clone()),
                None => {
                    eprintln!("--faults requires a JSON list of worker faults");
                    return bad_input;
                }
            },
            "--chaos" => match iter.next() {
                Some(v) => chaos_arg = Some(v.clone()),
                None => {
                    eprintln!("--chaos requires a seed, inline FaultPlan JSON, or a file path");
                    return bad_input;
                }
            },
            "--worker-exit-after" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => worker_exit_after = Some(n),
                _ => {
                    eprintln!("--worker-exit-after requires a positive integer");
                    return bad_input;
                }
            },
            "--restart-budget" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => restart_budget = n,
                None => {
                    eprintln!("--restart-budget requires an integer (0 disables restarts)");
                    return bad_input;
                }
            },
            "--hang-timeout" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => hang_timeout = Some(Duration::from_secs_f64(s)),
                _ => {
                    eprintln!("--hang-timeout requires a positive number of seconds");
                    return bad_input;
                }
            },
            "--lease-timeout" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => lease_timeout = Some(Duration::from_secs_f64(s)),
                _ => {
                    eprintln!("--lease-timeout requires a positive number of seconds");
                    return bad_input;
                }
            },
            "--mem-budget" => match iter.next().and_then(|v| parse_mem_size(v)) {
                Some(bytes) if bytes > 0 => mem_budget = Some(bytes),
                _ => {
                    eprintln!(
                        "--mem-budget requires a positive size: plain bytes or a \
                         binary-suffixed form like 512MiB or 4GiB"
                    );
                    return bad_input;
                }
            },
            "--ready-timeout" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => ready_timeout = Some(Duration::from_secs_f64(s)),
                _ => {
                    eprintln!("--ready-timeout requires a positive number of seconds");
                    return bad_input;
                }
            },
            other if !other.starts_with('-') && action == "merge" => {
                shard_paths.push(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown campaign option {other}");
                return bad_input;
            }
        }
    }

    if action == "worker" {
        // A worker's stdout carries protocol frames for its coordinator —
        // nothing human-readable goes there. The cells to run arrive over
        // the wire, so no --campaign is needed.
        let Some(store) = store_arg else {
            eprintln!("campaign worker requires --store <shard store path>");
            return ExitCode::FAILURE;
        };
        let faults: Vec<WorkerFault> = match &faults_arg {
            None => Vec::new(),
            Some(json) => match serde_json::from_str(json) {
                Ok(faults) => faults,
                Err(e) => {
                    eprintln!("--faults must be a JSON list of worker faults: {e}");
                    return ExitCode::FAILURE;
                }
            },
        };
        let config = WorkerConfig {
            shard,
            store: PathBuf::from(store),
            threads,
            faults,
        };
        let stdin = std::io::BufReader::new(std::io::stdin());
        return match run_worker(&config, stdin, std::io::stdout()) {
            Ok(report) => {
                eprintln!(
                    "worker {}: {} executed, {} skipped, {} failed ({} resumed, {} torn \
                     tail byte(s) repaired)",
                    report.shard,
                    report.executed,
                    report.skipped,
                    report.failed,
                    report.resumed,
                    report.repaired_tail_bytes
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("campaign worker failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if action == "fsck" {
        // Read-only shard inspection: needs a store, not a campaign.
        let Some(store) = store_arg else {
            eprintln!("campaign fsck requires --store <store path>");
            return ExitCode::FAILURE;
        };
        return match ResultStore::fsck(&store) {
            Ok(report) => {
                println!("fsck {store}:");
                println!("{report}");
                if report.is_clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("campaign fsck failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let Some(campaign_arg) = campaign_arg else {
        eprintln!("campaign {action} requires --campaign <json-or-path>");
        return bad_input;
    };
    let spec = match load_campaign(&campaign_arg) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return bad_input;
        }
    };
    if action == "check" {
        // Static validation only: no store is touched, no cell runs.
        return match dradio_campaign::check_with_budget(&spec, mem_budget) {
            Ok(report) => {
                print!("{report}");
                if report.is_clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("campaign check failed: {e}");
                bad_input
            }
        };
    }

    let store_path = store_arg.unwrap_or_else(|| format!("{}.campaign.jsonl", spec.name));

    if action == "merge" {
        if shard_paths.is_empty() {
            eprintln!(
                "campaign merge needs at least one shard store path (positional), e.g. \
                 `campaign merge --campaign spec.json --store out.jsonl out.shard0.jsonl \
                 out.shard1.jsonl`"
            );
            return ExitCode::FAILURE;
        }
        return match ResultStore::merge(&spec, &store_path, &shard_paths) {
            Ok(report) => {
                println!("{spec}");
                println!("merged into {store_path}: {report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("campaign merge failed: {e}");
                eprintln!("({store_path} and the shard stores were left untouched)");
                ExitCode::FAILURE
            }
        };
    }

    if action == "fleet" {
        let mut faults: Option<FaultPlan> = None;
        if let Some(raw) = &chaos_arg {
            // A bare integer is a seed; `{`/`[` starts inline JSON;
            // anything else is a file path holding the plan.
            let plan = if let Ok(seed) = raw.parse::<u64>() {
                FaultPlan::seeded(seed, workers)
            } else {
                let json = if raw.trim_start().starts_with(['{', '[']) {
                    raw.clone()
                } else {
                    match std::fs::read_to_string(raw) {
                        Ok(text) => text,
                        Err(e) => {
                            eprintln!("--chaos: cannot read {raw}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                };
                match serde_json::from_str::<FaultPlan>(&json) {
                    Ok(plan) => plan,
                    Err(e) => {
                        eprintln!("--chaos: not a seed or a FaultPlan JSON: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            faults = Some(plan);
        }
        if let Some(limit) = worker_exit_after {
            // The pre-chaos smoke knob, kept as sugar: kill worker 0 after
            // its limit-th fresh cell.
            faults
                .get_or_insert_with(FaultPlan::default)
                .faults
                .push(WorkerFault {
                    shard: 0,
                    after_cells: limit,
                    kind: FaultKind::Kill,
                });
        }
        return fleet_command(
            &spec,
            &store_path,
            mem_budget,
            FleetConfig {
                workers,
                threads,
                progress,
                hang_timeout,
                lease_timeout,
                ready_timeout: ready_timeout.or(Some(Duration::from_secs(30))),
                restart_budget,
                faults,
                worker_command: None,
                ..FleetConfig::default()
            },
        );
    }

    // Only `run` may create the store; `resume`, `report`, and `compact`
    // address an existing one (none of them should leave an empty file
    // behind).
    if action != "run" && !std::path::Path::new(&store_path).exists() {
        eprintln!(
            "campaign {action}: store {store_path} does not exist; use `campaign run` to start one"
        );
        return ExitCode::FAILURE;
    }

    if action == "compact" {
        // Compaction validates the store itself (and refuses to rewrite
        // anything if the integrity checks fail).
        match ResultStore::compact(&spec, &store_path) {
            Ok(report) => {
                println!("{spec}");
                println!("compacted {store_path}: {report}");
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("campaign compact failed: {e}");
                eprintln!("({store_path} was left untouched)");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut store = match ResultStore::open(&store_path) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{spec}");
    println!(
        "store: {store_path} ({} cells already measured)",
        store.len()
    );

    if action != "report" {
        let mut runner = CampaignRunner::new(&spec).progress(progress);
        if threads > 0 {
            runner = runner.threads(threads);
        }
        match runner.run(&mut store) {
            Ok(report) => {
                println!(
                    "cells: {} total, {} skipped (already measured), {} executed",
                    report.total, report.skipped, report.executed
                );
            }
            Err(e) => {
                eprintln!("campaign failed: {e}");
                eprintln!(
                    "(the {} cells committed so far are safe in {store_path}; \
                     rerun `campaign resume` after fixing the problem)",
                    store.len()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let table = campaign_table(&spec, &store);
    println!("{}", table.render());
    if csv {
        println!("```csv");
        print!("{}", table.to_csv());
        println!("```");
    }
    if curves {
        let mut rendered = 0usize;
        for record in store.records() {
            if let Some(curve) = &record.measurement.contention {
                let table = dradio_analysis::contention_table(
                    format!("contention: {}", record.cell.label()),
                    &[(record.cell.scenario.algorithm.name().to_string(), curve)],
                    dradio_analysis::curves::DEFAULT_BUCKETS,
                );
                println!("{}", table.render());
                rendered += 1;
            }
        }
        if rendered == 0 {
            println!(
                "(no stored measurement carries a contention curve; set \"curve\": true \
                 on a sweep group to stream one)"
            );
        }
    }
    if action == "report" {
        match spec.expand() {
            Ok(cells) => {
                let missing = cells
                    .iter()
                    .filter(|cell| !store.contains(&cell.key()))
                    .count();
                if missing > 0 {
                    println!("({missing} of {} cells not yet measured)", cells.len());
                }
            }
            Err(e) => {
                eprintln!("campaign spec does not expand: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `campaign fleet`: a check-gated launch banner with a per-shard budget
/// estimate (rounds and topology memory), then the coordinator.
fn fleet_command(
    spec: &CampaignSpec,
    store_path: &str,
    mem_budget: Option<u64>,
    config: FleetConfig,
) -> ExitCode {
    // The coordinator re-checks internally; checking here first prints the
    // warnings the way `campaign check` does and sizes the banner.
    let report = match dradio_campaign::check_with_budget(spec, mem_budget) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("campaign fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !report.is_clean() {
        print!("{report}");
        eprintln!(
            "campaign fleet: the spec has {} check warning(s); fix them (or run \
             single-process `campaign run`) before fanning out across processes",
            report.warnings.len()
        );
        return ExitCode::FAILURE;
    }
    println!("{spec}");
    // Each worker runs `threads.max(1)` cell runners concurrently, so the
    // wall-clock proxy is rounds divided across every parallel stream — not
    // one sequential trial stream per worker.
    let streams = (config.workers * config.threads.max(1)) as u64;
    let budget: Option<u64> = report.groups.iter().map(|g| g.max_rounds).sum();
    match budget {
        Some(total) => println!(
            "fleet: {} workers over {} cells; worst-case budget ≈ {} rounds per \
             parallel stream (of {total} total across {streams} streams)",
            config.workers,
            report.cells,
            total.div_ceil(streams)
        ),
        None => println!(
            "fleet: {} workers over {} cells (unbounded round budget)",
            config.workers, report.cells
        ),
    }
    // Every worker process builds its own copy of a cell's topology, so the
    // honest per-worker memory proxy is the largest single-cell estimate.
    let peak = report
        .groups
        .iter()
        .filter_map(|g| g.peak_topology)
        .max_by_key(|&(_, bytes)| bytes);
    if let Some((backend, bytes)) = peak {
        let ceiling = mem_budget
            .map(|b| format!(", within the {} budget", dradio_campaign::format_bytes(b)))
            .unwrap_or_default();
        println!(
            "fleet: peak topology estimate ~{} per worker ({backend} backend{ceiling})",
            dradio_campaign::format_bytes(bytes)
        );
    }
    if let Some(plan) = &config.faults {
        let seed = plan
            .seed
            .map(|s| format!(" (seed {s})"))
            .unwrap_or_default();
        println!(
            "fleet: chaos plan armed: {} fault(s){seed} — convergence contract: the merged \
             store must still match a single-process run byte for byte",
            plan.faults.len()
        );
    }
    let workers = config.workers;
    match run_fleet(spec, Path::new(store_path), &config) {
        Ok(report) => {
            println!(
                "cells: {} total, {} skipped (already durable), {} completed, \
                 {} re-assigned, {} lease(s) expired, {} worker(s) restarted, {} worker(s)",
                report.total,
                report.skipped,
                report.completed,
                report.reassigned,
                report.lease_expired,
                report.restarted,
                report.workers
            );
            let shards: Vec<String> = (0..workers)
                .map(|k| shard_store_path(Path::new(store_path), k))
                .filter(|p| p.exists())
                .map(|p| p.display().to_string())
                .collect();
            if shards.is_empty() {
                println!("(no shard stores written — nothing was pending)");
            } else {
                println!(
                    "next: repro campaign merge --campaign <spec> --store {store_path} {}",
                    shards.join(" ")
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign fleet failed: {e}");
            eprintln!(
                "(completed cells are durable in the shard stores next to {store_path}; \
                 rerun `campaign fleet` to resume)"
            );
            ExitCode::FAILURE
        }
    }
}

/// One row of the `repro bench --scale` report.
struct ScaleBenchRow {
    workload: &'static str,
    n: usize,
    edges: usize,
    backend: String,
    build_secs: f64,
    trials: usize,
    rounds: usize,
    run_secs: f64,
    dense_bytes: Option<u64>,
    csr_bytes: Option<u64>,
    peak_rss_bytes: Option<u64>,
}

impl serde::Serialize for ScaleBenchRow {
    fn to_value(&self) -> serde::Value {
        let opt = |v: Option<u64>| match v {
            Some(b) => serde::Value::UInt(b),
            None => serde::Value::Null,
        };
        serde::Value::Map(vec![
            ("workload".into(), serde::Value::Str(self.workload.into())),
            ("n".into(), serde::Value::UInt(self.n as u64)),
            ("edges".into(), serde::Value::UInt(self.edges as u64)),
            ("backend".into(), serde::Value::Str(self.backend.clone())),
            ("build_secs".into(), serde::Value::Float(self.build_secs)),
            ("trials".into(), serde::Value::UInt(self.trials as u64)),
            ("rounds".into(), serde::Value::UInt(self.rounds as u64)),
            ("run_secs".into(), serde::Value::Float(self.run_secs)),
            ("dense_bytes_estimate".into(), opt(self.dense_bytes)),
            ("csr_bytes_estimate".into(), opt(self.csr_bytes)),
            ("peak_rss_bytes".into(), opt(self.peak_rss_bytes)),
        ])
    }
}

/// The `BENCH_sparse.json` document: `{"scale_n": N, "benches": [row, ...]}`.
struct ScaleBenchReport<'a> {
    scale_n: usize,
    benches: &'a [ScaleBenchRow],
}

impl serde::Serialize for ScaleBenchReport<'_> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("scale_n".into(), serde::Value::UInt(self.scale_n as u64)),
            (
                "benches".into(),
                serde::Value::Seq(
                    self.benches
                        .iter()
                        .map(serde::Serialize::to_value)
                        .collect(),
                ),
            ),
        ])
    }
}

/// The process's high-water resident set size, from `/proc/self/status`
/// (`VmHWM`). `None` off Linux — the bench still runs, just without the
/// RSS column.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .strip_prefix("VmHWM:")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// `repro bench --scale [--scale-n N]`: broadcast at ~N nodes (default one
/// million) on a grid and a random-geometric network. Both build their rows
/// in O(n + m) and stay on CSR above the density threshold — the bit matrix
/// those sizes would need (~116 GiB at 10⁶ nodes) is never allocated — and
/// the report records build/run timings, the dense-vs-CSR memory estimates
/// for both layers, and the process's peak RSS. Always writes
/// `BENCH_sparse.json`.
fn scale_bench_command(scale_n: usize) -> ExitCode {
    use dradio_scenario::{csr_bytes_estimate, dense_bytes_estimate};

    const ROUNDS: usize = 32;
    const TRIALS: usize = 2;
    const P: f64 = 0.1;

    let side = (scale_n as f64).sqrt().round().max(2.0) as usize;
    // ~8 nodes per unit square: mean reliable degree ~π·8 ≈ 25, safely over
    // the ~ln n ≈ 14 connectivity threshold at a million nodes, while the
    // CSR edge list stays linear in n (the dense bitmatrix would not).
    let geo_side = (scale_n as f64 / 8.0).sqrt().max(1.5);
    let workloads: Vec<(&'static str, TopologySpec, AdversarySpec)> = vec![
        (
            "grid",
            TopologySpec::Grid {
                cols: side,
                rows: side,
            },
            AdversarySpec::StaticNone,
        ),
        (
            "random-geo",
            TopologySpec::RandomGeometric {
                n: scale_n,
                side: geo_side,
                r: 1.5,
                seed: 9,
            },
            AdversarySpec::Iid { p: 0.5 },
        ),
    ];

    let mut rows = Vec::new();
    for (name, spec, adversary) in workloads {
        // Both layers, in each layout.
        let size = spec.node_count().zip(spec.expected_edges());
        let dense_bytes = size.map(|(n, m)| 2 * dense_bytes_estimate(n, m));
        let csr_bytes = size.map(|(n, m)| 2 * csr_bytes_estimate(n, m));

        let t_build = std::time::Instant::now();
        let built = match spec.build() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("repro bench --scale: {name} topology does not build: {e}");
                return ExitCode::FAILURE;
            }
        };
        let build_secs = t_build.elapsed().as_secs_f64();
        let n = built.dual.len();
        let edges = built.dual.g_prime().edge_count();
        let backend = built.dual.graph_backend();

        let mut executor = dradio_bench::engine_executor(&built, &adversary, P, ROUNDS);
        let t_run = std::time::Instant::now();
        let mut deliveries = 0usize;
        for trial in 0..TRIALS as u64 {
            deliveries += executor
                .execute(
                    dradio_sim::derive_stream_seed(0x5CA1E, trial),
                    dradio_scenario::RecordMode::None,
                )
                .metrics
                .deliveries;
        }
        let run_secs = t_run.elapsed().as_secs_f64();
        if deliveries == 0 {
            eprintln!(
                "repro bench --scale: {name}/{n} delivered nothing over \
                 {TRIALS}x{ROUNDS} rounds — the workload is not exercising the network"
            );
            return ExitCode::FAILURE;
        }

        rows.push(ScaleBenchRow {
            workload: name,
            n,
            edges,
            backend: backend.to_string(),
            build_secs,
            trials: TRIALS,
            rounds: ROUNDS,
            run_secs,
            dense_bytes,
            csr_bytes,
            // VmHWM is monotonic, so each row reads the high-water mark as
            // of the end of its own run.
            peak_rss_bytes: peak_rss_bytes(),
        });
    }

    println!("scale bench: ~{scale_n} nodes, {TRIALS} trials x {ROUNDS} rounds, scalar engine");
    println!(
        "{:<12} {:>9} {:>10} {:>8} {:>9} {:>9} {:>12} {:>12} {:>10}",
        "workload", "n", "edges", "backend", "build s", "run s", "dense est", "csr est", "peak RSS"
    );
    let fmt_opt = |v: Option<u64>| match v {
        Some(bytes) => dradio_campaign::format_bytes(bytes),
        None => "-".to_string(),
    };
    for row in &rows {
        println!(
            "{:<12} {:>9} {:>10} {:>8} {:>9.2} {:>9.2} {:>12} {:>12} {:>10}",
            row.workload,
            row.n,
            row.edges,
            row.backend,
            row.build_secs,
            row.run_secs,
            fmt_opt(row.dense_bytes),
            fmt_opt(row.csr_bytes),
            fmt_opt(row.peak_rss_bytes),
        );
    }

    let doc = ScaleBenchReport {
        scale_n,
        benches: &rows,
    };
    let path = Path::new("BENCH_sparse.json");
    match serde_json::to_string_pretty(&doc) {
        Ok(body) => {
            if let Err(e) = std::fs::write(path, body + "\n") {
                eprintln!("repro bench --scale: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
        Err(e) => {
            eprintln!("repro bench --scale: JSON serialization failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `repro bench --scale [--scale-n N]`: parses the bench options and runs
/// the scale bench, the only one `repro bench` has.
fn bench_command(args: &[String]) -> ExitCode {
    let mut scale = false;
    let mut scale_n = 1_000_000usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => scale = true,
            "--scale-n" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 4 => scale_n = n,
                _ => {
                    eprintln!("--scale-n requires an integer node count of at least 4");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown bench option {other}; repro bench takes --scale and --scale-n");
                return ExitCode::FAILURE;
            }
        }
    }
    if !scale {
        eprintln!("repro bench runs only the scale bench: repro bench --scale [--scale-n <N>]");
        return ExitCode::FAILURE;
    }
    scale_bench_command(scale_n)
}

/// `repro lint [--fix-hints]`: the workspace static-analysis pass, from the
/// binary everything else already runs through.
fn lint_command(args: &[String]) -> ExitCode {
    let mut fix_hints = false;
    for arg in args {
        match arg.as_str() {
            "--fix-hints" => fix_hints = true,
            other => {
                eprintln!("unknown lint option {other}; repro lint takes only --fix-hints");
                return ExitCode::FAILURE;
            }
        }
    }
    match dradio_lint::run_check(std::path::Path::new(".")) {
        Ok(report) => {
            print!("{}", report.render(fix_hints));
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("repro lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("campaign") {
        return campaign_command(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("lint") {
        return lint_command(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bench") {
        return bench_command(&args[1..]);
    }

    let mut cfg = ExperimentConfig::quick();
    let mut only: Option<String> = None;
    let mut csv = false;
    let mut list = false;
    let mut scenario_json: Option<String> = None;
    let mut trials = 8usize;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => cfg = ExperimentConfig::smoke(),
            "--quick" => cfg = ExperimentConfig::quick(),
            "--full" => cfg = ExperimentConfig::full(),
            "--csv" => csv = true,
            "--list" => list = true,
            "--only" => match iter.next() {
                Some(id) => only = Some(id.to_uppercase()),
                None => {
                    eprintln!("--only requires an experiment id (e.g. --only E5)");
                    return ExitCode::FAILURE;
                }
            },
            "--scenario" => match iter.next() {
                Some(json) => scenario_json = Some(json.clone()),
                None => {
                    eprintln!("--scenario requires a ScenarioSpec JSON argument");
                    return ExitCode::FAILURE;
                }
            },
            "--trials" => match iter.next().and_then(|t| t.parse().ok()) {
                Some(t) => trials = t,
                None => {
                    eprintln!("--trials requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--example-scenario" => {
                println!("{}", example_scenario());
                return ExitCode::SUCCESS;
            }
            "--example-campaign" => {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&example_campaign())
                        .expect("campaigns always serialize")
                );
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("repro: regenerate the PODC 2013 reproduction tables");
                println!(
                    "options: --smoke | --quick | --full, --only <ID>, --csv, --list, \
                     --scenario <JSON> [--trials <N>], --example-scenario, --example-campaign"
                );
                println!(
                    "campaigns: campaign <check|run|resume|report|compact> --campaign \
                     <json-or-path> [--store <path>] [--csv] [--progress] [--threads <N>]"
                );
                println!(
                    "fleet: campaign fleet --campaign <json-or-path> [--store <path>] \
                     [--workers <N>] [--threads <N>] [--hang-timeout <secs>] \
                     [--lease-timeout <secs>] [--ready-timeout <secs>] \
                     [--restart-budget <N>] [--chaos <seed|json|path>]; \
                     campaign merge --campaign <json-or-path> --store <out> <shard>...; \
                     campaign fsck --store <path> (read-only shard inspection); \
                     campaign worker (internal, spawned by fleet)"
                );
                println!("lint: repro lint [--fix-hints] (workspace static analysis)");
                println!(
                    "bench: repro bench --scale [--scale-n <N>] \
                     (million-node CSR broadcast; writes BENCH_sparse.json)"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(json) = scenario_json {
        return run_scenario(&json, trials);
    }

    let registry = experiments::all();
    if list {
        for e in &registry {
            println!("{}  {}", e.id(), e.title());
        }
        return ExitCode::SUCCESS;
    }

    println!("# Reproduction of Ghaffari–Lynch–Newport (PODC 2013), Figure 1");
    println!("# configuration: {cfg:?}");
    println!();

    let mut ran_any = false;
    for experiment in &registry {
        if let Some(only_id) = &only {
            if experiment.id() != only_id {
                continue;
            }
        }
        ran_any = true;
        println!("=== {} — {} ===", experiment.id(), experiment.title());
        println!("paper claim: {}", experiment.paper_claim());
        println!();
        let tables = match experiment.run(&cfg) {
            Ok(tables) => tables,
            Err(e) => {
                eprintln!("{} failed: {e}", experiment.id());
                return ExitCode::FAILURE;
            }
        };
        for table in tables {
            println!("{}", table.render());
            if csv {
                println!("```csv");
                print!("{}", table.to_csv());
                println!("```");
            }
        }
        println!();
    }

    if !ran_any {
        eprintln!("no experiment matched {only:?}; use --list to see the available ids");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
