//! Chaos-harness CLI.
//!
//! ```text
//! harness --seed 42            # replay one seed, print its trace
//! harness --base 1000 --count 500   # soak seeds 1000..1500
//! harness --scenarios          # run the scripted §6.2 scenarios
//! harness --seed 0 --plant-bug # corrupt the oracle: demo the failure path
//! harness --seed 42 --obs      # attach the flight recorder, print metrics
//! harness --seed 42 --obs-out dump.json   # write the forensics dump
//! ```
//!
//! Exits 1 if any run violates an invariant, printing the seed and the
//! minimized trace so the failure can be replayed exactly. With
//! `--obs-out`, single-seed runs always write the canonical forensics
//! JSON; sweep and scenario runs write the first failing seed's dump.

use std::process::ExitCode;

use harness::engine::{run_plan, RunOptions};
use harness::plan::ScenarioPlan;
use harness::scenarios;
use harness::trace::{failure_report, minimize};

fn usage() -> ExitCode {
    eprintln!(
        "usage: harness --seed N | harness [--base N] [--count N] [--verbose] | harness --scenarios\n       [--plant-bug]  corrupt the oracle's GET predictions to demo the failure path\n       [--obs]        attach the flight recorder (metrics + forensics on failure)\n       [--obs-out F]  write the canonical forensics JSON to F (implies --obs)\n       harness lint [--json] [--corpus] [FILE...]   run rulecheck; exit 1 on errors"
    );
    ExitCode::from(2)
}

/// `harness lint`: run `rulecheck` over rule files and/or the embedded
/// corpus; exit 1 when any error-severity diagnostic is found.
fn lint_main(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut corpus = false;
    let mut files: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--corpus" => corpus = true,
            flag if flag.starts_with("--") => return usage(),
            file => files.push(file.to_string()),
        }
    }
    if !corpus && files.is_empty() {
        corpus = true; // bare `harness lint` checks everything embedded
    }
    let mut targets = if corpus {
        harness::lint::corpus()
    } else {
        Vec::new()
    };
    let std_builtins = std::sync::Arc::new(dsl::Builtins::standard());
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(src) => targets.push(harness::lint::LintTarget::new(
                file.clone(),
                src,
                std_builtins.clone(),
            )),
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let report = harness::lint::LintReport::run(&targets);
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("lint") {
        return lint_main(&args[1..]);
    }
    let mut seed: Option<u64> = None;
    let mut base: u64 = 0;
    let mut count: u64 = 200;
    let mut verbose = false;
    let mut run_scenarios = false;
    let mut plant_bug = false;
    let mut obs = false;
    let mut obs_out: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = Some(v),
                None => return usage(),
            },
            "--base" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => base = v,
                None => return usage(),
            },
            "--count" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => count = v,
                None => return usage(),
            },
            "--verbose" => verbose = true,
            "--scenarios" => run_scenarios = true,
            "--plant-bug" => plant_bug = true,
            "--obs" => obs = true,
            "--obs-out" => match it.next() {
                Some(path) => {
                    obs = true;
                    obs_out = Some(path.clone());
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let single_seed = seed.is_some();
    let options = RunOptions {
        planted_model_bug: plant_bug,
        obs,
        ..RunOptions::default()
    };
    let mut failures = 0u64;
    let mut dump_written = false;

    let mut check = |plan: &ScenarioPlan, verbose: bool| {
        let report = run_plan(plan, &options);
        let ok = report.ok();
        if ok {
            if verbose {
                print!("{}", report.render_trace());
            } else {
                println!(
                    "seed {} ({}, {} steps): ok",
                    plan.seed,
                    report.backend.name(),
                    report.steps_run
                );
            }
        } else {
            let minimized = minimize(plan, &options);
            print!("{}", failure_report(&report, &minimized));
            if let Some(text) = &report.obs_text {
                print!("--- timeline and flight recorder (last events per lane) ---\n{text}");
            }
        }
        // Single-seed runs always export their dump; sweeps export the
        // first failing seed's.
        if let Some(path) = &obs_out {
            if (single_seed || !ok) && !dump_written {
                if let Some(json) = &report.obs_json {
                    match std::fs::write(path, json) {
                        Ok(()) => {
                            dump_written = true;
                            eprintln!("forensics dump written to {path}");
                        }
                        Err(e) => eprintln!("failed to write {path}: {e}"),
                    }
                }
            }
        }
        if single_seed {
            if let Some(metrics) = &report.metrics_text {
                print!("--- metrics ---\n{metrics}");
            }
        }
        ok
    };

    if run_scenarios {
        for plan in scenarios::section_6_2() {
            if !check(&plan, verbose) {
                failures += 1;
            }
        }
    } else if let Some(seed) = seed {
        if !check(&ScenarioPlan::from_seed(seed), true) {
            failures += 1;
        }
    } else {
        for seed in base..base.saturating_add(count) {
            if !check(&ScenarioPlan::from_seed(seed), verbose) {
                failures += 1;
            }
        }
        println!("swept {} seeds from {}: {} failed", count, base, failures);
    }

    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
