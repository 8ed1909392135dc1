//! `s3a-mc` — explore schedule spaces, replay counterexamples.
//!
//! ```text
//! s3a-mc explore [--strategy MW] [--masters 2] [--workers 8] [--quick]
//!                [--deviations N] [--max-runs N] [--crash-points N]
//!                [--target-distinct N] [--chaos-stale-ownership]
//!                [--out FILE]
//! s3a-mc replay <counterexample.json>
//! ```
//!
//! `explore` exits 1 when a violation was found (the minimized
//! counterexample is printed, and written to `--out` when given);
//! `replay` exits 0 when the recorded violation reproduces and 1 when it
//! does not. Both exit 2 on a usage error, and `replay` also exits 2 for
//! an unreadable or invalid file (bad JSON, a missing field, a number
//! that is not an unsigned integer, or a scenario the simulator refuses).

use std::process::ExitCode;

use s3a_mc::{explore, Counterexample, McConfig, Scenario};
use s3a_obs::json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => cmd_explore(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => {
            eprintln!("usage: s3a-mc explore [flags] | s3a-mc replay <file>");
            ExitCode::from(2)
        }
    }
}

fn cmd_explore(args: &[String]) -> ExitCode {
    let mut strategy = "MW".to_string();
    let mut masters = 2usize;
    let mut workers = 8usize;
    let mut chaos = false;
    let mut out: Option<String> = None;
    let mut cfg = McConfig::quick();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let r: Result<(), String> = match arg.as_str() {
            "--strategy" => value(arg, it.next()).map(|v| strategy = v),
            "--masters" => count(arg, it.next()).map(|v| masters = v),
            "--workers" => count(arg, it.next()).map(|v| workers = v),
            "--deviations" => count(arg, it.next()).map(|v| cfg.max_deviations = v),
            "--max-runs" => count(arg, it.next()).map(|v| cfg.max_runs = v),
            "--crash-points" => count(arg, it.next()).map(|v| cfg.crash_points = v),
            "--target-distinct" => count(arg, it.next()).map(|v| cfg.target_distinct = Some(v)),
            "--quick" => {
                cfg = McConfig::quick();
                Ok(())
            }
            "--chaos-stale-ownership" => {
                chaos = true;
                Ok(())
            }
            "--out" => value(arg, it.next()).map(|v| out = Some(v)),
            other => Err(format!("unknown flag '{other}'")),
        };
        if let Err(e) = r {
            eprintln!("s3a-mc: {e}");
            return ExitCode::from(2);
        }
    }

    let Some(strategy) = s3a_mc::strategy_from_label(&strategy) else {
        eprintln!("s3a-mc: unknown strategy '{strategy}'");
        return ExitCode::from(2);
    };
    let mut scenario = Scenario::failover(strategy, masters, workers);
    if chaos {
        scenario = Scenario::chained_failover(strategy);
        scenario.chaos_stale_ownership = true;
    }

    eprintln!(
        "exploring {} (deviations ≤ {}, runs ≤ {}, crash points {})",
        scenario.label(),
        cfg.max_deviations,
        cfg.max_runs,
        cfg.crash_points
    );
    let report = explore(&scenario, &cfg);
    println!(
        "{}: {} runs, {} distinct schedules, {} duplicates, {} decision points, {} crash variant(s), {} violation(s)",
        scenario.label(),
        report.runs,
        report.distinct,
        report.duplicates,
        report.decision_points,
        report.crash_variants,
        report.counterexamples.len()
    );
    if report.counterexamples.is_empty() {
        return ExitCode::SUCCESS;
    }
    for cx in &report.counterexamples {
        let text = cx.to_json().pretty();
        println!("counterexample ({}):", cx.violation);
        print!("{text}");
        if let Some(path) = &out {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("s3a-mc: writing {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("counterexample written to {path}");
        }
    }
    ExitCode::FAILURE
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: s3a-mc replay <counterexample.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("s3a-mc: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let parsed = json::parse(&text).map_err(|e| e.to_string());
    let cx = match parsed.and_then(|j| Counterexample::from_json(&j)) {
        Ok(cx) => cx,
        Err(e) => {
            eprintln!("s3a-mc: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "replaying {} ({} deviation(s), recorded violation: {})",
        cx.scenario.label(),
        cx.choices.len(),
        cx.violation
    );
    // A generous budget so a recorded non-termination counterexample
    // still trips the termination oracle rather than a smaller one.
    match cx.replay(McConfig::quick().max_steps.max(2_000_000)) {
        Ok(violation) => {
            println!("violation reproduced: {violation}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("replay FAILED to reproduce: {e}");
            ExitCode::FAILURE
        }
    }
}

fn value(flag: &str, v: Option<&String>) -> Result<String, String> {
    v.cloned().ok_or_else(|| format!("{flag} needs a value"))
}

fn count(flag: &str, v: Option<&String>) -> Result<usize, String> {
    let text = value(flag, v)?;
    text.parse::<usize>()
        .map_err(|e| format!("{flag} '{text}': {e}"))
}
