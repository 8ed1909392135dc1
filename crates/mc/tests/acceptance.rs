//! Acceptance tests for the model checker itself:
//!
//! * quick mode explores ≥ 500 distinct schedules of the 2-master ×
//!   8-worker failover scenario with every oracle passing, and
//! * with the PR 10 stale-ownership failover bug deliberately
//!   re-introduced (the `s3asim::chaos` knob), the checker catches it and
//!   produces a minimized counterexample that replays deterministically.

use std::process::Command;

use s3a_mc::{check_oracles, explore, run_schedule, Counterexample, McConfig, Scenario};
use s3a_obs::json;
use s3asim::Strategy;

#[test]
fn quick_mode_explores_500_distinct_failover_schedules_cleanly() {
    let scenario = Scenario::failover(Strategy::Mw, 2, 8);
    let mut cfg = McConfig::quick();
    cfg.target_distinct = Some(500);
    let report = explore(&scenario, &cfg);
    assert!(
        report.distinct >= 500,
        "only {} distinct schedules in {} runs",
        report.distinct,
        report.runs
    );
    assert!(
        report.counterexamples.is_empty(),
        "unexpected violation: {}",
        report.counterexamples[0].violation
    );
    assert!(report.decision_points > 0, "no schedule freedom observed");

    // The scenario must actually exercise failover: the canonical run
    // crashes a master and a standby takes over.
    let canonical = run_schedule(&scenario, &scenario.fault_params(), &[], cfg.max_steps);
    let run = canonical.result.expect("canonical failover run succeeds");
    let faults = run.faults.expect("fault report present");
    assert!(faults.master_crashes >= 1, "no master crashed");
    assert!(faults.shard_takeovers >= 1, "no standby took over");
}

#[test]
fn exploration_also_covers_a_collective_strategy() {
    let scenario = Scenario::failover(Strategy::WwList, 2, 8);
    let mut cfg = McConfig::quick();
    cfg.max_runs = 80;
    let report = explore(&scenario, &cfg);
    assert!(report.distinct >= 50, "only {} distinct", report.distinct);
    assert!(
        report.counterexamples.is_empty(),
        "unexpected violation: {}",
        report.counterexamples[0].violation
    );
}

#[test]
fn reintroduced_stale_ownership_bug_is_caught_minimized_and_replayed() {
    let mut scenario = Scenario::chained_failover(Strategy::Mw);
    scenario.chaos_stale_ownership = true;
    let report = explore(&scenario, &McConfig::quick());
    let cx = report
        .counterexamples
        .first()
        .expect("the chained-failover bug must be caught");
    assert!(
        cx.violation.contains("extent exactness") || cx.violation.contains("exactly-once"),
        "unexpected violation class: {}",
        cx.violation
    );
    // Greedy minimization cannot leave a removable deviation behind; the
    // chained-failover bug fires on the canonical schedule, so the
    // minimal plan is empty.
    assert!(
        cx.choices.is_empty(),
        "minimization left deviations: {:?}",
        cx.choices
    );

    // The counterexample file is self-contained: round-trip and replay.
    let text = cx.to_json().pretty();
    let parsed = Counterexample::from_json(&json::parse(&text).expect("valid JSON"))
        .expect("counterexample parses back");
    assert_eq!(parsed.scenario, cx.scenario);
    assert_eq!(parsed.choices, cx.choices);
    assert_eq!(parsed.crashes, cx.crashes);
    let reproduced = parsed.replay(2_000_000).expect("violation reproduces");
    assert_eq!(reproduced, cx.violation, "replay is deterministic");
}

#[test]
fn same_scenario_without_chaos_passes_every_oracle() {
    let scenario = Scenario::chained_failover(Strategy::Mw);
    assert!(!scenario.chaos_stale_ownership);
    let run = run_schedule(&scenario, &scenario.fault_params(), &[], 2_000_000);
    check_oracles(&scenario, &run, None).expect("fixed protocol survives chained failover");
}

/// A counterexample file that parses but must not replay: its scenario is
/// one the simulator refuses, or a choice does not fit the `u32` the
/// schedule uses. `from_json` refuses each, and `s3a-mc replay` exits 2
/// instead of reporting a reproduced violation or replaying a different
/// schedule.
#[test]
fn replay_refuses_invalid_scenarios_and_oversized_choices() {
    let cx = Counterexample {
        scenario: Scenario::failover(Strategy::Mw, 2, 8),
        crash_variant: 0,
        crashes: vec![(1, 40_000_000)],
        choices: vec![],
        violation: "recorded".to_string(),
    };
    let text = cx.to_json().pretty();
    assert!(Counterexample::from_json(&json::parse(&text).unwrap()).is_ok());
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, from, to) in [
        ("zero_masters", "\"masters\": 2,", "\"masters\": 0,"),
        (
            "oversized_choice",
            "\"choices\": [],",
            "\"choices\": [[0, 4294967296]],",
        ),
    ] {
        let edited = text.replace(from, to);
        assert_ne!(edited, text, "{name}: the edit must hit the file");
        let err = Counterexample::from_json(&json::parse(&edited).unwrap())
            .expect_err("the counterexample must be refused");
        eprintln!("{name}: {err}");

        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, &edited).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_s3a-mc"))
            .arg("replay")
            .arg(&path)
            .output()
            .expect("s3a-mc runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: stdout {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// A counterexample whose seed is written `0152` is not JSON (RFC 8259
/// forbids a leading zero): `s3a-mc replay` refuses the file with exit 2
/// instead of replaying seed 152.
#[test]
fn replay_refuses_a_seed_written_with_a_leading_zero() {
    let mut scenario = Scenario::failover(Strategy::Mw, 2, 8);
    scenario.seed = 152;
    let cx = Counterexample {
        scenario,
        crash_variant: 0,
        crashes: vec![(1, 40_000_000)],
        choices: vec![],
        violation: "recorded".to_string(),
    };
    let text = cx.to_json().pretty();
    let edited = text.replace("\"seed\": 152,", "\"seed\": 0152,");
    assert_ne!(edited, text, "the edit must hit the seed field");
    assert!(json::parse(&edited).is_err(), "0152 is not a JSON number");

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("leading_zero_seed.json");
    std::fs::write(&path, &edited).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_s3a-mc"))
        .arg("replay")
        .arg(&path)
        .output()
        .expect("s3a-mc runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}
