//! The bounded schedule-space explorer: breadth-first over *deviations*
//! from the canonical schedule, one crash-grid variant at a time.
//!
//! Each explored schedule is a sparse plan of `(decision, choice)`
//! deviations (see [`crate::choice`]). Depth-1 schedules — one deviation
//! each — are seeded from the canonical run's decision trace; a schedule
//! that executes fresh behavior (new state signature) and still has
//! deviation budget spawns children deviating at decision points *after*
//! its own last deviation, so plans enumerate without duplication by
//! construction and iterative deepening falls out of BFS order.
//!
//! The partial-order-reduction-lite filter is the signature set: two
//! plans frequently collapse into the same execution (a deviation at a
//! point the run never reached, or a swap of two independent steps that
//! reconverges immediately); schedules whose signature was already seen
//! are counted as duplicates and not expanded further.

use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use s3a_des::policy::{with_policy, PolicyHandle};
use s3a_des::SimTime;
use s3a_obs::json::Value;
use s3asim::{try_run, RunReport, SimError};

use crate::choice::{Choice, ChoicePolicy};
use crate::oracle::{self, Baseline};
use crate::scenario::{pairs_from_json, pairs_to_json, Scenario};
use std::cell::RefCell;

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Maximum deviations from canonical per schedule (quick mode: 2).
    pub max_deviations: usize,
    /// Total run budget across all crash variants.
    pub max_runs: usize,
    /// Stop early once this many distinct schedules have been seen.
    pub target_distinct: Option<usize>,
    /// Per-run selection-step budget; exhausting it is a termination
    /// violation. Absolute (not derived from the canonical run) so a
    /// canonical-schedule livelock is itself caught.
    pub max_steps: u64,
    /// Crash-grid variants to enumerate (quick mode: 1 = as scheduled).
    pub crash_points: usize,
    /// Crash-time shift between grid variants.
    pub crash_step: SimTime,
    /// Abort the exploration at the first violation (after minimizing).
    pub stop_on_first_violation: bool,
}

impl McConfig {
    /// The CI quick mode: ≤ 2 same-tick permutation deviations, a single
    /// crash point, and a run budget sized for a smoke job.
    pub fn quick() -> McConfig {
        McConfig {
            max_deviations: 2,
            max_runs: 700,
            target_distinct: None,
            max_steps: 400_000,
            crash_points: 1,
            crash_step: SimTime::from_millis(20),
            stop_on_first_violation: true,
        }
    }
}

/// How one explored run ended.
#[derive(Debug)]
pub enum RunError {
    /// The simulation reported a typed failure.
    Sim(SimError),
    /// An invariant `panic!` fired inside the protocol code.
    Panic(String),
}

/// One explored run: its result plus what the policy recorded.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run's report or failure.
    pub result: Result<RunReport, RunError>,
    /// Decision points observed (the deviation menu for children).
    pub trace: Vec<(u64, u32)>,
    /// State signature (schedule identity).
    pub signature: u64,
    /// True when the step budget cut the run off.
    pub exhausted: bool,
}

/// A schedule that violated an oracle, minimized and self-contained.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The scenario the schedule drives (embedded so replay needs
    /// nothing else).
    pub scenario: Scenario,
    /// Crash-grid variant index.
    pub crash_variant: usize,
    /// The resolved crash schedule of that variant, `(rank, ns)`.
    pub crashes: Vec<(usize, u64)>,
    /// Minimized deviation plan.
    pub choices: Vec<Choice>,
    /// Which oracle rejected it, with detail.
    pub violation: String,
}

/// Exploration summary.
#[derive(Debug)]
pub struct ExploreReport {
    /// Total runs executed (including canonical baselines and
    /// minimization reruns).
    pub runs: usize,
    /// Distinct state signatures seen.
    pub distinct: usize,
    /// Runs whose signature was already known (POR-lite hits).
    pub duplicates: usize,
    /// Decision points in the first canonical run.
    pub decision_points: u64,
    /// Crash-grid variants explored.
    pub crash_variants: usize,
    /// Violations found (minimized).
    pub counterexamples: Vec<Counterexample>,
}

/// Execute one schedule of the scenario and collect the policy record.
pub fn run_schedule(
    scenario: &Scenario,
    faults: &s3asim::FaultParams,
    choices: &[Choice],
    max_steps: u64,
) -> RunOutcome {
    let _chaos = scenario
        .chaos_stale_ownership
        .then(s3asim::chaos::StaleOwnershipGuard::new);
    let params = scenario.params(faults);
    let policy = Rc::new(RefCell::new(ChoicePolicy::new(choices, max_steps)));
    let handle: PolicyHandle = policy.clone();
    // Protocol `panic!`s (broken invariants under a hostile schedule) are
    // violations to report, not a reason to kill the explorer.
    let result = catch_unwind(AssertUnwindSafe(|| {
        with_policy(handle, || try_run(&params))
    }));
    let result = match result {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(RunError::Sim(e)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(RunError::Panic(msg))
        }
    };
    let p = policy.borrow();
    RunOutcome {
        result,
        trace: p.trace().to_vec(),
        signature: p.signature(),
        exhausted: p.exhausted(),
    }
}

/// Explore the scenario's schedule space within `cfg`'s bounds.
pub fn explore(scenario: &Scenario, cfg: &McConfig) -> ExploreReport {
    let grid = scenario
        .fault_params()
        .master_crash_grid(cfg.crash_step, cfg.crash_points);
    let mut report = ExploreReport {
        runs: 0,
        distinct: 0,
        duplicates: 0,
        decision_points: 0,
        crash_variants: grid.len(),
        counterexamples: Vec::new(),
    };
    let mut seen: BTreeSet<u64> = BTreeSet::new();

    'variants: for (variant, faults) in grid.iter().enumerate() {
        // Canonical baseline for this crash variant.
        let canonical = run_schedule(scenario, faults, &[], cfg.max_steps);
        report.runs += 1;
        note(&mut report, &mut seen, canonical.signature);
        if variant == 0 {
            report.decision_points = canonical.trace.last().map(|&(idx, _)| idx + 1).unwrap_or(0);
        }
        let baseline = match oracle::check(scenario, &canonical, None) {
            Ok(()) => {
                let base = match &canonical.result {
                    Ok(r) => Baseline {
                        commits: oracle::commit_projection(r),
                    },
                    Err(_) => unreachable!("oracle passed, so the run succeeded"),
                };
                base
            }
            Err(violation) => {
                // The canonical schedule itself is a counterexample — the
                // empty plan is already minimal.
                record_violation(
                    &mut report,
                    scenario,
                    cfg,
                    variant,
                    faults,
                    Vec::new(),
                    violation,
                    None,
                );
                if cfg.stop_on_first_violation {
                    break 'variants;
                }
                continue;
            }
        };

        // BFS frontier, seeded with every depth-1 deviation of the
        // canonical trace.
        let mut frontier: VecDeque<Vec<Choice>> = VecDeque::new();
        extend_frontier(&mut frontier, &canonical.trace, &[], cfg);
        while let Some(plan) = frontier.pop_front() {
            if report.runs >= cfg.max_runs || target_met(&report, cfg) {
                break;
            }
            let run = run_schedule(scenario, faults, &plan, cfg.max_steps);
            report.runs += 1;
            let fresh = note(&mut report, &mut seen, run.signature);
            if let Err(violation) = oracle::check(scenario, &run, Some(&baseline)) {
                record_violation(
                    &mut report,
                    scenario,
                    cfg,
                    variant,
                    faults,
                    plan,
                    violation,
                    Some(&baseline),
                );
                if cfg.stop_on_first_violation {
                    break 'variants;
                }
                continue;
            }
            if fresh && plan.len() < cfg.max_deviations && frontier.len() < cfg.max_runs * 2 {
                extend_frontier(&mut frontier, &run.trace, &plan, cfg);
            }
        }
        if report.runs >= cfg.max_runs || target_met(&report, cfg) {
            break;
        }
    }
    report
}

fn target_met(report: &ExploreReport, cfg: &McConfig) -> bool {
    cfg.target_distinct.is_some_and(|t| report.distinct >= t)
}

/// Count a signature; returns true when it was fresh.
fn note(report: &mut ExploreReport, seen: &mut BTreeSet<u64>, signature: u64) -> bool {
    if seen.insert(signature) {
        report.distinct += 1;
        true
    } else {
        report.duplicates += 1;
        false
    }
}

/// Append `parent`'s children: one plan per alternative choice at each
/// decision point strictly after the parent's last deviation.
fn extend_frontier(
    frontier: &mut VecDeque<Vec<Choice>>,
    trace: &[(u64, u32)],
    parent: &[Choice],
    cfg: &McConfig,
) {
    let after = parent.last().map(|&(idx, _)| idx);
    for &(idx, n) in trace {
        if after.is_some_and(|a| idx <= a) {
            continue;
        }
        for alt in 1..n {
            if frontier.len() >= cfg.max_runs * 2 {
                return;
            }
            let mut child = parent.to_vec();
            child.push((idx, alt));
            frontier.push_back(child);
        }
    }
}

/// Minimize (ddmin-lite: greedy drop-one to a fixpoint) and record a
/// violating schedule.
#[allow(clippy::too_many_arguments)]
fn record_violation(
    report: &mut ExploreReport,
    scenario: &Scenario,
    cfg: &McConfig,
    variant: usize,
    faults: &s3asim::FaultParams,
    plan: Vec<Choice>,
    violation: String,
    baseline: Option<&Baseline>,
) {
    let (plan, violation) = minimize(scenario, cfg, faults, plan, violation, baseline, report);
    report.counterexamples.push(Counterexample {
        scenario: scenario.clone(),
        crash_variant: variant,
        crashes: faults
            .master_crashes
            .iter()
            .map(|&(rank, t)| (rank, t.as_nanos()))
            .collect(),
        choices: plan,
        violation,
    });
}

/// Drop deviations one at a time while the violation (any violation)
/// persists. Small plans (≤ 2 deviations in quick mode) converge in a
/// handful of reruns.
fn minimize(
    scenario: &Scenario,
    cfg: &McConfig,
    faults: &s3asim::FaultParams,
    mut plan: Vec<Choice>,
    mut violation: String,
    baseline: Option<&Baseline>,
    report: &mut ExploreReport,
) -> (Vec<Choice>, String) {
    loop {
        let mut reduced = false;
        for i in 0..plan.len() {
            let mut candidate = plan.clone();
            candidate.remove(i);
            let run = run_schedule(scenario, faults, &candidate, cfg.max_steps);
            report.runs += 1;
            if let Err(v) = oracle::check(scenario, &run, baseline) {
                plan = candidate;
                violation = v;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return (plan, violation);
        }
    }
}

impl Counterexample {
    /// Serialize as the self-contained counterexample file format.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("version".into(), Value::Int(1)),
            ("scenario".into(), self.scenario.to_json()),
            (
                "crash_variant".into(),
                Value::Int(self.crash_variant as u64),
            ),
            (
                "crashes".into(),
                pairs_to_json(self.crashes.iter().map(|&(r, ns)| (r as u64, ns))),
            ),
            (
                "choices".into(),
                pairs_to_json(self.choices.iter().map(|&(idx, c)| (idx, u64::from(c)))),
            ),
            ("violation".into(), Value::Str(self.violation.clone())),
        ])
    }

    /// Parse a counterexample file. Refuses a number that is not a `u64`,
    /// a choice beyond `u32`, and a scenario that
    /// `SimParams::try_validate` refuses.
    pub fn from_json(j: &Value) -> Result<Counterexample, String> {
        match j.get("version").and_then(Value::as_u64) {
            Some(1) => {}
            v => return Err(format!("unsupported counterexample version {v:?}")),
        }
        let choices = pairs_from_json(j, "choices")?
            .into_iter()
            .map(|(idx, c)| {
                u32::try_from(c)
                    .map(|c| (idx, c))
                    .map_err(|_| format!("choice {c} at decision {idx} does not fit in u32"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cx = Counterexample {
            scenario: Scenario::from_json(j.get("scenario").ok_or("missing 'scenario'")?)?,
            crash_variant: j
                .get("crash_variant")
                .and_then(Value::as_u64)
                .ok_or("missing 'crash_variant'")? as usize,
            crashes: pairs_from_json(j, "crashes")?
                .into_iter()
                .map(|(r, ns)| (r as usize, ns))
                .collect(),
            choices,
            violation: j
                .get("violation")
                .and_then(Value::as_str)
                .ok_or("missing 'violation'")?
                .to_string(),
        };
        // The oracles report a refused configuration as a violation, so
        // replaying one would "reproduce" whatever the file recorded.
        cx.scenario
            .params(&cx.fault_params())
            .try_validate()
            .map_err(|e| format!("invalid scenario: {e}"))?;
        Ok(cx)
    }

    /// The fault parameters this counterexample ran under (its resolved
    /// crash schedule, not the scenario's variant-0 one).
    pub fn fault_params(&self) -> s3asim::FaultParams {
        let mut fp = self.scenario.fault_params();
        fp.master_crashes = self
            .crashes
            .iter()
            .map(|&(rank, ns)| (rank, SimTime::from_nanos(ns)))
            .collect();
        fp
    }

    /// Re-execute the recorded schedule deterministically. Returns
    /// `Ok(violation)` when the recorded class of failure reproduces
    /// (any oracle rejection — minimization already canonicalized it),
    /// `Err(..)` when the run now passes every oracle.
    pub fn replay(&self, max_steps: u64) -> Result<String, String> {
        let faults = self.fault_params();
        let run = run_schedule(&self.scenario, &faults, &self.choices, max_steps);
        match oracle::check(&self.scenario, &run, None) {
            Err(violation) => Ok(violation),
            Ok(()) => Err("schedule replayed clean: no oracle rejected it".to_string()),
        }
    }
}
