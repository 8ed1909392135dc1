//! perfbench: the simulator's host-cost benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A single-threaded, closed-loop benchmark with one client: it runs the
//! workload's passes back to back, each pass a series of
//! `s3asim::try_run` calls, for `--seconds` host seconds, and checks
//! every run's output. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` the per-layer metrics, which need a traced
//! pass, layer probes and a pass on the held-out seed. It prints one
//! `name value unit` line per metric, then one JSON object as the last
//! line. See README.md in this directory.

mod calibrate;
mod layers;
mod pass;
mod probes;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use s3a_bench::paper::CLAIMS;
use s3a_workload::Workload as Generated;
use s3asim::{export_chrome, export_metrics_csv, RunReport, SimParams, Strategy};

use calibrate::HostSpeed;
use layers::{exact_counts, obs_counts, ratio, Metrics};
use pass::{run_pass, Checker, Pass};
use stats::{median, time_median};
use workloads::{find, paper_seed, Workload, HOLDOUT_SEED, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <paper96|scale_mw10k|service_sjf|sieve_r3|all> --seed <n> --seconds <s> --trace <0|1>";

/// Fewest timed passes behind a reported median, however long they take.
const MIN_PASSES: usize = 3;
/// Host seconds each set-up sample spans, and the set-up measurement as
/// a whole.
const SETUP_SAMPLE_S: f64 = 0.02;
const SETUP_S: f64 = 1.0;
/// Fewest timed traced passes behind the traced median.
const MIN_TRACED: usize = 2;

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![find(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one benchmark run of one workload produced.
struct Outcome {
    metrics: Metrics,
    checker: Checker,
}

/// Host seconds of one pass's set-up: validating each parameter set and
/// generating its workload, as `try_run` does before simulating.
/// Repeated for at least [`SETUP_SAMPLE_S`] and averaged, since one
/// set-up can take only a millisecond.
fn setup_seconds(params: &[SimParams]) -> f64 {
    let start = Instant::now();
    let mut reps = 0u32;
    while reps == 0 || start.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        for p in params {
            std::hint::black_box(p.try_validate().is_ok());
            std::hint::black_box(Generated::generate(&p.workload));
        }
        reps += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

/// Median set-up time at the reference speed, over samples taken for
/// [`SETUP_S`] in the fresh process before any pass, as a user pays it,
/// each followed by a kernel timing.
fn setup_median(params: &[SimParams]) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut speed = HostSpeed::default();
    while samples.len() < MIN_PASSES || start.elapsed().as_secs_f64() < SETUP_S {
        samples.push(setup_seconds(params));
        speed.sample();
    }
    speed.at_reference(median(&samples).expect("at least one set-up sample"))
}

/// Peak resident memory of this process so far, in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in process status".to_string())
}

fn reports(pass: &Pass) -> Vec<&RunReport> {
    pass.results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .collect()
}

/// Largest relative error, in percent, of the measured `slower / WW-List`
/// time ratios against the paper's 96-process claims. `None` when a run
/// the ratios need is missing.
fn claim_err_pct(runs: &[&RunReport]) -> Option<f64> {
    let find = |strategy: Strategy, sync: bool| {
        runs.iter()
            .find(|r| r.procs == 96 && r.strategy == strategy && r.query_sync == sync)
    };
    CLAIMS
        .iter()
        .filter(|c| c.procs == 96)
        .map(|c| {
            let slower = find(c.slower, c.sync)?;
            let list = find(Strategy::WwList, c.sync)?;
            let measured = slower.overall.as_secs_f64() / list.overall.as_secs_f64();
            Some((measured - c.factor).abs() / c.factor * 100.0)
        })
        .try_fold(0.0_f64, |worst, e| Some(worst.max(e?)))
}

/// Run one pass of parameter sets other than the workload's own,
/// checked on their own and added to `checker`'s tally.
fn one_off_pass(params: &[SimParams], label: &str, checker: &mut Checker) -> Pass {
    let pass = run_pass(params);
    let mut own = Checker::default();
    own.check(label, &pass);
    checker.absorb(own);
    pass
}

/// Run timed passes for `seconds` (at least `min_passes`), checking
/// each and timing the kernel after each into `speed`; returns the host
/// seconds of each pass.
fn timed_passes(
    params: &[SimParams],
    seconds: f64,
    min_passes: usize,
    label: &str,
    checker: &mut Checker,
    speed: &mut HostSpeed,
) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(params);
        checker.check(label, &pass);
        walls.push(pass.wall_s);
        speed.sample();
    }
    walls
}

fn measure(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let params = w.params(seed);
    let mut checker = Checker::default();
    let mut m = Metrics::default();

    let setup_s = setup_median(&params);

    // Warm-up pass: fixes the reference fingerprints and the exact counts.
    let first = run_pass(&params);
    checker.check("untraced", &first);
    let peak_rss = peak_rss_mib()?;
    let first_reports = reports(&first);
    let counts = exact_counts(&first_reports);
    let verify_s: f64 = first_reports
        .iter()
        .map(|r| {
            let t = Instant::now();
            let ok = r.verify().is_ok();
            std::hint::black_box(ok);
            t.elapsed().as_secs_f64()
        })
        .sum();
    let own_claim_err = (w.paper_reference && seed == paper_seed())
        .then(|| claim_err_pct(&first_reports))
        .flatten();
    drop(first);

    // A trace-mode run spends half its time on untraced passes, a
    // quarter on traced passes and the rest on the layer probes, so both
    // modes take about `seconds`.
    let untraced_s = if trace { seconds / 2.0 } else { seconds };
    let mut speed = HostSpeed::default();
    let walls = timed_passes(
        &params,
        untraced_s,
        MIN_PASSES,
        "untraced",
        &mut checker,
        &mut speed,
    );
    let raw_wall_s = median(&walls).expect("at least one timed pass");
    let wall_s = speed.at_reference(raw_wall_s);
    let listed: Vec<String> = walls.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!(
        "{}: {wall_s:.4} s per pass at the reference speed; median {raw_wall_s:.4} host s over {} passes: {}",
        w.name,
        walls.len(),
        listed.join(" ")
    );

    if !trace {
        // The model's error against the paper's 96-process claims, which
        // were made on the paper's own workload: scored on that seed's
        // paper96 runs, reused when this run is that pass, else from an
        // extra untimed pass. It does not depend on the workload under
        // test, whose own output has no reference.
        let claim_err = match own_claim_err {
            Some(e) => Some(e),
            None => {
                let paper = find("paper96").expect("paper96 is defined");
                let pass =
                    one_off_pass(&paper.params(paper_seed()), "paper reference", &mut checker);
                claim_err_pct(&reports(&pass))
            }
        };
        m.push("wall_s", wall_s, "s");
        m.push("setup_s", setup_s, "s");
        m.push("peak_rss_mib", peak_rss, "MiB");
        m.push("verified_frac", 1.0 - checker.failed_frac(), "ratio");
        m.push("claim_err_pct", claim_err.unwrap_or(f64::MAX), "%");
        if !w.paper_reference {
            eprintln!(
                "{}: no reference results; its own output is unvalidated",
                w.name
            );
        }
        return Ok(Outcome {
            metrics: m,
            checker,
        });
    }

    // Traced passes: the same runs with the obs bus on (and the race
    // sanitizer on the I/O-heavy workloads).
    let traced: Vec<SimParams> = params
        .iter()
        .map(|p| {
            let mut p = p.clone();
            p.observe = true;
            p.sanitize = w.sanitize_traced;
            p
        })
        .collect();
    let first_traced = run_pass(&traced);
    checker.check("traced", &first_traced);
    let mut traced_speed = HostSpeed::default();
    let traced_walls = timed_passes(
        &traced,
        seconds / 4.0,
        MIN_TRACED,
        "traced",
        &mut checker,
        &mut traced_speed,
    );
    let traced_reports = reports(&first_traced);
    let export_start = Instant::now();
    let labelled: Vec<(&str, &RunReport)> = traced_reports
        .iter()
        .map(|r| (r.strategy.label(), *r))
        .collect();
    let exported = export_chrome(&labelled).len() + export_metrics_csv(&labelled).len();
    std::hint::black_box(exported);
    let export_s = export_start.elapsed().as_secs_f64();

    let events = counts
        .0
        .iter()
        .find(|x| x.name == "des.events")
        .map_or(0.0, |x| x.value);
    m.0.extend(counts.0);
    m.0.extend(obs_counts(&traced_reports).0);
    drop(first_traced);

    let probes = probes::run(&params, seconds / 4.0);
    m.push("des.host_ns_per_event", ratio(wall_s * 1e9, events), "ns");
    // The remaining host times are scaled with the untraced passes' speed.
    let at_ref = |host_s: f64| speed.at_reference(host_s);
    m.push(
        "des.probe_ns_per_event",
        at_ref(probes.des_ns_per_event),
        "ns",
    );
    m.push("mpi.probe_ns_per_msg", at_ref(probes.mpi_ns_per_msg), "ns");
    m.push(
        "pvfs.probe_ns_per_region",
        at_ref(probes.pvfs_ns_per_region),
        "ns",
    );
    m.push(
        "mpiio.probe_ns_per_coll",
        at_ref(probes.mpiio_ns_per_coll),
        "ns",
    );
    m.push("core.verify_s", at_ref(verify_s), "s");
    let (generate_s, generated) = time_median(MIN_PASSES, 0.25, || {
        params
            .iter()
            .map(|p| Generated::generate(&p.workload))
            .collect::<Vec<_>>()
    });
    m.push("workload.generate_s", at_ref(generate_s), "s");
    m.count(
        "workload.hits",
        generated
            .iter()
            .map(|g| g.queries.iter().map(|q| q.total_hits() as u64).sum::<u64>())
            .sum(),
    );
    m.push(
        "workload.bytes",
        generated.iter().map(|g| g.total_bytes() as f64).sum(),
        "bytes",
    );
    let traced_wall = median(&traced_walls).expect("at least one traced pass");
    m.push(
        "obs.trace_overhead_s",
        traced_speed.at_reference(traced_wall) - wall_s,
        "s",
    );
    m.push("obs.export_s", at_ref(export_s), "s");

    // The held-out seed: one untraced pass, its work counts reported
    // beside the run seed's.
    let holdout = one_off_pass(&w.params(HOLDOUT_SEED), "holdout", &mut checker);
    for x in exact_counts(&reports(&holdout)).0 {
        if x.unit != "sim_s" {
            m.push(format!("holdout.{}", x.name), x.value, x.unit);
        }
    }
    Ok(Outcome {
        metrics: m,
        checker,
    })
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}, ..}}`.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .0
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.checker.failed == 0,
        o.checker.attempted,
        o.checker.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for w in &args.workloads {
        let outcome = match measure(w, args.seed, args.seconds, args.trace) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        println!("# {} (seed {}): {}", w.name, args.seed, w.why);
        for x in &outcome.metrics.0 {
            println!("{:<36} {:>22} {}", x.name, x.value, x.unit);
        }
        println!(
            "{:<36} {:>22} ratio ({} of {} runs failed)",
            "failed_frac",
            outcome.checker.failed_frac(),
            outcome.checker.failed,
            outcome.checker.attempted
        );
        for note in &outcome.checker.notes {
            println!("# failed: {note}");
        }
        println!("{}", result_json(&outcome));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload sieve_r3 --seed 4 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(a.workloads.len(), 1);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
        let all =
            parse_args(&argv("--workload all --seed 1 --seconds 1 --trace 0")).expect("valid");
        assert_eq!(all.workloads.len(), WORKLOADS.len());
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper96 --seed x --seconds 1 --trace 0",
            "--workload paper96 --seed 1 --seconds 0 --trace 0",
            "--workload paper96 --seed 1 --seconds 1 --trace 2",
            "--workload paper96 --seed 1 --seconds 1",
            "--workload paper96 --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_json_is_one_object_with_the_result_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        m.count("des.events", 3);
        let o = Outcome {
            metrics: m,
            checker: Checker::default(),
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"des.events\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn claim_error_needs_every_claimed_run() {
        assert_eq!(claim_err_pct(&[]), None);
    }
}
