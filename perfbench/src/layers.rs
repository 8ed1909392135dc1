//! Per-layer metrics read from outside the program: the counters every
//! `RunReport` returns, and the obs recording of a traced run.
//!
//! Units: counts are `count`, byte totals `bytes`, ratios `ratio`, and
//! durations in the simulator's virtual time `sim_s` (exact and
//! repeatable, unlike host time, which is `s` or `ns`).

use s3asim::{Phase, RunReport, PHASES};

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `<layer>.<what>`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// An ordered metric list under construction.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Append a count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.push(name, value as f64, "count");
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Column-style phase name: `Data Distribution` -> `data_distribution`.
fn phase_key(p: Phase) -> String {
    p.name().to_lowercase().replace([' ', '/'], "_")
}

/// The exact work counts of one pass, summed over its runs. These repeat
/// bit for bit for a given seed.
pub fn exact_counts(reports: &[&RunReport]) -> Metrics {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let mut m = Metrics::default();

    let events = sum(&|r| r.engine.events);
    let polls = sum(&|r| r.engine.polls);
    m.count("des.events", events);
    m.count("des.polls", polls);
    m.count("des.spawned", sum(&|r| r.engine.spawned));
    m.push(
        "des.polls_per_event",
        ratio(polls as f64, events as f64),
        "ratio",
    );

    m.count("mpi.messages", sum(&|r| r.mpi.messages));
    m.push(
        "mpi.payload_bytes",
        sum(&|r| r.mpi.payload_bytes) as f64,
        "bytes",
    );
    m.count("mpi.rendezvous", sum(&|r| r.mpi.rendezvous));

    let requests = sum(&|r| r.fs.requests);
    let regions = sum(&|r| r.fs.regions);
    m.count("pvfs.requests", requests);
    m.count("pvfs.regions", regions);
    m.push(
        "pvfs.regions_per_request",
        ratio(regions as f64, requests as f64),
        "ratio",
    );
    m.count("pvfs.read_requests", sum(&|r| r.fs.read_requests));
    m.push(
        "pvfs.bytes_written",
        sum(&|r| r.fs.bytes_written) as f64,
        "bytes",
    );
    m.push("pvfs.bytes_read", sum(&|r| r.fs.bytes_read) as f64, "bytes");
    m.push(
        "pvfs.replica_bytes_written",
        sum(&|r| r.fs.replica_bytes_written) as f64,
        "bytes",
    );

    // Sum virtual time in whole nanoseconds, so the totals are exact.
    for p in PHASES {
        let ns = sum(&|r| r.master.get(p).as_nanos());
        m.push(
            format!("core.master.{}_s", phase_key(p)),
            ns as f64 / 1e9,
            "sim_s",
        );
    }
    for p in PHASES {
        let ns = sum(&|r| r.worker_mean.get(p).as_nanos());
        m.push(
            format!("core.worker.{}_s", phase_key(p)),
            ns as f64 / 1e9,
            "sim_s",
        );
    }
    let worker_sum = |f: &dyn Fn(&s3asim::WorkerStats) -> usize| {
        reports
            .iter()
            .flat_map(|r| r.worker_stats.iter())
            .map(|w| f(w) as u64)
            .sum::<u64>()
    };
    m.count("core.worker.tasks", worker_sum(&|w| w.tasks));
    m.count(
        "core.worker.regions_written",
        worker_sum(&|w| w.regions_written),
    );

    let services: Vec<_> = reports.iter().filter_map(|r| r.service.as_ref()).collect();
    let svc_sum = |f: &dyn Fn(&s3asim::ServiceReport) -> usize| {
        services.iter().map(|s| f(s) as u64).sum::<u64>()
    };
    m.count("svc.offered", svc_sum(&|s| s.offered));
    m.count("svc.admitted", svc_sum(&|s| s.admitted));
    m.count("svc.shed", svc_sum(&|s| s.shed));
    m.count("svc.completed", svc_sum(&|s| s.completed));
    m.count(
        "svc.queue_peak",
        services
            .iter()
            .map(|s| s.queue_peak as u64)
            .max()
            .unwrap_or(0),
    );
    let worst = |f: &dyn Fn(&s3asim::ServiceReport) -> f64| {
        services.iter().map(|s| f(s)).fold(0.0, f64::max)
    };
    m.push(
        "svc.latency_p50_s",
        worst(&|s| s.latency.p50.as_secs_f64()),
        "sim_s",
    );
    m.push(
        "svc.latency_p99_s",
        worst(&|s| s.latency.p99.as_secs_f64()),
        "sim_s",
    );
    m
}

/// Counts and virtual-time sums only the obs recording carries, summed
/// over the traced pass's runs.
pub fn obs_counts(reports: &[&RunReport]) -> Metrics {
    let obs: Vec<_> = reports.iter().filter_map(|r| r.obs.as_ref()).collect();
    let counter = |name: &str| obs.iter().map(|o| o.metrics.counter(name)).sum::<u64>();
    let hist_sum = |name: &str| {
        obs.iter()
            .filter_map(|o| o.metrics.histogram(name))
            .map(|h| h.sum)
            .sum::<u64>()
    };
    let spans = || obs.iter().flat_map(|o| o.spans.iter());
    let span_ns = |names: &[&str]| {
        spans()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.end - s.start).as_nanos())
            .sum::<u64>()
    };
    let arg_sum = |names: &[&str], arg: &str| {
        spans()
            .filter(|s| names.contains(&s.name))
            .flat_map(|s| s.args.iter())
            .filter(|(k, _)| *k == arg)
            .map(|(_, v)| *v)
            .sum::<u64>()
    };
    let server_spans = ["pvfs.write", "pvfs.read", "pvfs.sync"];

    let mut m = Metrics::default();
    m.count("net.messages", counter("net.messages"));
    m.push("net.bytes", hist_sum("net.msg_bytes") as f64, "bytes");
    m.count("pvfs.lock_acquires", counter("pvfs.lock_acquires"));
    m.push(
        "pvfs.server_busy_s",
        span_ns(&server_spans) as f64 / 1e9,
        "sim_s",
    );
    m.push(
        "pvfs.queue_wait_s",
        arg_sum(&server_spans, "queue_ns") as f64 / 1e9,
        "sim_s",
    );
    m.count("mpiio.coll_rounds", counter("coll.rounds"));
    m.push(
        "mpiio.coll_exchange_bytes",
        hist_sum("coll.exchange_bytes") as f64,
        "bytes",
    );
    m.count("mpiio.sieve_blocks", counter("sieve.blocks"));
    m.push(
        "mpiio.sieve_useful_frac",
        ratio(
            arg_sum(&["sieve.write"], "data") as f64,
            arg_sum(&["sieve.write"], "len") as f64,
        ),
        "ratio",
    );
    m.push(
        "mpiio.lock_wait_s",
        span_ns(&["sieve.lock"]) as f64 / 1e9,
        "sim_s",
    );
    m.count("obs.spans", spans().count() as u64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3a_bench::small_params;
    use s3asim::{try_run, Strategy};

    fn value(m: &Metrics, name: &str) -> f64 {
        m.0.iter()
            .find(|x| x.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    #[test]
    fn counts_sum_over_runs_and_match_the_reports() {
        let a = try_run(&small_params(4, Strategy::WwList)).expect("run verifies");
        let b = try_run(&small_params(4, Strategy::WwColl)).expect("run verifies");
        let m = exact_counts(&[&a, &b]);
        assert_eq!(
            value(&m, "des.events"),
            (a.engine.events + b.engine.events) as f64
        );
        assert_eq!(
            value(&m, "pvfs.regions"),
            (a.fs.regions + b.fs.regions) as f64
        );
        assert_eq!(value(&m, "svc.offered"), 0.0);
        assert!(value(&m, "core.worker.compute_s") > 0.0);
        let names: Vec<_> = m.0.iter().map(|x| x.name.as_str()).collect();
        assert!(names.contains(&"core.worker.i_o_s"));
    }

    #[test]
    fn obs_counts_need_a_traced_run() {
        let mut p = small_params(4, Strategy::WwColl);
        let plain = try_run(&p).expect("run verifies");
        assert_eq!(value(&obs_counts(&[&plain]), "obs.spans"), 0.0);
        p.observe = true;
        let traced = try_run(&p).expect("run verifies");
        let m = obs_counts(&[&traced]);
        assert!(value(&m, "obs.spans") > 0.0);
        assert!(value(&m, "mpiio.coll_rounds") > 0.0);
        assert!(value(&m, "pvfs.server_busy_s") > 0.0);
        assert_eq!(value(&m, "mpiio.sieve_blocks"), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
