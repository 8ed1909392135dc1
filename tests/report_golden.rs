//! Full-precision report goldens for every master/worker mode.
//!
//! `results/faults.csv` and friends round to milliseconds, which is too
//! coarse to pin the crash, service and sharded control paths. This table
//! pins each point's entire `RunReport` instead: the FNV-64 digest of its
//! `Debug` rendering — overall time, master and worker phases, worker
//! stats, MPI, file-system and engine counters, the commit ledger, the
//! fault report and the service report — with only `engine.polls`
//! zeroed (poll counts measure host-side wakeups, not simulated
//! behaviour). A refactor of the master or worker loop must leave every
//! digest unchanged; on a mismatch the test prints the full actual table.

use s3a_workload::WorkloadParams;
use s3asim::{
    run, run_with_restart, ArrivalProcess, FaultParams, RunReport, SchedPolicy, ServiceParams,
    SimParams, SimTime, Strategy,
};

const PAPER_STRATEGIES: [Strategy; 4] = [
    Strategy::Mw,
    Strategy::WwPosix,
    Strategy::WwList,
    Strategy::WwColl,
];

/// 8 queries x 8 fragments over 5 processes, written every 2 queries.
fn batch(strategy: Strategy) -> SimParams {
    SimParams {
        procs: 5,
        strategy,
        write_every_n_queries: 2,
        workload: WorkloadParams {
            queries: 8,
            fragments: 8,
            min_results: 30,
            max_results: 80,
            ..WorkloadParams::default()
        },
        ..SimParams::default()
    }
}

/// Worker 2 fail-stops at 40 ms and is detected by its heartbeat silence.
fn worker_crash(strategy: Strategy) -> RunReport {
    let mut p = batch(strategy);
    p.faults = FaultParams {
        worker_crashes: vec![(2, SimTime::from_millis(40))],
        heartbeat_interval: SimTime::from_millis(50),
        detection_timeout: SimTime::from_millis(400),
        ..FaultParams::default()
    };
    let r = run(&p);
    assert_eq!(r.faults.as_ref().expect("fault report").detections, 1);
    r
}

/// 48 queries offered to 8 processes in open-loop service mode.
fn service(
    strategy: Strategy,
    policy: SchedPolicy,
    arrivals: ArrivalProcess,
    cap: usize,
) -> SimParams {
    SimParams::builder()
        .procs(8)
        .strategy(strategy)
        .with_workload(|w| {
            w.queries = 48;
            w.fragments = 8;
            w.min_results = 50;
            w.max_results = 400;
        })
        .service(ServiceParams {
            arrivals,
            policy,
            tenants: 2,
            queue_capacity: cap,
            arrival_seed: 11,
            poll_interval: SimTime::from_millis(5),
        })
        .build()
        .expect("valid service configuration")
}

fn poisson() -> ArrivalProcess {
    ArrivalProcess::Poisson { rate: 4.0 }
}

fn sharded(strategy: Strategy) -> SimParams {
    let mut p = batch(strategy);
    p.procs = 10;
    p.num_masters = 2;
    p
}

/// Standby masters fail-stop at the given `(rank, ms)` times and are
/// detected by their heartbeat silence.
fn master_crashes(crashes: &[(usize, u64)]) -> FaultParams {
    FaultParams {
        master_crashes: crashes
            .iter()
            .map(|&(rank, ms)| (rank, SimTime::from_millis(ms)))
            .collect(),
        heartbeat_interval: SimTime::from_millis(50),
        detection_timeout: SimTime::from_millis(400),
        ..FaultParams::default()
    }
}

/// Every golden point: a name and a closure producing its report.
fn points() -> Vec<(String, Box<dyn Fn() -> RunReport>)> {
    let mut pts: Vec<(String, Box<dyn Fn() -> RunReport>)> = Vec::new();
    for s in PAPER_STRATEGIES {
        pts.push((format!("{s} fault-free"), Box::new(move || run(&batch(s)))));
        pts.push((
            format!("{s} query-sync"),
            Box::new(move || {
                let mut p = batch(s);
                p.query_sync = true;
                run(&p)
            }),
        ));
        // Crashes are refused under collectives (inherently synchronizing).
        if !s.inherently_synchronizing() {
            pts.push((
                format!("{s} worker crash"),
                Box::new(move || worker_crash(s)),
            ));
        }
    }
    pts.push((
        "WW-DS worker crash".into(),
        Box::new(|| worker_crash(Strategy::WwSieve)),
    ));
    pts.push((
        "MW nonblocking I/O".into(),
        Box::new(|| {
            let mut p = batch(Strategy::Mw);
            p.mw_nonblocking_io = true;
            run(&p)
        }),
    ));
    for s in [Strategy::Mw, Strategy::WwList] {
        pts.push((format!("{s} resumed"), Box::new(move || resumed(s))));
    }
    for policy in [SchedPolicy::Fifo, SchedPolicy::Sjf, SchedPolicy::FairShare] {
        pts.push((
            format!("service {policy:?}"),
            Box::new(move || run(&service(Strategy::WwList, policy, poisson(), 400))),
        ));
    }
    pts.push((
        "service SJF shedding".into(),
        Box::new(|| {
            let bursty = ArrivalProcess::Bursty {
                base_rate: 2.0,
                burst_rate: 24.0,
                mean_dwell: 1.0,
            };
            let r = run(&service(Strategy::WwList, SchedPolicy::Sjf, bursty, 3));
            assert!(r.service.as_ref().expect("service report").shed > 0);
            r
        }),
    ));
    // A deep queue: arrivals outpace the workers, so dozens of queries
    // from three tenants sit open at once and fair share picks among them.
    pts.push((
        "service FairShare deep queue".into(),
        Box::new(|| {
            let p = SimParams::builder()
                .procs(8)
                .strategy(Strategy::WwList)
                .with_workload(|w| {
                    w.queries = 400;
                    w.fragments = 8;
                    w.min_results = 50;
                    w.max_results = 400;
                })
                .service(ServiceParams {
                    arrivals: ArrivalProcess::Poisson { rate: 12.0 },
                    policy: SchedPolicy::FairShare,
                    tenants: 3,
                    queue_capacity: 64,
                    arrival_seed: 11,
                    poll_interval: SimTime::from_millis(5),
                })
                .build()
                .expect("valid service configuration");
            let r = run(&p);
            let svc = r.service.as_ref().expect("service report");
            assert_eq!(svc.queue_peak, 64, "the queue must fill");
            r
        }),
    ));
    pts.push((
        "service MW nonblocking".into(),
        Box::new(|| {
            let mut p = service(Strategy::Mw, SchedPolicy::Fifo, poisson(), 400);
            p.mw_nonblocking_io = true;
            run(&p)
        }),
    ));
    pts.push((
        "WW-POSIX 3 shards".into(),
        Box::new(|| {
            let mut p = sharded(Strategy::WwPosix);
            p.num_masters = 3;
            run(&p)
        }),
    ));
    pts.push((
        "WW-DS 2 shards k=2".into(),
        Box::new(|| {
            let mut p = sharded(Strategy::WwSieve);
            p.subfragment_factor = 2;
            run(&p)
        }),
    ));
    pts.push((
        "MW 3 shards chained failover".into(),
        Box::new(|| {
            let mut p = sharded(Strategy::Mw);
            p.num_masters = 3;
            p.faults = master_crashes(&[(1, 40), (2, 520)]);
            let r = run(&p);
            assert_eq!(r.faults.as_ref().expect("fault report").shard_takeovers, 2);
            r
        }),
    ));
    pts.push((
        "WW-List 2 shards failover observed".into(),
        Box::new(|| {
            let mut p = sharded(Strategy::WwList);
            p.faults = master_crashes(&[(1, 800)]);
            p.observe = true;
            let r = run(&p);
            let obs = r.obs.as_ref().expect("observed run");
            assert_eq!(obs.metrics.counter("shard.takeovers"), 1);
            for name in ["shard.steal", "shard.takeover"] {
                assert!(obs.spans.iter().any(|s| s.name == name), "no {name} span");
            }
            r
        }),
    ));
    for s in [Strategy::Mw, Strategy::WwList] {
        pts.push((
            format!("{s} 2 shards k=2"),
            Box::new(move || {
                let mut p = sharded(s);
                p.subfragment_factor = 2;
                run(&p)
            }),
        ));
        pts.push((
            format!("{s} 2 shards failover"),
            Box::new(move || {
                let mut p = sharded(s);
                p.faults = master_crashes(&[(1, 60)]);
                let r = run(&p);
                assert_eq!(r.faults.as_ref().expect("fault report").shard_takeovers, 1);
                r
            }),
        ));
    }
    pts
}

/// The second half of a kill-and-restart run, killed the moment the
/// file's first extent became durable.
fn resumed(strategy: Strategy) -> RunReport {
    let p = batch(strategy);
    let full = run(&p);
    let first_extent_at = full
        .commits
        .entries()
        .iter()
        .find(|e| e.base == 0)
        .expect("the first extent commits")
        .committed_at;
    let outcome = run_with_restart(&p, first_extent_at);
    assert!(
        !outcome.resume.done_batches.is_empty(),
        "{strategy}: the restart must skip durable batches"
    );
    outcome.second
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(mut r: RunReport) -> u64 {
    r.verify()
        .unwrap_or_else(|e| panic!("golden point must verify: {e}"));
    r.engine.polls = 0;
    fnv64(format!("{r:?}").as_bytes())
}

/// Digests captured from the build before the master and worker loops
/// were folded together (the sharded points from the build before the
/// shard master joined that loop, the deep-queue point from the build
/// before the service queue kept per-tenant open sets).
const GOLDEN: &[(&str, u64)] = &[
    ("MW fault-free", 0x72669c16ffb90f9b),
    ("MW query-sync", 0x1b749e18f657b914),
    ("MW worker crash", 0x85c8856de93f2cd5),
    ("WW-POSIX fault-free", 0xe7b987623a2a4346),
    ("WW-POSIX query-sync", 0xe7dd5fc330e77165),
    ("WW-POSIX worker crash", 0xb815dc17bfdc64c9),
    ("WW-List fault-free", 0x6f77ed5714eb3820),
    ("WW-List query-sync", 0x024e842e7350831d),
    ("WW-List worker crash", 0x95e3c63690cc4a35),
    ("WW-Coll fault-free", 0x3abbb66870ac9ae8),
    ("WW-Coll query-sync", 0x24e39f3cddd93b06),
    ("WW-DS worker crash", 0x77e1c55fd274658e),
    ("MW nonblocking I/O", 0x8cd6af7b3e4ac52c),
    ("MW resumed", 0x769013f68b5b6481),
    ("WW-List resumed", 0x9d466e9742946c22),
    ("service Fifo", 0x545185c9a685e5f1),
    ("service Sjf", 0x311215c4ad5f9297),
    ("service FairShare", 0x0be13b1cc2285639),
    ("service SJF shedding", 0xe20de0e44429841f),
    ("service FairShare deep queue", 0x16e6b02eacb64080),
    ("service MW nonblocking", 0xd666b5706edd4226),
    ("WW-POSIX 3 shards", 0x3c4d6f43d112ede4),
    ("WW-DS 2 shards k=2", 0x17e9797df0703cc0),
    ("MW 3 shards chained failover", 0x76f30b9c0da5faf5),
    ("WW-List 2 shards failover observed", 0x4a414d9a880a1d99),
    ("MW 2 shards k=2", 0x67a23fdff23b89a2),
    ("MW 2 shards failover", 0x356aa3a6b039f2c5),
    ("WW-List 2 shards k=2", 0x306932f21e176d31),
    ("WW-List 2 shards failover", 0x5244141a376267e5),
];

#[test]
fn every_mode_matches_its_full_precision_digest() {
    let actual: Vec<(String, u64)> = points()
        .into_iter()
        .map(|(name, f)| (name, digest(f())))
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(actual, expected, "actual golden table:\n{table}");
}
