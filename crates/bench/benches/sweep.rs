//! Sweep-executor and DES hot-path benchmarks.
//!
//! Two groups: `sweep_executor` times the same batch of simulations
//! through `run_batch` at increasing thread counts (the parallel-executor
//! speedup on a multi-core host), and `des_hot_path` times the engine
//! micro-paths the optimization work targets — the timed-event poll loop
//! and the waiter-list wake path.
//!
//! Besides the usual stdout report, measurements are written to
//! `BENCH_sweep.json` at the workspace root. Set `S3ASIM_BENCH_QUICK=1`
//! for a reduced smoke run (CI).

use criterion::{BenchmarkId, Criterion, Stopwatch};

use s3a_bench::small_params;
use s3a_des::{Queue, Sim, SimTime};
use s3asim::{run_batch, ArrivalProcess, RunMode, SchedPolicy, ServiceParams, SimParams, Strategy};

fn quick() -> bool {
    std::env::var("S3ASIM_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// The batch every executor benchmark runs: one small simulation per
/// strategy and process count.
fn batch_params() -> Vec<SimParams> {
    let procs: &[usize] = if quick() { &[4] } else { &[4, 8, 16] };
    let mut params = Vec::new();
    for &strategy in &Strategy::EXTENDED_SET {
        for &p in procs {
            params.push(small_params(p, strategy));
        }
    }
    params
}

fn bench_executor(c: &mut Criterion) {
    let params = batch_params();
    let mut g = c.benchmark_group("sweep_executor");
    g.sample_size(if quick() { 1 } else { 5 });
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| b.iter(|| run_batch(&params, threads).expect("batch runs and verifies")),
        );
    }
    g.finish();
}

/// Single-strategy end-to-end runs: the unoptimized POSIX path vs. the
/// locked read-modify-write sieve path, so the regression gate watches
/// the new lock-manager and sieve code on its own.
fn bench_strategy_io(c: &mut Criterion) {
    let mut g = c.benchmark_group("strategy_io");
    g.sample_size(if quick() { 1 } else { 5 });
    for strategy in [Strategy::WwPosix, Strategy::WwSieve] {
        let params = small_params(8, strategy);
        g.bench_function(strategy.label(), |b| {
            b.iter(|| run_batch(std::slice::from_ref(&params), 1).expect("run verifies"))
        });
    }
    g.finish();
}

/// Replication-overhead series: the same WW-List run at r=1, r=2, r=3.
/// The r=1 entry must stay on the exact pre-replication fast path — the
/// regression gate pins it against the checked-in baseline — while the
/// replicated entries price the quorum writes and block tracking.
fn bench_replication(c: &mut Criterion) {
    let mut g = c.benchmark_group("replication_overhead");
    g.sample_size(if quick() { 1 } else { 5 });
    for replicas in [1usize, 2, 3] {
        let mut params = small_params(8, Strategy::WwList);
        if replicas > 1 {
            params.testbed.pvfs.replicas = replicas;
            params.testbed.pvfs.write_quorum = 2;
            params.testbed.pvfs.failure_domains = 4;
        }
        g.bench_with_input(BenchmarkId::new("replicas", replicas), &params, |b, p| {
            b.iter(|| run_batch(std::slice::from_ref(p), 1).expect("run verifies"))
        });
    }
    g.finish();
}

/// Open-loop service runs: the master's admission/scheduling loop and
/// per-query commit tracking on top of the same small workload, once per
/// scheduling policy. Prices the service-mode event loop (arrival wake-ups,
/// per-query batches, policy picks) against the batch-mode baseline above.
fn bench_service_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("service_latency");
    g.sample_size(if quick() { 1 } else { 5 });
    for policy in SchedPolicy::ALL {
        let mut params = small_params(8, Strategy::WwList);
        params.workload.queries = 24;
        params.mode = RunMode::Service(ServiceParams {
            arrivals: ArrivalProcess::Poisson { rate: 6.0 },
            policy,
            tenants: 2,
            queue_capacity: 12,
            arrival_seed: 11,
            poll_interval: SimTime::from_millis(5),
        });
        g.bench_with_input(
            BenchmarkId::new("policy", policy.label()),
            &params,
            |b, p| b.iter(|| run_batch(std::slice::from_ref(p), 1).expect("service run verifies")),
        );
    }
    g.finish();
}

fn bench_des_hot_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_hot_path");
    // The hot-path iterations are microseconds each; a quick sample of 2
    // was noisy enough to trip the gate, so quick mode samples just as
    // densely as the full run.
    g.sample_size(10);

    // Timed-event churn: many tasks sleeping in short staggered bursts —
    // exercises the heap pop -> direct poll path and the single-borrow
    // sleep poll.
    let (tasks, rounds) = if quick() { (50u64, 10u32) } else { (200, 50) };
    g.bench_function("sleep_storm", |b| {
        b.iter(|| {
            let sim = Sim::new();
            for i in 0..tasks {
                let s = sim.clone();
                sim.spawn(format!("t{i}"), async move {
                    for r in 0..rounds {
                        s.sleep(SimTime::from_nanos(i % 7 + u64::from(r % 3) + 1))
                            .await;
                    }
                });
            }
            sim.run().expect("no deadlock")
        })
    });

    // Waiter-list churn: one producer feeding many blocked consumers —
    // every push wakes the whole waiter list through the batched
    // `ready_all` path.
    let (consumers, items) = if quick() { (16u32, 128u32) } else { (64, 1024) };
    g.bench_function("queue_wake_churn", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let q: Queue<u32> = Queue::new(&sim);
            for i in 0..consumers {
                let q = q.clone();
                let n = items / consumers;
                sim.spawn(format!("c{i}"), async move {
                    let mut sum = 0u64;
                    for _ in 0..n {
                        sum += u64::from(q.pop().await);
                    }
                    sum
                });
            }
            let s = sim.clone();
            sim.spawn("producer", async move {
                for i in 0..items {
                    s.sleep(SimTime::from_nanos(1)).await;
                    q.push(i);
                }
            });
            sim.run().expect("no deadlock")
        })
    });

    g.finish();

    // Engine throughput over a full-size sleep storm, reported as raw
    // events/sec. `bench_gate` compares ids containing "events_per_sec"
    // higher-is-better, so this entry holds a throughput floor rather
    // than a latency ceiling.
    let (tasks, rounds) = if quick() {
        (200u64, 50u32)
    } else {
        (2000, 100)
    };
    let reps = 3u64;
    let mut events = 0u64;
    let sw = Stopwatch::new();
    for _ in 0..reps {
        let sim = Sim::new();
        for i in 0..tasks {
            let s = sim.clone();
            sim.spawn(format!("t{i}"), async move {
                for r in 0..rounds {
                    s.sleep(SimTime::from_nanos(i % 7 + u64::from(r % 3) + 1))
                        .await;
                }
            });
        }
        sim.run().expect("no deadlock");
        events += sim.stats().events;
    }
    let eps = events as f64 / (sw.elapsed_ns().max(1) as f64 / 1e9);
    c.record("des_hot_path/events_per_sec", reps, eps);
}

/// Engine-scaling series: the `repro scale` workload (64 queries x 512
/// fragments against a 128-server PVFS) at 1k — and, outside quick mode,
/// 4k and 10k — worker ranks, master/worker strategy, one timed run per
/// point. Quick mode runs only the 1k point; the checked-in baseline
/// carries only ids quick CI emits, so the larger points inform local
/// runs without gating.
fn bench_scale_ranks(c: &mut Criterion) {
    use s3a_workload::WorkloadParams;
    let rank_counts: &[usize] = if quick() {
        &[1000]
    } else {
        &[1000, 4000, 10_000]
    };
    for &workers in rank_counts {
        let mut p = SimParams {
            procs: workers + 1,
            strategy: Strategy::Mw,
            workload: WorkloadParams {
                queries: 64,
                fragments: 512,
                min_results: 100,
                max_results: 200,
                ..WorkloadParams::default()
            },
            ..SimParams::default()
        };
        p.testbed.pvfs.servers = 128;
        let sw = Stopwatch::new();
        run_batch(std::slice::from_ref(&p), 1).expect("scale run verifies");
        c.record(format!("scale/ranks/{workers}"), 1, sw.elapsed_ns() as f64);
    }
}

/// Sharded-master series: the scale workload at 1k workers under 1, 2,
/// and 4 master shards (WW-List), reported as engine events/sec so the
/// gate holds a throughput floor per shard count. The masters=1 entry
/// runs the single-master loop — pinning it next to the
/// sharded entries keeps the shard machinery honest about its overhead.
fn bench_shards(c: &mut Criterion) {
    use s3a_workload::WorkloadParams;
    let workers = if quick() { 500 } else { 1000 };
    for masters in [1usize, 2, 4] {
        let mut p = SimParams {
            procs: workers + masters,
            num_masters: masters,
            strategy: Strategy::WwList,
            workload: WorkloadParams {
                queries: 64,
                fragments: 512,
                min_results: 100,
                max_results: 200,
                ..WorkloadParams::default()
            },
            ..SimParams::default()
        };
        p.testbed.pvfs.servers = 128;
        p.testbed.mpi.ranks_per_node = 1;
        let sw = Stopwatch::new();
        let reports = run_batch(std::slice::from_ref(&p), 1).expect("shard run verifies");
        let eps = reports[0].engine.events as f64 / (sw.elapsed_ns().max(1) as f64 / 1e9);
        c.record(format!("shards/masters/{masters}/events_per_sec"), 1, eps);
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_executor(&mut c);
    bench_strategy_io(&mut c);
    bench_replication(&mut c);
    bench_service_latency(&mut c);
    bench_des_hot_path(&mut c);
    bench_scale_ranks(&mut c);
    bench_shards(&mut c);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    c.save_json(path).expect("write BENCH_sweep.json");
    println!("wrote {path}");
}
