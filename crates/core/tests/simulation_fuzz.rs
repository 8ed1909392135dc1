//! Whole-simulator fuzzing: arbitrary (small) parameter combinations must
//! run to completion — no deadlock — and produce a byte-exact output file
//! with phase accounting that adds up. This is the strongest invariant in
//! the repository: every layer (engine, network, MPI, file system, MPI-IO,
//! application protocol) has to cooperate for it to hold.

use proptest::prelude::*;

use s3a_des::SimTime;
use s3a_workload::WorkloadParams;
use s3asim::{run, try_run, FaultParams, ParamError, Segmentation, SimError, SimParams, PHASES};

fn strategy_strategy() -> impl Strategy<Value = s3asim::Strategy> {
    prop::sample::select(vec![
        s3asim::Strategy::Mw,
        s3asim::Strategy::WwPosix,
        s3asim::Strategy::WwList,
        s3asim::Strategy::WwColl,
        s3asim::Strategy::WwCollList,
        s3asim::Strategy::WwSieve,
    ])
}

proptest! {
    // Each case is a full simulation; keep the counts moderate.
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn any_configuration_runs_exactly(
        procs in 2usize..10,
        strategy in strategy_strategy(),
        sync in any::<bool>(),
        queries in 1usize..6,
        fragments in 1usize..10,
        gran in 1usize..8,
        cb_nodes in 0usize..4,
        speed_tenths in 2u64..40,
        seed in 0u64..10_000,
        query_seg in any::<bool>(),
        nonblocking in any::<bool>(),
    ) {
        let params = SimParams {
            procs,
            strategy,
            query_sync: sync,
            compute_speed: speed_tenths as f64 / 10.0,
            write_every_n_queries: gran,
            cb_nodes,
            segmentation: if query_seg {
                Segmentation::Query
            } else {
                Segmentation::Database
            },
            mw_nonblocking_io: nonblocking,
            trace: true,
            workload: WorkloadParams {
                queries,
                fragments,
                min_results: 5,
                max_results: 40,
                // Keep query-segmentation reload I/O small but exercised.
                database_bytes: 96 * 1024 * 1024,
                seed,
                ..WorkloadParams::default()
            },
            ..SimParams::default()
        };
        let r = run(&params);
        // The single most important line in this file:
        prop_assert!(r.verify().is_ok(), "verify failed: {:?}", r.verify());

        // Conservation laws.
        let task_total: usize = r.worker_stats.iter().map(|s| s.tasks).sum();
        let expected_tasks = queries * if query_seg { 1 } else { fragments };
        prop_assert_eq!(task_total, expected_tasks);
        if strategy.workers_write() {
            let written: u64 = r.worker_stats.iter().map(|s| s.bytes_written).sum();
            prop_assert_eq!(written, r.expected_bytes);
        }

        // Phase accounting: per-rank sums within barrier skew of overall.
        let skew = s3a_des::SimTime::from_millis(10);
        for w in &r.workers {
            prop_assert!(w.total() <= r.overall && w.total() + skew >= r.overall);
        }

        // Trace totals agree with the breakdown.
        let trace = r.trace.as_ref().expect("tracing on");
        for (rank, bd) in std::iter::once((0, &r.master))
            .chain(r.workers.iter().enumerate().map(|(i, w)| (i + 1, w)))
        {
            for ph in PHASES {
                if ph == s3asim::Phase::Other {
                    continue;
                }
                prop_assert_eq!(trace.rank_phase_total(rank, ph), bd.get(ph));
            }
        }

        // Commit log: every query durable by the end.
        prop_assert_eq!(r.commits.resumable_queries_at(r.overall), queries);

        // Determinism: run it again, get the identical report.
        let r2 = run(&params);
        prop_assert_eq!(r.overall, r2.overall);
        prop_assert_eq!(r.workers, r2.workers);
        prop_assert_eq!(r.fs, r2.fs);
    }
}

fn sharded_strategy() -> impl Strategy<Value = s3asim::Strategy> {
    prop::sample::select(vec![
        s3asim::Strategy::Mw,
        s3asim::Strategy::WwPosix,
        s3asim::Strategy::WwList,
        s3asim::Strategy::WwSieve,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sharded-master feature matrix: shard count, sub-fragment
    /// factor, strategy, nonblocking MW writes, a master crash and message
    /// delays on either side of the detection timeout. Every combination
    /// is either refused with a typed `ParamError` (a crash armed with
    /// delays that can stall heartbeats past the timeout) or verifies with
    /// an exactly-once commit ledger and replays byte-identically.
    #[test]
    fn sharded_feature_matrix_verifies_or_is_refused(
        masters in 2usize..4,
        workers in 1usize..7,
        k in 1usize..4,
        strategy in sharded_strategy(),
        nonblocking in any::<bool>(),
        crash in any::<bool>(),
        standby in 1usize..3,
        crash_ms in 20u64..1500,
        delay_per_mille in prop::sample::select(vec![0u16, 20, 100]),
        extra_delay_ms in 20u64..900,
        queries in 2usize..9,
        gran in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let params = SimParams {
            procs: masters + workers,
            num_masters: masters,
            subfragment_factor: k,
            strategy,
            mw_nonblocking_io: nonblocking,
            write_every_n_queries: gran,
            faults: FaultParams {
                master_crashes: if crash {
                    vec![(1 + standby % (masters - 1), SimTime::from_millis(crash_ms))]
                } else {
                    Vec::new()
                },
                heartbeat_interval: SimTime::from_millis(50),
                detection_timeout: SimTime::from_millis(400),
                msg_delay_per_mille: delay_per_mille,
                msg_extra_delay: SimTime::from_millis(extra_delay_ms),
                seed,
                ..FaultParams::default()
            },
            workload: WorkloadParams {
                queries,
                fragments: 6,
                min_results: 5,
                max_results: 40,
                seed,
                ..WorkloadParams::default()
            },
            ..SimParams::default()
        };
        let r = match try_run(&params) {
            Err(SimError::InvalidParams(e)) => {
                // Refused: message delays that can hold a live standby's
                // heartbeats back past the detection timeout.
                let outlast = matches!(e, ParamError::HeartbeatNotUnderTimeout { .. });
                prop_assert!(crash && delay_per_mille > 0 && outlast, "refused: {e}");
                return Ok(());
            }
            Err(e) => {
                prop_assert!(false, "{params:?}: {e}");
                unreachable!()
            }
            Ok(r) => r,
        };

        // Exactly-once ledger: every batch committed, none twice.
        let mut batches: Vec<usize> = r.commits.entries().iter().map(|e| e.batch).collect();
        batches.sort_unstable();
        let n = batches.len();
        batches.dedup();
        prop_assert_eq!(batches.len(), n, "a batch committed twice");
        prop_assert_eq!(batches, (0..queries.div_ceil(gran)).collect::<Vec<_>>());

        // Determinism: the rerun's report is identical, byte for byte.
        let r2 = try_run(&params).expect("the rerun verifies too");
        prop_assert_eq!(format!("{r:?}"), format!("{r2:?}"));
    }
}
