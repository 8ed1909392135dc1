//! Cross-crate integration tests: every strategy, sync mode, and
//! granularity drives the full stack (workload → MPI → S3aSim → MPI-IO →
//! PVFS) and must produce a byte-exact output file.

use s3a_workload::WorkloadParams;
use s3asim::{run, FaultParams, Phase, SimParams, SimTime, Strategy};

const ALL_STRATEGIES: [Strategy; 5] = [
    Strategy::Mw,
    Strategy::WwPosix,
    Strategy::WwList,
    Strategy::WwColl,
    Strategy::WwCollList,
];

fn small(procs: usize, strategy: Strategy, sync: bool) -> SimParams {
    SimParams {
        procs,
        strategy,
        query_sync: sync,
        workload: WorkloadParams {
            queries: 5,
            fragments: 12,
            min_results: 60,
            max_results: 120,
            ..WorkloadParams::default()
        },
        ..SimParams::default()
    }
}

#[test]
fn every_strategy_and_sync_mode_is_exact() {
    for strategy in ALL_STRATEGIES {
        for sync in [false, true] {
            let r = run(&small(6, strategy, sync));
            r.verify()
                .unwrap_or_else(|e| panic!("{strategy} sync={sync}: {e}"));
            assert!(r.overall.as_nanos() > 0);
        }
    }
}

#[test]
fn minimum_cluster_two_processes() {
    for strategy in ALL_STRATEGIES {
        let r = run(&small(2, strategy, true));
        r.verify().unwrap_or_else(|e| panic!("{strategy}: {e}"));
    }
}

#[test]
fn more_workers_than_tasks() {
    // 1 query x 4 fragments = 4 tasks for 11 workers: most workers never
    // compute, but all must participate in barriers/collectives.
    let mut p = small(12, Strategy::WwColl, true);
    p.workload.queries = 1;
    p.workload.fragments = 4;
    let r = run(&p);
    r.verify().expect("exact output");
    let active = r.worker_stats.iter().filter(|s| s.tasks > 0).count();
    assert!(active <= 4, "only 4 tasks exist, {active} workers computed");
}

#[test]
fn zero_result_queries_are_handled() {
    // min_results can legally produce tasks with no hits on most fragments.
    let mut p = small(4, Strategy::WwList, false);
    p.workload.min_results = 1;
    p.workload.max_results = 3;
    let r = run(&p);
    r.verify().expect("exact output");
}

#[test]
fn write_granularity_modes_agree_on_bytes() {
    let mut totals = Vec::new();
    for gran in [1usize, 2, 100] {
        let mut p = small(6, Strategy::WwList, false);
        p.write_every_n_queries = gran;
        let r = run(&p);
        r.verify().unwrap_or_else(|e| panic!("gran={gran}: {e}"));
        totals.push(r.covered_bytes);
    }
    assert!(totals.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn strategies_write_identical_byte_totals() {
    let mut totals = Vec::new();
    for strategy in ALL_STRATEGIES {
        let r = run(&small(8, strategy, false));
        totals.push((strategy, r.covered_bytes));
    }
    for w in totals.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "{} and {} disagree on output size",
            w[0].0, w[1].0
        );
    }
}

#[test]
fn mw_workers_never_write() {
    let r = run(&small(6, Strategy::Mw, false));
    r.verify().expect("exact output");
    for (i, st) in r.worker_stats.iter().enumerate() {
        assert_eq!(st.regions_written, 0, "worker {i} wrote under MW");
        assert_eq!(st.bytes_written, 0);
    }
    // The master's I/O phase carries the writes instead.
    assert!(r.master.get(Phase::Io) > s3a_des::SimTime::ZERO);
}

#[test]
fn ww_workers_write_exactly_the_workload() {
    let r = run(&small(6, Strategy::WwList, false));
    r.verify().expect("exact output");
    let total: u64 = r.worker_stats.iter().map(|s| s.bytes_written).sum();
    assert_eq!(total, r.expected_bytes);
    assert_eq!(r.master.get(Phase::Io), s3a_des::SimTime::ZERO);
}

#[test]
fn all_tasks_distributed_exactly_once() {
    let p = small(7, Strategy::WwPosix, false);
    let tasks = p.workload.queries * p.workload.fragments;
    let r = run(&p);
    let done: usize = r.worker_stats.iter().map(|s| s.tasks).sum();
    assert_eq!(done, tasks);
}

#[test]
fn query_sync_never_speeds_things_up() {
    for strategy in [Strategy::Mw, Strategy::WwPosix, Strategy::WwList] {
        let fast = run(&small(8, strategy, false));
        let slow = run(&small(8, strategy, true));
        assert!(
            slow.overall >= fast.overall,
            "{strategy}: sync {} < no-sync {}",
            slow.overall,
            fast.overall
        );
    }
}

#[test]
fn faster_compute_never_slows_the_whole_run_down_much() {
    // I/O load is identical; compute shrinks. Allow a small margin for
    // queueing effects (the paper saw slight I/O-phase increases).
    for strategy in [Strategy::WwList, Strategy::Mw] {
        let mut a = small(8, strategy, false);
        a.compute_speed = 1.0;
        let mut b = small(8, strategy, false);
        b.compute_speed = 8.0;
        let slow = run(&a).overall.as_secs_f64();
        let fast = run(&b).overall.as_secs_f64();
        assert!(
            fast <= slow * 1.15,
            "{strategy}: speed 8x gave {fast:.2}s vs {slow:.2}s at 1x"
        );
    }
}

#[test]
fn phase_breakdowns_sum_to_overall() {
    // Each rank's stacked phases account for its own lifetime; ranks exit
    // the final (dissemination) barrier within network-latency skew of the
    // overall end time.
    let skew = s3a_des::SimTime::from_millis(5);
    let r = run(&small(6, Strategy::WwColl, true));
    for (i, w) in r.workers.iter().enumerate() {
        let total = w.total();
        assert!(
            total <= r.overall && total + skew >= r.overall,
            "worker {i} phase sum {total} vs overall {}",
            r.overall
        );
    }
    let m = r.master.total();
    assert!(m <= r.overall && m + skew >= r.overall);
}

#[test]
fn single_fragment_database() {
    let mut p = small(4, Strategy::WwList, false);
    p.workload.fragments = 1;
    let r = run(&p);
    r.verify().expect("exact output");
}

#[test]
fn many_small_batches_with_collective() {
    let mut p = small(5, Strategy::WwColl, false);
    p.workload.queries = 8;
    p.write_every_n_queries = 1;
    let r = run(&p);
    r.verify().expect("exact output");
}

#[test]
fn collective_aggregator_extremes() {
    for cb in [1usize, 2, 1000] {
        let mut p = small(6, Strategy::WwColl, false);
        p.cb_nodes = cb;
        let r = run(&p);
        r.verify().unwrap_or_else(|e| panic!("cb_nodes={cb}: {e}"));
    }
}

#[test]
fn tiny_cb_buffer_forces_many_rounds() {
    let mut p = small(5, Strategy::WwColl, false);
    p.cb_buffer_size = 4 * 1024;
    let r = run(&p);
    r.verify().expect("exact output");
}

#[test]
fn single_server_file_system() {
    let mut p = small(5, Strategy::WwList, false);
    p.testbed.pvfs.servers = 1;
    let r = run(&p);
    r.verify().expect("exact output");
}

#[test]
fn one_rank_per_node_configuration() {
    let mut p = small(6, Strategy::WwPosix, false);
    p.testbed.mpi.ranks_per_node = 1;
    let r = run(&p);
    r.verify().expect("exact output");
}

#[test]
fn query_segmentation_is_exact_for_every_strategy() {
    for strategy in ALL_STRATEGIES {
        let mut p = small(6, strategy, false);
        p.segmentation = s3asim::Segmentation::Query;
        p.workload.database_bytes = 64 * 1024 * 1024; // fits memory: no reads
        let r = run(&p);
        r.verify().unwrap_or_else(|e| panic!("{strategy}: {e}"));
        assert_eq!(r.fs.bytes_read, 0, "{strategy}: unexpected database reads");
    }
}

#[test]
fn query_segmentation_bytes_match_database_segmentation() {
    let db = run(&small(6, Strategy::WwList, false));
    let mut p = small(6, Strategy::WwList, false);
    p.segmentation = s3asim::Segmentation::Query;
    let q = run(&p);
    q.verify().expect("exact output");
    assert_eq!(db.covered_bytes, q.covered_bytes);
}

#[test]
fn oversized_database_forces_reload_reads() {
    let mut p = small(4, Strategy::WwList, false);
    p.segmentation = s3asim::Segmentation::Query;
    p.testbed.worker_memory = 8 * 1024 * 1024;
    p.workload.database_bytes = 24 * 1024 * 1024; // 16 MiB reload per query
    let r = run(&p);
    r.verify().expect("exact output");
    let expected_reads = (p.workload.queries as u64) * 16 * 1024 * 1024;
    assert_eq!(r.fs.bytes_read, expected_reads);
    // A fitting database must beat the thrashing one end-to-end.
    let mut fits = p.clone();
    fits.workload.database_bytes = 4 * 1024 * 1024;
    let f = run(&fits);
    assert!(f.overall < r.overall);
    assert_eq!(f.fs.bytes_read, 0);
}

#[test]
fn query_segmentation_parallelism_capped_by_query_count() {
    // 3 queries, 10 workers: at most 3 workers ever compute.
    let mut p = small(11, Strategy::WwList, false);
    p.segmentation = s3asim::Segmentation::Query;
    p.workload.queries = 3;
    let r = run(&p);
    r.verify().expect("exact output");
    let active = r.worker_stats.iter().filter(|s| s.tasks > 0).count();
    assert!(
        active <= 3,
        "{active} workers computed for 3 whole-query tasks"
    );
}

#[test]
fn mw_nonblocking_io_is_exact_and_not_slower() {
    let blocking = run(&small(8, Strategy::Mw, false));
    let mut p = small(8, Strategy::Mw, false);
    p.mw_nonblocking_io = true;
    let nonblocking = run(&p);
    nonblocking.verify().expect("exact output");
    assert!(
        nonblocking.overall <= blocking.overall,
        "nonblocking master I/O should not be slower ({} vs {})",
        nonblocking.overall,
        blocking.overall
    );

    // With worker crashes armed the option still applies: the master
    // keeps serving requests while its batch writes run in the
    // background, and joins the last write before it exits.
    let mut p = small(8, Strategy::Mw, false);
    p.faults = FaultParams {
        worker_crashes: vec![(2, SimTime::from_millis(40))],
        heartbeat_interval: SimTime::from_millis(50),
        detection_timeout: SimTime::from_millis(400),
        ..FaultParams::default()
    };
    let blocking = run(&p);
    p.mw_nonblocking_io = true;
    let nonblocking = run(&p);
    nonblocking
        .verify()
        .expect("exact output despite the crash");
    assert_eq!(
        nonblocking
            .faults
            .as_ref()
            .expect("fault report")
            .detections,
        1
    );
    let entries = nonblocking.commits.entries();
    let mut batches: Vec<usize> = entries.iter().map(|e| e.batch).collect();
    batches.sort_unstable();
    batches.dedup();
    assert_eq!(batches.len(), entries.len(), "no batch committed twice");
    assert_eq!(batches, (0..5).collect::<Vec<_>>(), "every batch durable");
    assert!(
        nonblocking.master.get(Phase::Io) < blocking.master.get(Phase::Io),
        "the crash-tolerant master must not block on its writes ({} vs {})",
        nonblocking.master.get(Phase::Io),
        blocking.master.get(Phase::Io)
    );

    // Sharded masters honour the option too: each shard writes its
    // batches in the background (the report's master phases are the
    // across-shard mean).
    let sharded = |masters: usize| SimParams {
        procs: 10,
        num_masters: masters,
        strategy: Strategy::Mw,
        write_every_n_queries: 2,
        workload: WorkloadParams {
            queries: 8,
            fragments: 8,
            min_results: 30,
            max_results: 80,
            ..WorkloadParams::default()
        },
        ..SimParams::default()
    };
    let blocking = run(&sharded(2));
    let mut p = sharded(2);
    p.mw_nonblocking_io = true;
    let nonblocking = run(&p);
    nonblocking.verify().expect("exact sharded output");
    assert!(
        nonblocking.master.get(Phase::Io) < blocking.master.get(Phase::Io),
        "sharded masters must not block on their writes ({} vs {})",
        nonblocking.master.get(Phase::Io),
        blocking.master.get(Phase::Io)
    );

    // A standby that fail-stops first joins its background write (at
    // 900 ms rank 1 has one in flight), so the dead shard owes no extent
    // and the successor's adoption stays exact.
    let mut p = sharded(3);
    p.mw_nonblocking_io = true;
    p.faults = FaultParams {
        master_crashes: vec![(1, SimTime::from_millis(900))],
        heartbeat_interval: SimTime::from_millis(50),
        detection_timeout: SimTime::from_millis(400),
        ..FaultParams::default()
    };
    let r = run(&p);
    r.verify().expect("exact output despite the master crash");
    assert_eq!(r.faults.as_ref().expect("fault report").shard_takeovers, 1);
    let entries = r.commits.entries();
    let mut batches: Vec<usize> = entries.iter().map(|e| e.batch).collect();
    batches.sort_unstable();
    batches.dedup();
    assert_eq!(batches.len(), entries.len(), "no batch committed twice");
    assert_eq!(batches, (0..4).collect::<Vec<_>>(), "every batch durable");
}

#[test]
fn trace_records_consistent_timeline() {
    let mut p = small(6, Strategy::WwList, true);
    p.trace = true;
    let r = run(&p);
    r.verify().expect("exact output");
    let trace = r.trace.as_ref().expect("tracing was enabled");
    assert!(!trace.events().is_empty());
    // Trace totals agree with the phase breakdown for every rank/phase.
    for (rank, bd) in
        std::iter::once((0, &r.master)).chain(r.workers.iter().enumerate().map(|(i, w)| (i + 1, w)))
    {
        for ph in s3asim::PHASES {
            if ph == Phase::Other {
                continue; // Other is derived, not traced
            }
            assert_eq!(
                trace.rank_phase_total(rank, ph),
                bd.get(ph),
                "rank {rank} phase {ph} trace/breakdown mismatch"
            );
        }
    }
    // Events never extend past the overall end.
    for e in trace.events() {
        assert!(e.end <= r.overall);
    }
    // The Gantt and CSV renderers produce something sane.
    let chart = trace.gantt(p.procs, 60);
    assert!(chart.contains("legend"));
    let csv = trace.to_csv();
    assert_eq!(csv.lines().count(), trace.events().len() + 1);
}

#[test]
fn trace_disabled_by_default() {
    let r = run(&small(4, Strategy::WwList, false));
    assert!(r.trace.is_none());
}

#[test]
fn commit_log_covers_all_batches_and_bytes() {
    for strategy in ALL_STRATEGIES {
        let p = small(6, strategy, false);
        let batches = p.workload.queries; // granularity 1
        let r = run(&p);
        assert_eq!(
            r.commits.entries().len(),
            batches,
            "{strategy}: wrong commit count"
        );
        let committed: u64 = r.commits.entries().iter().map(|e| e.bytes).sum();
        assert_eq!(committed, r.expected_bytes, "{strategy}: commit bytes");
        // All commits happen within the run; everything is durable at end.
        for e in r.commits.entries() {
            assert!(e.committed_at <= r.overall);
        }
        assert_eq!(
            r.commits.resumable_queries_at(r.overall),
            p.workload.queries
        );
    }
}

#[test]
fn finer_write_granularity_lowers_expected_crash_loss() {
    let cost = |gran: usize| {
        let mut p = small(8, Strategy::WwList, false);
        p.workload.queries = 12;
        p.write_every_n_queries = gran;
        let r = run(&p);
        s3asim::expected_lost_time(&r.commits, r.overall).as_secs_f64()
    };
    let fine = cost(1);
    let coarse = cost(12); // write-at-end: one commit at the very end
    assert!(
        fine < coarse,
        "per-query writes ({fine:.2}s expected loss) should beat \
         write-at-end ({coarse:.2}s)"
    );
}

#[test]
fn report_csv_row_matches_header_arity() {
    let r = run(&small(4, Strategy::WwList, false));
    let header = r.csv_header();
    let row = r.csv_row();
    assert_eq!(
        header.split(',').count(),
        row.split(',').count(),
        "CSV header and row column counts differ"
    );
}
