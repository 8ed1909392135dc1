//! The worker process (Algorithm 2 of the paper).
//!
//! A worker loops: request work → search a `(query, fragment)` task →
//! merge its sorted hits into its per-query lists (parallel I/O only) →
//! isend scores (plus result data under MW) to the master — while
//! opportunistically checking for location lists from the master and
//! writing any batches whose offsets have arrived. Individual worker-
//! writing strategies keep taking new tasks while waiting for location
//! lists; the collective strategy must stop and synchronize, which is
//! exactly the cost the paper sets out to measure.
//!
//! The same loop serves single-master and sharded runs. A worker is homed
//! to master `(rank − m) % m` (always 0 with one master); every task
//! names the master that owns it and whether its result data ships
//! there. When master crashes are armed the worker follows `Rehome`
//! notices to a successor shard.
//!
//! With worker crashes armed a worker additionally runs a heartbeat
//! sibling task, answers `Wait`/`Repair` assignments (idle back-off and
//! redoing a dead peer's writes), and — if it is itself scheduled to
//! crash — fail-stops at the top of its main loop: heartbeats cease, its
//! mailbox starts absorbing traffic, and the process simply returns.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use s3a_des::{Flag, Sim};
use s3a_faults::FaultKind;
use s3a_mpi::{waitall_sends, Comm, Message, SendRequest, Source};
use s3a_mpiio::File;
use s3a_pvfs::{FileHandle, Region};
use s3a_workload::{Hit, Workload};

use crate::failure_detector::spawn_heartbeat;
use crate::master::Wake;
use crate::params::{Segmentation, SimParams, Strategy};
use crate::phase::{Phase, PhaseBreakdown, PhaseTimer};
use crate::protocol::{
    merge_sorted_hits, Assign, OffsetsMsg, ScoresMsg, ShardCtrl, CTRL_BYTES, SCORE_ENTRY_BYTES,
    TAG_ASSIGN, TAG_CTRL, TAG_CTRL_ACK, TAG_HEARTBEAT, TAG_OFFSETS, TAG_SCORES, TAG_WORK_REQ,
    WORK_REQ_BYTES,
};
use crate::resume::CommitTracker;
use crate::runner::FaultCtx;
use crate::shard::{subfragment_hits, SHARD_POLL};
use crate::trace::TraceSink;

struct WorkerState {
    /// Merged hits per batch, keyed by query (ascending), each list in
    /// `(score desc, size desc)` order.
    local: Vec<BTreeMap<usize, Vec<Hit>>>,
    /// Batches for which this worker holds at least one result.
    have_results: Vec<bool>,
    /// Offset messages handled so far.
    offsets_handled: usize,
    /// Counters reported back to the runner.
    stats: WorkerStats,
}

/// Per-worker activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// (query, fragment) tasks this worker searched.
    pub tasks: usize,
    /// Result regions this worker wrote (0 under MW).
    pub regions_written: usize,
    /// Result bytes this worker wrote (0 under MW).
    pub bytes_written: u64,
}

/// Run a worker (world rank `num_masters..procs`). `comm` is the world
/// communicator; `workers_comm` spans all workers (used for query-sync
/// barriers); `file` is opened on the workers' communicator and carries
/// every worker-writing I/O path.
#[allow(clippy::too_many_arguments)]
pub async fn run_worker(
    sim: Sim,
    comm: Comm,
    workers_comm: Comm,
    params: Rc<SimParams>,
    workload: Rc<Workload>,
    file: File,
    database: Option<FileHandle>,
    trace: TraceSink,
    commits: CommitTracker,
    faults: Option<FaultCtx>,
) -> (PhaseBreakdown, WorkerStats) {
    let me = comm.rank();
    let timer = PhaseTimer::with_trace(&sim, me, trace);

    // Step 1: receive input variables.
    timer
        .track(Phase::Setup, comm.bcast::<()>(0, None, 1024))
        .await;

    let nq = workload.queries.len();
    let gran = params.batch_granularity(nq);
    let nbatches = nq.div_ceil(gran);
    let m = params.num_masters;
    let k = params.subfragment_factor;
    let mut home = (me - m) % m;

    let mut state = WorkerState {
        local: (0..nbatches).map(|_| BTreeMap::new()).collect(),
        have_results: vec![false; nbatches],
        offsets_handled: 0,
        stats: WorkerStats::default(),
    };
    // Offsets may arrive from any shard this worker has ever been homed
    // to — including a master that has since crashed (its in-flight sends
    // still complete).
    let offs_src = if params.sharded() {
        Source::Any
    } else {
        Source::Rank(0)
    };
    let mut offs_rx = comm.irecv(offs_src, TAG_OFFSETS);
    let mut result_sends: VecDeque<SendRequest> = VecDeque::new();

    let fp = faults.as_ref().map(|f| f.schedule.params());
    let worker_crashes = fp.is_some_and(|p| p.crashes());
    let master_crashes = fp.is_some_and(|p| p.master_crashes());
    let crash_mode = worker_crashes || master_crashes;
    let my_crash = faults.as_ref().and_then(|f| f.schedule.crash_time(me));
    // How long to back off on a `Wait` assignment: the service poll
    // interval (service masters answer `Wait` while the queue is empty),
    // the heartbeat interval when crashes are armed, or — for fault-free
    // shards answering `Wait` while a steal is in flight — a real
    // interval, so the request/wait ping-pong cannot livelock at a fixed
    // timestamp.
    let tick = match (params.service(), fp) {
        (Some(sp), _) => sp.poll_interval,
        (None, Some(p)) if crash_mode => p.heartbeat_interval,
        _ => SHARD_POLL,
    };

    // Heartbeat sibling: proof of life to the master, every tick, until
    // this worker finishes — or crashes.
    let hb_stop = Flag::new(&sim);
    if worker_crashes {
        let name = format!("heartbeat-{me}");
        spawn_heartbeat(&sim, &comm, name, TAG_HEARTBEAT, tick, hb_stop.clone());
    }
    let mut ctrl_rx = master_crashes.then(|| comm.irecv(Source::Any, TAG_CTRL));
    let mut ctrl_sends: Vec<SendRequest> = Vec::new();
    // Masters this worker has seen die (via `Rehome`). An assignment
    // from one can still arrive after the purge ack when message delays
    // outlast the detection window; executing it would re-create the
    // stale local merge the ack barrier claims was dropped.
    let mut dead_masters: BTreeSet<usize> = BTreeSet::new();

    // Re-post the offsets receive and write the batch `msg` locates. The
    // handler's state is boxed: it is awaited from four places, and every
    // worker (10k of them at scale) would otherwise carry room for it.
    macro_rules! on_offsets {
        ($msg:expr) => {
            offs_rx = comm.irecv(offs_src, TAG_OFFSETS);
            Box::pin(handle_offsets(
                &timer,
                &params,
                &workers_comm,
                &file,
                &mut state,
                &commits,
                me,
                $msg,
            ))
            .await;
        };
    }
    // Write every batch whose offset list has arrived.
    macro_rules! drain_offsets {
        () => {
            while let Some(msg) = offs_rx.test() {
                on_offsets!(msg);
            }
        };
    }

    let mut crashed = false;
    // Service shutdown carries the exact offset-message count to drain.
    let mut drain_target: Option<usize> = None;
    loop {
        // Fail-stop point: a scheduled crash takes effect at the top of
        // the loop, the worker's only obligation-free moment.
        if let Some(t) = my_crash {
            if sim.now() >= t {
                hb_stop.set();
                if let Some(f) = &faults {
                    f.log
                        .record(sim.now(), FaultKind::WorkerCrashed { rank: me });
                }
                // From now on traffic addressed to this rank is absorbed
                // (fires flow control, discards payload) so no sender or
                // rendezvous transfer ever hangs on the dead process.
                comm.mark_failed();
                crashed = true;
                break;
            }
        }

        // Steps 3–4: ask for work.
        timer
            .track(
                Phase::DataDistribution,
                comm.send(home, TAG_WORK_REQ, (), WORK_REQ_BYTES),
            )
            .await;
        let resp = if let Some(ctrl_rx) = &mut ctrl_rx {
            // The assignment may never come (the home master died). Poll
            // the assignment alongside control traffic; a `Rehome` naming
            // our home redirects the work request. The assignment is
            // always consumed first so a task already on the wire
            // completes (and merges) before any purge clears it.
            let mut assign_rx = comm.irecv(home, TAG_ASSIGN);
            'assign: loop {
                if let Some(msg) = assign_rx.test() {
                    break 'assign msg.downcast::<Assign>();
                }
                let mut rehomed = false;
                while let Some(msg) = ctrl_rx.test() {
                    *ctrl_rx = comm.irecv(Source::Any, TAG_CTRL);
                    let ShardCtrl::Rehome {
                        dead,
                        successor,
                        purge,
                    } = msg.downcast::<ShardCtrl>();
                    dead_masters.insert(dead);
                    for &b in &purge {
                        state.local[b].clear();
                        state.have_results[b] = false;
                    }
                    if !purge.is_empty() {
                        ctrl_sends.push(comm.isend(successor, TAG_CTRL_ACK, dead, CTRL_BYTES));
                    }
                    if home == dead {
                        home = successor;
                        rehomed = true;
                    }
                }
                if rehomed {
                    // The old request was absorbed by the dead master.
                    // Leak the posted receive (an assignment already in
                    // flight may still match it; nobody will read it — its
                    // task is un-scored, so the successor's rebuild covers
                    // it) and re-ask the new home.
                    std::mem::forget(assign_rx);
                    timer
                        .track(
                            Phase::Recovery,
                            comm.send(home, TAG_WORK_REQ, (), WORK_REQ_BYTES),
                        )
                        .await;
                    assign_rx = comm.irecv(home, TAG_ASSIGN);
                    continue 'assign;
                }
                drain_offsets!();
                // Wake on the assignment, any other mailbox activity (a
                // re-home notice, an offset list), or a tick.
                timer
                    .track(
                        Phase::DataDistribution,
                        Wake {
                            watch: &assign_rx,
                            ready: || assign_rx.ready(),
                            sleep: Some(sim.sleep(tick)),
                        },
                    )
                    .await;
            }
        } else {
            timer
                .track(Phase::DataDistribution, comm.recv(home, TAG_ASSIGN))
                .await
                .downcast::<Assign>()
        };

        let task = match resp {
            Assign::ShardTask {
                query,
                fragment,
                owner,
                ship,
            } => Some((query, fragment, owner, ship)),
            Assign::Wait => {
                // The master has no task for us yet (it is waiting out a
                // failure detection, stragglers, a steal, or — in service
                // mode — the next client arrival). Use the idle time to
                // write any batches whose offsets have arrived, then back
                // off one tick before asking again. Idle time waiting for
                // work is data-distribution time; only crash runs book it
                // as recovery overhead.
                drain_offsets!();
                let idle_phase = if crash_mode {
                    Phase::Recovery
                } else {
                    Phase::DataDistribution
                };
                timer.track(idle_phase, sim.sleep(tick)).await;
                None
            }
            Assign::Repair {
                batch,
                for_worker,
                tasks,
                bytes,
                regions,
            } => {
                // Redo a dead peer's share of a batch: recompute its
                // results (same cost model as the original searches) and
                // write them into the exact regions the layout reserved.
                let redo = params.compute_time_multi(bytes, tasks.max(1));
                timer.track(Phase::Recovery, sim.sleep(redo)).await;
                let t0 = sim.now();
                file.write_regions(&regions, params.strategy.write_method())
                    .await
                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                file.sync()
                    .await
                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                timer.add(Phase::Recovery, sim.now().saturating_sub(t0));
                state.stats.regions_written += regions.len();
                state.stats.bytes_written += bytes;
                // Credit the ORIGINAL writer: the batch's ledger entry
                // named the dead rank, and exactly-once accounting must
                // close that entry, not invent a new one.
                commits.complete_by(batch, for_worker, sim.now());
                None
            }
            Assign::Done => break,
            Assign::Shutdown { offsets } => {
                drain_target = Some(offsets);
                break;
            }
        };
        if let Some((query, fragment, owner, ship)) = task {
            if dead_masters.contains(&owner) {
                // A delayed assignment outlived its owner. Every unscored
                // task of a dead shard is covered by the successor's
                // rebuild, so executing this one could only waste
                // compute, lose its score to a dead rank, or merge hits
                // back into a purged batch. Drop it and ask the (live)
                // home for real work.
                continue;
            }
            // Step 6: the search itself. A query-segmentation task scans
            // the whole database: it pays one startup per original
            // fragment, and — when the database exceeds worker memory —
            // first streams the non-resident part back in from the file
            // system (the repeated I/O the paper's introduction holds
            // against query segmentation).
            state.stats.tasks += 1;
            if let Some(db) = &database {
                let reload = params.db_reload_bytes();
                timer
                    .track(Phase::Io, db.read_contiguous(file.endpoint(), 0, reload))
                    .await
                    .unwrap_or_else(|e| crate::runner::io_failure(e));
            }
            let startups = match params.segmentation {
                Segmentation::Database => 1,
                Segmentation::Query => params.workload.fragments,
            };
            // `fragment` indexes the sub-fragment space: fragment f of
            // the workload split `subfragment_factor` ways.
            let full = &workload.queries[query].hits[fragment / k];
            let hits = subfragment_hits(full, fragment % k, k);
            let bytes: u64 = hits.iter().map(|h| h.size).sum();
            timer
                .track(
                    Phase::Compute,
                    sim.sleep(params.compute_time_multi(bytes, startups)),
                )
                .await;

            // Step 8: merge into the per-query list (parallel I/O only).
            // Shipped results travel with the scores and are written by
            // the owning master.
            if !ship && params.strategy.workers_write() && !hits.is_empty() {
                let merge_time = params.testbed.merge_per_hit * hits.len() as u64;
                timer
                    .track(Phase::MergeResults, sim.sleep(merge_time))
                    .await;
                let b = query / gran;
                let slot = state.local[b].entry(query).or_default();
                if slot.is_empty() {
                    slot.extend_from_slice(hits);
                } else {
                    *slot = merge_sorted_hits(slot, hits);
                }
                state.have_results[b] = true;
            }

            // Steps 10 & 15: send scores (and shipped results), with
            // bounded send buffering.
            while result_sends.len() >= params.testbed.max_outstanding_result_sends {
                let oldest = result_sends.pop_front().expect("nonempty");
                timer.track(Phase::GatherResults, oldest.wait()).await;
            }
            let wire = SCORE_ENTRY_BYTES * hits.len() as u64 + if ship { bytes } else { 0 };
            let msg = ScoresMsg {
                query,
                fragment,
                hits: hits.to_vec(),
                shipped: ship,
            };
            result_sends.push_back(comm.isend(owner, TAG_SCORES, msg, wire));
        }

        // Steps 16–18: handle any location lists that have arrived.
        //
        // Synchronizing modes (query sync, collective I/O) must react
        // promptly: the other workers are, or will be, blocked on this
        // worker's participation. In the free-running individual modes the
        // worker keeps computing — taking new tasks has priority over
        // writing already-located results, which keeps the task (and
        // therefore result) distribution balanced across workers — and
        // drains its I/O backlog once the master has no more work. Crash
        // runs also drain eagerly: prompt writes shrink the window in
        // which this worker's (or its master's) death would orphan a
        // batch.
        let prompt_io = params.query_sync
            || params.strategy.inherently_synchronizing()
            || crash_mode
            || params.is_service();
        if prompt_io {
            drain_offsets!();
        }
    }

    if !crashed {
        hb_stop.set();
        if !worker_crashes {
            // Drain: every batch we still owe I/O (or synchronization)
            // for. (With worker crashes the master only says Done once
            // every commit is closed, so nothing can be owed here; a
            // sharded `Done` certifies scoring, not durability.) A
            // service shutdown carries the exact count — shed queries
            // make it underivable from the workload alone.
            let expected =
                drain_target.unwrap_or_else(|| expected_offset_messages(&params, &state));
            while state.offsets_handled < expected {
                let msg = timer.track(Phase::DataDistribution, offs_rx.wait()).await;
                on_offsets!(msg);
            }
        }
    }

    // Step 15 (final): make sure our result sends completed. Even a
    // crashed worker's in-flight transfers finish (the data was already
    // handed to the fabric before the fail-stop point).
    while let Some(s) = result_sends.pop_front() {
        timer.track(Phase::GatherResults, s.wait()).await;
    }
    timer
        .track(Phase::GatherResults, waitall_sends(&ctrl_sends))
        .await;

    // Step 20/21: final synchronization — impossible with crashes (a dead
    // rank can never arrive), so crash runs skip it.
    if !crash_mode {
        timer.track(Phase::Sync, comm.barrier()).await;
    }

    let mut bd = timer.snapshot();
    bd.close_to(sim.now());
    (bd, state.stats)
}

/// How many TAG_OFFSETS messages the master will send this worker.
fn expected_offset_messages(params: &SimParams, state: &WorkerState) -> usize {
    let nbatches = state.have_results.len();
    // A resumed run never re-announces batches that were durable at the
    // checkpoint.
    let skipped = params
        .resume_from
        .as_ref()
        .map(|r| r.done_batches.len())
        .unwrap_or(0);
    if params.strategy.inherently_synchronizing() || params.query_sync {
        nbatches - skipped
    } else if params.strategy == Strategy::Mw {
        0
    } else {
        state.have_results.iter().filter(|&&b| b).count()
    }
}

#[allow(clippy::too_many_arguments)]
async fn handle_offsets(
    timer: &PhaseTimer,
    params: &SimParams,
    workers_comm: &Comm,
    file: &File,
    state: &mut WorkerState,
    commits: &CommitTracker,
    world_rank: usize,
    msg: Message,
) {
    let OffsetsMsg { batch, offsets } = msg.downcast();
    state.offsets_handled += 1;

    // Pair this batch's local hits (queries ascending, hits in local
    // merged order) with the offsets the master computed in exactly the
    // same order.
    let queries = std::mem::take(&mut state.local[batch]);
    let local: Vec<&Hit> = queries.values().flatten().collect();
    assert_eq!(
        local.len(),
        offsets.len(),
        "offset list length mismatch for batch {batch}"
    );
    let regions: Vec<Region> = local
        .iter()
        .zip(&offsets)
        .map(|(h, &off)| Region::new(off, h.size))
        .collect();
    if params.strategy.workers_write() {
        state.stats.regions_written += regions.len();
        state.stats.bytes_written += regions.iter().map(|r| r.len).sum::<u64>();
    }

    let wrote = !regions.is_empty();
    match params.strategy {
        Strategy::Mw => {
            // Pure notification: the master wrote this batch.
        }
        Strategy::WwColl => {
            // Two-phase collective: every worker participates. The wait
            // for the slowest participant surfaces, as in the paper, in
            // the data-distribution time; the exchange and write are I/O.
            let t = file
                .write_at_all_timed(&regions)
                .await
                .unwrap_or_else(|e| crate::runner::io_failure(e));
            // The collective ran synchronize-then-exchange back to back;
            // record the two sub-intervals where they actually happened.
            let now = workers_comm.sim().now();
            let io_start = now.saturating_sub(t.exchange_and_write);
            let sync_start = io_start.saturating_sub(t.synchronize);
            timer.add_interval(Phase::DataDistribution, sync_start, io_start);
            timer.add_interval(Phase::Io, io_start, now);
            timer
                .track(Phase::Io, file.sync_collective())
                .await
                .unwrap_or_else(|e| crate::runner::io_failure(e));
        }
        // Independent writes (WW-CollList synchronizes afterwards).
        strategy => {
            if wrote {
                timer
                    .track(
                        Phase::Io,
                        file.write_regions(&regions, strategy.write_method()),
                    )
                    .await
                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                timer
                    .track(Phase::Io, file.sync())
                    .await
                    .unwrap_or_else(|e| crate::runner::io_failure(e));
            }
        }
    }

    if wrote && params.strategy != Strategy::Mw {
        commits.complete_by(batch, world_rank, workers_comm.sim().now());
    }
    let forced_sync = params.query_sync || params.strategy == Strategy::WwCollList;
    if forced_sync {
        timer.track(Phase::Sync, workers_comm.barrier()).await;
    }
}
