//! Sharded-master mode: the query space is partitioned across
//! `num_masters` master ranks, each running its own task farm over the
//! workers homed to it. Idle shards steal `(query, sub-fragment)` tasks
//! from busy siblings over a master↔master channel; tasks optionally
//! decompose below fragment granularity (`subfragment_factor`), so a
//! steal can move less than one fragment's worth of work.
//!
//! Layout is static: batch `b` owns the file extent
//! `[batch_base[b], batch_base[b] + bytes(b))`, computed from the
//! workload oracle up front, so shards lay out their batches without
//! coordinating a shared cursor (and without perturbing each other's
//! byte positions).
//!
//! Rank 0 doubles as the *coordinator*: it collects per-shard progress
//! reports and drives a two-phase shutdown quiesce (`Prepare` →
//! `PrepareAck` → `AllDone`) that guarantees no steal traffic is in
//! flight when the first `Done` is issued. With a master-crash schedule
//! armed, standby masters heartbeat the coordinator; a silent master is
//! declared dead, a successor shard adopts its batches (rebuilding the
//! ones that died unlaid-out), and its workers are re-homed — the run
//! completes with exactly-once extents (see DESIGN.md §"Sharded
//! master").

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use s3a_des::{Flag, Sim, SimTime};
use s3a_faults::FaultKind;
use s3a_mpi::{waitall_sends, Comm, RecvRequest, SendRequest, Source};
use s3a_mpiio::File;
use s3a_obs::{ObsSink, Track};
use s3a_workload::{Hit, Workload};

use crate::failure_detector::Liveness;
use crate::master::Wake;
use crate::offsets::BatchState;
use crate::params::{SimParams, Strategy};
use crate::phase::{Phase, PhaseBreakdown, PhaseTimer};
use crate::protocol::{
    Assign, OffsetsMsg, ScoresMsg, ShardCtrl, ShardStatus, StealReq, StealResp, CTRL_BYTES,
    HEARTBEAT_BYTES, TAG_ASSIGN, TAG_CTRL, TAG_CTRL_ACK, TAG_MASTER_HB, TAG_OFFSETS, TAG_SCORES,
    TAG_STATUS, TAG_STEAL_REQ, TAG_STEAL_RESP, TAG_WORK_REQ,
};
use crate::resume::CommitTracker;
use crate::runner::FaultCtx;
use crate::trace::TraceSink;

/// How long an idle sharded worker backs off before re-requesting work
/// when no fault schedule supplies a heartbeat tick. Also the liveness
/// driver for fault-free masters: every Wait-ing worker re-polls its
/// home at this interval.
pub(crate) const SHARD_POLL: SimTime = SimTime::from_millis(10);

/// The slice of a fragment's hit list that sub-fragment `slice` of `k`
/// covers. Slices partition the list in order, so their concatenation is
/// the original fragment and each slice inherits the fragment's
/// `(score desc, size desc)` sort.
pub(crate) fn subfragment_hits(hits: &[Hit], slice: usize, k: usize) -> &[Hit] {
    let n = hits.len();
    &hits[slice * n / k..(slice + 1) * n / k]
}

/// Static file base of every batch: prefix sums of per-batch result
/// bytes, from the workload oracle. Batch extents never depend on
/// completion order, so shards can lay out independently.
fn batch_bases(workload: &Workload, gran: usize, nbatches: usize) -> Vec<u64> {
    let nq = workload.queries.len();
    let mut bases = Vec::with_capacity(nbatches);
    let mut cursor = 0u64;
    for b in 0..nbatches {
        bases.push(cursor);
        for q in b * gran..((b + 1) * gran).min(nq) {
            cursor += workload.queries[q]
                .hits
                .iter()
                .flatten()
                .map(|h| h.size)
                .sum::<u64>();
        }
    }
    bases
}

/// Initial batch → owning-master-rank map: shard `s` owns batches
/// `[s*nb/m, (s+1)*nb/m)` — contiguous, balanced to within one batch.
fn initial_owners(nbatches: usize, m: usize) -> Vec<usize> {
    let mut owner = vec![0usize; nbatches];
    for s in 0..m {
        for slot in owner
            .iter_mut()
            .take((s + 1) * nbatches / m)
            .skip(s * nbatches / m)
        {
            *slot = s;
        }
    }
    owner
}

/// Take `floor(own/2)` of the victim's *own-owned* queued tasks, from
/// the back (the work its own workers would reach last). Stolen entries
/// (owner ≠ `me`) are never re-lent, so an unscored task always keeps
/// exactly one shard — its owner — unresolved.
fn lend_half(queue: &mut VecDeque<(usize, usize, usize)>, me: usize) -> Vec<(usize, usize)> {
    let own = queue.iter().filter(|&&(_, _, o)| o == me).count();
    let mut want = own / 2;
    if want == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(want);
    let mut kept: VecDeque<(usize, usize, usize)> = VecDeque::new();
    while want > 0 {
        match queue.pop_back() {
            Some((q, sf, o)) if o == me => {
                out.push((q, sf));
                want -= 1;
            }
            Some(e) => kept.push_front(e),
            None => break,
        }
    }
    while let Some(e) = kept.pop_front() {
        queue.push_back(e);
    }
    out.reverse();
    out
}

/// Run one shard master (world rank `0..num_masters`). Rank 0 is the
/// coordinator. `file` must be opened on a single-rank communicator —
/// shard writes (MW batches, shipped/stolen WW results) are independent
/// operations.
#[allow(clippy::too_many_arguments)]
pub(crate) async fn run_shard_master(
    sim: Sim,
    comm: Comm,
    params: Rc<SimParams>,
    workload: Rc<Workload>,
    file: File,
    trace: TraceSink,
    commits: CommitTracker,
    faults: Option<FaultCtx>,
    obs: ObsSink,
) -> PhaseBreakdown {
    let me = comm.rank();
    let procs = comm.size();
    let m = params.num_masters;
    let timer = PhaseTimer::with_trace(&sim, me, trace);

    // Step 1: distribute input variables (rank 0 is the bcast root).
    timer
        .track(Phase::Setup, comm.bcast(0, (me == 0).then_some(()), 1024))
        .await;

    let nq = workload.queries.len();
    let nf = workload.params.fragments;
    let k = params.subfragment_factor;
    let nf_eff = nf * k;
    let gran = params.batch_granularity(nq);
    let nbatches = nq.div_ceil(gran);
    let batch_base = batch_bases(&workload, gran, nbatches);
    let mut owner_of = initial_owners(nbatches, m);

    // Scheduling state: batches this shard owns, and its task queue.
    // Queue entries carry the task's owning shard; stolen entries keep
    // the victim as owner, so the worker knows where to report.
    let mut batches: Vec<Option<BatchState>> = (0..nbatches)
        .map(|b| {
            (owner_of[b] == me).then(|| {
                let queries: Vec<usize> = (b * gran..((b + 1) * gran).min(nq)).collect();
                BatchState::new(b, queries, nf_eff)
            })
        })
        .collect();
    let mut batches_left = batches.iter().filter(|b| b.is_some()).count();
    let mut queue: VecDeque<(usize, usize, usize)> = (0..nbatches)
        .filter(|&b| owner_of[b] == me)
        .flat_map(|b| b * gran..((b + 1) * gran).min(nq))
        .flat_map(|q| (0..nf_eff).map(move |sf| (q, sf, me)))
        .collect();

    // Exactly-once guard: every (query, sub-fragment) this shard has
    // accepted a score for. Failover can double-execute a task (an
    // in-flight assignment plus a rebuild/re-enqueue); the second report
    // is dropped here before it can over-report the batch.
    let mut scored: BTreeSet<(usize, usize)> = BTreeSet::new();
    // Tasks lent to thieves, so a thief's death re-enqueues them.
    let mut lent: BTreeMap<(usize, usize), usize> = BTreeMap::new();

    // Worker homing (index = world rank; entries below `m` unused).
    let mut home_of = vec![0usize; procs];
    for (w, h) in home_of.iter_mut().enumerate().skip(m) {
        *h = (w - m) % m;
    }
    let mut alive = vec![true; m];
    let mut done_workers: BTreeSet<usize> = BTreeSet::new();

    // Quiesce / failover state.
    let mut epoch = 0u64;
    let mut quiesced = false;
    let mut prepare_acked = false;
    let mut all_done = false;
    let mut last_report: Option<(bool, bool)> = None;
    // Steal pause: consecutive empty responses; at `alive siblings` the
    // shard stops asking (fault-free queues only ever drain, so all-empty
    // stays all-empty; a failover resets the streak).
    let mut empty_streak = 0usize;
    let mut next_victim = (me + 1) % m;
    let mut outstanding_steal: Option<(usize, RecvRequest, SimTime)> = None;

    // Coordinator state (rank 0 only; index 0 mirrors its own report).
    let mut remote: Vec<Option<(bool, bool)>> = vec![None; m];
    let mut acked = vec![false; m];
    let mut prepare_outstanding = false;

    let crash_mode = faults
        .as_ref()
        .is_some_and(|f| f.schedule.params().master_crashes());
    let my_crash = faults
        .as_ref()
        .and_then(|f| f.schedule.master_crash_time(me));
    let fp = faults.as_ref().map(|f| f.schedule.params().clone());
    let tick = fp
        .as_ref()
        .map(|p| p.heartbeat_interval)
        .unwrap_or(SimTime::ZERO);
    let detection_timeout = fp
        .as_ref()
        .map(|p| p.detection_timeout)
        .unwrap_or(SimTime::ZERO);
    let mut liveness = Liveness::new(m, sim.now(), detection_timeout);

    // Successor bookkeeping: rebuilt tasks are quarantined until every
    // worker has acknowledged the purge of its stale local merges, and
    // the takeover span runs from detection to quarantine release.
    let mut ack_wait: BTreeMap<usize, usize> = BTreeMap::new();
    let mut quarantine: BTreeMap<usize, Vec<(usize, usize, usize)>> = BTreeMap::new();
    let mut takeover_start: BTreeMap<usize, SimTime> = BTreeMap::new();

    // Standby masters heartbeat the coordinator while a master-crash
    // schedule is armed.
    let hb_stop = Flag::new(&sim);
    if crash_mode && me != 0 {
        let hb_comm = comm.clone();
        let stop = hb_stop.clone();
        let hb_sim = sim.clone();
        sim.spawn(format!("master-heartbeat-{me}"), async move {
            while !stop.is_set() {
                let _ = hb_comm.isend(0, TAG_MASTER_HB, (), HEARTBEAT_BYTES);
                hb_sim.sleep(tick).await;
            }
        });
    }

    let mut wr_rx = comm.irecv(Source::Any, TAG_WORK_REQ);
    let mut scores_rx = comm.irecv(Source::Any, TAG_SCORES);
    let mut streq_rx = comm.irecv(Source::Any, TAG_STEAL_REQ);
    let mut status_rx = comm.irecv(Source::Any, TAG_STATUS);
    let mut hb_rx = (crash_mode && me == 0).then(|| comm.irecv(Source::Any, TAG_MASTER_HB));
    let mut ack_rx = crash_mode.then(|| comm.irecv(Source::Any, TAG_CTRL_ACK));
    let mut ctrl_sends: Vec<SendRequest> = Vec::new();
    let mut crashed = false;

    let method = params.strategy.write_method();

    loop {
        // Fail-stop point: the only obligation-free moment (layout writes
        // complete within their own iteration, so a dead shard never owes
        // an extent). Suppressed once the quiesce has begun: the
        // coordinator stops detecting the moment AllDone is broadcast.
        if let Some(t) = my_crash {
            if !quiesced && !all_done && sim.now() >= t {
                hb_stop.set();
                if let Some(f) = &faults {
                    f.log
                        .record(sim.now(), FaultKind::MasterCrashed { rank: me });
                }
                comm.mark_failed();
                crashed = true;
                break;
            }
        }

        // Master heartbeats refresh standby liveness (coordinator only).
        if let Some(rx) = &mut hb_rx {
            while let Some(msg) = rx.test() {
                let (_, status) = msg.into_parts::<()>();
                liveness.refresh(status.source, sim.now());
                *rx = comm.irecv(Source::Any, TAG_MASTER_HB);
            }
        }

        // Purge acknowledgements: once every worker has dropped its stale
        // merges for a dead shard's rebuilt batches, release them.
        if let Some(rx) = &mut ack_rx {
            while let Some(msg) = rx.test() {
                *rx = comm.irecv(Source::Any, TAG_CTRL_ACK);
                let (dead, _) = msg.into_parts::<usize>();
                if let Some(rem) = ack_wait.get_mut(&dead) {
                    *rem -= 1;
                    if *rem == 0 {
                        ack_wait.remove(&dead);
                        let released = quarantine.remove(&dead).unwrap_or_default();
                        obs.span(
                            Track::Rank(me),
                            "shard.takeover",
                            takeover_start.remove(&dead).unwrap_or_else(|| sim.now()),
                            sim.now(),
                            &[("dead", dead as u64), ("tasks", released.len() as u64)],
                        );
                        queue.extend(released);
                    }
                }
            }
        }

        // Status channel: reports/acks at the coordinator, quiesce and
        // failover notices at the shards.
        while let Some(msg) = status_rx.test() {
            status_rx = comm.irecv(Source::Any, TAG_STATUS);
            let (st, _) = msg.into_parts::<ShardStatus>();
            match st {
                ShardStatus::Report {
                    shard,
                    epoch: e,
                    resolved,
                    stealing,
                } => {
                    if me == 0 && e == epoch {
                        remote[shard] = Some((resolved, stealing));
                    }
                }
                ShardStatus::PrepareAck { shard, epoch: e } => {
                    if me == 0 && e == epoch {
                        acked[shard] = true;
                    }
                }
                ShardStatus::Prepare { epoch: e } => {
                    if e == epoch {
                        quiesced = true;
                    }
                }
                ShardStatus::AllDone => {
                    all_done = true;
                }
                ShardStatus::MasterDead {
                    dead,
                    successor,
                    epoch: e,
                } => {
                    epoch = e;
                    handle_master_dead(
                        dead,
                        successor,
                        me,
                        &sim,
                        &comm,
                        &faults,
                        &commits,
                        &obs,
                        gran,
                        nq,
                        nf_eff,
                        procs,
                        &mut owner_of,
                        &mut home_of,
                        &mut alive,
                        &mut batches,
                        &mut batches_left,
                        &mut queue,
                        &scored,
                        &mut lent,
                        &mut quiesced,
                        &mut prepare_acked,
                        &mut empty_streak,
                        &mut outstanding_steal,
                        &mut ack_wait,
                        &mut quarantine,
                        &mut takeover_start,
                        &mut ctrl_sends,
                    );
                    last_report = None;
                }
            }
        }

        // Results: dedup, then record at the owning batch. Shipped
        // results (stolen tasks, all MW tasks) are credited to this rank
        // — the data rode along and this shard writes it at layout.
        while let Some(msg) = scores_rx.test() {
            scores_rx = comm.irecv(Source::Any, TAG_SCORES);
            let (sc, status) = msg.into_parts::<ScoresMsg>();
            let key = (sc.query, sc.fragment);
            if !scored.insert(key) {
                continue;
            }
            lent.remove(&key);
            let b = sc.query / gran;
            let writer = if sc.shipped { me } else { status.source };
            batches[b]
                .as_mut()
                .unwrap_or_else(|| panic!("scores for batch {b} not held by shard {me}"))
                .record(sc.query, sc.fragment, writer, &sc.hits);
        }

        // Completed batches: lay out at the static base, write this
        // shard's own share immediately (so a fail-stop never owes an
        // extent), and notify the worker writers.
        for b in 0..nbatches {
            let complete = batches[b].as_ref().is_some_and(BatchState::is_complete);
            if !complete {
                continue;
            }
            let batch = batches[b].take().expect("checked above");
            batches_left -= 1;
            let base = batch_base[b];
            let (plans, total) = batch.assign_offsets(base);
            let batch_queries = ((b + 1) * gran).min(nq) - b * gran;
            let writers = batch.contributing_workers();
            commits.expect(b, writers.clone(), batch_queries, total, base, sim.now());
            if let Some(plan) = plans.get(&me) {
                if params.strategy == Strategy::Mw {
                    timer
                        .track(Phase::Io, file.write_at(base, total))
                        .await
                        .unwrap_or_else(|e| crate::runner::io_failure(e));
                } else {
                    timer
                        .track(Phase::Io, file.write_regions(&plan.regions, method))
                        .await
                        .unwrap_or_else(|e| crate::runner::io_failure(e));
                }
                timer
                    .track(Phase::Io, file.sync())
                    .await
                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                commits.complete_by(b, me, sim.now());
            }
            for w in writers.into_iter().filter(|&w| w != me) {
                let offsets = plans[&w].offsets.clone();
                let omsg = OffsetsMsg { batch: b, offsets };
                let bytes = omsg.wire_bytes();
                ctrl_sends.push(comm.isend(w, TAG_OFFSETS, omsg, bytes));
            }
        }

        // Failure detection (coordinator): a standby silent strictly
        // longer than the timeout is dead; pick the next alive master
        // cyclically after it as successor and broadcast. Off once the
        // quiesce has completed — a standby that received AllDone exits
        // (and stops heartbeating) while still marked alive here, and no
        // standby can crash after acking Prepare, so a post-AllDone
        // silence is always a clean exit, not a death.
        if crash_mode && me == 0 && !all_done {
            for s in 1..m {
                if alive[s] && liveness.silent(s, sim.now()) {
                    if let Some(f) = &faults {
                        f.log
                            .record(sim.now(), FaultKind::MasterDetected { rank: s });
                    }
                    let successor = (1..m)
                        .map(|d| (s + d) % m)
                        .find(|&c| alive[c])
                        .expect("rank 0 never crashes, so a successor exists");
                    epoch += 1;
                    remote = vec![None; m];
                    acked = vec![false; m];
                    prepare_outstanding = false;
                    let notice = ShardStatus::MasterDead {
                        dead: s,
                        successor,
                        epoch,
                    };
                    for t in (1..m).filter(|&t| alive[t] && t != s) {
                        timer
                            .track(
                                Phase::Recovery,
                                comm.send(t, TAG_STATUS, notice, CTRL_BYTES),
                            )
                            .await;
                    }
                    handle_master_dead(
                        s,
                        successor,
                        me,
                        &sim,
                        &comm,
                        &faults,
                        &commits,
                        &obs,
                        gran,
                        nq,
                        nf_eff,
                        procs,
                        &mut owner_of,
                        &mut home_of,
                        &mut alive,
                        &mut batches,
                        &mut batches_left,
                        &mut queue,
                        &scored,
                        &mut lent,
                        &mut quiesced,
                        &mut prepare_acked,
                        &mut empty_streak,
                        &mut outstanding_steal,
                        &mut ack_wait,
                        &mut quarantine,
                        &mut takeover_start,
                        &mut ctrl_sends,
                    );
                    last_report = None;
                }
            }
        }

        // A steal response arrived: extend the queue (owner = victim) or
        // bump the empty streak toward the pause threshold.
        if outstanding_steal
            .as_ref()
            .is_some_and(|(_, rx, _)| rx.ready())
        {
            let (victim, rx, t0) = outstanding_steal.take().expect("checked above");
            let (resp, _) = rx.test().expect("ready").into_parts::<StealResp>();
            if resp.tasks.is_empty() {
                empty_streak += 1;
                obs.add("shard.steals.empty", 1);
            } else {
                empty_streak = 0;
                obs.add("shard.steals.tasks", resp.tasks.len() as u64);
                obs.span(
                    Track::Rank(me),
                    "shard.steal",
                    t0,
                    sim.now(),
                    &[
                        ("victim", victim as u64),
                        ("tasks", resp.tasks.len() as u64),
                    ],
                );
                queue.extend(resp.tasks.iter().map(|&(q, sf)| (q, sf, resp.owner)));
                obs.sample(
                    Track::Rank(me),
                    "shard.queue_depth",
                    sim.now(),
                    queue.len() as u64,
                );
            }
        }

        // Steal requests from siblings: lend half of the own-owned queue
        // (nothing once quiesced — the shutdown guarantee).
        while let Some(msg) = streq_rx.test() {
            streq_rx = comm.irecv(Source::Any, TAG_STEAL_REQ);
            let (req, _) = msg.into_parts::<StealReq>();
            let tasks = if quiesced || all_done {
                Vec::new()
            } else {
                lend_half(&mut queue, me)
            };
            for &t in &tasks {
                lent.insert(t, req.thief);
            }
            let resp = StealResp { tasks, owner: me };
            let bytes = resp.wire_bytes();
            ctrl_sends.push(comm.isend(req.thief, TAG_STEAL_RESP, resp, bytes));
        }

        // Progress report: to the coordinator on every state change (and
        // once at start); the coordinator mirrors its own state locally.
        let state_now = (batches_left == 0, outstanding_steal.is_some());
        if !all_done && last_report != Some(state_now) {
            last_report = Some(state_now);
            if me == 0 {
                remote[0] = Some(state_now);
            } else {
                let report = ShardStatus::Report {
                    shard: me,
                    epoch,
                    resolved: state_now.0,
                    stealing: state_now.1,
                };
                timer
                    .track(
                        Phase::DataDistribution,
                        comm.send(0, TAG_STATUS, report, CTRL_BYTES),
                    )
                    .await;
            }
        }

        // Quiesce ack: no steal outstanding and none will start.
        if quiesced && !prepare_acked && outstanding_steal.is_none() && me != 0 {
            prepare_acked = true;
            let ack = ShardStatus::PrepareAck { shard: me, epoch };
            timer
                .track(
                    Phase::DataDistribution,
                    comm.send(0, TAG_STATUS, ack, CTRL_BYTES),
                )
                .await;
        }

        // Coordinator: drive the two-phase shutdown.
        if me == 0 && !all_done {
            let all_resolved =
                (0..m).all(|s| !alive[s] || matches!(remote[s], Some((true, false))));
            if !prepare_outstanding && all_resolved {
                prepare_outstanding = true;
                quiesced = true;
                for s in (1..m).filter(|&s| alive[s]) {
                    timer
                        .track(
                            Phase::DataDistribution,
                            comm.send(s, TAG_STATUS, ShardStatus::Prepare { epoch }, CTRL_BYTES),
                        )
                        .await;
                }
            }
            if prepare_outstanding
                && outstanding_steal.is_none()
                && (1..m).all(|s| !alive[s] || acked[s])
            {
                all_done = true;
                for s in (1..m).filter(|&s| alive[s]) {
                    timer
                        .track(
                            Phase::DataDistribution,
                            comm.send(s, TAG_STATUS, ShardStatus::AllDone, CTRL_BYTES),
                        )
                        .await;
                }
            }
        }

        // Answer one work request from a homed worker.
        if let Some(msg) = wr_rx.test() {
            let (_, status) = msg.into_parts::<()>();
            let w = status.source;
            wr_rx = comm.irecv(Source::Any, TAG_WORK_REQ);
            let assign = if all_done {
                done_workers.insert(w);
                Assign::Done
            } else if let Some((q, sf, owner)) = queue.pop_front() {
                obs.sample(
                    Track::Rank(me),
                    "shard.queue_depth",
                    sim.now(),
                    queue.len() as u64,
                );
                // Ship rule: results cross shards (stolen work) or the
                // master writes everything anyway (MW).
                let ship = owner != me || params.strategy == Strategy::Mw;
                Assign::ShardTask {
                    query: q,
                    fragment: sf,
                    owner,
                    ship,
                }
            } else {
                // Idle shard: try to steal before telling the worker to
                // wait. One request in flight at a time; pause once every
                // sibling has answered empty (their queues only drain).
                let alive_siblings = (0..m).filter(|&s| alive[s] && s != me).count();
                if !quiesced
                    && !all_done
                    && outstanding_steal.is_none()
                    && alive_siblings > 0
                    && empty_streak < alive_siblings
                {
                    for _ in 0..m {
                        if alive[next_victim] && next_victim != me {
                            break;
                        }
                        next_victim = (next_victim + 1) % m;
                    }
                    let victim = next_victim;
                    next_victim = (next_victim + 1) % m;
                    let resp_rx = comm.irecv(victim, TAG_STEAL_RESP);
                    obs.add("shard.steals.requested", 1);
                    timer
                        .track(
                            Phase::DataDistribution,
                            comm.send(victim, TAG_STEAL_REQ, StealReq { thief: me }, CTRL_BYTES),
                        )
                        .await;
                    outstanding_steal = Some((victim, resp_rx, sim.now()));
                }
                Assign::Wait
            };
            let bytes = assign.wire_bytes();
            timer
                .track(
                    Phase::DataDistribution,
                    comm.send(w, TAG_ASSIGN, assign, bytes),
                )
                .await;
            continue;
        }

        // Exit once the quiesce has completed and every currently-homed
        // worker has been dismissed.
        if all_done
            && (m..procs)
                .filter(|&w| home_of[w] == me)
                .all(|w| done_workers.contains(&w))
        {
            break;
        }

        // Idle: wake on any mailbox activity; crash mode adds a tick so
        // the detection clock keeps being re-checked. Fault-free masters
        // carry no timer at all (workers re-polling on `Wait` drive
        // liveness).
        let mut rxs: Vec<&RecvRequest> = vec![&wr_rx, &scores_rx, &streq_rx, &status_rx];
        if let Some((_, rx, _)) = &outstanding_steal {
            rxs.push(rx);
        }
        if let Some(rx) = &hb_rx {
            rxs.push(rx);
        }
        if let Some(rx) = &ack_rx {
            rxs.push(rx);
        }
        timer
            .track(
                Phase::DataDistribution,
                Wake {
                    watch: &wr_rx,
                    ready: || rxs.iter().any(|r| r.ready()),
                    sleep: crash_mode.then(|| sim.sleep(tick)),
                },
            )
            .await;
    }

    if !crashed {
        hb_stop.set();
        timer
            .track(Phase::GatherResults, waitall_sends(&ctrl_sends))
            .await;
        if !crash_mode {
            // Step 20/21: final synchronization — impossible with master
            // crashes (a dead shard can never arrive).
            timer.track(Phase::Sync, comm.barrier()).await;
        }
    }

    let mut bd = timer.snapshot();
    bd.close_to(sim.now());
    bd
}

/// Fold a dead master's obligations into the survivors: purge its queue
/// entries, reclaim tasks lent to it, re-home its workers, and — at the
/// successor — adopt its batches, rebuilding the ones that died without
/// a layout (their scores existed only in the dead shard's memory).
#[allow(clippy::too_many_arguments)]
fn handle_master_dead(
    dead: usize,
    successor: usize,
    me: usize,
    sim: &Sim,
    comm: &Comm,
    faults: &Option<FaultCtx>,
    commits: &CommitTracker,
    obs: &ObsSink,
    gran: usize,
    nq: usize,
    nf_eff: usize,
    procs: usize,
    owner_of: &mut [usize],
    home_of: &mut [usize],
    alive: &mut [bool],
    batches: &mut [Option<BatchState>],
    batches_left: &mut usize,
    queue: &mut VecDeque<(usize, usize, usize)>,
    scored: &BTreeSet<(usize, usize)>,
    lent: &mut BTreeMap<(usize, usize), usize>,
    quiesced: &mut bool,
    prepare_acked: &mut bool,
    empty_streak: &mut usize,
    outstanding_steal: &mut Option<(usize, RecvRequest, SimTime)>,
    ack_wait: &mut BTreeMap<usize, usize>,
    quarantine: &mut BTreeMap<usize, Vec<(usize, usize, usize)>>,
    takeover_start: &mut BTreeMap<usize, SimTime>,
    ctrl_sends: &mut Vec<SendRequest>,
) {
    alive[dead] = false;
    // The failover epoch bumped: any quiesce in progress is void, and
    // steal pausing restarts (the successor's queue may have refilled).
    *quiesced = false;
    *prepare_acked = false;
    *empty_streak = 0;

    // Workers homed to the dead shard re-home to the successor (the
    // successor tells them via `Rehome`; this map keeps every master's
    // view of homing consistent for its own exit condition).
    for h in home_of.iter_mut() {
        if *h == dead {
            *h = successor;
        }
    }

    // Stolen-from-the-dead tasks can no longer be reported anywhere
    // (their owner is gone); the successor rebuilds their batches.
    queue.retain(|&(_, _, o)| o != dead);

    // A steal aimed at the dead shard will never be answered. Leak the
    // posted receive rather than cancel it: a response already in flight
    // (in rendezvous) can still match and complete; nobody reads it.
    if let Some((victim, _, _)) = outstanding_steal {
        if *victim == dead {
            let (_, rx, _) = outstanding_steal.take().expect("checked above");
            std::mem::forget(rx);
        }
    }

    // Tasks this shard lent to the dead thief and never got back.
    let reclaimed: Vec<(usize, usize)> = lent
        .iter()
        .filter(|&(_, &thief)| thief == dead)
        .map(|(&t, _)| t)
        .collect();
    for t in reclaimed {
        lent.remove(&t);
        if !scored.contains(&t) {
            queue.push_back((t.0, t.1, me));
        }
    }

    // EVERY survivor records the new ownership, not just the successor:
    // a later failover consults `owner_of` to find the batches the next
    // dead master held, so a stale map at the next successor would
    // orphan batches adopted in an earlier takeover (chained crashes are
    // legal with >= 3 masters) and the run would never terminate.
    let adopted: Vec<usize> = (0..batches.len())
        .filter(|&b| owner_of[b] == dead)
        .collect();
    // The chaos knob reverts this fix (successor-only update) so s3a-mc
    // can prove it rediscovers the chained-failover bug mechanically.
    if !crate::chaos::stale_ownership_bug() || me == successor {
        for &b in &adopted {
            owner_of[b] = successor;
        }
    }

    if me != successor {
        return;
    }

    // Adopt the dead shard's batches. A batch the commit tracker knows
    // (laid out, pending worker writes, or already durable) needs
    // nothing: its offsets are on the wire and the surviving workers
    // will complete it. A batch it has never seen died with its owner's
    // score state — rebuild it from scratch and quarantine its tasks
    // until every worker has purged its stale local merges.
    let now = sim.now();
    let mut purge: Vec<usize> = Vec::new();
    let mut quarantined: Vec<(usize, usize, usize)> = Vec::new();
    for b in adopted {
        if commits.is_known(b) {
            continue;
        }
        let queries: Vec<usize> = (b * gran..((b + 1) * gran).min(nq)).collect();
        quarantined.extend(
            queries
                .iter()
                .flat_map(|&q| (0..nf_eff).map(move |sf| (q, sf, me))),
        );
        batches[b] = Some(BatchState::new(b, queries, nf_eff));
        *batches_left += 1;
        purge.push(b);
    }
    if let Some(f) = faults {
        f.log.record(
            now,
            FaultKind::ShardTakeover {
                dead,
                successor: me,
                batches: purge.len(),
            },
        );
    }
    obs.add("shard.takeovers", 1);
    obs.add("shard.batches_rebuilt", purge.len() as u64);

    // Tell every worker (not just the dead shard's): any worker may hold
    // stale merges for a rebuilt batch from before an earlier re-homing.
    let notice = ShardCtrl::Rehome {
        dead,
        successor: me,
        purge: purge.clone(),
    };
    let bytes = notice.wire_bytes();
    let first_worker = alive.len();
    for w in first_worker..procs {
        ctrl_sends.push(comm.isend(w, TAG_CTRL, notice.clone(), bytes));
    }
    if purge.is_empty() {
        // Nothing was rebuilt, so no merge anywhere is stale; the
        // re-home notice needs no acknowledgement barrier.
        return;
    }
    takeover_start.insert(dead, now);
    quarantine.insert(dead, quarantined);
    ack_wait.insert(dead, procs - first_worker);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(score: u64, size: u64) -> Hit {
        Hit { score, size }
    }

    #[test]
    fn subfragments_partition_the_fragment() {
        for len in [0usize, 1, 5, 8, 13] {
            let hits: Vec<Hit> = (0..len).map(|i| h(100 - i as u64, 1 + i as u64)).collect();
            for k in [1usize, 2, 3, 4, 7] {
                let mut joined = Vec::new();
                for j in 0..k {
                    joined.extend_from_slice(subfragment_hits(&hits, j, k));
                }
                assert_eq!(joined, hits, "len={len} k={k}");
            }
        }
    }

    #[test]
    fn owners_partition_batches_contiguously() {
        for (nb, m) in [(8usize, 2usize), (10, 4), (3, 8), (1, 2), (16, 1)] {
            let owner = initial_owners(nb, m);
            assert_eq!(owner.len(), nb);
            // Non-decreasing, all < m, and each shard's span matches the
            // [s*nb/m, (s+1)*nb/m) definition.
            for (b, &o) in owner.iter().enumerate() {
                let s = (0..m)
                    .find(|&s| (s * nb / m..(s + 1) * nb / m).contains(&b))
                    .expect("every batch falls in exactly one shard span");
                assert_eq!(o, s, "nb={nb} m={m} b={b}");
            }
        }
    }

    #[test]
    fn lend_takes_half_of_own_from_the_back() {
        let mut q: VecDeque<(usize, usize, usize)> = VecDeque::new();
        // me=1 owns 5 entries; two stolen entries (owner 2) interleaved.
        for i in 0..5 {
            q.push_back((i, 0, 1));
        }
        q.insert(2, (90, 0, 2));
        q.push_back((91, 0, 2));
        let lent = lend_half(&mut q, 1);
        assert_eq!(lent, vec![(3, 0), (4, 0)]);
        // Stolen entries survive, own front retains order.
        let rest: Vec<_> = q.iter().copied().collect();
        assert_eq!(
            rest,
            vec![(0, 0, 1), (1, 0, 1), (90, 0, 2), (2, 0, 1), (91, 0, 2)]
        );
        // Nothing to lend from a single own task.
        let mut q2: VecDeque<(usize, usize, usize)> = VecDeque::from([(0, 0, 1)]);
        assert!(lend_half(&mut q2, 1).is_empty());
        assert_eq!(q2.len(), 1);
    }
}
