//! The master process (Algorithm 1 of the paper).
//!
//! The master distributes `(query, fragment)` tasks on demand, gathers
//! scores (plus result data under MW), merges them, and — batch by batch
//! — either writes the output itself (MW) or tells each worker where to
//! write (`WW-*`). It is deliberately single-threaded and blocking in the
//! same places the paper's pseudo-code blocks: most importantly, while
//! the MW master writes, it cannot answer work requests.
//!
//! One loop serves every master rank. Three settings, all read from
//! [`SimParams`], shape it (DESIGN.md §"One master loop"):
//!
//! * **Task source.** Either the batch list (`write_every_n_queries`
//!   queries per batch, resume-aware), or the service arrival stream —
//!   one batch per query, admitted into a bounded queue (shedding when it
//!   is full) and picked by the FIFO/SJF/fair-share policy.
//! * **Liveness.** Off, or the shared heartbeat detector: a worker silent
//!   for longer than the detection timeout is declared dead, its
//!   in-flight and revoked tasks are requeued for survivors, and any
//!   writes it still owed for already-laid-out batches are handed to a
//!   survivor as repair bundles — so the run completes with the exact
//!   same output extents a fault-free run would produce.
//! * **Shard count** `m = num_masters`. At `m = 1` one master serves
//!   every worker. At `m > 1` master ranks `0..m` each run this loop over
//!   their own contiguous share of the batches, laid out at static file
//!   bases. Between failure detection and answering a work request the
//!   loop steps the shard control plane: idle shards steal sub-fragment
//!   tasks from siblings, rank 0 coordinates a two-phase shutdown
//!   quiesce, and — with master crashes armed — detects a silent standby
//!   so a successor adopts its batches (see `Shards`).
//!
//! Fault-free single-master batch runs wait in a blocking receive for the
//! next work request, as Algorithm 1 does. Service, crash and sharded
//! runs must keep observing a clock or sibling traffic while no worker
//! asks for work, so they poll instead.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use s3a_des::{Flag, JoinHandle, Sim, SimTime, Sleep};
use s3a_faults::{FaultKind, FaultLog};
use s3a_mpi::{waitall_sends, Comm, Message, ReadyQueue, RecvRequest, SendRequest, Source};
use s3a_mpiio::File;
use s3a_obs::{ObsSink, Track};
use s3a_workload::{Arrival, Workload};

use crate::failure_detector::{spawn_heartbeat, Heartbeats};
use crate::offsets::{BatchState, WorkerPlan};
use crate::params::{SchedPolicy, ServiceParams, SimParams, Strategy};
use crate::phase::{Phase, PhaseBreakdown, PhaseTimer};
use crate::protocol::{
    Assign, OffsetsMsg, ScoresMsg, ShardCtrl, ShardStatus, StealReq, StealResp, CTRL_BYTES,
    TAG_ASSIGN, TAG_CTRL, TAG_CTRL_ACK, TAG_HEARTBEAT, TAG_MASTER_HB, TAG_OFFSETS, TAG_SCORES,
    TAG_STATUS, TAG_STEAL_REQ, TAG_STEAL_RESP, TAG_WORK_REQ,
};
use crate::resume::CommitTracker;
use crate::runner::FaultCtx;
use crate::service::{ServedEvent, ServiceTracker, ShedEvent};
use crate::shard::{batch_bases, initial_owners, lend_half};
use crate::trace::TraceSink;

/// Where completed batches land in the output file.
enum Layout {
    /// The next free byte: batches take consecutive extents in completion
    /// order, starting after a resumed run's durable prefix.
    Cursor(u64),
    /// Sharded runs: batch `b` always starts at `bases[b]`, so shards lay
    /// out independently of each other's completion order.
    Static(Vec<u64>),
}

/// Scheduling state shared by every mode, prepared once (resume-aware)
/// after setup.
struct MasterState {
    /// World ranks of the workers.
    workers: Range<usize>,
    nq: usize,
    gran: usize,
    /// Tasks per query: fragments times `subfragment_factor`.
    tasks_per_query: usize,
    /// Undistributed `(query, fragment, owner)` tasks (empty in service
    /// mode, where the arrival stream supplies them); requeued and stolen
    /// tasks are pushed here too. The owner is the master rank the scores
    /// go to: always this rank, except for tasks stolen from a sibling.
    tasks: VecDeque<(usize, usize, usize)>,
    /// `None` = not this rank's, already written (completed this run, or
    /// durable from the checkpoint a resumed run starts from), or shed.
    batches: Vec<Option<BatchState>>,
    batches_left: usize,
    /// Indices of held batches whose every task has reported, awaiting
    /// `Master::flush`; filled by `record`, where every batch completes.
    complete: BTreeSet<usize>,
    layout: Layout,
}

impl MasterState {
    /// `owner_of` maps each batch to its master rank in sharded runs;
    /// rank `me` prepares only its own batches.
    fn prepare(
        params: &SimParams,
        workload: &Workload,
        me: usize,
        owner_of: Option<&[usize]>,
    ) -> MasterState {
        let nq = workload.queries.len();
        let gran = params.batch_granularity(nq);
        let nbatches = nq.div_ceil(gran);
        let resume = params.resume_from.clone().unwrap_or_default();
        let layout = if params.sharded() {
            Layout::Static(batch_bases(workload, gran, nbatches))
        } else {
            Layout::Cursor(resume.base_offset)
        };
        let mut st = MasterState {
            workers: params.num_masters..params.procs,
            nq,
            gran,
            tasks_per_query: workload.params.fragments * params.subfragment_factor,
            tasks: VecDeque::new(),
            batches: Vec::new(),
            batches_left: 0,
            complete: BTreeSet::new(),
            layout,
        };
        st.batches = (0..nbatches)
            .map(|b| {
                let mine = owner_of.is_none_or(|o| o[b] == me);
                (mine && !resume.done_batches.contains(&b)).then(|| st.new_batch(b))
            })
            .collect();
        st.batches_left = st.batches.iter().filter(|b| b.is_some()).count();
        if !params.is_service() {
            st.tasks = (0..nbatches)
                .filter(|&b| st.batches[b].is_some())
                .flat_map(|b| st.batch_tasks(b, me))
                .collect();
        }
        st
    }

    fn queries(&self, b: usize) -> Range<usize> {
        b * self.gran..((b + 1) * self.gran).min(self.nq)
    }

    fn new_batch(&self, b: usize) -> BatchState {
        BatchState::new(b, self.queries(b).collect(), self.tasks_per_query)
    }

    /// Batch `b`'s tasks, reporting to `owner`.
    fn batch_tasks(&self, b: usize, owner: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let n = self.tasks_per_query;
        self.queries(b)
            .flat_map(move |q| (0..n).map(move |f| (q, f, owner)))
    }

    /// Merge one scores message into its batch, credited to `writer`.
    fn record(&mut self, scores: &ScoresMsg, writer: usize) {
        let b = scores.query / self.gran;
        let batch = self.batches[b]
            .as_mut()
            .unwrap_or_else(|| panic!("scores for batch {b}, which this master does not hold"));
        batch.record(scores.query, scores.fragment, writer, &scores.hits);
        if batch.is_complete() {
            self.complete.insert(b);
        }
    }

    /// Lay out completed batch `b`: its base, per-writer plans and total.
    fn lay_out(&mut self, b: usize, batch: &BatchState) -> (u64, BTreeMap<usize, WorkerPlan>, u64) {
        let base = match &self.layout {
            Layout::Cursor(next) => *next,
            Layout::Static(bases) => bases[b],
        };
        let (plans, total) = batch.assign_offsets(base);
        if let Layout::Cursor(next) = &mut self.layout {
            *next += total;
        }
        (base, plans, total)
    }
}

/// Completion-driven pool of the master's outstanding score receives.
///
/// The master used to `test()`-scan a `Vec<RecvRequest>` every loop
/// iteration — O(outstanding) per work request, quadratic over a run and
/// the dominant host cost at 10k workers. This pool drains in
/// O(completions) instead, fed by the transport's
/// [`RecvRequest::notify_ready`] hooks.
///
/// Byte-compatibility with the scan is load-bearing and deliberate:
///
/// * The *arrangement* of the old `Vec` leaks into simulated time through
///   the endgame's `pop()` — which request the master blocks on decides
///   when it resumes. `order` therefore mirrors the exact sequence of
///   `swap_remove`s the scan would have performed, and [`ScoreBoard::pop`]
///   returns exactly the request the old code would have popped.
/// * Within one drain, processing order cannot change state:
///   `record` merges into per-query maps keyed by worker (equal hits
///   merge to equal contents either way) and otherwise only decrements
///   counters. The drain nevertheless visits ready positions in exactly
///   the scan's order.
/// * A hook fires at the same host instant the first successful `test()`
///   would have observed, so the set of messages consumed per drain is
///   identical.
struct ScoreBoard {
    /// token -> outstanding request (`None` = consumed, dropped or free).
    slots: Vec<Option<RecvRequest>>,
    /// token -> the worker the request was posted for.
    sources: Vec<usize>,
    free: Vec<u32>,
    /// Mirror of the old `pending_scores` vector: token at each position.
    order: Vec<u32>,
    /// token -> current position in `order` (valid while outstanding).
    pos: Vec<u32>,
    /// Tokens whose receive became consumable, in completion order.
    ready: ReadyQueue,
}

impl ScoreBoard {
    fn new() -> ScoreBoard {
        ScoreBoard {
            slots: Vec::new(),
            sources: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            pos: Vec::new(),
            ready: Rc::new(RefCell::new(Vec::new())),
        }
    }

    fn push(&mut self, source: usize, req: RecvRequest) {
        let token = match self.free.pop() {
            Some(t) => t,
            None => {
                self.slots.push(None);
                self.sources.push(0);
                self.pos.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        req.notify_ready(&self.ready, token);
        self.slots[token as usize] = Some(req);
        self.sources[token as usize] = source;
        self.pos[token as usize] = self.order.len() as u32;
        self.order.push(token);
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// True when an outstanding receive is consumable. Tokens of dropped
    /// requests do not count.
    fn has_ready(&self) -> bool {
        self.ready
            .borrow()
            .iter()
            .any(|&t| self.slots[t as usize].is_some())
    }

    /// Remove `order[p]` the way the old `Vec::swap_remove` did, and
    /// return its request.
    fn remove_at(&mut self, p: usize) -> RecvRequest {
        let t = self.order.swap_remove(p);
        if p < self.order.len() {
            self.pos[self.order[p] as usize] = p as u32;
        }
        self.slots[t as usize].take().expect("token outstanding")
    }

    /// Consume every completed receive, replaying the old scan exactly:
    /// visit positions in ascending order; a swap_remove moves the last
    /// element down, and if that element is itself ready it is consumed
    /// at the same position before moving on (the scan re-tested the
    /// swapped-in element without advancing).
    fn drain(&mut self, mut f: impl FnMut(Message)) {
        let ready = std::mem::take(&mut *self.ready.borrow_mut());
        if ready.is_empty() {
            return;
        }
        let mut positions: Vec<u32> = Vec::with_capacity(ready.len());
        for t in ready {
            if self.slots[t as usize].is_some() {
                positions.push(self.pos[t as usize]);
            } else {
                // Consumed by the endgame `pop()` (or dropped with a dead
                // worker) after its hook fired; recycle the token now
                // that its queue entry is spent.
                self.free.push(t);
            }
        }
        positions.sort_unstable();
        // Two pointers: `i` walks ready positions in ascending order; `j`
        // trims entries from the top as last elements get swapped down
        // (the largest pending position is always the candidate to move).
        let (mut i, mut j) = (0, positions.len());
        while i < j {
            let p = positions[i] as usize;
            i += 1;
            loop {
                let t = self.order[p];
                let req = self.remove_at(p);
                self.free.push(t);
                f(req.test().expect("hook fired, message consumable"));
                // After the removal the vector's old last element sits at
                // `p` — consume it in place if it was ready too.
                if i < j && positions[j - 1] as usize == self.order.len() && p < self.order.len() {
                    j -= 1;
                } else {
                    break;
                }
            }
        }
    }

    /// The request the old code's `pending_scores.pop()` would return.
    fn pop(&mut self) -> Option<RecvRequest> {
        let t = self.order.pop()?;
        // The slot is recycled when the token's ready entry is observed
        // (every request's hook fires eventually), never here — so a
        // token can't be reused while a stale queue entry still names it.
        Some(self.slots[t as usize].take().expect("token outstanding"))
    }

    /// Forget every receive posted for `source`, in the old scan's
    /// swap_remove order. The requests are leaked rather than cancelled,
    /// so a rendezvous transfer in flight can still match and complete;
    /// nobody reads it. Their tokens are recycled once their hooks fire.
    fn drop_source(&mut self, source: usize) {
        let mut p = 0;
        while p < self.order.len() {
            if self.sources[self.order[p] as usize] == source {
                std::mem::forget(self.remove_at(p));
            } else {
                p += 1;
            }
        }
    }
}

/// Per-query scheduling state in service mode, created at admission.
struct SvcQuery {
    tenant: usize,
    arrival: SimTime,
    admitted: SimTime,
    /// Set when the first fragment is handed to a worker.
    dispatched: Option<SimTime>,
    /// Next fragment to hand out; the query is fully dispatched at `nf`.
    next_fragment: usize,
}

/// A query's place in its tenant's open set: `(bytes, arrival, query)`
/// under SJF, `(0, 0, query)` under FIFO and fair share.
type OpenKey = (u64, SimTime, usize);

/// The service task source: an open-loop arrival stream admitted into a
/// bounded queue and dispatched by the configured scheduling policy.
struct ServiceQueue {
    sp: ServiceParams,
    tracker: ServiceTracker,
    nf: usize,
    /// The arrival stream is drawn up front from its own seed: scheduling
    /// can never perturb who arrives when.
    arrivals: Vec<Arrival>,
    /// Total result bytes per query (the SJF size oracle).
    bytes_of: Vec<u64>,
    queries: Vec<Option<SvcQuery>>,
    /// Per tenant, the admitted queries with fragments left to hand out,
    /// ordered by the policy's tie-break (see [`ServiceQueue::key`]).
    open: Vec<BTreeSet<OpenKey>>,
    next_arrival: usize,
    /// Admitted queries not yet first-dispatched (the bounded queue).
    queued: usize,
    /// Fragments admitted but not yet handed out.
    ready_fragments: usize,
    /// Result bytes dispatched per tenant (the fair-share ledger).
    tenant_bytes: Vec<u64>,
}

impl ServiceQueue {
    fn new(sp: &ServiceParams, tracker: ServiceTracker, workload: &Workload) -> ServiceQueue {
        let nq = workload.queries.len();
        ServiceQueue {
            sp: sp.clone(),
            tracker,
            nf: workload.params.fragments,
            arrivals: sp.arrivals.generate(nq, sp.tenants, sp.arrival_seed),
            bytes_of: workload
                .queries
                .iter()
                .map(|q| q.hits.iter().flatten().map(|h| h.size).sum())
                .collect(),
            queries: (0..nq).map(|_| None).collect(),
            open: vec![BTreeSet::new(); sp.tenants],
            next_arrival: 0,
            queued: 0,
            ready_fragments: 0,
            tenant_bytes: vec![0; sp.tenants],
        }
    }

    fn due(&self) -> Option<SimTime> {
        self.arrivals
            .get(self.next_arrival)
            .map(|a| SimTime::from_nanos(a.at_ns))
    }

    /// Process every client submission that is due. When the master was
    /// blind for a while (an MW write), the backlog is handled in arrival
    /// order, each against the queue depth at its own admission instant —
    /// a full queue sheds honestly.
    fn admit(&mut self, now: SimTime, st: &mut MasterState) {
        while self.due().is_some_and(|t| t <= now) {
            let a = self.arrivals[self.next_arrival];
            let q = self.next_arrival;
            self.next_arrival += 1;
            let arrival = SimTime::from_nanos(a.at_ns);
            if self.queued >= self.sp.queue_capacity {
                self.tracker.shed(ShedEvent {
                    query: q,
                    tenant: a.tenant,
                    arrival,
                });
                st.batches[q] = None;
                st.batches_left -= 1;
                continue;
            }
            self.queries[q] = Some(SvcQuery {
                tenant: a.tenant,
                arrival,
                admitted: now,
                dispatched: None,
                next_fragment: 0,
            });
            let key = self.key(q, arrival);
            self.open[a.tenant].insert(key);
            self.queued += 1;
            self.ready_fragments += self.nf;
            self.tracker.queue_depth(self.queued);
        }
    }

    /// Every arrival was admitted or shed and every admitted fragment was
    /// handed out.
    fn exhausted(&self) -> bool {
        self.next_arrival == self.arrivals.len() && self.ready_fragments == 0
    }

    /// Query `q`'s open-set key: SJF orders by total result volume (the
    /// master knows each query's size from the workload oracle), ties
    /// broken FIFO by arrival time, then query id. FIFO and fair share
    /// order by query id, which is arrival order (the stream is sorted
    /// and arrival i carries query i).
    fn key(&self, q: usize, arrival: SimTime) -> OpenKey {
        match self.sp.policy {
            SchedPolicy::Sjf => (self.bytes_of[q], arrival, q),
            SchedPolicy::Fifo | SchedPolicy::FairShare => (0, SimTime::ZERO, q),
        }
    }

    /// Pick the next fragment by the scheduling policy and mark it
    /// dispatched at `now`.
    fn pick(&mut self, now: SimTime, workload: &Workload) -> Option<(usize, usize)> {
        let heads = self.open.iter().enumerate();
        let t = match self.sp.policy {
            // The least key across tenants.
            SchedPolicy::Fifo | SchedPolicy::Sjf => {
                heads.filter_map(|(t, o)| Some((o.first()?, t))).min()?.1
            }
            // Fair share: the tenant with the least dispatched bytes goes
            // first; FIFO within the tenant.
            SchedPolicy::FairShare => {
                heads
                    .filter(|(_, o)| !o.is_empty())
                    .min_by_key(|&(t, _)| (self.tenant_bytes[t], t))?
                    .0
            }
        };
        let &(.., q) = self.open[t]
            .first()
            .expect("picked tenant has an open query");
        let sq = self.queries[q].as_mut().expect("open query is admitted");
        let f = sq.next_fragment;
        sq.next_fragment += 1;
        if sq.dispatched.is_none() {
            sq.dispatched = Some(now);
            self.queued -= 1;
        }
        if sq.next_fragment == self.nf {
            self.open[t].pop_first();
        }
        let frag_bytes: u64 = workload.queries[q].hits[f].iter().map(|h| h.size).sum();
        self.tenant_bytes[t] += frag_bytes;
        self.ready_fragments -= 1;
        Some((q, f))
    }

    /// Record query `q`'s lifecycle the moment its last fragment merged.
    fn served(&self, q: usize, merged: SimTime) {
        let sq = self.queries[q]
            .as_ref()
            .expect("complete query was admitted");
        self.tracker.serve(ServedEvent {
            query: q,
            tenant: sq.tenant,
            arrival: sq.arrival,
            admitted: sq.admitted,
            dispatched: sq.dispatched.expect("complete query was dispatched"),
            merged,
            bytes: self.bytes_of[q],
        });
    }

    /// How long an idle master may sleep: one poll interval, or less if
    /// the next client arrival is due sooner.
    fn idle_delay(&self, now: SimTime) -> SimTime {
        let poll = self.sp.poll_interval;
        self.due()
            .map_or(poll, |due| poll.min(due.saturating_sub(now)))
    }
}

/// A dead worker's write obligation for one batch — its saved layout —
/// handed to a survivor.
#[derive(Clone)]
struct RepairBundle {
    batch: usize,
    for_worker: usize,
    plan: WorkerPlan,
}

/// Worker-liveness state, present when worker crashes are armed.
struct Recovery {
    /// Per world rank; the master's own entry is unused.
    alive: Vec<bool>,
    dead: usize,
    in_flight: BTreeMap<usize, Vec<(usize, usize)>>,
    in_flight_repairs: BTreeMap<usize, Vec<RepairBundle>>,
    repairs: VecDeque<RepairBundle>,
    /// Per-batch per-worker write layouts, kept so a casualty's share
    /// can be reconstructed into a repair bundle.
    saved_plans: BTreeMap<usize, BTreeMap<usize, WorkerPlan>>,
}

impl Recovery {
    /// No task or repair is out with a worker and none is queued.
    fn settled(&self) -> bool {
        self.repairs.is_empty()
            && self.in_flight.values().all(Vec::is_empty)
            && self.in_flight_repairs.values().all(Vec::is_empty)
    }
}

/// Sharded-master state, present when `num_masters > 1`. Rank 0 doubles
/// as the *coordinator*: it collects per-shard progress reports, drives
/// the two-phase shutdown quiesce (`Prepare` → `PrepareAck` → `AllDone`)
/// that guarantees no steal traffic is in flight when the first `Done`
/// is issued, and — with a master-crash schedule armed — detects silent
/// standbys from their heartbeats.
struct Shards {
    /// Batch → owning master rank.
    owner_of: Vec<usize>,
    /// World rank → home master (entries below `m` unused).
    home_of: Vec<usize>,
    /// Per master rank; its length is the shard count `m`.
    alive: Vec<bool>,
    /// Exactly-once guard: every `(query, sub-fragment)` this shard has
    /// accepted a score for. Failover can double-execute a task (an
    /// in-flight assignment plus a rebuild/re-enqueue); the second report
    /// is dropped before it can over-report the batch.
    scored: BTreeSet<(usize, usize)>,
    /// Tasks lent to thieves, so a thief's death re-enqueues them.
    lent: BTreeMap<(usize, usize), usize>,
    /// Re-enqueued tasks of a dead thief whose re-execution merges
    /// locally (WW). A late shipped copy from the dead thief's worker must
    /// not win the exactly-once race against a re-execution already out,
    /// or that worker would keep a merge no layout covers.
    reclaimed: BTreeSet<(usize, usize)>,
    scores_rx: RecvRequest,
    streq_rx: RecvRequest,
    status_rx: RecvRequest,
    /// Purge acknowledgements (master crashes armed).
    ack_rx: Option<RecvRequest>,
    epoch: u64,
    quiesced: bool,
    prepare_acked: bool,
    all_done: bool,
    last_report: Option<(bool, bool)>,
    /// Consecutive empty steal responses; at the number of alive siblings
    /// the shard stops asking (fault-free queues only ever drain, so
    /// all-empty stays all-empty; a failover resets the streak).
    empty_streak: usize,
    next_victim: usize,
    /// `(victim, response receive, request time)`.
    outstanding_steal: Option<(usize, RecvRequest, SimTime)>,
    /// Coordinator: each shard's last `(resolved, stealing)` report in
    /// the current epoch (index 0 mirrors its own state).
    remote: Vec<Option<(bool, bool)>>,
    acked: Vec<bool>,
    prepare_outstanding: bool,
    my_crash: Option<SimTime>,
    /// Successor bookkeeping: rebuilt tasks are quarantined until every
    /// worker has acknowledged the purge of its stale local merges, and
    /// the takeover span runs from detection to quarantine release.
    ack_wait: BTreeMap<usize, usize>,
    quarantine: BTreeMap<usize, Vec<(usize, usize, usize)>>,
    takeover_start: BTreeMap<usize, SimTime>,
    obs: ObsSink,
}

impl Shards {
    fn new(
        comm: &Comm,
        params: &SimParams,
        faults: Option<&FaultCtx>,
        nbatches: usize,
        obs: ObsSink,
    ) -> Shards {
        let (me, procs, m) = (comm.rank(), comm.size(), params.num_masters);
        let armed = faults.is_some_and(|f| f.schedule.params().master_crashes());
        Shards {
            owner_of: initial_owners(nbatches, m),
            // Worker rank w is homed to shard (w - m) % m.
            home_of: (0..procs).map(|w| w.saturating_sub(m) % m).collect(),
            alive: vec![true; m],
            scored: BTreeSet::new(),
            lent: BTreeMap::new(),
            reclaimed: BTreeSet::new(),
            scores_rx: comm.irecv(Source::Any, TAG_SCORES),
            streq_rx: comm.irecv(Source::Any, TAG_STEAL_REQ),
            status_rx: comm.irecv(Source::Any, TAG_STATUS),
            ack_rx: armed.then(|| comm.irecv(Source::Any, TAG_CTRL_ACK)),
            epoch: 0,
            quiesced: false,
            prepare_acked: false,
            all_done: false,
            last_report: None,
            empty_streak: 0,
            next_victim: (me + 1) % m,
            outstanding_steal: None,
            remote: vec![None; m],
            acked: vec![false; m],
            prepare_outstanding: false,
            my_crash: faults.and_then(|f| f.schedule.master_crash_time(me)),
            ack_wait: BTreeMap::new(),
            quarantine: BTreeMap::new(),
            takeover_start: BTreeMap::new(),
            obs,
        }
    }

    /// Some shard-plane receive is consumable.
    fn ready(&self) -> bool {
        self.scores_rx.ready()
            || self.streq_rx.ready()
            || self.status_rx.ready()
            || self
                .outstanding_steal
                .as_ref()
                .is_some_and(|(_, rx, _)| rx.ready())
            || self.ack_rx.as_ref().is_some_and(RecvRequest::ready)
    }
}

/// Suspends a polling loop until `ready` holds, the rank's mailbox sees
/// activity, or `sleep` (if any) fires. All traffic bound for one rank
/// lands in one mailbox, so a single watch registration on any of its
/// receives covers every wake source. Used by masters and workers alike.
pub(crate) struct Wake<'a, F> {
    pub(crate) watch: &'a RecvRequest,
    pub(crate) ready: F,
    pub(crate) sleep: Option<Sleep>,
}

impl<F: Fn() -> bool + Unpin> Future for Wake<'_, F> {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if (this.ready)() {
            return Poll::Ready(());
        }
        this.watch.watch();
        match &mut this.sleep {
            Some(s) => Pin::new(s).poll(cx),
            None => Poll::Pending,
        }
    }
}

/// The master's loop state.
struct Master<'a> {
    sim: &'a Sim,
    comm: &'a Comm,
    params: &'a SimParams,
    workload: &'a Workload,
    file: &'a File,
    timer: &'a PhaseTimer,
    commits: &'a CommitTracker,
    /// This master's world rank.
    me: usize,
    st: MasterState,
    /// Service task source; `None` = the batch list in `st.tasks`.
    svc: Option<ServiceQueue>,
    /// Worker-liveness state; `None` = off.
    rec: Option<Recovery>,
    /// The heartbeats this rank watches: workers' under worker crashes,
    /// standby masters' at the coordinator under master crashes.
    beats: Option<Heartbeats>,
    /// The heartbeat interval while crashes are armed: the idle tick that
    /// keeps the detection clock re-checked.
    hb_tick: Option<SimTime>,
    /// Stops this rank's heartbeat sender (a standby master's).
    hb_stop: Flag,
    log: Option<FaultLog>,
    /// Sharded-master state; `None` = one master.
    shards: Option<Shards>,
    scores: ScoreBoard,
    /// Offset lists, steal responses and re-home notices in flight.
    sends: Vec<SendRequest>,
    /// TAG_OFFSETS messages sent per worker, carried in the service
    /// shutdown assignment so workers know exactly how many to drain
    /// (shed queries make the count underivable from the workload).
    sent_offsets: Vec<usize>,
    done: Vec<bool>,
    ndone: usize,
    /// MW with nonblocking I/O: at most one batch write in flight.
    pending_io: Option<JoinHandle<()>>,
    notify_all: bool,
}

/// Run master rank `comm.rank()` (`0..num_masters`) on `comm`, the world
/// communicator; rank 0 is the broadcast root and, when sharded, the
/// coordinator. `file` must be opened on a communicator holding only this
/// master: its writes (MW batches, shipped shard results) are
/// independent operations.
#[allow(clippy::too_many_arguments)]
pub async fn run_master(
    sim: Sim,
    comm: Comm,
    params: Rc<SimParams>,
    workload: Rc<Workload>,
    file: File,
    trace: TraceSink,
    commits: CommitTracker,
    faults: Option<FaultCtx>,
    service: Option<ServiceTracker>,
    obs: ObsSink,
) -> PhaseBreakdown {
    let me = comm.rank();
    let procs = comm.size();
    let timer = PhaseTimer::with_trace(&sim, me, trace);

    // Step 1: distribute input variables.
    timer
        .track(Phase::Setup, comm.bcast(0, (me == 0).then_some(()), 1024))
        .await;

    let fp = faults.as_ref().map(|f| f.schedule.params());
    let hb_tick = fp
        .filter(|p| p.crashes() || p.master_crashes())
        .map(|p| p.heartbeat_interval);
    // Standby masters heartbeat the coordinator while a master-crash
    // schedule is armed.
    let hb_stop = Flag::new(&sim);
    if let (Some(tick), true) = (hb_tick, me != 0) {
        let name = format!("master-heartbeat-{me}");
        spawn_heartbeat(&sim, &comm, name, TAG_MASTER_HB, tick, hb_stop.clone());
    }
    let beats = fp.and_then(|p| {
        let (tag, n) = if p.crashes() {
            (TAG_HEARTBEAT, procs)
        } else if p.master_crashes() && me == 0 {
            (TAG_MASTER_HB, params.num_masters)
        } else {
            return None;
        };
        Some(Heartbeats::new(&comm, tag, n, p.detection_timeout))
    });
    let shards = params.sharded().then(|| {
        let nbatches = workload
            .queries
            .len()
            .div_ceil(params.batch_granularity(workload.queries.len()));
        Shards::new(&comm, &params, faults.as_ref(), nbatches, obs)
    });
    let rec = fp.filter(|p| p.crashes()).map(|_| Recovery {
        alive: vec![true; procs],
        dead: 0,
        in_flight: BTreeMap::new(),
        in_flight_repairs: BTreeMap::new(),
        repairs: VecDeque::new(),
        saved_plans: BTreeMap::new(),
    });
    let svc = service.map(|t| {
        let sp = params
            .service()
            .expect("tracker exists only in service mode");
        ServiceQueue::new(sp, t, &workload)
    });
    let owner_of = shards.as_ref().map(|s| &s.owner_of[..]);
    let st = MasterState::prepare(&params, &workload, me, owner_of);
    let mut master = Master {
        sim: &sim,
        comm: &comm,
        params: &params,
        workload: &workload,
        file: &file,
        timer: &timer,
        commits: &commits,
        me,
        st,
        svc,
        rec,
        beats,
        hb_tick,
        hb_stop,
        log: faults.as_ref().map(|f| f.log.clone()),
        shards,
        scores: ScoreBoard::new(),
        sends: Vec::new(),
        sent_offsets: vec![0; procs],
        done: vec![false; procs],
        ndone: 0,
        pending_io: None,
        notify_all: params.strategy.inherently_synchronizing() || params.query_sync,
    };
    let crashed = master.run().await;

    // Step 20/21's final barrier is impossible once crashes are armed: a
    // dead rank can never arrive.
    if hb_tick.is_none() && !crashed {
        timer.track(Phase::Sync, comm.barrier()).await;
    }

    let mut bd = timer.snapshot();
    bd.close_to(sim.now());
    bd
}

impl Master<'_> {
    /// The loop; returns true when this master fail-stopped.
    async fn run(&mut self) -> bool {
        let nworkers = self.st.workers.len();
        // Fault-free single-master batch runs block on the next work
        // request; the other modes keep one receive posted and poll it.
        let polled = self.svc.is_some() || self.rec.is_some() || self.shards.is_some();
        let mut wr_rx = polled.then(|| self.comm.irecv(Source::Any, TAG_WORK_REQ));

        loop {
            if self.fail_stop().await {
                return true;
            }

            // Intake: client arrivals, heartbeats, shard control traffic.
            let now = self.sim.now();
            if let Some(q) = &mut self.svc {
                q.admit(now, &mut self.st);
            }
            if let Some(h) = &mut self.beats {
                h.drain(self.comm, now);
            }
            self.control_intake();

            // Steps 10–19: drain any results that have arrived, then
            // handle batches that are now complete.
            self.intake_scores();
            if let Some(r) = &mut self.rec {
                // A repair is finished once its batch no longer owes the
                // dead rank's write (the survivor completes it through the
                // shared tracker, so no acknowledgement message is needed).
                for v in r.in_flight_repairs.values_mut() {
                    v.retain(|b| self.commits.unfinished_for(b.for_worker).contains(&b.batch));
                }
            }
            self.flush().await;
            self.detect().await;

            // The shard control plane (no-ops with one master).
            self.steal_intake();
            self.lend();
            self.report_progress().await;
            self.ack_quiesce().await;
            self.coordinate_shutdown().await;

            let Some(wr) = &mut wr_rx else {
                // Steps 3–9: answer one work request, or wind down.
                if !self.st.tasks.is_empty() || self.ndone < nworkers {
                    let req = self
                        .timer
                        .track(
                            Phase::DataDistribution,
                            self.comm.recv(Source::Any, TAG_WORK_REQ),
                        )
                        .await;
                    // No task is ever requeued, so a worker that finds the
                    // list empty is done.
                    let resolved = self.st.tasks.is_empty();
                    self.answer(req.status.source, resolved).await;
                } else if let Some(req) = self.scores.pop() {
                    // Everything is scheduled; block for the stragglers'
                    // results.
                    let msg = self.timer.track(Phase::GatherResults, req.wait()).await;
                    let (scores, status) = msg.into_parts::<ScoresMsg>();
                    self.st.record(&scores, status.source);
                } else if self.st.batches_left == 0 {
                    break;
                } else {
                    unreachable!(
                        "no pending results but {} batches incomplete",
                        self.st.batches_left
                    );
                }
                continue;
            };

            // One master's run is resolved once every task was handed out
            // and reported back, every batch's output was flushed, and
            // every write is durable. Sharded runs resolve through the
            // coordinator's quiesce, which certifies scoring, not
            // durability.
            let resolved = match &self.shards {
                Some(s) => s.all_done,
                None => {
                    self.st.tasks.is_empty()
                        && self.svc.as_ref().is_none_or(ServiceQueue::exhausted)
                        && match &self.rec {
                            Some(r) => r.settled(),
                            None => self.scores.is_empty(),
                        }
                        && self.st.batches_left == 0
                        && self.commits.pending_empty()
                }
            };
            let dead = self.rec.as_ref().map_or(0, |r| r.dead);
            if dead == nworkers && !resolved {
                panic!("all workers failed; the run cannot complete");
            }

            if let Some(m) = wr.test() {
                let (_, status) = m.into_parts::<()>();
                let w = status.source;
                *wr = self.comm.irecv(Source::Any, TAG_WORK_REQ);
                let alive = self.rec.as_ref().is_none_or(|r| r.alive[w]);
                if alive && !self.done[w] {
                    if let (Some(_), Some(h)) = (&self.rec, &mut self.beats) {
                        h.liveness.refresh(w, self.sim.now());
                    }
                    self.answer(w, resolved).await;
                }
                continue;
            }

            // Exit once every worker homed here was dismissed (or died).
            let finished = match &self.shards {
                None => self.ndone + dead == nworkers,
                Some(s) => {
                    s.all_done
                        && self
                            .st
                            .workers
                            .clone()
                            .filter(|&w| s.home_of[w] == self.me)
                            .all(|w| self.done[w])
                }
            };
            if finished {
                break;
            }

            // Idle: wake on mailbox activity, a live score, or the tick
            // (the next arrival or poll interval in service mode, the
            // heartbeat interval under either liveness). Fault-free shards
            // carry no timer: workers re-polling on `Wait` drive them.
            let tick = match &self.svc {
                Some(q) => Some(q.idle_delay(self.sim.now())),
                None => self.hb_tick,
            };
            // A score landing for a dead worker is not a live one and
            // must not wake the master (that would move detection times).
            let (beats, scores, shards) = (&self.beats, &self.scores, &self.shards);
            let ready = || {
                wr.ready()
                    || beats.as_ref().is_some_and(Heartbeats::ready)
                    || scores.has_ready()
                    || shards.as_ref().is_some_and(Shards::ready)
            };
            self.timer
                .track(
                    Phase::DataDistribution,
                    Wake {
                        watch: wr,
                        ready,
                        sleep: tick.map(|t| self.sim.sleep(t)),
                    },
                )
                .await;
        }

        debug_assert!(self.scores.is_empty(), "scores pending after shutdown");
        self.hb_stop.set();
        if let Some(h) = self.pending_io.take() {
            self.timer.track(Phase::Io, h.join()).await;
        }
        self.timer
            .track(Phase::GatherResults, waitall_sends(&self.sends))
            .await;
        false
    }

    /// A standby master's scheduled fail-stop, taken at the top of the
    /// loop, the only obligation-free moment: layout writes complete within
    /// their own iteration and a background MW write is joined first, so a
    /// dead shard never owes an extent. Suppressed once the quiesce has
    /// begun: the coordinator stops detecting the moment AllDone is
    /// broadcast. Returns true when the crash took effect.
    async fn fail_stop(&mut self) -> bool {
        let Some(s) = &self.shards else { return false };
        if s.quiesced || s.all_done || s.my_crash.is_none_or(|t| self.sim.now() < t) {
            return false;
        }
        if let Some(h) = self.pending_io.take() {
            self.timer.track(Phase::Io, h.join()).await;
        }
        self.hb_stop.set();
        let log = self.log.as_ref().expect("crashes armed");
        log.record(self.sim.now(), FaultKind::MasterCrashed { rank: self.me });
        self.comm.mark_failed();
        true
    }

    /// Shard control intake: purge acknowledgements, then the status
    /// channel — reports and acks at the coordinator, quiesce and failover
    /// notices at the shards.
    fn control_intake(&mut self) {
        let (sim, comm, me) = (self.sim, self.comm, self.me);
        let Some(s) = &mut self.shards else { return };
        // Once every worker has dropped its stale merges for a dead
        // shard's rebuilt batches, release them.
        if let Some(rx) = &mut s.ack_rx {
            while let Some(msg) = rx.test() {
                *rx = comm.irecv(Source::Any, TAG_CTRL_ACK);
                let (dead, _) = msg.into_parts::<usize>();
                let Some(rem) = s.ack_wait.get_mut(&dead) else {
                    continue;
                };
                *rem -= 1;
                if *rem > 0 {
                    continue;
                }
                s.ack_wait.remove(&dead);
                let released = s.quarantine.remove(&dead).unwrap_or_default();
                s.obs.span(
                    Track::Rank(me),
                    "shard.takeover",
                    s.takeover_start.remove(&dead).unwrap_or_else(|| sim.now()),
                    sim.now(),
                    &[("dead", dead as u64), ("tasks", released.len() as u64)],
                );
                self.st.tasks.extend(released);
            }
        }
        loop {
            let Some(s) = &mut self.shards else { return };
            let Some(msg) = s.status_rx.test() else {
                return;
            };
            s.status_rx = comm.irecv(Source::Any, TAG_STATUS);
            match msg.into_parts::<ShardStatus>().0 {
                ShardStatus::Report {
                    shard,
                    epoch,
                    resolved,
                    stealing,
                } => {
                    if me == 0 && epoch == s.epoch {
                        s.remote[shard] = Some((resolved, stealing));
                    }
                }
                ShardStatus::PrepareAck { shard, epoch } => {
                    if me == 0 && epoch == s.epoch {
                        s.acked[shard] = true;
                    }
                }
                ShardStatus::Prepare { epoch } => {
                    if epoch == s.epoch {
                        s.quiesced = true;
                    }
                }
                ShardStatus::AllDone => s.all_done = true,
                ShardStatus::MasterDead {
                    dead,
                    successor,
                    epoch,
                } => {
                    s.epoch = epoch;
                    self.on_master_dead(dead, successor);
                }
            }
        }
    }

    /// Merge every score that has arrived into its batch.
    fn intake_scores(&mut self) {
        let (comm, me) = (self.comm, self.me);
        let (st, rec) = (&mut self.st, &mut self.rec);
        match &mut self.shards {
            None => self.scores.drain(|msg| {
                let (scores, status) = msg.into_parts::<ScoresMsg>();
                let w = status.source;
                if let Some(v) = rec.as_mut().and_then(|r| r.in_flight.get_mut(&w)) {
                    v.retain(|&t| t != (scores.query, scores.fragment));
                }
                st.record(&scores, w);
            }),
            // One any-source receive: a stolen task's owner does not know
            // which worker ran it. Shipped results (stolen tasks, all MW
            // tasks) are credited to this rank — the data rode along and
            // this master writes it at layout.
            Some(s) => {
                while let Some(msg) = s.scores_rx.test() {
                    s.scores_rx = comm.irecv(Source::Any, TAG_SCORES);
                    let (scores, status) = msg.into_parts::<ScoresMsg>();
                    let key = (scores.query, scores.fragment);
                    if s.scored.contains(&key) {
                        continue;
                    }
                    if scores.shipped && s.reclaimed.remove(&key) {
                        // The dead thief's worker ran it after all: take
                        // this copy only while the re-execution is still
                        // queued, and cancel that.
                        let Some(p) = st.tasks.iter().position(|t| (t.0, t.1) == key) else {
                            continue;
                        };
                        st.tasks.remove(p);
                    }
                    s.scored.insert(key);
                    s.lent.remove(&key);
                    st.record(&scores, if scores.shipped { me } else { status.source });
                }
            }
        }
    }

    /// Completed batches: lay out offsets, then write (MW) or tell each
    /// worker where to write (WW), remembering each worker's share while
    /// liveness is on.
    async fn flush(&mut self) {
        // Ascending batch order. Each entry is re-checked: a worker's
        // death revokes reported tasks, which can reopen a batch.
        while let Some(b) = self.st.complete.pop_first() {
            let Some(batch) = self.st.batches[b].take_if(|batch| batch.is_complete()) else {
                continue;
            };
            self.st.batches_left -= 1;
            let (base, plans, total) = self.st.lay_out(b, &batch);
            let queries = self.st.queries(b).len();
            let now = self.sim.now();
            if let Some(q) = &self.svc {
                q.served(b, now);
            }

            if self.params.strategy == Strategy::Mw {
                let writers = if total > 0 { vec![self.me] } else { Vec::new() };
                self.commits.expect(b, writers, queries, total, base, now);
                if total > 0 {
                    self.write_batch(b, base, total).await;
                }
                if self.params.query_sync {
                    for w in self.st.workers.clone() {
                        self.send_offsets(w, b, Vec::new());
                    }
                }
                continue;
            }
            let writers = batch.contributing_workers();
            self.commits
                .expect(b, writers.clone(), queries, total, base, now);
            // Results shipped to this shard (stolen tasks): write its own
            // share right away, so a fail-stop never owes an extent.
            if let Some(plan) = plans.get(&self.me) {
                self.timer
                    .track(
                        Phase::Io,
                        self.file
                            .write_regions(&plan.regions, self.params.strategy.write_method()),
                    )
                    .await
                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                self.timer
                    .track(Phase::Io, self.file.sync())
                    .await
                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                self.commits.complete_by(b, self.me, self.sim.now());
            }
            // Step 15: hand out the location lists. A writer that died a
            // moment ago (not yet detected) gets its message absorbed by
            // the failed mailbox; detection will turn its share into a
            // repair bundle.
            let targets: Vec<usize> = if self.notify_all {
                self.st.workers.clone().collect()
            } else {
                writers
            };
            let me = self.me;
            for w in targets.into_iter().filter(|&w| w != me) {
                let offsets = plans.get(&w).map(|p| p.offsets.clone()).unwrap_or_default();
                self.send_offsets(w, b, offsets);
            }
            if let Some(r) = &mut self.rec {
                r.saved_plans.insert(b, plans);
            }
        }
    }

    /// Step 18: the MW master writes batch `b` contiguously and syncs.
    /// With blocking I/O (the default, as in the paper) it cannot serve
    /// requests meanwhile; with the nonblocking option the write proceeds
    /// in the background and only the *previous* batch's completion is
    /// awaited (bounded buffering).
    async fn write_batch(&mut self, b: usize, base: u64, total: u64) {
        let me = self.me;
        if self.params.mw_nonblocking_io {
            if let Some(h) = self.pending_io.take() {
                self.timer.track(Phase::Io, h.join()).await;
            }
            let fh = self.file.handle().clone();
            let ep = self.file.endpoint();
            let commits = self.commits.clone();
            let sim = self.sim.clone();
            self.pending_io = Some(self.sim.spawn("mw-bg-io", async move {
                fh.write_contiguous(ep, base, total)
                    .await
                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                fh.sync(ep)
                    .await
                    .unwrap_or_else(|e| crate::runner::io_failure(e));
                commits.complete_by(b, me, sim.now());
            }));
        } else {
            self.timer
                .track(Phase::Io, self.file.write_at(base, total))
                .await
                .unwrap_or_else(|e| crate::runner::io_failure(e));
            self.timer
                .track(Phase::Io, self.file.sync())
                .await
                .unwrap_or_else(|e| crate::runner::io_failure(e));
            self.commits.complete_by(b, me, self.sim.now());
        }
    }

    fn send_offsets(&mut self, w: usize, batch: usize, offsets: Vec<u64>) {
        let msg = OffsetsMsg { batch, offsets };
        let bytes = msg.wire_bytes();
        self.sends.push(self.comm.isend(w, TAG_OFFSETS, msg, bytes));
        self.sent_offsets[w] += 1;
    }

    /// Answer worker `w`'s work request: a repair first (so the output's
    /// durable prefix closes as early as possible), then — once the run
    /// is `resolved` — end-of-work, else a task, else `Wait` (an idle
    /// shard first tries to steal).
    async fn answer(&mut self, w: usize, resolved: bool) {
        let now = self.sim.now();
        let log = &self.log;
        let repair = self.rec.as_mut().and_then(|r| {
            let bundle = r.repairs.pop_front()?;
            log.as_ref().expect("crashes armed").record(
                now,
                FaultKind::BatchRepaired {
                    batch: bundle.batch,
                    bytes: bundle.plan.bytes,
                },
            );
            r.in_flight_repairs
                .entry(w)
                .or_default()
                .push(bundle.clone());
            Some(bundle)
        });
        let task = if repair.is_some() || resolved {
            None
        } else {
            let me = self.me;
            self.st.tasks.pop_front().or_else(|| {
                let (q, f) = self.svc.as_mut()?.pick(now, self.workload)?;
                Some((q, f, me))
            })
        };
        let assign = if let Some(r) = repair {
            Assign::Repair {
                batch: r.batch,
                for_worker: r.for_worker,
                tasks: r.plan.tasks,
                bytes: r.plan.bytes,
                regions: r.plan.regions,
            }
        } else if let Some((query, fragment, owner)) = task {
            if let Some(s) = &self.shards {
                let depth = self.st.tasks.len() as u64;
                s.obs
                    .sample(Track::Rank(self.me), "shard.queue_depth", now, depth);
            }
            if let Some(r) = &mut self.rec {
                r.in_flight.entry(w).or_default().push((query, fragment));
            }
            // Step 8: post the receive for this task's scores first so
            // the progress engine can match it whenever it arrives.
            // (Sharded masters keep one any-source receive instead.)
            if self.shards.is_none() {
                self.scores.push(w, self.comm.irecv(w, TAG_SCORES));
            }
            // Ship rule: results cross shards (stolen work), or the
            // master writes everything anyway (MW).
            Assign::ShardTask {
                query,
                fragment,
                owner,
                ship: owner != self.me || self.params.strategy == Strategy::Mw,
            }
        } else if resolved {
            self.done[w] = true;
            self.ndone += 1;
            match self.svc {
                Some(_) => Assign::Shutdown {
                    offsets: self.sent_offsets[w],
                },
                None => Assign::Done,
            }
        } else {
            self.try_steal().await;
            Assign::Wait
        };
        let bytes = assign.wire_bytes();
        self.timer
            .track(
                Phase::DataDistribution,
                self.comm.send(w, TAG_ASSIGN, assign, bytes),
            )
            .await;
    }

    /// Failure detection: silence beyond the timeout is death. Drains
    /// heartbeats again first — the MW write in `flush` can block the
    /// master for longer than the timeout, and heartbeats that arrived
    /// during its own blindness must not read as silence.
    async fn detect(&mut self) {
        let now = self.sim.now();
        let Some(h) = &mut self.beats else { return };
        h.drain(self.comm, now);
        for w in self.st.workers.clone() {
            let Some(r) = &self.rec else { break };
            let h = self.beats.as_ref().expect("drained above");
            if r.alive[w] && !self.done[w] && h.liveness.silent(w, now) {
                self.on_death(w);
            }
        }
        self.detect_masters().await;
    }

    /// Declare worker `w` dead and fold its obligations back into the
    /// schedule: in-flight and revoked tasks are requeued, owed batch
    /// writes become repair bundles for survivors.
    fn on_death(&mut self, w: usize) {
        let now = self.sim.now();
        let r = self.rec.as_mut().expect("liveness on");
        r.alive[w] = false;
        r.dead += 1;
        let log = self.log.as_ref().expect("crashes armed");
        log.record(now, FaultKind::WorkerDetected { rank: w });

        // A score message from the dead rank may still be on the wire.
        self.scores.drop_source(w);

        // Tasks assigned but never reported.
        let mut requeue = r.in_flight.remove(&w).unwrap_or_default();
        // Repairs it was performing for earlier casualties.
        r.repairs
            .extend(r.in_flight_repairs.remove(&w).unwrap_or_default());
        // WW: reported scores reference result data that only existed in
        // the dead worker's memory — revoke and redo them. (MW keeps them:
        // the data rode along with the scores and is safe at the master.)
        if self.params.strategy.workers_write() {
            for slot in self.st.batches.iter_mut().flatten() {
                requeue.extend(slot.revoke(w));
            }
        }
        for (query, fragment) in requeue {
            log.record(now, FaultKind::TaskReassigned { query, fragment });
            self.st.tasks.push_back((query, fragment, self.me));
        }

        // Writes it still owed for batches whose layout was already fixed.
        for b in self.commits.unfinished_for(w) {
            let plan = r
                .saved_plans
                .get(&b)
                .and_then(|m| m.get(&w))
                .cloned()
                .unwrap_or_else(|| panic!("no saved plan for batch {b} writer {w}"));
            r.repairs.push_back(RepairBundle {
                batch: b,
                for_worker: w,
                plan,
            });
        }
    }

    /// Coordinator: a standby silent strictly longer than the timeout is
    /// dead; the next alive master cyclically after it succeeds it, and
    /// every other survivor is told. Off once the quiesce has completed —
    /// a standby that received AllDone exits (and stops heartbeating)
    /// while still marked alive here, and no standby can crash after
    /// acking Prepare, so a post-AllDone silence is always a clean exit.
    async fn detect_masters(&mut self) {
        let (sim, comm, timer) = (self.sim, self.comm, self.timer);
        let Some(s) = &self.shards else { return };
        if s.all_done {
            return;
        }
        let m = s.alive.len();
        for dead in 1..m {
            let h = self
                .beats
                .as_ref()
                .expect("the coordinator watches standbys");
            let s = self.shards.as_mut().expect("sharded");
            if !s.alive[dead] || !h.liveness.silent(dead, sim.now()) {
                continue;
            }
            let log = self.log.as_ref().expect("crashes armed");
            log.record(sim.now(), FaultKind::MasterDetected { rank: dead });
            let successor = (1..m)
                .map(|d| (dead + d) % m)
                .find(|&c| s.alive[c])
                .expect("rank 0 never crashes, so a successor exists");
            s.epoch += 1;
            s.remote = vec![None; m];
            s.acked = vec![false; m];
            s.prepare_outstanding = false;
            let notice = ShardStatus::MasterDead {
                dead,
                successor,
                epoch: s.epoch,
            };
            for t in (1..m).filter(|&t| s.alive[t] && t != dead) {
                tell(timer, comm, t, notice, Phase::Recovery).await;
            }
            self.on_master_dead(dead, successor);
        }
    }

    /// Fold a dead master's obligations into the survivors, the sharded
    /// counterpart of [`Master::on_death`]: purge its queue entries,
    /// reclaim tasks lent to it, re-home its workers, and — at the
    /// successor — adopt its batches, rebuilding the ones that died
    /// without a layout (their scores existed only in its memory).
    fn on_master_dead(&mut self, dead: usize, successor: usize) {
        let me = self.me;
        let s = self.shards.as_mut().expect("sharded");
        s.alive[dead] = false;
        // The failover epoch bumped: any quiesce in progress is void,
        // steal pausing restarts (the successor's queue may have
        // refilled), and every survivor re-reports.
        s.quiesced = false;
        s.prepare_acked = false;
        s.empty_streak = 0;
        s.last_report = None;

        // Workers homed to the dead shard re-home to the successor (the
        // successor tells them via `Rehome`; this map keeps every master's
        // view of homing consistent for its own exit condition).
        for h in &mut s.home_of {
            if *h == dead {
                *h = successor;
            }
        }

        // Stolen-from-the-dead tasks can no longer be reported anywhere
        // (their owner is gone); the successor rebuilds their batches.
        self.st.tasks.retain(|&(_, _, o)| o != dead);

        // A steal aimed at the dead shard will never be answered. Leak the
        // posted receive rather than cancel it: a response already in
        // flight (in rendezvous) can still match and complete; nobody
        // reads it.
        if let Some((_, rx, _)) = s.outstanding_steal.take_if(|(v, ..)| *v == dead) {
            std::mem::forget(rx);
        }

        // Tasks this shard lent to the dead thief and never got back.
        let reclaimed: Vec<(usize, usize)> = s
            .lent
            .iter()
            .filter(|&(_, &thief)| thief == dead)
            .map(|(&t, _)| t)
            .collect();
        for t in reclaimed {
            s.lent.remove(&t);
            if !s.scored.contains(&t) {
                self.st.tasks.push_back((t.0, t.1, me));
                if self.params.strategy.workers_write() {
                    s.reclaimed.insert(t);
                }
            }
        }

        // EVERY survivor records the new ownership, not just the
        // successor: a later failover consults `owner_of` to find the
        // batches the next dead master held, so a stale map at the next
        // successor would orphan batches adopted in an earlier takeover
        // (chained crashes are legal with >= 3 masters) and the run would
        // never terminate.
        let adopted: Vec<usize> = (0..s.owner_of.len())
            .filter(|&b| s.owner_of[b] == dead)
            .collect();
        // The chaos knob reverts this fix (successor-only update) so s3a-mc
        // can prove it rediscovers the chained-failover bug mechanically.
        if !crate::chaos::stale_ownership_bug() || me == successor {
            for &b in &adopted {
                s.owner_of[b] = successor;
            }
        }
        if me != successor {
            return;
        }

        // Adopt the dead shard's batches. A batch the commit tracker knows
        // (laid out, pending worker writes, or already durable) needs
        // nothing: its offsets are on the wire and the surviving workers
        // will complete it. A batch it has never seen died with its
        // owner's score state — rebuild it from scratch and quarantine its
        // tasks until every worker has purged its stale local merges.
        let now = self.sim.now();
        let mut purge: Vec<usize> = Vec::new();
        let mut quarantined: Vec<(usize, usize, usize)> = Vec::new();
        for b in adopted {
            if self.commits.is_known(b) {
                continue;
            }
            quarantined.extend(self.st.batch_tasks(b, me));
            self.st.batches[b] = Some(self.st.new_batch(b));
            self.st.batches_left += 1;
            purge.push(b);
        }
        let takeover = FaultKind::ShardTakeover {
            dead,
            successor: me,
            batches: purge.len(),
        };
        self.log
            .as_ref()
            .expect("crashes armed")
            .record(now, takeover);
        s.obs.add("shard.takeovers", 1);
        s.obs.add("shard.batches_rebuilt", purge.len() as u64);

        // Tell every worker (not just the dead shard's): any worker may
        // hold stale merges for a rebuilt batch from before an earlier
        // re-homing.
        let notice = ShardCtrl::Rehome {
            dead,
            successor: me,
            purge: purge.clone(),
        };
        let bytes = notice.wire_bytes();
        for w in self.st.workers.clone() {
            self.sends
                .push(self.comm.isend(w, TAG_CTRL, notice.clone(), bytes));
        }
        if purge.is_empty() {
            // Nothing was rebuilt, so no merge anywhere is stale; the
            // re-home notice needs no acknowledgement barrier.
            return;
        }
        s.takeover_start.insert(dead, now);
        s.quarantine.insert(dead, quarantined);
        s.ack_wait.insert(dead, self.st.workers.len());
    }

    /// A steal response arrived: extend the queue (owner = victim) or
    /// bump the empty streak toward the pause threshold.
    fn steal_intake(&mut self) {
        let (now, me) = (self.sim.now(), self.me);
        let Some(s) = &mut self.shards else { return };
        let Some((victim, rx, t0)) = s.outstanding_steal.take_if(|(_, rx, _)| rx.ready()) else {
            return;
        };
        let (resp, _) = rx.test().expect("ready").into_parts::<StealResp>();
        if resp.tasks.is_empty() {
            s.empty_streak += 1;
            s.obs.add("shard.steals.empty", 1);
            return;
        }
        s.empty_streak = 0;
        let n = resp.tasks.len() as u64;
        s.obs.add("shard.steals.tasks", n);
        s.obs.span(
            Track::Rank(me),
            "shard.steal",
            t0,
            now,
            &[("victim", victim as u64), ("tasks", n)],
        );
        self.st
            .tasks
            .extend(resp.tasks.iter().map(|&(q, sf)| (q, sf, resp.owner)));
        let depth = self.st.tasks.len() as u64;
        s.obs
            .sample(Track::Rank(me), "shard.queue_depth", now, depth);
    }

    /// Steal requests from siblings: lend half of the own-owned queue, or
    /// all of it when no worker is homed here (nothing once quiesced —
    /// the shutdown guarantee).
    fn lend(&mut self) {
        let (comm, me) = (self.comm, self.me);
        let Some(s) = &mut self.shards else { return };
        while let Some(msg) = s.streq_rx.test() {
            s.streq_rx = comm.irecv(Source::Any, TAG_STEAL_REQ);
            let (req, _) = msg.into_parts::<StealReq>();
            let tasks = if s.quiesced || s.all_done {
                Vec::new()
            } else {
                let homeless = !self.st.workers.clone().any(|w| s.home_of[w] == me);
                lend_half(&mut self.st.tasks, me, homeless)
            };
            for &t in &tasks {
                s.lent.insert(t, req.thief);
                s.reclaimed.remove(&t);
            }
            let resp = StealResp { tasks, owner: me };
            let bytes = resp.wire_bytes();
            self.sends
                .push(comm.isend(req.thief, TAG_STEAL_RESP, resp, bytes));
        }
    }

    /// Progress report: to the coordinator on every state change (and
    /// once at start); the coordinator mirrors its own state locally.
    async fn report_progress(&mut self) {
        let Some(s) = &mut self.shards else { return };
        let state = (self.st.batches_left == 0, s.outstanding_steal.is_some());
        if s.all_done || s.last_report == Some(state) {
            return;
        }
        s.last_report = Some(state);
        if self.me == 0 {
            s.remote[0] = Some(state);
            return;
        }
        let report = ShardStatus::Report {
            shard: self.me,
            epoch: s.epoch,
            resolved: state.0,
            stealing: state.1,
        };
        tell(self.timer, self.comm, 0, report, Phase::DataDistribution).await;
    }

    /// Quiesce ack: no steal outstanding and none will start.
    async fn ack_quiesce(&mut self) {
        let Some(s) = &mut self.shards else { return };
        if !s.quiesced || s.prepare_acked || s.outstanding_steal.is_some() || self.me == 0 {
            return;
        }
        s.prepare_acked = true;
        let ack = ShardStatus::PrepareAck {
            shard: self.me,
            epoch: s.epoch,
        };
        tell(self.timer, self.comm, 0, ack, Phase::DataDistribution).await;
    }

    /// Coordinator: drive the two-phase shutdown — `Prepare` once every
    /// live shard reports resolved and not stealing, `AllDone` once every
    /// live standby has acked and no steal of its own is outstanding.
    async fn coordinate_shutdown(&mut self) {
        let (comm, timer) = (self.comm, self.timer);
        let Some(s) = &mut self.shards else { return };
        if self.me != 0 || s.all_done {
            return;
        }
        let m = s.alive.len();
        let all_resolved =
            (0..m).all(|x| !s.alive[x] || matches!(s.remote[x], Some((true, false))));
        if !s.prepare_outstanding && all_resolved {
            s.prepare_outstanding = true;
            s.quiesced = true;
            let prepare = ShardStatus::Prepare { epoch: s.epoch };
            for x in (1..m).filter(|&x| s.alive[x]) {
                tell(timer, comm, x, prepare, Phase::DataDistribution).await;
            }
        }
        if s.prepare_outstanding
            && s.outstanding_steal.is_none()
            && (1..m).all(|x| !s.alive[x] || s.acked[x])
        {
            s.all_done = true;
            for x in (1..m).filter(|&x| s.alive[x]) {
                tell(
                    timer,
                    comm,
                    x,
                    ShardStatus::AllDone,
                    Phase::DataDistribution,
                )
                .await;
            }
        }
    }

    /// Idle shard: try to steal before telling a worker to wait. One
    /// request in flight at a time; pause once every alive sibling has
    /// answered empty in a row.
    async fn try_steal(&mut self) {
        let (sim, comm, timer, me) = (self.sim, self.comm, self.timer, self.me);
        let Some(s) = &mut self.shards else { return };
        let m = s.alive.len();
        let alive_siblings = (0..m).filter(|&x| s.alive[x] && x != me).count();
        if s.quiesced
            || s.outstanding_steal.is_some()
            || alive_siblings == 0
            || s.empty_streak >= alive_siblings
        {
            return;
        }
        for _ in 0..m {
            if s.alive[s.next_victim] && s.next_victim != me {
                break;
            }
            s.next_victim = (s.next_victim + 1) % m;
        }
        let victim = s.next_victim;
        s.next_victim = (victim + 1) % m;
        let resp_rx = comm.irecv(victim, TAG_STEAL_RESP);
        s.obs.add("shard.steals.requested", 1);
        timer
            .track(
                Phase::DataDistribution,
                comm.send(victim, TAG_STEAL_REQ, StealReq { thief: me }, CTRL_BYTES),
            )
            .await;
        s.outstanding_steal = Some((victim, resp_rx, sim.now()));
    }
}

/// Send shard status `msg` to master `to`, booked as `phase`.
async fn tell(timer: &PhaseTimer, comm: &Comm, to: usize, msg: ShardStatus, phase: Phase) {
    timer
        .track(phase, comm.send(to, TAG_STATUS, msg, CTRL_BYTES))
        .await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RunMode;
    use proptest::prelude::*;
    use s3a_workload::{Hit, QueryWork, WorkloadParams};

    impl ServiceQueue {
        /// The pick as a scan over every query: the reference the
        /// per-tenant open sets must reproduce.
        fn pick_scan(&mut self, now: SimTime, workload: &Workload) -> Option<(usize, usize)> {
            let nf = self.nf;
            let open = |q: &usize| {
                self.queries[*q]
                    .as_ref()
                    .is_some_and(|s| s.next_fragment < nf)
            };
            let mut all = 0..self.queries.len();
            let q = match self.sp.policy {
                SchedPolicy::Fifo => all.find(open),
                SchedPolicy::Sjf => all.filter(open).min_by_key(|&q| {
                    let arrival = self.queries[q].as_ref().expect("filtered").arrival;
                    (self.bytes_of[q], arrival, q)
                }),
                SchedPolicy::FairShare => all.filter(open).min_by_key(|&q| {
                    let t = self.queries[q].as_ref().expect("filtered").tenant;
                    (self.tenant_bytes[t], t, q)
                }),
            }?;
            let sq = self.queries[q].as_mut().expect("candidate is admitted");
            let f = sq.next_fragment;
            sq.next_fragment += 1;
            if sq.dispatched.is_none() {
                sq.dispatched = Some(now);
                self.queued -= 1;
            }
            let frag_bytes: u64 = workload.queries[q].hits[f].iter().map(|h| h.size).sum();
            self.tenant_bytes[sq.tenant] += frag_bytes;
            self.ready_fragments -= 1;
            Some((q, f))
        }
    }

    /// One query per draw: `(tenant, arrival gap in ms, size class)`.
    /// With `tied` every fragment of every query has the same size.
    fn setup(
        policy: SchedPolicy,
        tenants: usize,
        nf: usize,
        capacity: usize,
        draws: &[(usize, u64, u64)],
        tied: bool,
    ) -> (Workload, ServiceQueue, MasterState) {
        let workload = Workload {
            queries: draws
                .iter()
                .map(|&(_, _, class)| QueryWork {
                    query_len: 1,
                    hits: (0..nf as u64)
                        .map(|f| {
                            let size = if tied { 4 } else { class * (f % 3 + 1) };
                            vec![Hit { size, score: 1 }]
                        })
                        .collect(),
                })
                .collect(),
            params: WorkloadParams {
                queries: draws.len(),
                fragments: nf,
                ..WorkloadParams::default()
            },
        };
        let sp = ServiceParams {
            policy,
            tenants,
            queue_capacity: capacity,
            ..ServiceParams::default()
        };
        let params = SimParams {
            mode: RunMode::Service(sp.clone()),
            ..SimParams::default()
        };
        let mut queue = ServiceQueue::new(&sp, ServiceTracker::new(), &workload);
        let mut at_ns = 0;
        queue.arrivals = draws
            .iter()
            .map(|&(tenant, gap_ms, _)| {
                at_ns += gap_ms * 1_000_000;
                Arrival {
                    at_ns,
                    tenant: tenant % tenants,
                }
            })
            .collect();
        let st = MasterState::prepare(&params, &workload, 0, None);
        (workload, queue, st)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The indexed pick hands out the same `(query, fragment)`
        /// sequence as the scan for every policy, over random admission
        /// streams with shedding, same-instant arrivals and tied sizes.
        #[test]
        fn indexed_pick_matches_the_scan(
            policy in prop::sample::select(vec![
                SchedPolicy::Fifo,
                SchedPolicy::Sjf,
                SchedPolicy::FairShare,
            ]),
            shape in (1usize..5, 1usize..9, 1usize..24, any::<bool>()),
            draws in prop::collection::vec((0usize..4, 0u64..3, 0u64..4), 1..48),
            steps in prop::collection::vec((0u64..4, 0usize..5), 1..64),
        ) {
            let (tenants, nf, capacity, tied) = shape;
            let (w, mut indexed, mut st_a) = setup(policy, tenants, nf, capacity, &draws, tied);
            let (_, mut scan, mut st_b) = setup(policy, tenants, nf, capacity, &draws, tied);
            let mut now = SimTime::ZERO;
            let mut step = |now: SimTime, picks: usize| -> Result<(), TestCaseError> {
                indexed.admit(now, &mut st_a);
                scan.admit(now, &mut st_b);
                for _ in 0..picks {
                    prop_assert_eq!(indexed.pick(now, &w), scan.pick_scan(now, &w));
                }
                Ok(())
            };
            for &(advance_ms, picks) in &steps {
                now += SimTime::from_millis(advance_ms);
                step(now, picks)?;
            }
            // Admit the rest and drain both to the end.
            step(SimTime::MAX, draws.len() * nf + 1)?;
            prop_assert!(indexed.exhausted() && scan.exhausted());
            prop_assert!(indexed.open.iter().all(BTreeSet::is_empty));
        }
    }
}
