//! The master process (Algorithm 1 of the paper).
//!
//! The master distributes `(query, fragment)` tasks on demand, gathers
//! scores (plus result data under MW), merges them, and — batch by batch
//! — either writes the output itself (MW) or tells each worker where to
//! write (`WW-*`). It is deliberately single-threaded and blocking in the
//! same places the paper's pseudo-code blocks: most importantly, while
//! the MW master writes, it cannot answer work requests.
//!
//! One loop serves every single-master run. Two settings, both read from
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
//!
//! Fault-free batch runs wait in a blocking receive for the next work
//! request, as Algorithm 1 does. Service and crash runs must keep
//! observing a clock (arrivals, heartbeat silence) while no worker asks
//! for work, so they poll instead.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use s3a_des::{JoinHandle, Sim, SimTime, Sleep};
use s3a_faults::FaultKind;
use s3a_mpi::{waitall_sends, Comm, Message, ReadyQueue, RecvRequest, SendRequest, Source};
use s3a_mpiio::File;
use s3a_workload::{Arrival, Workload};

use crate::failure_detector::Liveness;
use crate::offsets::{BatchState, WorkerPlan};
use crate::params::{SchedPolicy, ServiceParams, SimParams, Strategy};
use crate::phase::{Phase, PhaseBreakdown, PhaseTimer};
use crate::protocol::{
    Assign, OffsetsMsg, ScoresMsg, TAG_ASSIGN, TAG_HEARTBEAT, TAG_OFFSETS, TAG_SCORES, TAG_WORK_REQ,
};
use crate::resume::CommitTracker;
use crate::runner::FaultCtx;
use crate::service::{ServedEvent, ServiceTracker, ShedEvent};
use crate::trace::TraceSink;

/// Scheduling state shared by every mode, prepared once (resume-aware)
/// after setup.
struct MasterState {
    nworkers: usize,
    nq: usize,
    gran: usize,
    /// Undistributed tasks (empty in service mode, where the arrival
    /// stream supplies them); requeued tasks are pushed here too.
    tasks: VecDeque<(usize, usize)>,
    /// `None` = already written (completed this run, or durable from the
    /// checkpoint a resumed run starts from), or shed.
    batches: Vec<Option<BatchState>>,
    batches_left: usize,
    /// Next free byte of the output file.
    cursor: u64,
}

impl MasterState {
    fn prepare(params: &SimParams, workload: &Workload, nworkers: usize) -> MasterState {
        let nq = workload.queries.len();
        let nf = workload.params.fragments;
        let gran = params.batch_granularity(nq);
        let nbatches = nq.div_ceil(gran);
        let resume = params.resume_from.clone().unwrap_or_default();

        let batches: Vec<Option<BatchState>> = (0..nbatches)
            .map(|b| {
                if resume.done_batches.contains(&b) {
                    None
                } else {
                    let queries: Vec<usize> = (b * gran..((b + 1) * gran).min(nq)).collect();
                    Some(BatchState::new(b, queries, nf))
                }
            })
            .collect();
        let batches_left = batches.iter().filter(|b| b.is_some()).count();
        let tasks: VecDeque<(usize, usize)> = if params.is_service() {
            VecDeque::new()
        } else {
            (0..nq)
                .filter(|q| !resume.done_batches.contains(&(q / gran)))
                .flat_map(|q| (0..nf).map(move |f| (q, f)))
                .collect()
        };

        MasterState {
            nworkers,
            nq,
            gran,
            tasks,
            batches,
            batches_left,
            cursor: resume.base_offset,
        }
    }

    fn batch_queries(&self, b: usize) -> usize {
        ((b + 1) * self.gran).min(self.nq) - b * self.gran
    }

    /// Merge one scores message into its batch.
    fn record(&mut self, scores: &ScoresMsg, worker: usize) {
        let b = scores.query / self.gran;
        self.batches[b]
            .as_mut()
            .unwrap_or_else(|| panic!("scores for already-written batch {b}"))
            .record(scores.query, scores.fragment, worker, &scores.hits);
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

    /// Pick the next fragment by the scheduling policy and mark it
    /// dispatched at `now`.
    fn pick(&mut self, now: SimTime, workload: &Workload) -> Option<(usize, usize)> {
        let nf = self.nf;
        let open = |q: &usize| {
            self.queries[*q]
                .as_ref()
                .is_some_and(|s| s.next_fragment < nf)
        };
        let mut all = 0..self.queries.len();
        let q = match self.sp.policy {
            // FIFO: arrival order is query-index order (the stream is
            // sorted and arrival i carries query i).
            SchedPolicy::Fifo => all.find(open),
            // SJF: smallest total result volume first (the master knows
            // each query's size from the workload oracle). Ties break
            // FIFO: by arrival time, then query id — not by whatever order
            // the candidate scan happens to visit.
            SchedPolicy::Sjf => all.filter(open).min_by_key(|&q| {
                let arrival = self.queries[q].as_ref().expect("filtered").arrival;
                (self.bytes_of[q], arrival, q)
            }),
            // Fair share: the tenant with the least dispatched bytes goes
            // first; FIFO within the tenant.
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
    ctx: FaultCtx,
    /// Poll tick: the heartbeat interval.
    tick: SimTime,
    liveness: Liveness,
    hb_rx: RecvRequest,
    /// Index 0 (the master itself) is unused in these per-rank tables.
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
    /// Consume every queued heartbeat, refreshing the senders' liveness.
    /// Called again right before the detection scan because loop
    /// iterations can block (MW batch writes) for longer than the
    /// detection timeout. The boundary rule itself lives in
    /// [`crate::failure_detector`].
    fn drain_heartbeats(&mut self, comm: &Comm, now: SimTime) {
        while let Some(m) = self.hb_rx.test() {
            let (_, status) = m.into_parts::<()>();
            self.liveness.refresh(status.source, now);
            self.hb_rx = comm.irecv(Source::Any, TAG_HEARTBEAT);
        }
    }

    /// No task or repair is out with a worker and none is queued.
    fn settled(&self) -> bool {
        self.repairs.is_empty()
            && self.in_flight.values().all(Vec::is_empty)
            && self.in_flight_repairs.values().all(Vec::is_empty)
    }
}

/// Suspends a polling loop until `ready` holds, the rank's mailbox sees
/// activity, or `sleep` (if any) fires. All traffic bound for one rank
/// lands in one mailbox, so a single watch registration on any of its
/// receives covers every wake source. Used by the master, the shard
/// masters and the workers alike.
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
    st: MasterState,
    /// Service task source; `None` = the batch list in `st.tasks`.
    svc: Option<ServiceQueue>,
    /// Liveness detector; `None` = off.
    rec: Option<Recovery>,
    scores: ScoreBoard,
    offset_sends: Vec<SendRequest>,
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

/// Run the master on `comm` (the world communicator, rank 0). `file` must
/// be opened on a master-only communicator; it is used only by MW.
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
) -> PhaseBreakdown {
    let timer = PhaseTimer::with_trace(&sim, 0, trace);

    // Step 1: distribute input variables.
    timer
        .track(Phase::Setup, comm.bcast(0, Some(()), 1024))
        .await;

    let nworkers = comm.size() - 1;
    let rec = faults.filter(|f| f.schedule.params().crashes()).map(|ctx| {
        let fp = ctx.schedule.params();
        Recovery {
            tick: fp.heartbeat_interval,
            liveness: Liveness::new(nworkers + 1, sim.now(), fp.detection_timeout),
            hb_rx: comm.irecv(Source::Any, TAG_HEARTBEAT),
            alive: vec![true; nworkers + 1],
            dead: 0,
            in_flight: BTreeMap::new(),
            in_flight_repairs: BTreeMap::new(),
            repairs: VecDeque::new(),
            saved_plans: BTreeMap::new(),
            ctx,
        }
    });
    let liveness = rec.is_some();
    let svc = service.map(|t| {
        let sp = params
            .service()
            .expect("tracker exists only in service mode");
        ServiceQueue::new(sp, t, &workload)
    });
    let mut master = Master {
        sim: &sim,
        comm: &comm,
        params: &params,
        workload: &workload,
        file: &file,
        timer: &timer,
        commits: &commits,
        st: MasterState::prepare(&params, &workload, nworkers),
        svc,
        rec,
        scores: ScoreBoard::new(),
        offset_sends: Vec::new(),
        sent_offsets: vec![0; nworkers + 1],
        done: vec![false; nworkers + 1],
        ndone: 0,
        pending_io: None,
        notify_all: params.strategy.inherently_synchronizing() || params.query_sync,
    };
    master.run().await;

    // Step 20/21: final synchronization before exit — impossible once
    // worker crashes are armed (a dead worker can never arrive).
    if !liveness {
        timer.track(Phase::Sync, comm.barrier()).await;
    }

    let mut bd = timer.snapshot();
    bd.close_to(sim.now());
    bd
}

impl Master<'_> {
    async fn run(&mut self) {
        let nworkers = self.st.nworkers;
        // Fault-free batch runs block on the next work request; the other
        // modes keep one receive posted and poll it.
        let mut wr_rx = (self.svc.is_some() || self.rec.is_some())
            .then(|| self.comm.irecv(Source::Any, TAG_WORK_REQ));

        loop {
            // Intake: client arrivals, heartbeats.
            let now = self.sim.now();
            if let Some(q) = &mut self.svc {
                q.admit(now, &mut self.st);
            }
            if let Some(r) = &mut self.rec {
                r.drain_heartbeats(self.comm, now);
            }

            // Steps 10–19: drain any results that have arrived, then
            // handle batches that are now complete.
            let (st, rec) = (&mut self.st, &mut self.rec);
            self.scores.drain(|msg| {
                let (scores, status) = msg.into_parts::<ScoresMsg>();
                let w = status.source;
                if let Some(v) = rec.as_mut().and_then(|r| r.in_flight.get_mut(&w)) {
                    v.retain(|&t| t != (scores.query, scores.fragment));
                }
                st.record(&scores, w);
            });
            if let Some(r) = &mut self.rec {
                // A repair is finished once its batch no longer owes the
                // dead rank's write (the survivor completes it through the
                // shared tracker, so no acknowledgement message is needed).
                for v in r.in_flight_repairs.values_mut() {
                    v.retain(|b| self.commits.unfinished_for(b.for_worker).contains(&b.batch));
                }
            }
            self.flush().await;
            self.detect();

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
                    self.answer(req.status.source, true).await;
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

            // The run is resolved once every task was handed out and
            // reported back, every batch's output was flushed, and every
            // write is durable.
            let resolved = self.st.tasks.is_empty()
                && self.svc.as_ref().is_none_or(ServiceQueue::exhausted)
                && match &self.rec {
                    Some(r) => r.settled(),
                    None => self.scores.is_empty(),
                }
                && self.st.batches_left == 0
                && self.commits.pending_empty();
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
                    if let Some(r) = &mut self.rec {
                        r.liveness.refresh(w, self.sim.now());
                    }
                    self.answer(w, resolved).await;
                }
                continue;
            }

            if self.ndone + dead == nworkers {
                break;
            }

            // Idle: wake on mailbox activity, a live score, or the tick
            // (the next arrival or poll interval in service mode, the
            // heartbeat interval under liveness).
            let tick = match (&self.svc, &self.rec) {
                (Some(q), _) => q.idle_delay(self.sim.now()),
                (None, Some(r)) => r.tick,
                (None, None) => unreachable!("only polled runs idle"),
            };
            // A score landing for a dead worker is not a live one and
            // must not wake the master (that would move detection times).
            let (hb, scores) = (self.rec.as_ref().map(|r| &r.hb_rx), &self.scores);
            let ready = || wr.ready() || hb.is_some_and(RecvRequest::ready) || scores.has_ready();
            self.timer
                .track(
                    Phase::DataDistribution,
                    Wake {
                        watch: wr,
                        ready,
                        sleep: Some(self.sim.sleep(tick)),
                    },
                )
                .await;
        }

        debug_assert!(self.scores.is_empty(), "scores pending after shutdown");
        if let Some(h) = self.pending_io.take() {
            self.timer.track(Phase::Io, h.join()).await;
        }
        self.timer
            .track(Phase::GatherResults, waitall_sends(&self.offset_sends))
            .await;
    }

    /// Completed batches: lay out offsets, then write (MW) or tell each
    /// worker where to write (WW), remembering each worker's share while
    /// liveness is on.
    async fn flush(&mut self) {
        for b in 0..self.st.batches.len() {
            let complete = self.st.batches[b]
                .as_ref()
                .is_some_and(BatchState::is_complete);
            if !complete {
                continue;
            }
            let batch = self.st.batches[b].take().expect("checked above");
            self.st.batches_left -= 1;
            let base = self.st.cursor;
            let (plans, total) = batch.assign_offsets(base);
            self.st.cursor += total;
            let queries = self.st.batch_queries(b);
            let now = self.sim.now();
            if let Some(q) = &self.svc {
                q.served(b, now);
            }

            if self.params.strategy == Strategy::Mw {
                let writers = if total > 0 { vec![0] } else { Vec::new() };
                self.commits.expect(b, writers, queries, total, base, now);
                if total > 0 {
                    self.write_batch(b, base, total).await;
                }
                if self.params.query_sync {
                    for w in 1..=self.st.nworkers {
                        self.send_offsets(w, b, Vec::new());
                    }
                }
            } else {
                let writers = batch.contributing_workers();
                self.commits
                    .expect(b, writers.clone(), queries, total, base, now);
                // Step 15: hand out the location lists. A writer that died
                // a moment ago (not yet detected) gets its message
                // absorbed by the failed mailbox; detection will turn its
                // share into a repair bundle.
                let targets: Vec<usize> = if self.notify_all {
                    (1..=self.st.nworkers).collect()
                } else {
                    writers
                };
                for w in targets {
                    let offsets = plans.get(&w).map(|p| p.offsets.clone()).unwrap_or_default();
                    self.send_offsets(w, b, offsets);
                }
                if let Some(r) = &mut self.rec {
                    r.saved_plans.insert(b, plans);
                }
            }
        }
    }

    /// Step 18: the MW master writes batch `b` contiguously and syncs.
    /// With blocking I/O (the default, as in the paper) it cannot serve
    /// requests meanwhile; with the nonblocking option the write proceeds
    /// in the background and only the *previous* batch's completion is
    /// awaited (bounded buffering).
    async fn write_batch(&mut self, b: usize, base: u64, total: u64) {
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
                commits.complete_by(b, 0, sim.now());
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
            self.commits.complete_by(b, 0, self.sim.now());
        }
    }

    fn send_offsets(&mut self, w: usize, batch: usize, offsets: Vec<u64>) {
        let msg = OffsetsMsg { batch, offsets };
        let bytes = msg.wire_bytes();
        self.offset_sends
            .push(self.comm.isend(w, TAG_OFFSETS, msg, bytes));
        self.sent_offsets[w] += 1;
    }

    /// Answer worker `w`'s work request: a repair first (so the output's
    /// durable prefix closes as early as possible), then a fresh task,
    /// then — once the run is `resolved` — end-of-work, else `Wait`.
    async fn answer(&mut self, w: usize, resolved: bool) {
        let now = self.sim.now();
        let repair = self.rec.as_mut().and_then(|r| {
            let bundle = r.repairs.pop_front()?;
            r.ctx.log.record(
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
        let task = if repair.is_some() {
            None
        } else {
            self.st
                .tasks
                .pop_front()
                .or_else(|| self.svc.as_mut().and_then(|q| q.pick(now, self.workload)))
        };
        let assign = if let Some(r) = repair {
            Assign::Repair {
                batch: r.batch,
                for_worker: r.for_worker,
                tasks: r.plan.tasks,
                bytes: r.plan.bytes,
                regions: r.plan.regions,
            }
        } else if let Some((query, fragment)) = task {
            if let Some(r) = &mut self.rec {
                r.in_flight.entry(w).or_default().push((query, fragment));
            }
            // Step 8: post the receive for this task's scores first so
            // the progress engine can match it whenever it arrives.
            self.scores.push(w, self.comm.irecv(w, TAG_SCORES));
            Assign::Task { query, fragment }
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
    /// during its own blindness must not read as worker silence.
    fn detect(&mut self) {
        let Some(r) = &mut self.rec else { return };
        let now = self.sim.now();
        r.drain_heartbeats(self.comm, now);
        for w in 1..=self.st.nworkers {
            let r = self.rec.as_ref().expect("liveness on");
            if r.alive[w] && !self.done[w] && r.liveness.silent(w, now) {
                self.on_death(w);
            }
        }
    }

    /// Declare worker `w` dead and fold its obligations back into the
    /// schedule: in-flight and revoked tasks are requeued, owed batch
    /// writes become repair bundles for survivors.
    fn on_death(&mut self, w: usize) {
        let now = self.sim.now();
        let r = self.rec.as_mut().expect("liveness on");
        r.alive[w] = false;
        r.dead += 1;
        let log = &r.ctx.log;
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
            self.st.tasks.push_back((query, fragment));
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
}
