//! Communicators, point-to-point transport, and message matching.
//!
//! The transport implements the two protocols real MPI implementations
//! use:
//!
//! * **Eager** (small messages): the payload is pushed to the destination
//!   immediately; the send completes locally once the sender's NIC has
//!   drained it, and the receiver buffers it as an *unexpected message*
//!   until a matching receive is posted.
//! * **Rendezvous** (large messages): only a header (RTS) travels at send
//!   time. When the receiver matches it, a clear-to-send (CTS) returns to
//!   the sender, and only then does the payload move. The send completes
//!   when the payload has left the sender.
//!
//! Matching follows MPI rules: `(context, source, tag)` with wildcard
//! source/tag, earliest-posted receive matches earliest-arrived envelope,
//! and messages between a given pair of ranks are non-overtaking (the
//! fabric serializes each endpoint, so delivery order per pair equals send
//! order). Progress is *independent*: matching happens at arrival time,
//! like an MPI implementation with an asynchronous progress engine
//! (Myrinet GM offloaded exactly this to NIC firmware).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use s3a_des::{current_task, Flag, OneShot, Sim, SimTime, TaskId};
use s3a_net::{EndpointId, Fabric, NetConfig};
use s3a_obs::ObsSink;

use crate::message::{Message, Rank, Source, Status, Tag, TagSel, COLL_TAG_BASE};

/// Configuration of the MPI layer.
#[derive(Debug, Clone, Copy)]
pub struct MpiConfig {
    /// Interconnect parameters.
    pub net: NetConfig,
    /// Messages at or below this payload size use the eager protocol.
    pub eager_threshold: u64,
    /// Envelope/header bytes added to every wire message (and the size of
    /// RTS/CTS control messages).
    pub header_bytes: u64,
    /// Ranks sharing one NIC (the paper ran 2 processes per dual-CPU node).
    pub ranks_per_node: usize,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            net: NetConfig::default(),
            eager_threshold: 16 * 1024,
            header_bytes: 64,
            ranks_per_node: 2,
        }
    }
}

/// Traffic counters for a [`World`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpiStats {
    /// Point-to-point messages initiated (user + collective).
    pub messages: u64,
    /// Payload bytes sent.
    pub payload_bytes: u64,
    /// Messages that used the rendezvous protocol.
    pub rendezvous: u64,
}

/// Host-side readiness queue shared between a consumer (e.g. the master's
/// result drain) and the transport: tokens of hooked receives are pushed
/// here the moment they first become consumable. See
/// [`RecvRequest::notify_ready`].
pub type ReadyQueue = Rc<RefCell<Vec<u32>>>;

/// Arrival state of a message's payload, shared between the envelope and
/// (for rendezvous) the sender-side transfer task.
struct Arrival {
    done: Cell<bool>,
    /// Fired (at most once) when the payload lands on a matched receive.
    hook: RefCell<Option<(ReadyQueue, u32)>>,
}

impl Arrival {
    fn new(done: bool) -> Rc<Arrival> {
        Rc::new(Arrival {
            done: Cell::new(done),
            hook: RefCell::new(None),
        })
    }

    /// Payload fully arrived: flip the flag and fire any installed hook.
    fn complete(&self) {
        self.done.set(true);
        if let Some((q, t)) = self.hook.borrow_mut().take() {
            q.borrow_mut().push(t);
        }
    }
}

struct Envelope {
    context: u32,
    /// World rank of the sender.
    source: Rank,
    tag: Tag,
    bytes: u64,
    payload: Option<Box<dyn Any>>,
    arrival: Rc<Arrival>,
    /// Present on an unmatched rendezvous header; taken when matched to
    /// trigger the CTS.
    cts: Option<OneShot<()>>,
}

struct PostedRecv {
    context: u32,
    /// Source selector in *world* ranks.
    src: Source,
    tag: TagSel,
    /// Post order within the mailbox; arbitrates earliest-posted-wins
    /// between the exact index and the wildcard list.
    seq: u64,
    /// Matched to an envelope — no longer linked in the mailbox, so
    /// cancellation (drop) has nothing to deregister.
    matched: bool,
    /// Completion hook installed before the match; moved onto the
    /// envelope's [`Arrival`] at bind time if the payload is still in
    /// flight.
    ready_hook: Option<(ReadyQueue, u32)>,
    envelope: Option<Envelope>,
}

impl PostedRecv {
    /// The exact-index key, if both selectors are fully specified.
    fn exact_key(&self) -> Option<(u32, Rank, Tag)> {
        match (self.src, self.tag) {
            (Source::Rank(r), TagSel::Tag(t)) => Some((self.context, r, t)),
            _ => None,
        }
    }
}

/// FIFO of posted receives sharing one fully-specified match key.
type PostedFifo = VecDeque<Rc<RefCell<PostedRecv>>>;

/// Per-rank message-matching state.
///
/// Receives with fully-specified `(source, tag)` — the overwhelmingly
/// common case — live in a keyed FIFO index so an arriving message finds
/// its match in O(log n) instead of scanning every posted receive; a 10k
/// rank master holds one posted score receive per outstanding task, and
/// the old linear scan made every arrival O(ranks). Wildcard receives
/// stay in a short post-ordered list; `PostedRecv::seq` arbitrates
/// earliest-posted-wins across the two, preserving the exact matching the
/// scan produced. `arrived_counts` serves the same purpose on the posting
/// side: a fully-specified `irecv` can prove "no unexpected match exists"
/// without walking the unexpected queue.
struct Mailbox {
    arrived: VecDeque<Envelope>,
    /// Unexpected-message count by exact `(context, source, tag)`.
    arrived_counts: BTreeMap<(u32, Rank, Tag), usize>,
    /// Fully-specified posted receives, FIFO per key.
    posted_exact: BTreeMap<(u32, Rank, Tag), PostedFifo>,
    /// Posted receives with a wildcard source and/or tag, in post order.
    posted_wild: Vec<Rc<RefCell<PostedRecv>>>,
    next_seq: u64,
    waiters: Vec<TaskId>,
    /// The rank fail-stopped: arriving messages are absorbed (rendezvous
    /// senders granted and discarded) instead of buffered, so traffic in
    /// flight toward a dead process can always complete on the wire.
    failed: bool,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox {
            arrived: VecDeque::new(),
            arrived_counts: BTreeMap::new(),
            posted_exact: BTreeMap::new(),
            posted_wild: Vec::new(),
            next_seq: 0,
            waiters: Vec::new(),
            failed: false,
        }
    }

    /// Register a freshly posted receive (assigns its sequence number).
    fn link(&mut self, posted: &Rc<RefCell<PostedRecv>>) {
        let key = {
            let mut p = posted.borrow_mut();
            p.seq = self.next_seq;
            p.exact_key()
        };
        self.next_seq += 1;
        match key {
            Some(k) => self
                .posted_exact
                .entry(k)
                .or_default()
                .push_back(Rc::clone(posted)),
            None => self.posted_wild.push(Rc::clone(posted)),
        }
    }

    /// Unlink the earliest-posted receive matching `(context, source,
    /// tag)`, if any — exactly the receive the old front-to-back scan of
    /// one post-ordered list would have picked.
    fn match_posted(
        &mut self,
        context: u32,
        source: Rank,
        tag: Tag,
    ) -> Option<Rc<RefCell<PostedRecv>>> {
        let key = (context, source, tag);
        let exact_seq = self
            .posted_exact
            .get(&key)
            .and_then(|q| q.front())
            .map(|p| p.borrow().seq);
        // `posted_wild` is in post order, so the first match has the
        // smallest wildcard sequence number.
        let wild_pos = self.posted_wild.iter().position(|p| {
            let p = p.borrow();
            p.context == context && p.src.matches(source) && p.tag.matches(tag)
        });
        let take_exact = match (exact_seq, wild_pos) {
            (Some(es), Some(wp)) => es < self.posted_wild[wp].borrow().seq,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_exact {
            let q = self.posted_exact.get_mut(&key).expect("head seen above");
            let p = q.pop_front().expect("head seen above");
            if q.is_empty() {
                self.posted_exact.remove(&key);
            }
            Some(p)
        } else {
            Some(self.posted_wild.remove(wild_pos.expect("checked above")))
        }
    }

    /// Buffer an unmatched arrival on the unexpected queue.
    fn buffer(&mut self, env: Envelope) {
        *self
            .arrived_counts
            .entry((env.context, env.source, env.tag))
            .or_insert(0) += 1;
        self.arrived.push_back(env);
    }

    /// Take the unexpected message at position `i` off the queue.
    fn take_arrived(&mut self, i: usize) -> Envelope {
        let env = self.arrived.remove(i).expect("position from a scan");
        let key = (env.context, env.source, env.tag);
        let n = self.arrived_counts.get_mut(&key).expect("counted on entry");
        *n -= 1;
        if *n == 0 {
            self.arrived_counts.remove(&key);
        }
        env
    }
}

/// Discard a message addressed to a failed rank, granting its rendezvous
/// sender (if any) so the sender-side transfer task can finish.
fn absorb(env: Envelope) {
    if let Some(cts) = env.cts {
        cts.set(());
    }
}

/// A communicator's local-rank → world-rank mapping.
///
/// The world communicator is the identity and stores nothing — crucial at
/// scale, where a per-rank `Vec` of all members would cost O(ranks²)
/// memory across a 10k-rank world. Sub-communicators share one table per
/// matching context (see [`Comm::sub`]).
#[derive(Clone)]
enum Members {
    /// Local rank == world rank; just the size.
    Identity(usize),
    /// Local rank -> world rank table.
    Map(Rc<Vec<Rank>>),
}

impl Members {
    fn len(&self) -> usize {
        match self {
            Members::Identity(n) => *n,
            Members::Map(m) => m.len(),
        }
    }

    /// Translate a local rank to a world rank.
    fn to_world(&self, local: Rank) -> Rank {
        match self {
            Members::Identity(_) => local,
            Members::Map(m) => m[local],
        }
    }

    /// Translate a world rank back to a local rank.
    fn to_local(&self, world: Rank) -> Option<Rank> {
        match self {
            Members::Identity(n) => (world < *n).then_some(world),
            // Sub-communicators are small (I/O aggregator groups); a scan
            // beats carrying a reverse table around.
            Members::Map(m) => m.iter().position(|&w| w == world),
        }
    }
}

struct WorldInner {
    sim: Sim,
    fabric: Rc<Fabric>,
    /// First fabric endpoint used by this world's ranks.
    endpoint_base: usize,
    cfg: MpiConfig,
    mailboxes: Vec<RefCell<Mailbox>>,
    contexts: RefCell<BTreeMap<String, u32>>,
    /// Member table per sub-communicator context: built by the first rank
    /// to call [`Comm::sub`] for that context, shared by the rest.
    sub_members: RefCell<BTreeMap<u32, Rc<Vec<Rank>>>>,
    next_context: Cell<u32>,
    stats: Cell<MpiStats>,
    obs: RefCell<ObsSink>,
}

impl WorldInner {
    fn endpoint(&self, world_rank: Rank) -> EndpointId {
        EndpointId(self.endpoint_base + world_rank / self.cfg.ranks_per_node)
    }

    fn wake_mailbox(&self, dst: Rank) {
        let mut waiters = {
            let mut mb = self.mailboxes[dst].borrow_mut();
            std::mem::take(&mut mb.waiters)
        };
        for t in waiters.drain(..) {
            self.sim.ready_now(t);
        }
    }

    fn register_waiter(&self, dst: Rank) {
        let me = current_task();
        let mut mb = self.mailboxes[dst].borrow_mut();
        if !mb.waiters.contains(&me) {
            mb.waiters.push(me);
        }
    }

    /// Fail-stop `rank`: absorb everything queued at its mailbox and every
    /// future arrival.
    fn fail(&self, rank: Rank) {
        let drained: Vec<Envelope> = {
            let mut mb = self.mailboxes[rank].borrow_mut();
            mb.failed = true;
            mb.arrived_counts.clear();
            mb.arrived.drain(..).collect()
        };
        for env in drained {
            absorb(env);
        }
    }

    /// Match-or-buffer an envelope that has just arrived at `dst`.
    fn deliver(self: &Rc<Self>, dst: Rank, env: Envelope) {
        let matched = {
            let mut mb = self.mailboxes[dst].borrow_mut();
            if mb.failed {
                drop(mb);
                absorb(env);
                return;
            }
            mb.match_posted(env.context, env.source, env.tag)
        };
        match matched {
            Some(p) => self.bind(dst, &p, env),
            None => self.mailboxes[dst].borrow_mut().buffer(env),
        }
        self.wake_mailbox(dst);
    }

    /// Bind a matched envelope to a posted receive. For rendezvous
    /// messages this is the moment the CTS goes back to the sender.
    fn bind(self: &Rc<Self>, dst: Rank, posted: &Rc<RefCell<PostedRecv>>, mut env: Envelope) {
        if let Some(cts) = env.cts.take() {
            let plan = self.fabric.book_transfer(
                self.sim.now(),
                self.endpoint(dst),
                self.endpoint(env.source),
                self.cfg.header_bytes,
            );
            let sim = self.sim.clone();
            self.sim.spawn("mpi-cts", async move {
                sim.sleep_until(plan.delivered).await;
                cts.set(());
            });
        }
        let mut p = posted.borrow_mut();
        p.matched = true;
        if let Some((q, t)) = p.ready_hook.take() {
            if env.arrival.done.get() {
                q.borrow_mut().push(t);
            } else {
                *env.arrival.hook.borrow_mut() = Some((q, t));
            }
        }
        p.envelope = Some(env);
    }

    fn bump_stats(&self, bytes: u64, rendezvous: bool) {
        let mut s = self.stats.get();
        s.messages += 1;
        s.payload_bytes += bytes;
        if rendezvous {
            s.rendezvous += 1;
        }
        self.stats.set(s);
        let obs = self.obs.borrow();
        if obs.is_recording() {
            obs.add("mpi.messages", 1);
            obs.observe("mpi.msg_bytes", bytes);
            if rendezvous {
                obs.add("mpi.rendezvous", 1);
            }
        }
    }

    /// Start the wire protocol for one message; returns the send request.
    fn transport(
        self: &Rc<Self>,
        context: u32,
        src: Rank,
        dst: Rank,
        tag: Tag,
        payload: Box<dyn Any>,
        bytes: u64,
    ) -> SendRequest {
        let sim = self.sim.clone();
        let flag = Flag::new(&sim);
        let eager = bytes <= self.cfg.eager_threshold;
        self.bump_stats(bytes, !eager);

        let src_ep = self.endpoint(src);
        let dst_ep = self.endpoint(dst);
        let world = Rc::clone(self);
        let done = flag.clone();

        if eager {
            let plan =
                self.fabric
                    .book_transfer(sim.now(), src_ep, dst_ep, self.cfg.header_bytes + bytes);
            let env = Envelope {
                context,
                source: src,
                tag,
                bytes,
                payload: Some(payload),
                arrival: Arrival::new(true),
                cts: None,
            };
            let s = sim.clone();
            sim.spawn("mpi-xfer", async move {
                s.sleep_until(plan.tx_done).await;
                done.set();
                s.sleep_until(plan.delivered).await;
                world.deliver(dst, env);
            });
        } else {
            let cts = OneShot::new(&sim);
            let arrival = Arrival::new(false);
            let env = Envelope {
                context,
                source: src,
                tag,
                bytes,
                payload: Some(payload),
                arrival: Rc::clone(&arrival),
                cts: Some(cts.clone()),
            };
            let header = self.cfg.header_bytes;
            // Book the RTS *now*, not inside the spawned task: wire order
            // must equal isend order or same-pair messages could overtake.
            let rts = self.fabric.book_transfer(sim.now(), src_ep, dst_ep, header);
            let s = sim.clone();
            sim.spawn("mpi-rndv", async move {
                s.sleep_until(rts.delivered).await;
                world.deliver(dst, env);
                // Wait for the receiver to match and grant the transfer.
                cts.take().await;
                // Payload.
                let data = world
                    .fabric
                    .book_transfer(s.now(), src_ep, dst_ep, header + bytes);
                s.sleep_until(data.tx_done).await;
                done.set();
                s.sleep_until(data.delivered).await;
                arrival.complete();
                world.wake_mailbox(dst);
            });
        }
        SendRequest { flag }
    }
}

/// The set of all ranks and the transport between them (`MPI_COMM_WORLD`'s
/// backing state). Create one per simulation, then hand each simulated
/// process its [`Comm`] via [`World::comm`].
#[derive(Clone)]
pub struct World {
    inner: Rc<WorldInner>,
}

impl World {
    /// Create a world of `nranks` ranks on a private fabric with
    /// `ceil(nranks / ranks_per_node)` NICs.
    pub fn new(sim: &Sim, nranks: usize, cfg: MpiConfig) -> World {
        let nodes = nranks.div_ceil(cfg.ranks_per_node);
        let fabric = Rc::new(Fabric::new(nodes, cfg.net));
        Self::with_fabric(sim, nranks, cfg, fabric, 0)
    }

    /// Create a world on a shared fabric (e.g. one that also hosts file
    /// system servers). Ranks map to endpoints `endpoint_base + rank /
    /// ranks_per_node`, which must all exist in `fabric`.
    pub fn with_fabric(
        sim: &Sim,
        nranks: usize,
        cfg: MpiConfig,
        fabric: Rc<Fabric>,
        endpoint_base: usize,
    ) -> World {
        assert!(nranks > 0, "world needs at least one rank");
        assert!(cfg.ranks_per_node > 0, "ranks_per_node must be positive");
        let nodes = nranks.div_ceil(cfg.ranks_per_node);
        assert!(
            endpoint_base + nodes <= fabric.len(),
            "fabric has {} endpoints; world needs {} starting at {}",
            fabric.len(),
            nodes,
            endpoint_base
        );
        World {
            inner: Rc::new(WorldInner {
                sim: sim.clone(),
                fabric,
                endpoint_base,
                cfg,
                mailboxes: (0..nranks).map(|_| RefCell::new(Mailbox::new())).collect(),
                contexts: RefCell::new(BTreeMap::new()),
                sub_members: RefCell::new(BTreeMap::new()),
                next_context: Cell::new(1), // 0 is the world context
                stats: Cell::new(MpiStats::default()),
                obs: RefCell::new(ObsSink::disabled()),
            }),
        }
    }

    /// Install an observability sink: every subsequent point-to-point
    /// message bumps `mpi.messages` (and `mpi.rendezvous`) and feeds the
    /// `mpi.msg_bytes` payload-size histogram.
    pub fn set_obs(&self, sink: ObsSink) {
        *self.inner.obs.borrow_mut() = sink;
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.mailboxes.len()
    }

    /// The world communicator handle for `rank`. Call once per simulated
    /// process.
    pub fn comm(&self, rank: Rank) -> Comm {
        assert!(rank < self.size(), "rank {rank} out of range");
        Comm {
            world: Rc::clone(&self.inner),
            context: 0,
            rank,
            members: Members::Identity(self.size()),
            coll_seq: Cell::new(0),
        }
    }

    /// Traffic counters.
    pub fn stats(&self) -> MpiStats {
        self.inner.stats.get()
    }

    /// The underlying fabric (for utilization reporting or sharing with a
    /// file system).
    pub fn fabric(&self) -> Rc<Fabric> {
        Rc::clone(&self.inner.fabric)
    }

    /// The fabric endpoint that hosts `rank`.
    pub fn endpoint_of(&self, rank: Rank) -> EndpointId {
        self.inner.endpoint(rank)
    }

    /// The configuration the world was built with.
    pub fn config(&self) -> &MpiConfig {
        &self.inner.cfg
    }

    /// A stable context id for `key`, assigned on first use. Used to give
    /// sub-communicators created independently on each rank (e.g. by a
    /// shared file open) the same matching context.
    pub fn context_for(&self, key: &str) -> u32 {
        let mut map = self.inner.contexts.borrow_mut();
        *map.entry(key.to_string()).or_insert_with(|| {
            let id = self.inner.next_context.get();
            self.inner.next_context.set(id + 1);
            id
        })
    }
}

/// A communicator handle owned by one simulated process.
///
/// Ranks, sources, and statuses are all expressed in this communicator's
/// local numbering.
pub struct Comm {
    world: Rc<WorldInner>,
    context: u32,
    rank: Rank,
    /// Local rank -> world rank.
    members: Members,
    coll_seq: Cell<u32>,
}

/// A clone is a second handle to the same communicator, fit for
/// point-to-point traffic from a sibling task (e.g. a heartbeat sender).
///
/// The collective sequence counter is forked at clone time, so the clone
/// and the original must not both issue collectives afterwards — their
/// tags would collide. S3aSim's sibling tasks only ever send.
impl Clone for Comm {
    fn clone(&self) -> Comm {
        Comm {
            world: Rc::clone(&self.world),
            context: self.context,
            rank: self.rank,
            members: self.members.clone(),
            coll_seq: Cell::new(self.coll_seq.get()),
        }
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.members.len())
            .field("context", &self.context)
            .finish_non_exhaustive()
    }
}

impl Comm {
    /// This process's rank in the communicator.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The simulation this communicator runs in.
    pub fn sim(&self) -> &Sim {
        &self.world.sim
    }

    /// The matching-context id of this communicator (0 for the world;
    /// stable across ranks of the same communicator). Identifies the
    /// communicator to diagnostics such as the race sanitizer.
    pub fn context(&self) -> u32 {
        self.context
    }

    /// Translate a local rank to a world rank.
    pub fn world_rank(&self, local: Rank) -> Rank {
        self.members.to_world(local)
    }

    /// The fabric endpoint hosting this rank (used by I/O layers that move
    /// data over the same NIC the MPI traffic uses).
    pub fn endpoint(&self) -> EndpointId {
        self.world.endpoint(self.members.to_world(self.rank))
    }

    /// The fabric this communicator's world runs on.
    pub fn fabric(&self) -> Rc<Fabric> {
        Rc::clone(&self.world.fabric)
    }

    /// Declare this rank fail-stopped (crash simulation). Messages already
    /// queued for it and every later arrival are absorbed: rendezvous
    /// senders are granted and their payloads discarded, so no transfer
    /// toward the dead rank can wedge the simulation. Irreversible.
    pub fn mark_failed(&self) {
        self.world.fail(self.members.to_world(self.rank));
    }

    /// Duplicate this communicator: same members and ranks, a fresh
    /// matching context. The context id is the one [`Comm::sub`] assigns
    /// for `key` with every member listed in rank order, but the member
    /// table is shared with this communicator, so a world duplicate keeps
    /// its O(1) identity map. Every member must call `dup` with the same
    /// `key`.
    pub fn dup(&self, key: &str) -> Comm {
        Comm {
            world: Rc::clone(&self.world),
            context: self.context_for(key),
            rank: self.rank,
            members: self.members.clone(),
            coll_seq: Cell::new(0),
        }
    }

    /// The matching context for child `key` of this communicator,
    /// assigned on first use.
    fn context_for(&self, key: &str) -> u32 {
        let full_key = format!("ctx{}:{}", self.context, key);
        let mut map = self.world.contexts.borrow_mut();
        let next = &self.world.next_context;
        *map.entry(full_key).or_insert_with(|| {
            let id = next.get();
            next.set(id + 1);
            id
        })
    }

    /// Create a sub-communicator containing `local_members` (local ranks of
    /// this communicator, in the order that defines the new numbering).
    /// Every member must call `sub` with the same arguments; `key` ties the
    /// independently created handles to one matching context.
    pub fn sub(&self, local_members: &[Rank], key: &str) -> Comm {
        let new_rank = local_members
            .iter()
            .position(|&m| m == self.rank)
            .expect("calling rank must be a member of the sub-communicator");
        let context = self.context_for(key);
        // One member table per sub-communicator, built by whichever rank
        // gets here first — every member calls with the same arguments, so
        // the later callers just bump a refcount instead of allocating
        // their own copy of the table.
        let members = {
            let mut cache = self.world.sub_members.borrow_mut();
            Rc::clone(cache.entry(context).or_insert_with(|| {
                Rc::new(
                    local_members
                        .iter()
                        .map(|&m| self.members.to_world(m))
                        .collect(),
                )
            }))
        };
        Comm {
            world: Rc::clone(&self.world),
            context,
            rank: new_rank,
            members: Members::Map(members),
            coll_seq: Cell::new(0),
        }
    }

    pub(crate) fn next_coll_tag(&self) -> Tag {
        let s = self.coll_seq.get();
        self.coll_seq.set(s.wrapping_add(1));
        COLL_TAG_BASE + (s % (1 << 29))
    }

    pub(crate) fn isend_raw<T: Any>(
        &self,
        dst: Rank,
        tag: Tag,
        payload: T,
        bytes: u64,
    ) -> SendRequest {
        assert!(dst < self.size(), "destination rank {dst} out of range");
        self.world.transport(
            self.context,
            self.members.to_world(self.rank),
            self.members.to_world(dst),
            tag,
            Box::new(payload),
            bytes,
        )
    }

    /// Nonblocking send of `payload` with a simulated wire size of `bytes`
    /// to local rank `dst`.
    pub fn isend<T: Any>(&self, dst: Rank, tag: Tag, payload: T, bytes: u64) -> SendRequest {
        assert!(tag < COLL_TAG_BASE, "user tags must be below COLL_TAG_BASE");
        self.isend_raw(dst, tag, payload, bytes)
    }

    /// Blocking send: completes when the payload has left this rank
    /// (buffer reuse semantics, not delivery).
    pub async fn send<T: Any>(&self, dst: Rank, tag: Tag, payload: T, bytes: u64) {
        self.isend(dst, tag, payload, bytes).wait().await;
    }

    pub(crate) fn irecv_raw(&self, src: Source, tag: TagSel) -> RecvRequest {
        let src_world = match src {
            Source::Rank(l) => {
                assert!(l < self.size(), "source rank {l} out of range");
                Source::Rank(self.members.to_world(l))
            }
            Source::Any => Source::Any,
        };
        let me_world = self.members.to_world(self.rank);
        let posted = Rc::new(RefCell::new(PostedRecv {
            context: self.context,
            src: src_world,
            tag,
            seq: 0,
            matched: false,
            ready_hook: None,
            envelope: None,
        }));

        // Match against already-arrived (unexpected) messages first. A
        // fully-specified receive consults the arrival counts to skip the
        // scan when no match can exist — the hot case for the master's
        // per-task score receives, which are always posted before the
        // reply is even requested.
        let matched = {
            let mut mb = self.world.mailboxes[me_world].borrow_mut();
            let may_match = match (src_world, tag) {
                (Source::Rank(r), TagSel::Tag(t)) => {
                    mb.arrived_counts.contains_key(&(self.context, r, t))
                }
                _ => !mb.arrived.is_empty(),
            };
            let pos = may_match.then(|| {
                mb.arrived.iter().position(|e| {
                    e.context == self.context && src_world.matches(e.source) && tag.matches(e.tag)
                })
            });
            match pos.flatten() {
                Some(i) => Some(mb.take_arrived(i)),
                None => {
                    mb.link(&posted);
                    None
                }
            }
        };
        if let Some(env) = matched {
            self.world.bind(me_world, &posted, env);
        }

        RecvRequest {
            state: posted,
            world: Rc::clone(&self.world),
            me_world,
            members: self.members.clone(),
        }
    }

    /// Nonblocking receive matching `src` and `tag` (use [`Source::Any`] /
    /// [`TagSel::Any`] for wildcards).
    pub fn irecv(&self, src: impl Into<Source>, tag: impl Into<TagSel>) -> RecvRequest {
        self.irecv_raw(src.into(), tag.into())
    }

    /// Blocking receive.
    pub async fn recv(&self, src: impl Into<Source>, tag: impl Into<TagSel>) -> Message {
        self.irecv(src, tag).wait().await
    }
}

/// Handle for a pending send (`MPI_Isend`).
pub struct SendRequest {
    flag: Flag,
}

impl SendRequest {
    /// `MPI_Test` for the send: true once the local buffer is reusable.
    pub fn test(&self) -> bool {
        self.flag.is_set()
    }

    /// `MPI_Wait` for the send.
    pub async fn wait(&self) {
        self.flag.wait().await;
    }
}

/// Wait for every send in `reqs` to complete.
pub async fn waitall_sends(reqs: &[SendRequest]) {
    for r in reqs {
        r.wait().await;
    }
}

/// Handle for a pending receive (`MPI_Irecv`).
pub struct RecvRequest {
    state: Rc<RefCell<PostedRecv>>,
    world: Rc<WorldInner>,
    me_world: Rank,
    members: Members,
}

impl RecvRequest {
    fn try_complete(&self) -> Option<Message> {
        let mut p = self.state.borrow_mut();
        let ready = p.envelope.as_ref().is_some_and(|e| e.arrival.done.get());
        if !ready {
            return None;
        }
        let mut env = p.envelope.take().expect("checked above");
        let local_src = self
            .members
            .to_local(env.source)
            .expect("sender not in communicator");
        Some(Message::new(
            Status {
                source: local_src,
                tag: env.tag,
                bytes: env.bytes,
            },
            env.payload.take().expect("payload already taken"),
        ))
    }

    /// `MPI_Test`: completes the receive if the message has fully arrived.
    pub fn test(&self) -> Option<Message> {
        self.try_complete()
    }

    /// True once the message has fully arrived, without consuming it
    /// (peek; a subsequent [`RecvRequest::test`] will return it).
    pub fn ready(&self) -> bool {
        self.state
            .borrow()
            .envelope
            .as_ref()
            .is_some_and(|e| e.arrival.done.get())
    }

    /// Arrange for `token` to be pushed onto `queue` at the instant this
    /// receive first becomes consumable — or immediately, if it already
    /// is. Fires exactly once. Host-side bookkeeping only: it never
    /// observes or advances simulated time, so hooked and polled runs
    /// produce identical traces. Lets a consumer holding many outstanding
    /// receives drain completions in O(ready) instead of `test()`-scanning
    /// every request.
    pub fn notify_ready(&self, queue: &ReadyQueue, token: u32) {
        let mut p = self.state.borrow_mut();
        match &p.envelope {
            Some(e) => {
                if e.arrival.done.get() {
                    queue.borrow_mut().push(token);
                } else {
                    *e.arrival.hook.borrow_mut() = Some((Rc::clone(queue), token));
                }
            }
            None => p.ready_hook = Some((Rc::clone(queue), token)),
        }
    }

    /// Register the calling task to be woken at this rank's next mailbox
    /// activity. Building block for timeout/race receives: poll-style
    /// code calls `watch()` after a failed [`RecvRequest::test`], then
    /// suspends on a timer; an arrival wakes it early. Wake-ups are
    /// one-shot and may be spurious — re-test after each.
    pub fn watch(&self) {
        self.world.register_waiter(self.me_world);
    }

    /// `MPI_Wait`: suspend until the message arrives, then return it.
    pub fn wait(self) -> RecvWait {
        RecvWait { req: Some(self) }
    }
}

impl Drop for RecvRequest {
    fn drop(&mut self) {
        // Deregister an unmatched posted receive so it cannot swallow a
        // future message (dropping a pending request is MPI_Cancel-like).
        // Matched receives were unlinked at match time — the common case,
        // and O(1) to detect.
        let key = {
            let p = self.state.borrow();
            if p.matched {
                return;
            }
            p.exact_key()
        };
        let mut mb = self.world.mailboxes[self.me_world].borrow_mut();
        match key {
            Some(k) => {
                if let Some(q) = mb.posted_exact.get_mut(&k) {
                    q.retain(|p| !Rc::ptr_eq(p, &self.state));
                    if q.is_empty() {
                        mb.posted_exact.remove(&k);
                    }
                }
            }
            None => mb.posted_wild.retain(|p| !Rc::ptr_eq(p, &self.state)),
        }
    }
}

/// Future returned by [`RecvRequest::wait`].
pub struct RecvWait {
    req: Option<RecvRequest>,
}

impl Future for RecvWait {
    type Output = Message;
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Message> {
        let this = self.get_mut();
        let req = this.req.as_ref().expect("RecvWait polled after completion");
        match req.try_complete() {
            Some(m) => {
                this.req = None;
                Poll::Ready(m)
            }
            None => {
                req.world.register_waiter(req.me_world);
                Poll::Pending
            }
        }
    }
}

/// Convenience: the virtual time taken by `fut` relative to `sim`'s clock.
pub async fn timed<F: Future>(sim: &Sim, fut: F) -> (F::Output, SimTime) {
    let start = sim.now();
    let out = fut.await;
    (out, sim.now() - start)
}

// Opaque Debug impls: these are shared handles (or futures) over
// internal state; printing the state itself would be noisy and could
// observe a mid-operation borrow.

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for SendRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SendRequest").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for RecvRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvRequest").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for RecvWait {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvWait").finish_non_exhaustive()
    }
}
