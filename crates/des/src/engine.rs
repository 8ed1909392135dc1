//! The simulation engine: a single-threaded async executor driven by a
//! virtual clock.
//!
//! Simulated processes are ordinary Rust futures. A process "blocks" by
//! returning [`Poll::Pending`] from a leaf future that has registered a
//! wake-up — either a timed event (e.g. [`Sim::sleep`]) in the engine's
//! event queue, a binary heap, or an entry in a synchronization
//! primitive's waiter list (see [`crate::sync`]). The engine pops events
//! in `(time, sequence)` order, so runs are bit-for-bit deterministic:
//! same inputs, same event interleaving, same results.
//!
//! Leaf futures must tolerate *spurious* polls (a stale timed wake-up may
//! poll a task whose real wake condition has not arrived yet). All
//! primitives in this crate follow that rule.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::policy::{self, Candidate, PolicyHandle};
use crate::time::SimTime;
use crate::wheel::{EventQueue, WakeEvent};

/// Identifies a spawned simulation process.
///
/// Slots are recycled; the generation counter keeps stale wake-ups from a
/// previous occupant of the slot from touching the new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId {
    idx: u32,
    gen: u32,
}

impl TaskId {
    /// Test-only constructor so the event queue's tests can fabricate
    /// event payloads without spawning tasks.
    #[cfg(test)]
    pub(crate) const fn from_parts(idx: u32, gen: u32) -> Self {
        TaskId { idx, gen }
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}.{}", self.idx, self.gen)
    }
}

thread_local! {
    static CURRENT: Cell<Option<TaskId>> = const { Cell::new(None) };
}

/// The id of the simulation process currently being polled.
///
/// Panics when called from outside an executing simulation task; leaf
/// futures use it to register the calling task in waiter lists.
pub fn current_task() -> TaskId {
    CURRENT
        .get()
        .expect("des primitive polled outside a simulation task")
}

struct Slot {
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    name: String,
    gen: u32,
    done: bool,
    /// True while a [`JoinHandle`]/[`Join`] for this slot's task is alive.
    /// The slot is recycled only once the task is done *and* the handle is
    /// gone, so a live handle can always identify its task by generation.
    handle_live: bool,
    /// What the task is parked on, reported by the leaf future that
    /// registered the task in a waiter list (see [`Sim::note_blocked`]).
    /// Cleared at every poll; used to explain deadlocks.
    blocked_on: Option<&'static str>,
    /// The task's output, parked here (type-erased) between completion and
    /// `join`/`take_output`. Only written when a handle is still live.
    value: Option<Box<dyn Any>>,
    /// Tasks awaiting [`Join`] on this slot's task.
    join_waiters: Vec<TaskId>,
}

/// Counters describing how much work the engine performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Number of timed events popped from the event queue.
    pub events: u64,
    /// Number of future polls (including spurious ones).
    pub polls: u64,
    /// Total tasks ever spawned.
    pub spawned: u64,
    /// Tasks that ran to completion.
    pub completed: u64,
}

/// Error returned by [`Sim::run`] when no task can make progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// Virtual time at which the simulation stalled.
    pub at: SimTime,
    /// Names of the live (parked) tasks.
    pub parked: Vec<String>,
    /// For each parked task, the primitive it is blocked on (`"queue pop"`,
    /// `"barrier arrive"`, ...) as reported by the leaf future, parallel to
    /// `parked`. `None` when the task parked without registering a reason.
    pub blocked_on: Vec<Option<&'static str>>,
}

impl Deadlock {
    /// One human-readable line per parked task: `name (blocked on X)`.
    pub fn details(&self) -> Vec<String> {
        self.parked
            .iter()
            .zip(&self.blocked_on)
            .map(|(name, what)| match what {
                Some(w) => format!("{name} (blocked on {w})"),
                None => format!("{name} (blocked, no reason recorded)"),
            })
            .collect()
    }
}

impl fmt::Display for Deadlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation deadlocked at {} with {} parked task(s): {}",
            self.at,
            self.parked.len(),
            self.details().join(", ")
        )
    }
}

impl std::error::Error for Deadlock {}

/// A task's boxed future as stored in (and polled out of) its slot.
type TaskFut = Pin<Box<dyn Future<Output = ()>>>;

struct Core {
    seq: u64,
    timers: EventQueue,
    ready: VecDeque<TaskId>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    stats: SimStats,
    /// Installed schedule policy (see [`crate::policy`]); `None` runs the
    /// canonical engine with zero per-step overhead beyond this check.
    policy: Option<PolicyHandle>,
}

impl Core {
    /// Take `tid`'s future out of its slot for polling, skipping stale
    /// ids (completed tasks, recycled slots, duplicate ready entries).
    #[inline]
    fn take_future(&mut self, tid: TaskId) -> Option<Pin<Box<dyn Future<Output = ()>>>> {
        let slot = self.slots.get_mut(tid.idx as usize)?;
        if slot.gen != tid.gen || slot.done {
            return None; // stale wake-up
        }
        let fut = slot.future.take()?;
        slot.blocked_on = None; // re-recorded if it parks again
        self.stats.polls += 1;
        Some(fut)
    }
}

/// What the engine should do next, decided under a single core borrow.
enum Step {
    Poll(TaskId, Pin<Box<dyn Future<Output = ()>>>),
    Finished(SimTime),
    Stuck(Deadlock),
}

/// The engine state behind a [`Sim`] handle. The virtual clock lives in a
/// plain `Cell` *outside* the `RefCell`: reading `now` is the hottest
/// engine query (every `sleep` creation and every completing sleep poll),
/// and keeping it borrow-free means those paths never touch the core.
struct Shared {
    now: Cell<SimTime>,
    core: RefCell<Core>,
}

/// Handle to a simulation. Cheap to clone; all clones refer to the same
/// engine. `Sim` is single-threaded (`!Send`) by design.
#[derive(Clone)]
pub struct Sim {
    sh: Rc<Shared>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create a fresh simulation at time zero with no tasks.
    pub fn new() -> Self {
        Sim {
            sh: Rc::new(Shared {
                now: Cell::new(SimTime::ZERO),
                core: RefCell::new(Core {
                    seq: 0,
                    timers: EventQueue::new(),
                    // Seed the arena and ready queue with room for a few
                    // dozen tasks: spawn-heavy setups otherwise pay a
                    // cascade of doubling reallocations copying slot
                    // state before the first event runs.
                    ready: VecDeque::with_capacity(64),
                    slots: Vec::with_capacity(64),
                    free: Vec::new(),
                    live: 0,
                    stats: SimStats::default(),
                    policy: policy::ambient(),
                }),
            }),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sh.now.get()
    }

    /// Install (or clear) a schedule policy on this engine. Prefer
    /// [`crate::policy::with_policy`] when the `Sim` is constructed behind
    /// an API; this direct setter is for tests and embedders that hold the
    /// handle. Must not be called from inside a running task.
    pub fn set_policy(&self, policy: Option<PolicyHandle>) {
        self.sh.core.borrow_mut().policy = policy;
    }

    /// Engine work counters.
    pub fn stats(&self) -> SimStats {
        self.sh.core.borrow().stats
    }

    /// Number of tasks that have been spawned but not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.sh.core.borrow().live
    }

    /// Spawn a simulation process. It becomes runnable immediately (at the
    /// current virtual time). Returns a handle that can be awaited for the
    /// process's output value.
    ///
    /// Task state lives in the engine's slot arena — the handle is just a
    /// generational id, so a spawn costs one future allocation and no
    /// shared-state cells.
    pub fn spawn<T: 'static>(
        &self,
        name: impl Into<String>,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        let sim = self.clone();
        let wrapped = async move {
            let value = fut.await;
            sim.store_output(value);
        };

        let tid = {
            let mut c = self.sh.core.borrow_mut();
            c.stats.spawned += 1;
            c.live += 1;
            let boxed: Pin<Box<dyn Future<Output = ()>>> = Box::pin(wrapped);
            let tid = match c.free.pop() {
                Some(idx) => {
                    let slot = &mut c.slots[idx as usize];
                    slot.future = Some(boxed);
                    slot.name = name.into();
                    slot.done = false;
                    slot.handle_live = true;
                    slot.blocked_on = None;
                    debug_assert!(slot.value.is_none() && slot.join_waiters.is_empty());
                    TaskId { idx, gen: slot.gen }
                }
                None => {
                    let idx = c.slots.len() as u32;
                    c.slots.push(Slot {
                        future: Some(boxed),
                        name: name.into(),
                        gen: 0,
                        done: false,
                        handle_live: true,
                        blocked_on: None,
                        value: None,
                        join_waiters: Vec::new(),
                    });
                    TaskId { idx, gen: 0 }
                }
            };
            c.ready.push_back(tid);
            tid
        };
        JoinHandle {
            task: tid,
            sim: self.clone(),
            _out: PhantomData,
        }
    }

    /// Park the finishing task's output in its slot (type-erased) and wake
    /// any joiners. Called by the spawn wrapper as the task's last act;
    /// the output is only boxed when a handle is still alive to claim it.
    fn store_output<T: 'static>(&self, value: T) {
        let tid = current_task();
        let mut c = self.sh.core.borrow_mut();
        let slot = &mut c.slots[tid.idx as usize];
        if slot.handle_live {
            slot.value = Some(Box::new(value));
        }
        if !slot.join_waiters.is_empty() {
            let mut ws = std::mem::take(&mut slot.join_waiters);
            c.ready.extend(ws.drain(..));
            // Hand the emptied Vec's capacity back to the slot.
            c.slots[tid.idx as usize].join_waiters = ws;
        }
    }

    /// Drop a handle's claim on its task's slot: forget any parked output
    /// and recycle the slot if the task has already finished.
    fn release_handle(&self, task: TaskId) {
        let mut c = self.sh.core.borrow_mut();
        let slot = &mut c.slots[task.idx as usize];
        slot.handle_live = false;
        // A live handle blocks recycling, so `gen` moved iff our task is done.
        if slot.gen != task.gen {
            slot.value = None;
            c.free.push(task.idx);
        }
    }

    /// Schedule a timed wake-up for `task` at absolute time `at` (clamped to
    /// the present). Used by leaf futures; harmless if the task has already
    /// completed or been woken by something else (the poll is spurious).
    pub fn schedule_wake(&self, task: TaskId, at: SimTime) {
        let at = at.max(self.sh.now.get());
        let mut c = self.sh.core.borrow_mut();
        let seq = c.seq;
        c.seq += 1;
        c.timers.push(WakeEvent {
            time: at,
            seq,
            task,
        });
    }

    /// Record what `task` is parked on. Called by leaf futures right after
    /// they register the task in a waiter list; the note is cleared the
    /// next time the task is polled, and surfaces in [`Deadlock`] reports.
    pub fn note_blocked(&self, task: TaskId, what: &'static str) {
        let mut c = self.sh.core.borrow_mut();
        if let Some(slot) = c.slots.get_mut(task.idx as usize) {
            if slot.gen == task.gen && !slot.done {
                slot.blocked_on = Some(what);
            }
        }
    }

    /// Make `task` runnable at the current time (end of the ready queue).
    pub fn ready_now(&self, task: TaskId) {
        let mut c = self.sh.core.borrow_mut();
        if let Some(slot) = c.slots.get(task.idx as usize) {
            if slot.gen == task.gen && !slot.done {
                c.ready.push_back(task);
            }
        }
    }

    /// Make every task in `tasks` runnable, in order, under a single
    /// engine borrow — the wake-all fast path for waiter lists. Stale ids
    /// (completed tasks, recycled slots) are skipped exactly as in
    /// [`Sim::ready_now`].
    pub fn ready_all(&self, tasks: impl IntoIterator<Item = TaskId>) {
        let mut c = self.sh.core.borrow_mut();
        for task in tasks {
            if let Some(slot) = c.slots.get(task.idx as usize) {
                if slot.gen == task.gen && !slot.done {
                    c.ready.push_back(task);
                }
            }
        }
    }

    /// The [`Sleep`] poll body under a single engine borrow: returns
    /// `true` once `deadline` has been reached; otherwise books the timed
    /// wake-up for `task` (at most once, tracked by `scheduled`) and
    /// returns `false`.
    pub(crate) fn sleep_poll(&self, task: TaskId, deadline: SimTime, scheduled: &mut bool) -> bool {
        // The completing poll (deadline reached) never borrows the core.
        if self.sh.now.get() >= deadline {
            return true;
        }
        let mut c = self.sh.core.borrow_mut();
        if !*scheduled {
            let seq = c.seq;
            c.seq += 1;
            c.timers.push(WakeEvent {
                time: deadline,
                seq,
                task,
            });
            *scheduled = true;
        }
        false
    }

    /// Sleep for a duration of virtual time.
    pub fn sleep(&self, dur: SimTime) -> Sleep {
        self.sleep_until(self.now().saturating_add(dur))
    }

    /// Sleep until an absolute virtual time (returns immediately if it has
    /// already passed).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            scheduled: false,
        }
    }

    /// Yield to let every other currently-runnable task execute first.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow {
            sim: self.clone(),
            yielded: false,
        }
    }

    /// Decide the next runnable task: drain the ready queue, then pop the
    /// event queue (advancing the clock), skipping stale wake-ups without
    /// releasing the borrow. Timed wake-ups poll the woken task directly
    /// instead of cycling it through the ready queue; validity
    /// (generation, done) is checked by `take_future`, so stale wake-ups
    /// fall out for free.
    ///
    /// `carried` is the future of the task that just returned `Pending`,
    /// not yet restored to its slot. When the next wake-up targets that
    /// same task — a lone sleeper, a producer pacing itself — the future
    /// is handed straight back without the slot round-trip; on every
    /// other exit it is parked in its slot first (it must be there for
    /// later wake-ups, and for deadlock reports).
    fn next_step(&self, c: &mut Core, mut carried: Option<(TaskId, TaskFut)>) -> Step {
        if c.policy.is_some() {
            return self.next_step_policy(c, carried);
        }
        // Bookkeeping parity with `take_future` for the carried fast path.
        let fast = |c: &mut Core, tid: TaskId, fut: TaskFut| {
            c.slots[tid.idx as usize].blocked_on = None;
            c.stats.polls += 1;
            Step::Poll(tid, fut)
        };
        let park = |c: &mut Core, carried: &mut Option<(TaskId, TaskFut)>| {
            if let Some((tid, fut)) = carried.take() {
                c.slots[tid.idx as usize].future = Some(fut);
            }
        };
        loop {
            while let Some(tid) = c.ready.pop_front() {
                if let Some((ctid, _)) = &carried {
                    if *ctid == tid {
                        let (tid, fut) = carried.take().expect("carried is Some");
                        return fast(c, tid, fut);
                    }
                }
                if let Some(fut) = c.take_future(tid) {
                    park(c, &mut carried);
                    return Step::Poll(tid, fut);
                }
            }
            if c.live == 0 {
                park(c, &mut carried);
                return Step::Finished(self.sh.now.get());
            }
            match c.timers.pop() {
                Some(ev) => {
                    debug_assert!(ev.time >= self.sh.now.get(), "event queue went backwards");
                    c.stats.events += 1;
                    if ev.time > self.sh.now.get() {
                        self.sh.now.set(ev.time);
                    }
                    if let Some((ctid, _)) = &carried {
                        if *ctid == ev.task {
                            let (tid, fut) = carried.take().expect("carried is Some");
                            return fast(c, tid, fut);
                        }
                    }
                    if let Some(fut) = c.take_future(ev.task) {
                        park(c, &mut carried);
                        return Step::Poll(ev.task, fut);
                    }
                }
                None => {
                    park(c, &mut carried);
                    return Step::Stuck(self.diagnose(c));
                }
            }
        }
    }

    /// Build the deadlock report for the current parked-task population.
    fn diagnose(&self, c: &Core) -> Deadlock {
        let stuck: Vec<&Slot> = c
            .slots
            .iter()
            .filter(|s| !s.done && s.future.is_some())
            .collect();
        Deadlock {
            at: self.sh.now.get(),
            parked: stuck.iter().map(|s| s.name.clone()).collect(),
            blocked_on: stuck.iter().map(|s| s.blocked_on).collect(),
        }
    }

    /// Policy-mode task selection: the same drain discipline as
    /// [`Sim::next_step`] — ready queue first, then the event queue — but
    /// every point where more than one task could legally run next is
    /// delegated to the installed [`crate::policy::SchedulePolicy`].
    /// Choosing index 0 at every point reproduces the canonical engine
    /// bit for bit: identical polls, event counts, and clock advances.
    ///
    /// Parity notes, load-bearing for the byte-identity tests:
    /// - The carried fast path is skipped (the policy may pick any
    ///   candidate, so the pending future always returns to its slot
    ///   first); the fast path is bookkeeping-identical, so nothing
    ///   observable changes.
    /// - Stale ready-queue ids are dropped silently, exactly as the
    ///   canonical `take_future` skip does (no counters touched).
    /// - Every timed event is counted in `stats.events` exactly once, at
    ///   consumption: stale events when dropped from a batch, live events
    ///   when chosen. Unchosen live events go *back* to the queue
    ///   uncounted (they will be popped again).
    /// - The clock advances to a batch's timestamp even when the whole
    ///   batch is stale, matching the canonical pop loop.
    fn next_step_policy(&self, c: &mut Core, carried: Option<(TaskId, TaskFut)>) -> Step {
        if let Some((tid, fut)) = carried {
            c.slots[tid.idx as usize].future = Some(fut);
        }
        let policy = c.policy.clone().expect("policy mode without a policy");
        let mut batch: Vec<WakeEvent> = Vec::new();
        loop {
            if !policy.borrow_mut().keep_running() {
                return Step::Stuck(Deadlock {
                    at: self.sh.now.get(),
                    parked: vec!["<schedule budget exhausted>".to_string()],
                    blocked_on: vec![None],
                });
            }
            {
                let slots = &c.slots;
                c.ready.retain(|tid| {
                    slots
                        .get(tid.idx as usize)
                        .is_some_and(|s| s.gen == tid.gen && !s.done && s.future.is_some())
                });
            }
            if !c.ready.is_empty() {
                let cands: Vec<Candidate> = c
                    .ready
                    .iter()
                    .map(|&tid| Candidate {
                        task: tid,
                        name_hash: policy::name_hash(&c.slots[tid.idx as usize].name),
                        timed: false,
                    })
                    .collect();
                let k = policy
                    .borrow_mut()
                    .choose(self.sh.now.get(), &cands)
                    .min(cands.len() - 1);
                let tid = c.ready.remove(k).expect("choice within the ready queue");
                let fut = c.take_future(tid).expect("candidate validated above");
                return Step::Poll(tid, fut);
            }
            if c.live == 0 {
                return Step::Finished(self.sh.now.get());
            }
            batch.clear();
            c.timers.pop_batch(&mut batch);
            if batch.is_empty() {
                return Step::Stuck(self.diagnose(c));
            }
            let t = batch[0].time;
            debug_assert!(t >= self.sh.now.get(), "event queue went backwards");
            if t > self.sh.now.get() {
                self.sh.now.set(t);
            }
            // Duplicate wake-ups for one live task stay separate
            // candidates: canonically each pop triggers its own
            // (possibly spurious) poll, and parity requires the same.
            let mut live_events: Vec<WakeEvent> = Vec::with_capacity(batch.len());
            for ev in &batch {
                let valid = c
                    .slots
                    .get(ev.task.idx as usize)
                    .is_some_and(|s| s.gen == ev.task.gen && !s.done && s.future.is_some());
                if valid {
                    live_events.push(*ev);
                } else {
                    c.stats.events += 1;
                }
            }
            if live_events.is_empty() {
                continue;
            }
            let cands: Vec<Candidate> = live_events
                .iter()
                .map(|ev| Candidate {
                    task: ev.task,
                    name_hash: policy::name_hash(&c.slots[ev.task.idx as usize].name),
                    timed: true,
                })
                .collect();
            let k = policy.borrow_mut().choose(t, &cands).min(cands.len() - 1);
            for (i, ev) in live_events.iter().enumerate() {
                if i != k {
                    c.timers.push(*ev);
                }
            }
            let chosen = live_events[k];
            c.stats.events += 1;
            let fut = c
                .take_future(chosen.task)
                .expect("candidate validated above");
            return Step::Poll(chosen.task, fut);
        }
    }

    /// Run the simulation until every task has completed.
    ///
    /// Returns the final virtual time, or a [`Deadlock`] listing the parked
    /// tasks if no task can make progress.
    ///
    /// The loop takes exactly one core borrow per poll: the previous
    /// poll's bookkeeping and the next task selection happen back to back
    /// under the same borrow, which is released only around the actual
    /// future poll (tasks re-enter the engine through their `Sim` handles).
    pub fn run(&self) -> Result<SimTime, Deadlock> {
        let mut finished: Option<(TaskId, TaskFut, Poll<()>)> = None;
        loop {
            let step = {
                let mut c = self.sh.core.borrow_mut();
                let mut carried = None;
                if let Some((tid, fut, result)) = finished.take() {
                    match result {
                        Poll::Ready(()) => {
                            let slot = &mut c.slots[tid.idx as usize];
                            slot.done = true;
                            slot.gen = slot.gen.wrapping_add(1);
                            if !slot.handle_live {
                                // No handle can claim the slot; recycle now.
                                // Otherwise `release_handle` recycles later.
                                slot.value = None;
                                c.free.push(tid.idx);
                            }
                            c.live -= 1;
                            c.stats.completed += 1;
                            drop(fut);
                        }
                        Poll::Pending => {
                            // Restored to the slot by `next_step` unless
                            // the very next wake targets this task again.
                            carried = Some((tid, fut));
                        }
                    }
                }
                self.next_step(&mut c, carried)
            };

            let (tid, mut fut) = match step {
                Step::Poll(tid, fut) => (tid, fut),
                Step::Finished(at) => return Ok(at),
                Step::Stuck(dl) => return Err(dl),
            };

            let prev = CURRENT.replace(Some(tid));
            let waker = Waker::noop();
            let mut cx = Context::from_waker(waker);
            let result = fut.as_mut().poll(&mut cx);
            CURRENT.set(prev);
            finished = Some((tid, fut, result));
        }
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    scheduled: bool,
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this
            .sim
            .sleep_poll(current_task(), this.deadline, &mut this.scheduled)
        {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    sim: Sim,
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.yielded {
            Poll::Ready(())
        } else {
            this.yielded = true;
            this.sim.ready_now(current_task());
            Poll::Pending
        }
    }
}

/// Handle to a spawned task; await [`JoinHandle::join`] for its output.
///
/// The handle is a generational id into the engine's slot arena — it holds
/// no shared allocation of its own. While a handle is alive, its task's
/// slot is kept reserved (the output parks there after completion); dropping
/// the handle releases the slot for recycling.
pub struct JoinHandle<T> {
    task: TaskId,
    sim: Sim,
    _out: PhantomData<fn() -> T>,
}

impl<T: 'static> JoinHandle<T> {
    /// The spawned task's id.
    pub fn id(&self) -> TaskId {
        self.task
    }

    /// True once the task has run to completion.
    pub fn is_finished(&self) -> bool {
        // Completion bumps the slot generation, and a live handle blocks
        // recycling, so a generation mismatch can only mean "our task done".
        self.sim.sh.core.borrow().slots[self.task.idx as usize].gen != self.task.gen
    }

    /// Take the output of a task that has already finished, without
    /// awaiting — for collecting results after [`Sim::run`] returns.
    /// Returns `None` if the task has not finished (or was already taken).
    pub fn take_output(self) -> Option<T> {
        let out = {
            let mut c = self.sim.sh.core.borrow_mut();
            let slot = &mut c.slots[self.task.idx as usize];
            slot.handle_live = false;
            if slot.gen != self.task.gen {
                let v = slot.value.take();
                c.free.push(self.task.idx);
                v.map(|b| *b.downcast::<T>().expect("join output type mismatch"))
            } else {
                None
            }
        };
        std::mem::forget(self); // slot claim already released above
        out
    }

    /// Wait for the task to finish and take its output.
    ///
    /// Panics if the output has already been taken by another `join`.
    pub fn join(self) -> Join<T> {
        let j = Join {
            task: self.task,
            sim: self.sim.clone(),
            finished: false,
            _out: PhantomData,
        };
        std::mem::forget(self); // the Join future inherits the slot claim
        j
    }
}

impl<T> Drop for JoinHandle<T> {
    fn drop(&mut self) {
        self.sim.release_handle(self.task);
    }
}

/// Future returned by [`JoinHandle::join`].
pub struct Join<T> {
    task: TaskId,
    sim: Sim,
    finished: bool,
    _out: PhantomData<fn() -> T>,
}

impl<T: 'static> Future for Join<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let this = self.get_mut();
        let me = current_task();
        let mut c = this.sim.sh.core.borrow_mut();
        let slot = &mut c.slots[this.task.idx as usize];
        if slot.gen != this.task.gen {
            let v = slot.value.take().expect("task output already taken");
            slot.handle_live = false;
            this.finished = true;
            c.free.push(this.task.idx);
            Poll::Ready(*v.downcast::<T>().expect("join output type mismatch"))
        } else {
            if !slot.join_waiters.contains(&me) {
                slot.join_waiters.push(me);
            }
            c.slots[me.idx as usize].blocked_on = Some("task join");
            Poll::Pending
        }
    }
}

impl<T> Drop for Join<T> {
    fn drop(&mut self) {
        if !self.finished {
            self.sim.release_handle(self.task);
        }
    }
}

// Opaque Debug impls: these are shared handles (or futures) over
// internal state; printing the state itself would be noisy and could
// observe a mid-operation borrow.

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Sleep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sleep").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for YieldNow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("YieldNow").finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle").finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Join<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Join").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn empty_sim_finishes_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn("sleeper", async move {
            s.sleep(SimTime::from_secs(5)).await;
            assert_eq!(s.now(), SimTime::from_secs(5));
        });
        assert_eq!(sim.run().unwrap(), SimTime::from_secs(5));
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn("z", async move {
            s.sleep(SimTime::ZERO).await;
            s.sleep_until(SimTime::ZERO).await;
        });
        assert_eq!(sim.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn events_fire_in_time_order() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("b", 20u64), ("a", 10), ("c", 30)] {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(name, async move {
                s.sleep(SimTime::from_millis(delay)).await;
                log.borrow_mut().push(name);
            });
        }
        sim.run().unwrap();
        assert_eq!(*log.borrow(), vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_events_fire_in_schedule_order() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["first", "second", "third"] {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(name, async move {
                s.sleep(SimTime::from_millis(7)).await;
                log.borrow_mut().push(name);
            });
        }
        sim.run().unwrap();
        assert_eq!(*log.borrow(), vec!["first", "second", "third"]);
    }

    #[test]
    fn join_returns_value() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn("outer", async move {
            let h = s.spawn("inner", {
                let s = s.clone();
                async move {
                    s.sleep(SimTime::from_secs(1)).await;
                    42u32
                }
            });
            assert_eq!(h.join().await, 42);
            assert_eq!(s.now(), SimTime::from_secs(1));
        });
        sim.run().unwrap();
    }

    #[test]
    fn join_already_finished_task() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn("outer", async move {
            let h = s.spawn("quick", async { 7u8 });
            s.sleep(SimTime::from_secs(1)).await;
            assert!(h.is_finished());
            assert_eq!(h.join().await, 7);
        });
        sim.run().unwrap();
    }

    #[test]
    fn yield_now_lets_others_run() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn("a", async move {
                log.borrow_mut().push("a1");
                s.yield_now().await;
                log.borrow_mut().push("a2");
            });
        }
        {
            let log = Rc::clone(&log);
            sim.spawn("b", async move {
                log.borrow_mut().push("b");
            });
        }
        sim.run().unwrap();
        assert_eq!(*log.borrow(), vec!["a1", "b", "a2"]);
    }

    #[test]
    fn deadlock_detected_and_named() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn("stuck-forever", async move {
            // A join on a task that never finishes, with no timed events.
            let h = s.spawn("never", std::future::pending::<()>());
            h.join().await;
        });
        let err = sim.run().unwrap_err();
        assert!(err.parked.iter().any(|n| n == "stuck-forever"));
        assert!(err.parked.iter().any(|n| n == "never"));
        assert_eq!(err.at, SimTime::ZERO);
        // The joiner reports what it is blocked on; the raw pending future
        // never registered, so it has no reason.
        let details = err.details();
        assert!(
            details
                .iter()
                .any(|d| d == "stuck-forever (blocked on task join)"),
            "details: {details:?}"
        );
        assert!(err.to_string().contains("blocked on task join"));
    }

    #[test]
    fn slots_are_recycled() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn("spawner", async move {
            for i in 0..100 {
                let s2 = s.clone();
                let h = s.spawn(format!("t{i}"), async move {
                    s2.sleep(SimTime::from_millis(1)).await;
                });
                h.join().await;
            }
        });
        sim.run().unwrap();
        // spawner + 100 children, but the slab should stay tiny.
        assert!(sim.sh.core.borrow().slots.len() <= 3);
        assert_eq!(sim.stats().spawned, 101);
        assert_eq!(sim.stats().completed, 101);
    }

    #[test]
    fn stale_wake_does_not_touch_recycled_slot() {
        // Schedule a far-future wake for a task that finishes immediately;
        // a new task then reuses the slot. The stale wake must not disturb it.
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn("driver", async move {
            let h = s.spawn("short", async {});
            let short_id = h.id();
            s.schedule_wake(short_id, SimTime::from_secs(10));
            h.join().await;
            let s2 = s.clone();
            let h2 = s.spawn("reuser", async move {
                s2.sleep(SimTime::from_secs(20)).await;
                "done"
            });
            assert_eq!(h2.join().await, "done");
        });
        assert_eq!(sim.run().unwrap(), SimTime::from_secs(20));
    }

    #[test]
    fn ready_all_skips_stale_ids_and_tolerates_spurious_wakes() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn("driver", async move {
            let h = s.spawn("short", async {});
            let stale = h.id();
            h.join().await;
            // The slot is recycled by a sleeping task; a batched wake
            // containing the stale id must skip it, and the spurious poll
            // of the live sleeper must not complete it early.
            let s2 = s.clone();
            let h2 = s.spawn("reuser", async move {
                s2.sleep(SimTime::from_secs(1)).await;
            });
            s.ready_all([stale, h2.id()]);
            h2.join().await;
        });
        assert_eq!(sim.run().unwrap(), SimTime::from_secs(1));
    }

    use crate::policy::{
        with_policy, Candidate, CanonicalPolicy, PolicyHandle, SchedulePolicy, SeededPolicy,
    };

    /// A workload with same-tick sleep collisions, yields, joins, spawn
    /// churn, and a stale wake-up — every selection-point flavor the
    /// policy hook must handle. Returns the observable run record.
    fn run_mixed(policy: Option<PolicyHandle>) -> (SimTime, Vec<String>, SimStats) {
        let sim = Sim::new();
        if policy.is_some() {
            sim.set_policy(policy); // None keeps any ambient policy
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        for (i, name) in ["a", "b", "c", "d"].into_iter().enumerate() {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(name, async move {
                s.sleep(SimTime::from_millis(5)).await;
                log.borrow_mut().push(format!("{name}@tick"));
                s.yield_now().await;
                log.borrow_mut().push(format!("{name}@yield"));
                s.sleep(SimTime::from_millis((i as u64 % 2) * 3)).await;
                log.borrow_mut().push(format!("{name}@end"));
            });
        }
        let s = sim.clone();
        let log2 = Rc::clone(&log);
        sim.spawn("driver", async move {
            let h = s.spawn("child", {
                let s = s.clone();
                async move {
                    s.sleep(SimTime::from_millis(5)).await;
                    7u32
                }
            });
            let stale = h.id();
            s.schedule_wake(stale, SimTime::from_millis(6)); // spurious/stale
            let v = h.join().await;
            log2.borrow_mut().push(format!("join={v}"));
        });
        let end = sim.run().unwrap();
        let entries = log.borrow().clone();
        (end, entries, sim.stats())
    }

    /// Contract 1 of `crate::policy`: always answering 0 reproduces the
    /// stock engine exactly — same final time, same observable event
    /// order, same work counters (polls, events, spawns, completions).
    #[test]
    fn canonical_policy_is_bit_identical_to_no_policy() {
        let stock = run_mixed(None);
        let canonical = run_mixed(Some(Rc::new(RefCell::new(CanonicalPolicy))));
        assert_eq!(stock, canonical);
    }

    /// A seeded-random policy must still produce a *legal* schedule: the
    /// run completes, all tasks finish, and the per-task event sequences
    /// are preserved (only cross-task order may change).
    #[test]
    fn seeded_policy_runs_to_completion_with_same_task_histories() {
        let (_, stock_log, stock_stats) = run_mixed(None);
        let mut saw_reorder = false;
        for seed in [1u64, 7, 42, 1234] {
            let (_, log, stats) = run_mixed(Some(Rc::new(RefCell::new(SeededPolicy::new(seed)))));
            assert_eq!(stats.spawned, stock_stats.spawned);
            assert_eq!(stats.completed, stock_stats.completed);
            let mut sorted = log.clone();
            sorted.sort();
            let mut stock_sorted = stock_log.clone();
            stock_sorted.sort();
            assert_eq!(sorted, stock_sorted, "seed {seed} lost or invented events");
            saw_reorder |= log != stock_log;
        }
        assert!(saw_reorder, "no seed produced a non-canonical interleaving");
    }

    /// The ambient installer must steer a `Sim` constructed behind a
    /// function call, and the engine must surface multi-candidate
    /// decision points (both ready-queue and timed ones) to the policy.
    #[test]
    fn ambient_policy_sees_ready_and_timed_decision_points() {
        #[derive(Default)]
        struct Recorder {
            max_ready: usize,
            max_timed: usize,
        }
        impl SchedulePolicy for Recorder {
            fn choose(&mut self, _now: SimTime, cands: &[Candidate]) -> usize {
                let n = cands.len();
                if cands[0].timed {
                    self.max_timed = self.max_timed.max(n);
                } else {
                    self.max_ready = self.max_ready.max(n);
                }
                0
            }
        }
        let rec = Rc::new(RefCell::new(Recorder::default()));
        let handle: PolicyHandle = rec.clone();
        let stock = run_mixed(None);
        let steered = with_policy(handle, || run_mixed(None));
        assert_eq!(stock, steered, "recorder answers 0, so runs must match");
        assert!(
            rec.borrow().max_timed >= 2,
            "same-tick sleepers not batched"
        );
        assert!(
            rec.borrow().max_ready >= 2,
            "yield wave not offered as a choice"
        );
    }

    /// `keep_running() == false` must abort as a synthetic deadlock with
    /// the budget marker — not a panic, not a hang.
    #[test]
    fn policy_budget_exhaustion_aborts_as_deadlock() {
        struct Budget(u32);
        impl SchedulePolicy for Budget {
            fn choose(&mut self, _now: SimTime, _c: &[Candidate]) -> usize {
                0
            }
            fn keep_running(&mut self) -> bool {
                self.0 = self.0.saturating_sub(1);
                self.0 > 0
            }
        }
        let sim = Sim::new();
        sim.set_policy(Some(Rc::new(RefCell::new(Budget(3)))));
        let s = sim.clone();
        sim.spawn("looper", async move {
            loop {
                s.sleep(SimTime::from_millis(1)).await;
            }
        });
        let err = sim.run().unwrap_err();
        assert_eq!(err.parked, vec!["<schedule budget exhausted>".to_string()]);
    }

    #[test]
    fn massive_fanout_is_deterministic() {
        let run = || {
            let sim = Sim::new();
            let total = Rc::new(RefCell::new(0u64));
            for i in 0..500u64 {
                let s = sim.clone();
                let total = Rc::clone(&total);
                sim.spawn(format!("w{i}"), async move {
                    s.sleep(SimTime::from_nanos(i * 13 % 97)).await;
                    *total.borrow_mut() += i;
                    s.sleep(SimTime::from_nanos(i * 7 % 31)).await;
                });
            }
            let end = sim.run().unwrap();
            let sum = *total.borrow();
            (end, sum, sim.stats())
        };
        assert_eq!(run(), run());
    }
}
