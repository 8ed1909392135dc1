//! Pluggable schedule policies: the hook the model checker (`s3a-mc`)
//! uses to drive one simulation through *alternative* interleavings.
//!
//! The engine's canonical order — ready queue front to back, then timed
//! events in `(time, seq)` order — is one legal schedule among many: any
//! permutation of the tasks runnable at the same virtual instant is a
//! behavior a real cluster could exhibit. A [`SchedulePolicy`] gets to
//! pick which runnable candidate executes next at every such point.
//!
//! Two contracts make exploration sound:
//!
//! 1. *Canonical choice is index 0.* Candidates are presented in the
//!    engine's canonical order, so a policy that always answers `0`
//!    reproduces the stock engine bit for bit — same polls, same event
//!    counts, same clock advances, same results. `tests/` and
//!    `crates/mc` both rely on this.
//! 2. *Only same-instant reordering.* The engine never offers a timed
//!    candidate from a later virtual tick while earlier work is pending,
//!    so every explored schedule still respects causality (a message
//!    delivery cannot be chosen before it was sent).
//!
//! Policies are installed either ambiently with [`with_policy`] — the
//! next [`crate::Sim::new`] on this thread picks the policy up, which is
//! how callers that construct their `Sim` behind an API (e.g.
//! `s3asim::run`) are steered — or directly on an existing engine with
//! [`crate::Sim::set_policy`].

use std::cell::RefCell;
use std::rc::Rc;

use crate::engine::TaskId;
use crate::time::SimTime;

/// One runnable task the policy may pick, in canonical-order position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The task that would be polled.
    pub task: TaskId,
    /// FNV-1a hash of the task's spawn name — a stable label for state
    /// signatures that does not depend on slot or generation numbers.
    pub name_hash: u64,
    /// `true` when the candidate comes from a timed wake-up (the event
    /// queue), `false` when it comes from the ready queue.
    pub timed: bool,
}

/// A scheduling decision procedure driven by the engine.
///
/// `choose` is called at every selection point — including trivial ones
/// with a single candidate, so policies can maintain a complete step
/// signature — and must return an index into `candidates` (out-of-range
/// answers are clamped to the last candidate).
pub trait SchedulePolicy {
    /// Pick which candidate runs next. `now` is the virtual time the
    /// chosen task will observe; index 0 is the canonical choice.
    fn choose(&mut self, now: SimTime, candidates: &[Candidate]) -> usize;

    /// Budget hook, consulted once per selection loop. Returning `false`
    /// aborts the run as a synthetic [`crate::Deadlock`] (the parked-task
    /// list is replaced by a `<schedule budget exhausted>` marker) — the
    /// no-panic way for an explorer to bound runaway schedules.
    fn keep_running(&mut self) -> bool {
        true
    }
}

/// The identity policy: always picks candidate 0, reproducing the stock
/// engine's canonical `(time, seq)` order exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct CanonicalPolicy;

impl SchedulePolicy for CanonicalPolicy {
    fn choose(&mut self, _now: SimTime, _candidates: &[Candidate]) -> usize {
        0
    }
}

/// A seeded pseudo-random policy (splitmix64): picks uniformly among the
/// candidates at every decision point. Deterministic for a given seed —
/// useful as a cheap schedule fuzzer when full enumeration is too big.
#[derive(Debug, Clone)]
pub struct SeededPolicy {
    state: u64,
}

impl SeededPolicy {
    /// Create a policy whose choices are fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SeededPolicy {
            // Avoid the all-zero fixed point without losing determinism.
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: tiny, seedable, and good enough for schedule fuzzing.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl SchedulePolicy for SeededPolicy {
    fn choose(&mut self, _now: SimTime, candidates: &[Candidate]) -> usize {
        if candidates.len() <= 1 {
            return 0;
        }
        (self.next_u64() % candidates.len() as u64) as usize
    }
}

/// FNV-1a hash of a task name, as stored in [`Candidate::name_hash`].
pub fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A shared, installable policy handle.
pub type PolicyHandle = Rc<RefCell<dyn SchedulePolicy>>;

thread_local! {
    static AMBIENT: RefCell<Option<PolicyHandle>> = const { RefCell::new(None) };
}

/// Run `f` with `policy` installed as the thread's ambient schedule
/// policy: every [`crate::Sim`] *created* inside `f` (on this thread)
/// adopts it. The previous ambient policy is restored on exit, including
/// on unwind. This is the injection point for callers whose `Sim` is
/// constructed behind an API they do not control.
pub fn with_policy<R>(policy: PolicyHandle, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<PolicyHandle>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|a| *a.borrow_mut() = self.0.take());
        }
    }
    let prev = AMBIENT.with(|a| a.borrow_mut().replace(Rc::clone(&policy)));
    let _restore = Restore(prev);
    f()
}

/// The currently installed ambient policy, if any (cloned handle).
pub(crate) fn ambient() -> Option<PolicyHandle> {
    AMBIENT.with(|a| a.borrow().clone())
}
