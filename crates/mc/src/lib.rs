//! s3a-mc — a bounded schedule-space model checker for S3aSim's
//! sharded-master and collective-I/O protocols.
//!
//! The simulator already executes protocols deterministically; this crate
//! turns that determinism into *systematic* coverage. A
//! [`SchedulePolicy`](s3a_des::policy::SchedulePolicy) hook in the DES
//! exposes every point where two or more tasks are runnable at the same
//! virtual tick; the explorer drives the full simulation through
//! breadth-first enumerated permutations of those points (plus a grid of
//! shifted crash times), deduplicates executions by a running state
//! signature, and checks five invariant oracles after every run:
//! termination, extent exactness, an exactly-once commit ledger,
//! sanitizer cleanliness, and output equality against the canonical
//! schedule. A violating schedule is minimized (greedy drop-one) and
//! written as a self-contained JSON counterexample that
//! `s3a-mc replay <file>` re-executes deterministically.
//!
//! See `DESIGN.md` for the state-hashing and crash-point-enumeration
//! rationale and the counterexample file format.

pub mod choice;
pub mod explore;
pub mod oracle;
pub mod scenario;

pub use choice::{Choice, ChoicePolicy, TRACE_CAP};
pub use explore::{
    explore, run_schedule, Counterexample, ExploreReport, McConfig, RunError, RunOutcome,
};
pub use oracle::{check as check_oracles, commit_projection, Baseline};
pub use scenario::{strategy_from_label, Scenario};
