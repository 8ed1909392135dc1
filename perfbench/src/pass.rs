//! Running passes and checking their output.
//!
//! Every run goes through `s3asim::try_run`, which verifies the output
//! file (every result byte written exactly once, contiguously, flushed).
//! On top of that the benchmark fingerprints each report's deterministic
//! fields and requires every run of the same parameter set to produce the
//! same fingerprint, traced or not. An error or a mismatch is recorded as
//! a failed run; the benchmark keeps going.

use std::time::Instant;

use s3asim::{try_run, RunReport, SimParams};

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a report's deterministic fields: the overall time, all
/// phase breakdowns, the worker, engine, MPI and file-system counters,
/// and the service-mode admission accounting and latencies.
pub fn fingerprint(r: &RunReport) -> u64 {
    let service = r.service.as_ref().map(|s| {
        (
            s.offered,
            s.admitted,
            s.shed,
            s.queue_peak,
            &s.shed_queries,
            s.latency,
            s.wait,
            &s.per_tenant,
        )
    });
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.overall,
        r.master,
        r.workers,
        r.worker_stats,
        r.engine,
        r.mpi,
        r.fs,
        r.expected_bytes,
        service
    );
    fnv1a(text.as_bytes())
}

/// One pass: each parameter set run once, in order.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Each run's report, or the error that stopped it.
    pub results: Vec<Result<RunReport, String>>,
}

/// Run one pass over `params`, timing it as a whole. A run whose armed
/// race sanitizer reports a hazard counts as an error.
pub fn run_pass(params: &[SimParams]) -> Pass {
    let start = Instant::now();
    let results: Vec<Result<RunReport, String>> = params
        .iter()
        .map(|p| {
            let report = try_run(p).map_err(|e| e.to_string())?;
            match &report.sanitizer {
                Some(san) if !san.is_clean() => {
                    Err(format!("sanitizer found {} hazards", san.hazards.len()))
                }
                _ => Ok(report),
            }
        })
        .collect();
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        results,
    }
}

/// Failure accounting across the passes of one parameter-set list: the
/// first pass fixes each run's reference fingerprint, and every later
/// run must match it.
#[derive(Debug, Default)]
pub struct Checker {
    reference: Vec<Option<u64>>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that returned an error, failed verification, or did not
    /// reproduce the reference fingerprint.
    pub failed: u64,
    /// One line per failure, for the log.
    pub notes: Vec<String>,
}

impl Checker {
    /// Account for every run of `pass`.
    pub fn check(&mut self, label: &str, pass: &Pass) {
        let first = self.reference.is_empty();
        for (i, result) in pass.results.iter().enumerate() {
            self.attempted += 1;
            let got = match result {
                Ok(report) => Some(fingerprint(report)),
                Err(e) => {
                    self.failed += 1;
                    self.notes.push(format!("{label} run {i}: {e}"));
                    None
                }
            };
            if first {
                self.reference.push(got);
            } else if got.is_some() && got != self.reference[i] {
                self.failed += 1;
                self.notes.push(format!(
                    "{label} run {i}: fingerprint differs from the first pass"
                ));
            }
        }
    }

    /// Add another checker's runs and failures to this tally.
    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    /// Failed runs over attempted runs (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3a_bench::small_params;
    use s3asim::Strategy;

    #[test]
    fn refused_params_count_as_failed_runs() {
        let good = small_params(4, Strategy::WwList);
        let mut bad = small_params(4, Strategy::WwList);
        bad.procs = 1; // no workers: `try_validate` refuses it
        assert!(bad.try_validate().is_err());

        let mut checker = Checker::default();
        let pass = run_pass(&[good.clone(), bad.clone()]);
        checker.check("t", &pass);
        assert_eq!((checker.attempted, checker.failed), (2, 1));
        checker.check("t", &run_pass(&[good, bad]));
        assert_eq!((checker.attempted, checker.failed), (4, 2));
        assert_eq!(checker.failed_frac(), 0.5);
        assert_eq!(checker.notes.len(), 2);
    }

    #[test]
    fn fingerprints_repeat_and_mismatches_count() {
        let p = small_params(4, Strategy::WwPosix);
        let mut checker = Checker::default();
        checker.check("t", &run_pass(std::slice::from_ref(&p)));
        checker.check("t", &run_pass(std::slice::from_ref(&p)));
        assert_eq!((checker.attempted, checker.failed), (2, 0));

        // The same run slot producing a different report is a failure.
        let mut other = p.clone();
        other.workload.seed += 1;
        checker.check("t", &run_pass(&[other]));
        assert_eq!((checker.attempted, checker.failed), (3, 1));
        assert_eq!(Checker::default().failed_frac(), 0.0);
    }

    #[test]
    fn observing_leaves_the_fingerprint_unchanged() {
        let p = small_params(4, Strategy::WwColl);
        let mut traced = p.clone();
        traced.observe = true;
        traced.sanitize = true;
        let a = try_run(&p).expect("run verifies");
        let b = try_run(&traced).expect("run verifies");
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
