//! Host-speed calibration.
//!
//! Host speed drifts: on a shared 2-vCPU machine the same
//! pass took 1.5 s in one 20-minute stretch and 2.0 s in the next, and
//! any code slows alike. So the benchmark times a fixed calibration
//! kernel after every pass and reports host times at a reference speed:
//! `host seconds x REFERENCE_S / mean kernel seconds` over the same
//! stretch of the run.
//!
//! The kernel mimics what the simulator's hot paths do to the host (a
//! seeded random generator, many small vector allocations, sorting) but
//! uses only the standard library, so a change to the simulator cannot
//! move it.

use std::time::Instant;

/// Kernel host seconds that define the reference speed: about what the
/// kernel takes on that 2-vCPU host when it runs at full speed.
pub const REFERENCE_S: f64 = 0.025;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The calibration kernel: 180 synthetic queries of 1,000 to 2,000
/// (size, score) hits spread over 128 fragments, each fragment sorted by
/// score and then merged. Returns a checksum so it cannot be elided.
pub fn kernel() -> u64 {
    let mut state = std::hint::black_box(42u64);
    let mut total = 0u64;
    for _ in 0..180 {
        let hits = 1_000 + splitmix(&mut state) % 1_000;
        let mut fragments: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 128];
        for _ in 0..hits {
            let f = (splitmix(&mut state) % 128) as usize;
            let size = 128 + splitmix(&mut state) % 4_096;
            fragments[f].push((size, splitmix(&mut state)));
        }
        for f in &mut fragments {
            f.sort_unstable_by_key(|h| std::cmp::Reverse(h.1));
            total = total.wrapping_add(f.iter().map(|h| h.0).sum::<u64>());
        }
        let mut merged: Vec<(u64, u64)> = fragments.into_iter().flatten().collect();
        merged.sort_unstable_by_key(|h| std::cmp::Reverse(h.1));
        total = total.wrapping_add(merged.len() as u64);
    }
    total
}

/// Kernel timings taken over a stretch of a run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Time one kernel call now.
    pub fn sample(&mut self) {
        let t = Instant::now();
        std::hint::black_box(kernel());
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Scale `host_s`, measured over the sampled stretch, to the
    /// reference speed. The mean (not the median) of the kernel times
    /// follows the share of time the host ran slow, which flips between
    /// a fast and a slow speed on a scale of seconds.
    pub fn at_reference(&self, host_s: f64) -> f64 {
        assert!(!self.samples.is_empty(), "no kernel timing taken");
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        host_s * REFERENCE_S / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scaling_is_proportional() {
        assert_eq!(kernel(), kernel());
        let mut speed = HostSpeed {
            samples: vec![REFERENCE_S, 3.0 * REFERENCE_S],
        };
        assert_eq!(speed.at_reference(2.0), 1.0);
        speed.sample();
        assert_eq!(speed.samples.len(), 3);
    }
}
