//! Small statistics helpers for host-time samples.

/// Median of `samples` (mean of the two middle values for an even
/// count). Returns `None` for an empty slice. NaNs are not expected:
/// every sample is a measured duration.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Run `f` at least `min_reps` times and until `budget_s` host seconds
/// have passed, and return the median of the per-call durations in
/// seconds, with the value the last call returned.
pub fn time_median<T>(min_reps: usize, budget_s: f64, mut f: impl FnMut() -> T) -> (f64, T) {
    let start = std::time::Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let out = std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() >= min_reps && start.elapsed().as_secs_f64() >= budget_s {
            let m = median(&samples).expect("at least one sample");
            return (m, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One wild sample moves a mean, not the median.
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 50.0]), Some(1.0));
    }

    #[test]
    fn time_median_honours_min_reps_and_budget() {
        let mut calls = 0;
        let (m, last) = time_median(5, 0.0, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 5);
        assert_eq!(last, 5);
        assert!(m >= 0.0);

        let start = std::time::Instant::now();
        let (_, n) = time_median(1, 0.02, || 0u8);
        assert_eq!(n, 0);
        assert!(start.elapsed().as_secs_f64() >= 0.02);
    }
}
