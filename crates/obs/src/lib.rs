//! # s3a-obs — request-level observability
//!
//! The paper explains each I/O strategy's behaviour through MPE +
//! Jumpshot instrumentation (§3); the coarse per-phase trace in
//! `s3asim::trace` reproduces the Gantt view, but not the request-level
//! story — request counts, per-request latency, aggregator exchange
//! rounds — that dominates noncontiguous-write performance. This crate is
//! the event bus the simulated layers publish that story into:
//!
//! * **Span events** — named virtual-time intervals on a [`Track`] (a
//!   world rank or a PVFS server) with structured numeric arguments, e.g.
//!   one span per PVFS request carrying its full lifecycle breakdown
//!   (issue → wire → server queue → service → ack) or one span per
//!   two-phase collective exchange round.
//! * **Counter samples** — virtual-time series per track, e.g. a server's
//!   request-queue depth or write-back-cache dirty bytes.
//! * **A metrics registry** — counters, gauges, and log₂-bucket
//!   histograms of request latency and message sizes.
//!
//! Everything funnels through an [`ObsSink`], cloned into each layer at
//! setup. The disabled sink holds no state and every publish method
//! early-returns on one `Option` check, so an un-instrumented run does no
//! allocation and no bookkeeping — the zero-cost-when-off guarantee the
//! `des_hot_path` benchmark gate enforces. Recording is pure synchronous
//! bookkeeping in virtual time (no awaits, no timing changes), so a run's
//! simulated results are identical with observability on or off, and the
//! recorded data is deterministic: same seed, same trace, byte for byte.
//!
//! [`ObsSink::finish`] folds the recording into a plain-data
//! [`ObsReport`] (no `Rc`, `Send`) that travels inside `RunReport`
//! through the parallel sweep pool. Exporters live in [`chrome`] (Chrome
//! `trace_event` JSON for `chrome://tracing` / Perfetto) and the report's
//! CSV helpers; [`json`] is the workspace's one JSON codec (bench gate,
//! trace tests, s3a-mc counterexamples).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use s3a_des::SimTime;

pub mod chrome;
pub mod json;

/// The timeline an event belongs to: one track per world rank and one per
/// PVFS server, mirroring the paper's per-process Jumpshot rows plus the
/// server side it could not see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// An MPI world rank (0 = master).
    Rank(usize),
    /// A PVFS server index.
    Server(usize),
}

impl Track {
    /// Stable sort key: all rank tracks, then all server tracks.
    pub fn sort_key(self) -> (u8, usize) {
        match self {
            Track::Rank(r) => (0, r),
            Track::Server(s) => (1, s),
        }
    }
}

/// One named virtual-time interval on a track, with structured numeric
/// arguments (`&'static` names keep the report plain data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// The track the interval belongs to.
    pub track: Track,
    /// Event name (e.g. `"pvfs.write"`, `"coll.round"`).
    pub name: &'static str,
    /// Interval start (virtual time).
    pub start: SimTime,
    /// Interval end (virtual time).
    pub end: SimTime,
    /// Structured arguments, in publication order.
    pub args: Vec<(&'static str, u64)>,
}

/// One sample of a virtual-time series (queue depth, dirty bytes, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSample {
    /// The track the series belongs to.
    pub track: Track,
    /// Series name (e.g. `"pvfs.queue_depth"`).
    pub name: &'static str,
    /// Sample time (virtual time).
    pub time: SimTime,
    /// The series value at `time`.
    pub value: u64,
}

/// A log₂-bucket histogram of `u64` observations (latencies in
/// nanoseconds, message sizes in bytes). Bucket `i` counts values whose
/// bit length is `i` (bucket 0 counts zeros), i.e. bucket bounds are
/// `[2^(i-1), 2^i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// `buckets[i]` counts observations with bit length `i`.
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// The bucket index a value falls into (its bit length).
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Exclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_hi(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 < q <= 1.0`) from the log₂
    /// buckets: the upper bound of the bucket holding the nearest-rank
    /// observation, clamped to the observed `[min, max]` range. Within a
    /// bucket the true value is known to a factor of two — adequate for
    /// tail-latency reporting (p50/p99/p999). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest k with cumulative count >= ceil(q*n).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_hi(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Plain-data snapshot of the metrics registry, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: Vec<(&'static str, u64)>,
    /// Last-value-wins gauges.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histograms of observed values.
    pub histograms: Vec<(&'static str, Histogram)>,
}

impl MetricsSnapshot {
    /// The value of a counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }
}

/// Everything one run recorded: the event streams plus the metrics
/// snapshot. Plain data (`Send`), so it rides inside `RunReport` across
/// the parallel sweep pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Span events, sorted by `(track, start, end, name)`.
    pub spans: Vec<SpanEvent>,
    /// Counter samples, sorted by `(track, time, name)` with publication
    /// order breaking ties (series values at equal times keep their
    /// update order).
    pub samples: Vec<CounterSample>,
    /// The metrics registry at the end of the run.
    pub metrics: MetricsSnapshot,
}

impl ObsReport {
    /// Span events of one track, in time order.
    pub fn track_spans(&self, track: Track) -> impl Iterator<Item = &SpanEvent> {
        self.spans.iter().filter(move |s| s.track == track)
    }

    /// The sorted list of tracks that recorded at least one event.
    pub fn tracks(&self) -> Vec<Track> {
        let mut t: Vec<Track> = self
            .spans
            .iter()
            .map(|s| s.track)
            .chain(self.samples.iter().map(|c| c.track))
            .collect();
        t.sort_by_key(|t| t.sort_key());
        t.dedup();
        t
    }
}

#[derive(Default)]
struct ObsState {
    spans: Vec<SpanEvent>,
    samples: Vec<CounterSample>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Shared publication handle — the event bus. Clone freely; all clones
/// feed one recording. The [`ObsSink::disabled`] variant holds no state
/// and every method early-returns, making un-observed runs free.
#[derive(Clone, Default)]
pub struct ObsSink {
    inner: Option<Rc<RefCell<ObsState>>>,
}

impl ObsSink {
    /// A sink that records events and metrics.
    pub fn recording() -> Self {
        ObsSink {
            inner: Some(Rc::new(RefCell::new(ObsState::default()))),
        }
    }

    /// A sink that drops everything (observability off — zero cost).
    pub fn disabled() -> Self {
        ObsSink { inner: None }
    }

    /// Is this sink recording? Publishers with non-trivial argument
    /// assembly should check this first and skip the work when off.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one span. Empty intervals (`end <= start`) are dropped.
    pub fn span(
        &self,
        track: Track,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, u64)],
    ) {
        if end <= start {
            return;
        }
        if let Some(st) = &self.inner {
            st.borrow_mut().spans.push(SpanEvent {
                track,
                name,
                start,
                end,
                args: args.to_vec(),
            });
        }
    }

    /// Record one counter sample (a point of a virtual-time series).
    pub fn sample(&self, track: Track, name: &'static str, time: SimTime, value: u64) {
        if let Some(st) = &self.inner {
            st.borrow_mut().samples.push(CounterSample {
                track,
                name,
                time,
                value,
            });
        }
    }

    /// Bump a monotonic counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(st) = &self.inner {
            *st.borrow_mut().counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Set a last-value-wins gauge.
    pub fn gauge(&self, name: &'static str, value: u64) {
        if let Some(st) = &self.inner {
            st.borrow_mut().gauges.insert(name, value);
        }
    }

    /// Observe one value into a histogram.
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(st) = &self.inner {
            st.borrow_mut()
                .histograms
                .entry(name)
                .or_default()
                .observe(value);
        }
    }

    /// Observe a duration (recorded in nanoseconds).
    pub fn observe_time(&self, name: &'static str, dt: SimTime) {
        self.observe(name, dt.as_nanos());
    }

    /// Extract the recording as a plain-data report, or `None` when the
    /// sink was disabled. Spans are sorted by `(track, start, end,
    /// name)` and samples by `(track, time)` — both stable, so equal keys
    /// keep their deterministic publication order.
    pub fn finish(self) -> Option<ObsReport> {
        self.inner.map(|rc| {
            let st = Rc::try_unwrap(rc)
                .map(RefCell::into_inner)
                .unwrap_or_else(|rc| {
                    let b = rc.borrow();
                    ObsState {
                        spans: b.spans.clone(),
                        samples: b.samples.clone(),
                        counters: b.counters.clone(),
                        gauges: b.gauges.clone(),
                        histograms: b.histograms.clone(),
                    }
                });
            let mut spans = st.spans;
            spans.sort_by(|a, b| {
                (a.track.sort_key(), a.start, a.end, a.name).cmp(&(
                    b.track.sort_key(),
                    b.start,
                    b.end,
                    b.name,
                ))
            });
            let mut samples = st.samples;
            samples.sort_by_key(|c| (c.track.sort_key(), c.time));
            ObsReport {
                spans,
                samples,
                metrics: MetricsSnapshot {
                    counters: st.counters.into_iter().collect(),
                    gauges: st.gauges.into_iter().collect(),
                    histograms: st.histograms.into_iter().collect(),
                },
            }
        })
    }
}

// Opaque Debug impls: these are shared handles (or futures) over
// internal state; printing the state itself would be noisy and could
// observe a mid-operation borrow.

impl std::fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSink").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = ObsSink::disabled();
        sink.span(Track::Rank(0), "x", t(0), t(1), &[]);
        sink.sample(Track::Server(0), "d", t(0), 1);
        sink.add("c", 1);
        sink.gauge("g", 2);
        sink.observe("h", 3);
        assert!(!sink.is_recording());
        assert!(sink.finish().is_none());
    }

    #[test]
    fn recording_sink_sorts_per_track() {
        let sink = ObsSink::recording();
        sink.span(Track::Server(1), "svc", t(5), t(7), &[("bytes", 10)]);
        sink.span(Track::Rank(0), "phase", t(3), t(4), &[]);
        sink.span(Track::Server(1), "svc", t(1), t(2), &[]);
        let r = sink.finish().expect("recording");
        assert_eq!(r.spans.len(), 3);
        // Rank tracks sort before server tracks; per track, time order.
        assert_eq!(r.spans[0].track, Track::Rank(0));
        assert_eq!(r.spans[1].start, t(1));
        assert_eq!(r.spans[2].start, t(5));
        assert_eq!(r.spans[2].args, vec![("bytes", 10)]);
        assert_eq!(r.tracks(), vec![Track::Rank(0), Track::Server(1)]);
    }

    #[test]
    fn empty_spans_dropped() {
        let sink = ObsSink::recording();
        sink.span(Track::Rank(0), "x", t(2), t(2), &[]);
        sink.span(Track::Rank(0), "x", t(3), t(1), &[]);
        assert!(sink.finish().expect("recording").spans.is_empty());
    }

    #[test]
    fn metrics_fold_into_snapshot() {
        let sink = ObsSink::recording();
        sink.add("reqs", 2);
        sink.add("reqs", 3);
        sink.gauge("window", 4);
        sink.gauge("window", 8);
        sink.observe("lat", 100);
        sink.observe("lat", 300);
        let m = sink.finish().expect("recording").metrics;
        assert_eq!(m.counter("reqs"), 5);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.gauges, vec![("window", 8)]);
        let h = m.histogram("lat").expect("observed");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 400);
        assert_eq!((h.min, h.max), (100, 300));
        assert!((h.mean() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_lo(0), 0);
        assert_eq!(Histogram::bucket_lo(1), 1);
        assert_eq!(Histogram::bucket_lo(3), 4);
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4] {
            h.observe(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
    }

    #[test]
    fn quantile_estimates_from_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        // 99 fast observations around 1000 ns, one slow at 1_000_000.
        for _ in 0..99 {
            h.observe(1000);
        }
        h.observe(1_000_000);
        // p50 lands in the 1000-bucket [512, 1024): upper bound 1023.
        assert_eq!(h.quantile(0.5), 1023);
        // p99 is still the 99th fast observation.
        assert_eq!(h.quantile(0.99), 1023);
        // p999 (rank 100 of 100) reaches the slow one; clamped to max.
        assert_eq!(h.quantile(0.999), 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
        // Single observation: every quantile is that observation.
        let mut one = Histogram::default();
        one.observe(7);
        assert_eq!(one.quantile(0.5), 7);
        assert_eq!(one.quantile(0.999), 7);
    }

    #[test]
    fn bucket_hi_bounds() {
        assert_eq!(Histogram::bucket_hi(0), 0);
        assert_eq!(Histogram::bucket_hi(1), 1);
        assert_eq!(Histogram::bucket_hi(3), 7);
        assert_eq!(Histogram::bucket_hi(64), u64::MAX);
    }

    #[test]
    fn clones_share_one_recording() {
        let sink = ObsSink::recording();
        let c = sink.clone();
        c.add("x", 1);
        sink.add("x", 1);
        drop(c);
        assert_eq!(sink.finish().expect("recording").metrics.counter("x"), 2);
    }
}
