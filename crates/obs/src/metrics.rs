//! Lock-free metrics: monotonic counters, gauges, fixed-bucket and
//! log-scale histograms, append-only series, and span trees behind a named
//! registry.
//!
//! Every hot-path mutation is a single relaxed atomic RMW, so instrumented
//! hot loops (sweep workers, BFS expansion) pay one uncontended atomic per
//! update and nothing else. All accumulators are **commutative**:
//! per-worker updates interleave in any order and still produce the same
//! totals, which is what keeps the sweep engine's jobs-count-invariance
//! intact — `--jobs 1` and `--jobs 8` export byte-identical snapshots
//! ([`MetricsSnapshot::to_json`] iterates `BTreeMap`s, so the rendering is
//! canonical too).
//!
//! Timing values are nanoseconds and can be enormous; every `sum`-style
//! accumulator therefore **saturates** instead of wrapping, so a pile of
//! minute-scale observations degrades to a pinned `u64::MAX` rather than a
//! silently wrong small number.
//!
//! ```
//! use cil_obs::metrics::Registry;
//!
//! let registry = Registry::new();
//! let trials = registry.counter("sweep.trials");
//! let steps = registry.histogram("sweep.steps", 1, 64);
//! let latency = registry.log_histogram("sweep.trial_ns", 5);
//! trials.inc();
//! steps.observe(12);
//! latency.observe(1_250_000);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("sweep.trials"), Some(1));
//! assert!(snap.to_json().contains("\"sweep.steps\""));
//! ```

use crate::json::{num_array, Node, ObjWriter};
use crate::span::{SpanStat, SpanTree};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Adds `v` to an atomic with saturating arithmetic.
fn saturating_fetch_add(cell: &AtomicU64, v: u64) {
    // Always returns Some, so the update never fails.
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
        Some(cur.saturating_add(v))
    });
}

/// A snapshot merge failed because the two sides disagree on a metric's
/// identity — same name, different shape or kind. Carries the offending
/// metric key so the CLI can point at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    /// The metric name both sides define incompatibly.
    pub metric: String,
    /// What differs (widths, bucket counts, sub-bucket bits, …).
    pub detail: String,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metric '{}': {}", self.metric, self.detail)
    }
}

impl std::error::Error for MergeError {}

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating).
    pub fn add(&self, n: u64) {
        saturating_fetch_add(&self.value, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can be set or raised. The merge operation is
/// `max`, which is commutative, so merged snapshots report the largest
/// value any worker observed (frontier high-water marks, peak memory, …).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if larger.
    pub fn raise(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed-width buckets `[0, w), [w, 2w), …` plus an
/// overflow bucket. With `width = 1` the first `buckets` values are counted
/// exactly — how the sweep exports the paper's decided-by-k distribution.
#[derive(Debug)]
pub struct Histogram {
    width: u64,
    counts: Vec<AtomicU64>,
    overflow: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with `buckets` buckets of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `buckets` is zero.
    pub fn linear(width: u64, buckets: usize) -> Self {
        assert!(width > 0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            width,
            counts: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation. The running sum saturates at `u64::MAX`.
    pub fn observe(&self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Records `n` observations of `v` at once: the buckets and the
    /// saturating sum end exactly as after `n` calls of
    /// [`observe`](Histogram::observe).
    pub fn observe_n(&self, v: u64, n: u64) {
        let idx = (v / self.width) as usize;
        match self.counts.get(idx) {
            Some(bucket) => bucket.fetch_add(n, Ordering::Relaxed),
            None => self.overflow.fetch_add(n, Ordering::Relaxed),
        };
        saturating_fetch_add(&self.sum, v.saturating_mul(n));
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            width: self.width,
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket width.
    pub width: u64,
    /// Count per bucket; bucket `i` covers `[i·width, (i+1)·width)`.
    pub counts: Vec<u64>,
    /// Observations past the last bucket.
    pub overflow: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }

    /// Adds another histogram's buckets in (commutative, saturating sums).
    ///
    /// # Errors
    ///
    /// Returns the shape difference if the widths or bucket counts differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> Result<(), String> {
        if self.width != other.width {
            return Err(format!(
                "histogram widths differ ({} vs {})",
                self.width, other.width
            ));
        }
        if self.counts.len() != other.counts.len() {
            return Err(format!(
                "histogram bucket counts differ ({} vs {})",
                self.counts.len(),
                other.counts.len()
            ));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.sum = self.sum.saturating_add(other.sum);
        Ok(())
    }

    fn to_json(&self) -> String {
        ObjWriter::new()
            .num("width", self.width)
            .raw("counts", &num_array(&self.counts))
            .num("overflow", self.overflow)
            .num("sum", self.sum)
            .num("count", self.count())
            .finish()
    }
}

/// A log2-bucketed histogram with `2^sub_bits` linear sub-buckets per
/// octave (HDR-histogram style): values up to `2^(sub_bits+1)` are counted
/// exactly, and every larger bucket has relative width at most
/// `2^-sub_bits`. The full `u64` range is covered — nanosecond timings
/// from single digits to minutes and beyond land in ~`(65-n)·2^n` buckets
/// (1920 for the default `sub_bits = 5`, each within 3.2% relative error).
#[derive(Debug)]
pub struct LogHistogram {
    sub_bits: u32,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// Index of the bucket containing `v` for the given sub-bucket resolution.
fn log_bucket_index(sub_bits: u32, v: u64) -> usize {
    if v < 1u64 << (sub_bits + 1) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - sub_bits;
    ((shift as usize) << sub_bits) + (v >> shift) as usize
}

/// Half-open value range `[lo, hi)` covered by bucket `index`.
fn log_bucket_bounds(sub_bits: u32, index: usize) -> (u64, u64) {
    if index < 1usize << (sub_bits + 1) {
        return (index as u64, index as u64 + 1);
    }
    let shift = (index >> sub_bits) as u32 - 1;
    let m = (index - ((shift as usize + 1) << sub_bits)) as u64 + (1u64 << sub_bits);
    let lo = m << shift;
    // The top bucket's upper bound is 2^64; pin it to u64::MAX.
    (lo, lo.saturating_add(1u64 << shift))
}

fn log_bucket_count(sub_bits: u32) -> usize {
    log_bucket_index(sub_bits, u64::MAX) + 1
}

impl LogHistogram {
    /// A log-scale histogram with `2^sub_bits` sub-buckets per octave.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= sub_bits <= 10` (beyond 10 the dense bucket
    /// array stops being "small").
    pub fn new(sub_bits: u32) -> Self {
        assert!(
            (1..=10).contains(&sub_bits),
            "sub_bits must be in 1..=10, got {sub_bits}"
        );
        LogHistogram {
            sub_bits,
            counts: (0..log_bucket_count(sub_bits))
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation. The running sum saturates at `u64::MAX`.
    pub fn observe(&self, v: u64) {
        let idx = log_bucket_index(self.sub_bits, v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.sum, v);
    }

    /// Adds a snapshot's buckets and sum in: the histogram ends exactly as
    /// if the snapshot's values had been observed here one at a time.
    ///
    /// # Errors
    ///
    /// Returns the difference, and adds nothing, if the snapshot has
    /// another sub-bucket resolution or a bucket index past this
    /// histogram's range.
    pub fn merge_snapshot(&self, snap: &LogHistogramSnapshot) -> Result<(), String> {
        if snap.sub_bits != self.sub_bits {
            return Err(format!(
                "log-histogram sub_bits differ ({} vs {})",
                self.sub_bits, snap.sub_bits
            ));
        }
        if let Some(&top) = snap.buckets.keys().next_back() {
            if top as usize >= self.counts.len() {
                return Err(format!(
                    "log-histogram bucket {top} is past the last bucket {}",
                    self.counts.len() - 1
                ));
            }
        }
        for (&idx, &c) in &snap.buckets {
            self.counts[idx as usize].fetch_add(c, Ordering::Relaxed);
        }
        saturating_fetch_add(&self.sum, snap.sum);
        Ok(())
    }

    /// A point-in-time sparse copy of the nonzero buckets.
    pub fn snapshot(&self) -> LogHistogramSnapshot {
        let mut buckets = BTreeMap::new();
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 {
                buckets.insert(i as u32, c);
            }
        }
        LogHistogramSnapshot {
            sub_bits: self.sub_bits,
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A quantile estimate from a [`LogHistogramSnapshot`]: the true quantile
/// lies in `[lo, hi)` (the containing bucket), so the bucket half-width is
/// the reported error bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantileBound {
    /// Inclusive lower bound on the quantile value.
    pub lo: u64,
    /// Exclusive upper bound on the quantile value.
    pub hi: u64,
}

impl QuantileBound {
    /// Midpoint estimate.
    pub fn mid(&self) -> u64 {
        self.lo + (self.hi - self.lo) / 2
    }

    /// Half the bucket width — the worst-case absolute error of
    /// [`mid`](QuantileBound::mid).
    pub fn err(&self) -> u64 {
        (self.hi - self.lo).div_ceil(2)
    }
}

/// Immutable sparse copy of a [`LogHistogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogramSnapshot {
    /// Sub-bucket resolution (relative bucket width ≤ `2^-sub_bits`).
    pub sub_bits: u32,
    /// Nonzero bucket counts keyed by bucket index.
    pub buckets: BTreeMap<u32, u64>,
    /// Sum of all observed values (saturating).
    pub sum: u64,
}

impl LogHistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// Half-open value range `[lo, hi)` of a bucket index.
    pub fn bucket_bounds(&self, index: u32) -> (u64, u64) {
        log_bucket_bounds(self.sub_bits, index as usize)
    }

    /// The bucket containing the `q`-quantile (`0 < q <= 1`) under the
    /// nearest-rank definition, or `None` if the histogram is empty or `q`
    /// is out of range. The true quantile of the observed values lies
    /// within the returned bounds.
    pub fn quantile(&self, q: f64) -> Option<QuantileBound> {
        let total = self.count();
        if total == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (&idx, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                let (lo, hi) = self.bucket_bounds(idx);
                return Some(QuantileBound { lo, hi });
            }
        }
        None
    }

    /// Adds another histogram's buckets in (commutative, saturating sums).
    ///
    /// # Errors
    ///
    /// Returns the shape difference if the sub-bucket resolutions differ.
    pub fn merge(&mut self, other: &LogHistogramSnapshot) -> Result<(), String> {
        if self.sub_bits != other.sub_bits {
            return Err(format!(
                "log-histogram sub_bits differ ({} vs {})",
                self.sub_bits, other.sub_bits
            ));
        }
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
        self.sum = self.sum.saturating_add(other.sum);
        Ok(())
    }

    fn to_json(&self) -> String {
        let mut buckets = ObjWriter::new();
        for (idx, c) in &self.buckets {
            buckets = buckets.num(&idx.to_string(), *c);
        }
        ObjWriter::new()
            .num("sub_bits", u64::from(self.sub_bits))
            .raw("buckets", &buckets.finish())
            .num("sum", self.sum)
            .num("count", self.count())
            .finish()
    }
}

/// An append-only series of values: one slot per step (VI sweep residuals,
/// per-level node counts). Merging is element-wise saturating addition
/// with zero-padding, which is commutative — shards that each contribute
/// disjoint portions (or identical serial prefixes) combine cleanly.
#[derive(Debug, Default)]
pub struct Series {
    values: Mutex<Vec<u64>>,
}

impl Series {
    /// Appends a value.
    pub fn push(&self, v: u64) {
        self.values.lock().expect("series poisoned").push(v);
    }

    /// Number of values recorded so far.
    pub fn len(&self) -> usize {
        self.values.lock().expect("series poisoned").len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of the values.
    pub fn snapshot(&self) -> Vec<u64> {
        self.values.lock().expect("series poisoned").clone()
    }
}

/// Element-wise saturating sum of two series, zero-padded to the longer.
fn merge_series(mine: &mut Vec<u64>, other: &[u64]) {
    if other.len() > mine.len() {
        mine.resize(other.len(), 0);
    }
    for (a, b) in mine.iter_mut().zip(other) {
        *a = a.saturating_add(*b);
    }
}

enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    LogHistogram(Arc<LogHistogram>),
    Series(Arc<Series>),
}

/// A named collection of metrics.
///
/// Registration (name lookup) takes a mutex — do it once, outside hot
/// loops — and hands back `Arc` handles whose updates are plain atomics.
#[derive(Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
    spans: Mutex<SpanTree>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter with the given name, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut slots = self.slots.lock().expect("registry poisoned");
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Arc::new(Counter::default())))
        {
            Slot::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// The gauge with the given name, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut slots = self.slots.lock().expect("registry poisoned");
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Arc::new(Gauge::default())))
        {
            Slot::Gauge(g) => Arc::clone(g),
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// The histogram with the given name, created on first use with the
    /// given shape.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, width: u64, buckets: usize) -> Arc<Histogram> {
        let mut slots = self.slots.lock().expect("registry poisoned");
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Arc::new(Histogram::linear(width, buckets))))
        {
            Slot::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// The log-scale histogram with the given name, created on first use
    /// with the given sub-bucket resolution.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn log_histogram(&self, name: &str, sub_bits: u32) -> Arc<LogHistogram> {
        let mut slots = self.slots.lock().expect("registry poisoned");
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::LogHistogram(Arc::new(LogHistogram::new(sub_bits))))
        {
            Slot::LogHistogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' is not a log histogram"),
        }
    }

    /// The series with the given name, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different metric kind.
    pub fn series(&self, name: &str) -> Arc<Series> {
        let mut slots = self.slots.lock().expect("registry poisoned");
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Series(Arc::new(Series::default())))
        {
            Slot::Series(s) => Arc::clone(s),
            _ => panic!("metric '{name}' is not a series"),
        }
    }

    /// Folds a worker's span tree into the registry's accumulated spans.
    pub fn merge_spans(&self, tree: &SpanTree) {
        self.spans.lock().expect("registry poisoned").merge(tree);
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().expect("registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Slot::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Slot::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
                Slot::LogHistogram(h) => {
                    snap.log_histograms.insert(name.clone(), h.snapshot());
                }
                Slot::Series(s) => {
                    snap.series.insert(name.clone(), s.snapshot());
                }
            }
        }
        for (path, stat) in self.spans.lock().expect("registry poisoned").iter() {
            snap.spans.insert(path.to_string(), *stat);
        }
        snap
    }
}

/// A point-in-time copy of a [`Registry`], mergeable and serializable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Log-scale histogram states by name.
    pub log_histograms: BTreeMap<String, LogHistogramSnapshot>,
    /// Series values by name.
    pub series: BTreeMap<String, Vec<u64>>,
    /// Span timing stats by slash-joined path.
    pub spans: BTreeMap<String, SpanStat>,
}

impl MetricsSnapshot {
    /// A named counter's value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A named histogram's state.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// A named log-scale histogram's state.
    pub fn log_histogram(&self, name: &str) -> Option<&LogHistogramSnapshot> {
        self.log_histograms.get(name)
    }

    /// Merges another snapshot in: counters, histograms, series and spans
    /// add, gauges take the max. Commutative and associative, mirroring
    /// how per-worker partials combine.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError`] naming the first metric present in both
    /// snapshots with incompatible shapes; `self` may have absorbed some
    /// metrics already when that happens.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<(), MergeError> {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h).map_err(|detail| MergeError {
                    metric: name.clone(),
                    detail,
                })?,
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
        for (name, h) in &other.log_histograms {
            match self.log_histograms.get_mut(name) {
                Some(mine) => mine.merge(h).map_err(|detail| MergeError {
                    metric: name.clone(),
                    detail,
                })?,
                None => {
                    self.log_histograms.insert(name.clone(), h.clone());
                }
            }
        }
        for (name, v) in &other.series {
            merge_series(self.series.entry(name.clone()).or_default(), v);
        }
        for (path, stat) in &other.spans {
            self.spans.entry(path.clone()).or_default().merge(stat);
        }
        Ok(())
    }

    /// Canonical JSON rendering: keys sorted, shape
    /// `{"counters":{…},"gauges":{…},"histograms":{…},"log_histograms":{…},"series":{…},"spans":{…}}`.
    /// Equal snapshots produce byte-identical JSON.
    pub fn to_json(&self) -> String {
        let map_json = |m: &BTreeMap<String, u64>| {
            let mut w = ObjWriter::new();
            for (k, v) in m {
                w = w.num(k, *v);
            }
            w.finish()
        };
        let mut hists = ObjWriter::new();
        for (k, h) in &self.histograms {
            hists = hists.raw(k, &h.to_json());
        }
        let mut log_hists = ObjWriter::new();
        for (k, h) in &self.log_histograms {
            log_hists = log_hists.raw(k, &h.to_json());
        }
        let mut series = ObjWriter::new();
        for (k, v) in &self.series {
            series = series.raw(k, &num_array(v));
        }
        let mut spans = ObjWriter::new();
        for (k, s) in &self.spans {
            spans = spans.raw(
                k,
                &ObjWriter::new()
                    .num("count", s.count)
                    .num("total_ns", s.total_ns)
                    .num("self_ns", s.self_ns)
                    .finish(),
            );
        }
        ObjWriter::new()
            .raw("counters", &map_json(&self.counters))
            .raw("gauges", &map_json(&self.gauges))
            .raw("histograms", &hists.finish())
            .raw("log_histograms", &log_hists.finish())
            .raw("series", &series.finish())
            .raw("spans", &spans.finish())
            .finish()
    }

    /// Reconstructs a snapshot from its canonical JSON (the inverse of
    /// [`to_json`](MetricsSnapshot::to_json)). Missing sections parse as
    /// empty, so pre-span exports still load.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed field.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let root = crate::json::parse_value(text)?;
        let root = root.as_obj().ok_or("metrics snapshot must be an object")?;
        let mut snap = MetricsSnapshot::default();

        let num_map = |node: &Node, what: &str| -> Result<BTreeMap<String, u64>, String> {
            let obj = node.as_obj().ok_or(format!("'{what}' must be an object"))?;
            obj.iter()
                .map(|(k, v)| {
                    v.as_num()
                        .map(|n| (k.clone(), n))
                        .ok_or(format!("'{what}.{k}' must be a number"))
                })
                .collect()
        };
        let get_num = |obj: &BTreeMap<String, Node>, key: &str, ctx: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Node::as_num)
                .ok_or(format!("'{ctx}' needs numeric field '{key}'"))
        };

        if let Some(node) = root.get("counters") {
            snap.counters = num_map(node, "counters")?;
        }
        if let Some(node) = root.get("gauges") {
            snap.gauges = num_map(node, "gauges")?;
        }
        if let Some(node) = root.get("histograms") {
            let obj = node.as_obj().ok_or("'histograms' must be an object")?;
            for (name, h) in obj {
                let h = h.as_obj().ok_or(format!("histogram '{name}' malformed"))?;
                let counts = h
                    .get("counts")
                    .and_then(Node::as_arr)
                    .ok_or(format!("histogram '{name}' needs 'counts'"))?
                    .iter()
                    .map(|n| n.as_num().ok_or(format!("histogram '{name}' bad count")))
                    .collect::<Result<Vec<_>, _>>()?;
                snap.histograms.insert(
                    name.clone(),
                    HistogramSnapshot {
                        width: get_num(h, "width", name)?,
                        counts,
                        overflow: get_num(h, "overflow", name)?,
                        sum: get_num(h, "sum", name)?,
                    },
                );
            }
        }
        if let Some(node) = root.get("log_histograms") {
            let obj = node.as_obj().ok_or("'log_histograms' must be an object")?;
            for (name, h) in obj {
                let h = h
                    .as_obj()
                    .ok_or(format!("log histogram '{name}' malformed"))?;
                let buckets = num_map(
                    h.get("buckets")
                        .ok_or(format!("log histogram '{name}' needs 'buckets'"))?,
                    name,
                )?
                .into_iter()
                .map(|(k, v)| {
                    k.parse::<u32>()
                        .map(|idx| (idx, v))
                        .map_err(|_| format!("log histogram '{name}' bad bucket index '{k}'"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?;
                let sub_bits = u32::try_from(get_num(h, "sub_bits", name)?)
                    .map_err(|_| format!("log histogram '{name}' bad sub_bits"))?;
                snap.log_histograms.insert(
                    name.clone(),
                    LogHistogramSnapshot {
                        sub_bits,
                        buckets,
                        sum: get_num(h, "sum", name)?,
                    },
                );
            }
        }
        if let Some(node) = root.get("series") {
            let obj = node.as_obj().ok_or("'series' must be an object")?;
            for (name, arr) in obj {
                let values = arr
                    .as_arr()
                    .ok_or(format!("series '{name}' must be an array"))?
                    .iter()
                    .map(|n| n.as_num().ok_or(format!("series '{name}' bad value")))
                    .collect::<Result<Vec<_>, _>>()?;
                snap.series.insert(name.clone(), values);
            }
        }
        if let Some(node) = root.get("spans") {
            let obj = node.as_obj().ok_or("'spans' must be an object")?;
            for (path, s) in obj {
                let s = s.as_obj().ok_or(format!("span '{path}' malformed"))?;
                snap.spans.insert(
                    path.clone(),
                    SpanStat {
                        count: get_num(s, "count", path)?,
                        total_ns: get_num(s, "total_ns", path)?,
                        self_ns: get_num(s, "self_ns", path)?,
                    },
                );
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_up_across_threads() {
        let registry = Registry::new();
        let c = registry.counter("hits");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(registry.snapshot().counter("hits"), Some(8000));
    }

    #[test]
    fn gauge_raise_keeps_max() {
        let g = Gauge::default();
        g.raise(5);
        g.raise(3);
        assert_eq!(g.get(), 5);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::linear(2, 3); // [0,2) [2,4) [4,6) + overflow
        for v in [0, 1, 2, 5, 99] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.sum, 107);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = Histogram::linear(1, 2);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.snapshot().sum, u64::MAX);

        let mut a = h.snapshot();
        let b = h.snapshot();
        a.merge(&b).unwrap();
        assert_eq!(a.sum, u64::MAX);
        assert_eq!(a.count(), 4);

        let c = Counter::default();
        c.add(u64::MAX);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn observe_n_matches_observing_one_at_a_time() {
        let bulk = Histogram::linear(2, 3);
        let single = Histogram::linear(2, 3);
        // In range, the last bucket, the overflow bucket, n = 0, and a
        // product past u64::MAX, which pins the sum.
        for (v, n) in [(0, 3), (5, 2), (6, 4), (99, 1), (3, 0), (u64::MAX / 3, 5)] {
            bulk.observe_n(v, n);
            for _ in 0..n {
                single.observe(v);
            }
        }
        assert_eq!(bulk.snapshot(), single.snapshot());
        assert_eq!(bulk.snapshot().sum, u64::MAX);

        let small = Histogram::linear(1, 8);
        small.observe_n(3, 4);
        assert_eq!(small.snapshot().sum, 12);
        assert_eq!(small.snapshot().counts[3], 4);
    }

    #[test]
    fn merge_snapshot_matches_observing_one_at_a_time() {
        let parts = [LogHistogram::new(5), LogHistogram::new(5)];
        let single = LogHistogram::new(5);
        let values = [0u64, 1, 17, 40_000, 1_000_000_000, 3, 17, 999, u64::MAX];
        for (i, &v) in values.iter().enumerate() {
            parts[i % 2].observe(v);
            single.observe(v);
        }
        let merged = LogHistogram::new(5);
        for part in &parts {
            merged.merge_snapshot(&part.snapshot()).unwrap();
        }
        assert_eq!(merged.snapshot(), single.snapshot());
        assert_eq!(merged.snapshot().sum, u64::MAX);

        let before = merged.snapshot();
        let coarser = LogHistogram::new(4);
        coarser.observe(7);
        assert!(merged
            .merge_snapshot(&coarser.snapshot())
            .unwrap_err()
            .contains("sub_bits"));
        let mut past_the_end = LogHistogram::new(5).snapshot();
        past_the_end.buckets.insert(u32::MAX, 1);
        assert!(merged
            .merge_snapshot(&past_the_end)
            .unwrap_err()
            .contains("past the last bucket"));
        assert_eq!(merged.snapshot(), before, "a refused merge adds nothing");
    }

    #[test]
    fn histogram_merge_reports_shape_mismatch() {
        let mut a = Histogram::linear(1, 2).snapshot();
        let b = Histogram::linear(2, 2).snapshot();
        let c = Histogram::linear(1, 3).snapshot();
        assert!(a.merge(&b).unwrap_err().contains("widths differ"));
        assert!(a.merge(&c).unwrap_err().contains("bucket counts differ"));
    }

    #[test]
    fn snapshot_merge_names_offending_metric() {
        let left = Registry::new();
        left.histogram("sweep.steps", 1, 4);
        let right = Registry::new();
        right.histogram("sweep.steps", 2, 4);
        let mut a = left.snapshot();
        let err = a.merge(&right.snapshot()).unwrap_err();
        assert_eq!(err.metric, "sweep.steps");
        assert!(err.to_string().contains("sweep.steps"));
    }

    #[test]
    fn log_bucket_index_is_monotone_and_bounds_invert() {
        for sub_bits in [1u32, 3, 5, 8] {
            let mut last = None;
            for v in (0..200u64).chain([1 << 20, (1 << 20) + 7, u64::MAX / 3, u64::MAX]) {
                let idx = log_bucket_index(sub_bits, v);
                let (lo, hi) = log_bucket_bounds(sub_bits, idx);
                assert!(
                    lo <= v && (v < hi || hi == u64::MAX),
                    "v={v} in [{lo},{hi})"
                );
                if let Some(prev) = last {
                    assert!(idx >= prev, "index not monotone at v={v}");
                }
                last = Some(idx);
                // Relative bucket width bound: (hi - lo) / lo <= 2^-sub_bits.
                if lo >= 1 << (sub_bits + 1) && hi != u64::MAX {
                    assert!((hi - lo) <= lo >> sub_bits);
                }
            }
        }
    }

    #[test]
    fn log_histogram_quantiles_bound_true_values() {
        let h = LogHistogram::new(5);
        for v in 1..=1000u64 {
            h.observe(v * v); // 1 .. 1_000_000
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        for (q, truth) in [(0.5, 500u64 * 500), (0.9, 900 * 900), (0.99, 990 * 990)] {
            let b = s.quantile(q).unwrap();
            assert!(
                b.lo <= truth && truth < b.hi,
                "q={q}: true {truth} not in [{}, {})",
                b.lo,
                b.hi
            );
            assert!(b.mid().abs_diff(truth) <= b.err());
        }
        assert!(s.quantile(0.0).is_none());
        assert!(s.quantile(1.5).is_none());
    }

    #[test]
    fn log_histogram_merge_matches_combined_stream() {
        let a = LogHistogram::new(4);
        let b = LogHistogram::new(4);
        let all = LogHistogram::new(4);
        for v in [0u64, 1, 17, 40_000, 1_000_000_000] {
            a.observe(v);
            all.observe(v);
        }
        for v in [3u64, 17, 999, u64::MAX] {
            b.observe(v);
            all.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot()).unwrap();
        assert_eq!(merged, all.snapshot());
        assert!(merged
            .merge(&LogHistogram::new(5).snapshot())
            .unwrap_err()
            .contains("sub_bits"));
    }

    #[test]
    fn series_merge_pads_and_adds() {
        let r = Registry::new();
        let s = r.series("vi.residual");
        s.push(10);
        s.push(4);
        let mut a = r.snapshot();
        let r2 = Registry::new();
        let s2 = r2.series("vi.residual");
        s2.push(1);
        s2.push(1);
        s2.push(1);
        a.merge(&r2.snapshot()).unwrap();
        assert_eq!(a.series["vi.residual"], vec![11, 5, 1]);
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        let make = |seed: u64| {
            let r = Registry::new();
            r.counter("c").add(seed);
            r.gauge("g").raise(seed * 3);
            r.histogram("h", 1, 4).observe(seed % 4);
            r.log_histogram("lh", 5).observe(seed * 1000);
            r.series("s").push(seed);
            r.snapshot()
        };
        let (a, b) = (make(2), make(7));
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), Some(9));
        assert_eq!(ab.gauges["g"], 21);
    }

    #[test]
    fn json_rendering_is_canonical() {
        let r = Registry::new();
        r.counter("b").inc();
        r.counter("a").add(2);
        r.histogram("h", 1, 2).observe(1);
        let json = r.snapshot().to_json();
        assert_eq!(
            json,
            r#"{"counters":{"a":2,"b":1},"gauges":{},"histograms":{"h":{"width":1,"counts":[0,1],"overflow":0,"sum":1,"count":1}},"log_histograms":{},"series":{},"spans":{}}"#
        );
    }

    #[test]
    fn json_round_trips_every_section() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.gauge("g").set(9);
        r.histogram("h", 2, 3).observe(5);
        r.log_histogram("lh", 5).observe(123_456);
        r.series("s").push(42);
        let mut tree = SpanTree::new();
        tree.add(
            "solve/sweep",
            SpanStat {
                count: 7,
                total_ns: 100,
                self_ns: 60,
            },
        );
        r.merge_spans(&tree);
        let snap = r.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        // And round-tripping is byte-stable.
        assert_eq!(parsed.to_json(), snap.to_json());
    }

    #[test]
    fn from_json_rejects_malformed_snapshots() {
        assert!(MetricsSnapshot::from_json("[1,2]").is_err());
        assert!(MetricsSnapshot::from_json(r#"{"counters":{"a":"x"}}"#).is_err());
        assert!(MetricsSnapshot::from_json(r#"{"histograms":{"h":{"width":1}}}"#).is_err());
        // Pre-span exports (three sections only) still load.
        let old = r#"{"counters":{"a":1},"gauges":{},"histograms":{}}"#;
        let snap = MetricsSnapshot::from_json(old).unwrap();
        assert_eq!(snap.counter("a"), Some(1));
        assert!(snap.spans.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }
}
