//! Property tests for the `cil-obs` metrics layer: snapshot merging must
//! be commutative and associative (the jobs-invariance contract — shard
//! order never shows in a merged export), merges must preserve counts and
//! sums, log histograms split and merged must equal the histogram of the
//! whole stream bucket for bucket, log-histogram quantile bounds must
//! contain the exact nearest-rank quantile, saturating arithmetic must
//! never wrap, and shape mismatches must surface as errors naming the
//! offending metric.

use cil_obs::{LogHistogram, MetricsSnapshot, Registry, SpanStat, SpanTree};
use proptest::prelude::*;

/// Builds a snapshot with one of everything from primitive inputs, so
/// proptest can drive the whole merge surface from plain integers.
fn build(counter: u64, gauge: u64, lat: &[u64], series: &[u64], span_ns: u64) -> MetricsSnapshot {
    let r = Registry::new();
    r.counter("ops").add(counter);
    r.gauge("peak").set(gauge);
    let h = r.histogram("decided_by_k", 1, 8);
    let lh = r.log_histogram("lat_ns", 5);
    for &v in lat {
        h.observe(v % 16);
        lh.observe(v);
    }
    let s = r.series("residual");
    for &v in series {
        s.push(v);
    }
    let mut spans = SpanTree::new();
    spans.add(
        "run",
        SpanStat {
            count: 1,
            total_ns: span_ns,
            self_ns: span_ns / 2,
        },
    );
    spans.add(
        "run/solve",
        SpanStat {
            count: 3,
            total_ns: span_ns / 2,
            self_ns: span_ns / 2,
        },
    );
    r.merge_spans(&spans);
    r.snapshot()
}

fn merged(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    out.merge(b).expect("same shapes always merge");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shard order must not show in the merged export: `a + b == b + a`
    /// byte-for-byte in canonical JSON.
    #[test]
    fn snapshot_merge_is_commutative(
        ca in 0u64..10_000, cb in 0u64..10_000,
        ga in 0u64..10_000, gb in 0u64..10_000,
        xs in proptest::collection::vec(0u64..1 << 48, 0..32),
        ys in proptest::collection::vec(0u64..1 << 48, 0..32),
        sa in proptest::collection::vec(0u64..10_000, 0..8),
        sb in proptest::collection::vec(0u64..10_000, 0..8),
        na in 0u64..1 << 32, nb in 0u64..1 << 32,
    ) {
        let a = build(ca, ga, &xs, &sa, na);
        let b = build(cb, gb, &ys, &sb, nb);
        prop_assert_eq!(merged(&a, &b).to_json(), merged(&b, &a).to_json());
    }

    /// Merging is associative, so any reduction tree over worker shards
    /// (left fold, balanced tree, whatever `--jobs` produces) agrees.
    #[test]
    fn snapshot_merge_is_associative(
        xs in proptest::collection::vec(0u64..1 << 48, 0..16),
        ys in proptest::collection::vec(0u64..1 << 48, 0..16),
        zs in proptest::collection::vec(0u64..1 << 48, 0..16),
    ) {
        let a = build(1, 5, &xs, &[1, 2], 100);
        let b = build(2, 9, &ys, &[3], 200);
        let c = build(3, 2, &zs, &[4, 5, 6], 300);
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(left.to_json(), right.to_json());
    }

    /// Merging preserves totals: observation counts add, sums add
    /// (saturating), and the canonical JSON round-trips losslessly.
    #[test]
    fn merge_preserves_counts_and_roundtrips(
        xs in proptest::collection::vec(0u64..1 << 48, 0..32),
        ys in proptest::collection::vec(0u64..1 << 48, 0..32),
    ) {
        let a = build(1, 1, &xs, &[], 10);
        let b = build(1, 1, &ys, &[], 10);
        let m = merged(&a, &b);
        let lh = m.log_histogram("lat_ns").unwrap();
        prop_assert_eq!(lh.count(), (xs.len() + ys.len()) as u64);
        let exact_sum: u64 = xs.iter().chain(&ys).fold(0, |acc, &v| acc.saturating_add(v));
        prop_assert_eq!(lh.sum, exact_sum);
        let h = m.histogram("decided_by_k").unwrap();
        prop_assert_eq!(h.count(), (xs.len() + ys.len()) as u64);
        let reparsed = MetricsSnapshot::from_json(&m.to_json()).unwrap();
        prop_assert_eq!(reparsed.to_json(), m.to_json());
    }

    /// The estimator's contract: the exact nearest-rank quantile of the
    /// observed stream lies inside the reported bucket, and the midpoint
    /// is within the reported ± error of the exact value.
    #[test]
    fn log_quantile_bounds_contain_the_exact_quantile(
        values in proptest::collection::vec(0u64..1 << 40, 1..200),
        qi in 1u32..=1000,
    ) {
        let q = f64::from(qi) / 1000.0;
        let h = LogHistogram::new(5);
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let exact = sorted[(rank - 1) as usize];
        let b = h.snapshot().quantile(q).expect("non-empty");
        prop_assert!(b.lo <= exact && exact < b.hi,
            "exact {} outside [{}, {})", exact, b.lo, b.hi);
        prop_assert!(b.mid().abs_diff(exact) <= b.err(),
            "mid {} ± {} misses exact {}", b.mid(), b.err(), exact);
    }

    /// One stream split across up to four histograms (as serve shards
    /// split their instances) and merged in any order is, bucket for bucket
    /// and in its saturating sum, the histogram of the whole stream.
    #[test]
    fn split_histograms_merge_to_the_whole_stream(
        draws in proptest::collection::vec((any::<u64>(), 0u32..64, 0usize..4), 0..200),
        parts in 1usize..=4,
        order_keys in proptest::collection::vec(any::<u64>(), 4..5),
    ) {
        let whole = LogHistogram::new(5);
        let split: Vec<LogHistogram> = (0..parts).map(|_| LogHistogram::new(5)).collect();
        for &(raw, shift, part) in &draws {
            // Log-uniform magnitudes: small values, and sums that saturate.
            let v = raw >> shift;
            whole.observe(v);
            split[part % parts].observe(v);
        }
        let mut order: Vec<usize> = (0..parts).collect();
        order.sort_by_key(|&i| order_keys[i]);
        let mut merged = LogHistogram::new(5).snapshot();
        for i in order {
            merged.merge(&split[i].snapshot()).unwrap();
        }
        prop_assert_eq!(merged, whole.snapshot());
    }
}

/// Regression for the wrapping-add bug: counters and histogram sums near
/// `u64::MAX` must pin at the ceiling, including across merges.
#[test]
fn sums_saturate_instead_of_wrapping() {
    let r = Registry::new();
    let c = r.counter("c");
    c.add(u64::MAX - 1);
    c.add(5);
    assert_eq!(c.get(), u64::MAX);
    let lh = r.log_histogram("lh", 5);
    lh.observe(u64::MAX);
    lh.observe(u64::MAX);
    assert_eq!(lh.snapshot().sum, u64::MAX);
    let h = r.histogram("h", 1, 4);
    h.observe(u64::MAX);
    h.observe(u64::MAX);
    assert_eq!(h.snapshot().sum, u64::MAX);
    let mut a = r.snapshot();
    let b = r.snapshot();
    a.merge(&b).unwrap();
    assert_eq!(a.counter("c"), Some(u64::MAX));
    assert_eq!(a.log_histogram("lh").unwrap().sum, u64::MAX);
    assert_eq!(a.histogram("h").unwrap().sum, u64::MAX);
}

/// Shape mismatches are errors naming the offending metric, not panics —
/// the CLI turns these into exit-2 usage failures.
#[test]
fn merge_mismatch_names_the_offending_metric() {
    let ra = Registry::new();
    ra.log_histogram("lat_ns", 5).observe(1);
    let rb = Registry::new();
    rb.log_histogram("lat_ns", 6).observe(1);
    let err = ra.snapshot().merge(&rb.snapshot()).unwrap_err();
    assert_eq!(err.metric, "lat_ns");
    assert!(err.to_string().contains("lat_ns"), "{err}");
    assert!(err.to_string().contains("sub_bits"), "{err}");

    let rc = Registry::new();
    rc.histogram("decided", 1, 4).observe(0);
    let rd = Registry::new();
    rd.histogram("decided", 2, 4).observe(0);
    let err = rc.snapshot().merge(&rd.snapshot()).unwrap_err();
    assert_eq!(err.metric, "decided");
    assert!(err.to_string().contains("width"), "{err}");
}
