//! # cil-obs — observability for the CIL reproduction
//!
//! The engines in this workspace (the serialized executor, the parallel
//! Monte-Carlo sweep, the BFS model checker) validate the paper's
//! quantitative claims with millions of runs; this crate makes those
//! engines observable without perturbing them:
//!
//! * [`metrics`] — a lock-free registry of monotonic counters, gauges,
//!   fixed-bucket and log-scale histograms, append-only series, and span
//!   timing stats. Updates are single relaxed atomics and merge
//!   commutatively, preserving the sweep engine's jobs-count-invariance;
//!   snapshots render as canonical JSON ([`MetricsSnapshot::to_json`]) and
//!   parse back with [`MetricsSnapshot::from_json`].
//! * [`span`] — hierarchical wall-clock timing: [`SpanTimer`] guards fold
//!   per-phase totals (with child-exclusive self time) into a mergeable
//!   [`SpanTree`], with a zero-cost disabled mode and a deterministic tick
//!   clock for reproducibility tests.
//! * [`export`] — OpenMetrics/Prometheus text-format rendering of a
//!   snapshot ([`export::to_openmetrics`]), byte-deterministic like the
//!   JSON export.
//! * [`event`] — structured, typed run events (span begin/end, step taken,
//!   register read/write, coin flip, decision, violation) serialized as
//!   JSONL through a pluggable [`EventSink`].
//! * [`capture`] — the `--trace-json` format: a meta record and the event
//!   stream ([`Capture`]), enough to replay a run exactly and verify the
//!   replay byte for byte.
//! * [`progress`] — live progress: a throttled trials/sec + ETA ticker
//!   ([`ProgressMeter`]) and a per-BFS-level frontier/dedup reporter
//!   ([`LevelReporter`]), both rendering to stderr only.
//!
//! Everything is dependency-free and instrumentation is always an
//! `Option`: a disabled sink, meter, or timer costs one branch on the hot
//! path (verified by `cil-bench`'s `obs` benchmark).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod span;

pub use capture::{Capture, CaptureMode};
pub use event::{CoinStage, EventSink, MemorySink, OpKind, RunEvent};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, LogHistogram, LogHistogramSnapshot, MergeError,
    MetricsSnapshot, QuantileBound, Registry, Series,
};
pub use progress::{LevelReporter, ProgressMeter};
pub use span::{SpanGuard, SpanStat, SpanTimer, SpanTree};
