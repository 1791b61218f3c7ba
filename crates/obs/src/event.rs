//! Structured run events and pluggable sinks.
//!
//! Every instrumented engine (the serialized executor, the trial sweep, the
//! BFS explorer) reports what it does as a stream of typed [`RunEvent`]s:
//! span begin/end, one event per step taken (with the register operation
//! and the value read or written), coin flips, decisions, and safety
//! violations. Events serialize to **JSONL** — one flat, deterministic JSON
//! object per line — and parse back, so a captured stream
//! ([`Capture`](crate::Capture)) is a replayable, diffable artifact: `cil
//! replay` re-executes a capture's schedule and compares the regenerated
//! lines byte for byte.
//!
//! Sinks are deliberately dumb: [`EventSink::emit`] takes a fully-formed
//! event and does whatever I/O it wants. Instrumentation is an
//! `Option<&mut dyn EventSink>` at every call site, so a disabled stream
//! costs one branch per step and no formatting.

use crate::json::{parse_value, Node, ObjWriter};

/// Which register operation a step performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An atomic register read.
    Read,
    /// An atomic register write.
    Write,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
        }
    }
}

/// Where in a step a coin was flipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinStage {
    /// While choosing the step's operation.
    Choose,
    /// While choosing the successor state.
    Transit,
}

impl CoinStage {
    fn name(self) -> &'static str {
        match self {
            CoinStage::Choose => "choose",
            CoinStage::Transit => "transit",
        }
    }
}

/// One structured observation from an instrumented engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunEvent {
    /// A unit of work began (a run, a sweep, a BFS level, …).
    SpanBegin {
        /// Span name, e.g. `"run"`.
        name: String,
        /// Free-form context, e.g. the protocol name.
        detail: String,
    },
    /// The matching unit of work finished.
    SpanEnd {
        /// Span name.
        name: String,
        /// Free-form outcome, e.g. the halt reason.
        detail: String,
    },
    /// One step: a register operation taken by a processor.
    Step {
        /// Global step index (0-based).
        index: u64,
        /// Processor that took the step.
        pid: usize,
        /// Read or write.
        op: OpKind,
        /// Register id.
        reg: usize,
        /// Value written, or value read, as the register type's `Debug`
        /// rendering.
        value: String,
    },
    /// A probabilistic branch was sampled.
    CoinFlip {
        /// Step index at which the flip happened.
        index: u64,
        /// Flipping processor.
        pid: usize,
        /// Operation choice or state transition.
        stage: CoinStage,
        /// Number of weighted branches.
        branches: usize,
    },
    /// A processor decided (irrevocably).
    Decision {
        /// Step index of the deciding step.
        index: u64,
        /// Deciding processor.
        pid: usize,
        /// The decided value (`Val`'s integer encoding).
        value: u64,
    },
    /// A safety property failed.
    Violation {
        /// Trial index / step index, context-dependent.
        index: u64,
        /// Violation kind (e.g. `"inconsistent"`).
        kind: String,
        /// Free-form description.
        detail: String,
    },
    /// A controlled native scheduler granted a thread its next step
    /// (emitted by `cil-conc` before the corresponding [`RunEvent::Step`]).
    Grant {
        /// Global step index the grant is for (matches the step's index).
        index: u64,
        /// Thread (processor) granted the step.
        pid: usize,
        /// Number of runnable threads the strategy chose among.
        runnable: usize,
    },
}

impl RunEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            RunEvent::SpanBegin { name, detail } => ObjWriter::new()
                .str("type", "span_begin")
                .str("name", name)
                .str("detail", detail)
                .finish(),
            RunEvent::SpanEnd { name, detail } => ObjWriter::new()
                .str("type", "span_end")
                .str("name", name)
                .str("detail", detail)
                .finish(),
            RunEvent::Step {
                index,
                pid,
                op,
                reg,
                value,
            } => ObjWriter::new()
                .str("type", "step")
                .num("index", *index)
                .num("pid", *pid as u64)
                .str("op", op.name())
                .num("reg", *reg as u64)
                .str("value", value)
                .finish(),
            RunEvent::CoinFlip {
                index,
                pid,
                stage,
                branches,
            } => ObjWriter::new()
                .str("type", "coin_flip")
                .num("index", *index)
                .num("pid", *pid as u64)
                .str("stage", stage.name())
                .num("branches", *branches as u64)
                .finish(),
            RunEvent::Decision { index, pid, value } => ObjWriter::new()
                .str("type", "decision")
                .num("index", *index)
                .num("pid", *pid as u64)
                .num("value", *value)
                .finish(),
            RunEvent::Violation {
                index,
                kind,
                detail,
            } => ObjWriter::new()
                .str("type", "violation")
                .num("index", *index)
                .str("kind", kind)
                .str("detail", detail)
                .finish(),
            RunEvent::Grant {
                index,
                pid,
                runnable,
            } => ObjWriter::new()
                .str("type", "grant")
                .num("index", *index)
                .num("pid", *pid as u64)
                .num("runnable", *runnable as u64)
                .finish(),
        }
    }

    /// Parses one JSON line produced by [`RunEvent::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message if the line is not one JSON object, has an
    /// unknown `type`, or is missing a field.
    pub fn from_json(line: &str) -> Result<RunEvent, String> {
        let Node::Obj(map) = parse_value(line)? else {
            return Err(format!("not a JSON object: {line}"));
        };
        let str_of = |key: &str| -> Result<String, String> {
            map.get(key)
                .and_then(Node::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}' in {line}"))
        };
        let num_of = |key: &str| -> Result<u64, String> {
            map.get(key)
                .and_then(Node::as_num)
                .ok_or_else(|| format!("missing numeric field '{key}' in {line}"))
        };
        match str_of("type")?.as_str() {
            "span_begin" => Ok(RunEvent::SpanBegin {
                name: str_of("name")?,
                detail: str_of("detail")?,
            }),
            "span_end" => Ok(RunEvent::SpanEnd {
                name: str_of("name")?,
                detail: str_of("detail")?,
            }),
            "step" => Ok(RunEvent::Step {
                index: num_of("index")?,
                pid: num_of("pid")? as usize,
                op: match str_of("op")?.as_str() {
                    "read" => OpKind::Read,
                    "write" => OpKind::Write,
                    other => return Err(format!("unknown op '{other}'")),
                },
                reg: num_of("reg")? as usize,
                value: str_of("value")?,
            }),
            "coin_flip" => Ok(RunEvent::CoinFlip {
                index: num_of("index")?,
                pid: num_of("pid")? as usize,
                stage: match str_of("stage")?.as_str() {
                    "choose" => CoinStage::Choose,
                    "transit" => CoinStage::Transit,
                    other => return Err(format!("unknown coin stage '{other}'")),
                },
                branches: num_of("branches")? as usize,
            }),
            "decision" => Ok(RunEvent::Decision {
                index: num_of("index")?,
                pid: num_of("pid")? as usize,
                value: num_of("value")?,
            }),
            "violation" => Ok(RunEvent::Violation {
                index: num_of("index")?,
                kind: str_of("kind")?,
                detail: str_of("detail")?,
            }),
            "grant" => Ok(RunEvent::Grant {
                index: num_of("index")?,
                pid: num_of("pid")? as usize,
                runnable: num_of("runnable")? as usize,
            }),
            other => Err(format!("unknown event type '{other}'")),
        }
    }
}

/// Where events go. Implementations decide the encoding and the I/O.
pub trait EventSink {
    /// Consumes one event.
    fn emit(&mut self, event: &RunEvent);
}

/// A sink that keeps events in memory (tests, programmatic consumers).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Events in emission order.
    pub events: Vec<RunEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }
}

impl EventSink for MemorySink {
    fn emit(&mut self, event: &RunEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<RunEvent> {
        vec![
            RunEvent::SpanBegin {
                name: "run".into(),
                detail: "TwoProcessor".into(),
            },
            RunEvent::Step {
                index: 0,
                pid: 1,
                op: OpKind::Write,
                reg: 1,
                value: "Some(Val(7))".into(),
            },
            RunEvent::CoinFlip {
                index: 1,
                pid: 0,
                stage: CoinStage::Transit,
                branches: 2,
            },
            RunEvent::Decision {
                index: 5,
                pid: 0,
                value: 1,
            },
            RunEvent::Violation {
                index: 3,
                kind: "inconsistent".into(),
                detail: "values {a, b}".into(),
            },
            RunEvent::Grant {
                index: 4,
                pid: 1,
                runnable: 2,
            },
            RunEvent::SpanEnd {
                name: "run".into(),
                detail: "Done".into(),
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_json() {
        for e in samples() {
            let line = e.to_json();
            let back = RunEvent::from_json(&line).unwrap();
            assert_eq!(back, e, "{line}");
        }
    }

    /// The JSONL writer is the capture writer: one line per event after
    /// the meta record.
    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let capture = crate::Capture {
            protocol: "two".into(),
            inputs: "a,b".into(),
            seed: 0,
            mode: crate::CaptureMode::Sim {
                max_steps: 1,
                adversary: "random".into(),
            },
            events: samples(),
        };
        let text = capture.render();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines.len(), samples().len());
        assert!(lines.iter().all(|l| l.starts_with("{\"type\":\"")));
    }

    #[test]
    fn memory_sink_keeps_order() {
        let mut sink = MemorySink::new();
        for e in samples() {
            sink.emit(&e);
        }
        assert_eq!(sink.events, samples());
    }

    #[test]
    fn from_json_rejects_unknown_types() {
        assert!(RunEvent::from_json(r#"{"type":"warp"}"#).is_err());
        assert!(RunEvent::from_json(r#"{"type":"step","index":1}"#).is_err());
    }
}
