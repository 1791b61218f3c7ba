//! Happens-before auditing of captured `cil-obs` event streams.
//!
//! The paper's §2 argument serializes any execution: atomic registers mean
//! every overlapping set of operations is equivalent to some total order,
//! so an execution is a sequence of single register operations at distinct
//! instants. A captured JSONL stream *claims* to be such a serialization.
//! [`TraceAuditor`] checks the claim against a protocol's declared register
//! structure:
//!
//! - every `step` names a declared register, writes come from the declared
//!   writer and reads stay inside the reader set (§2 access sets);
//! - every read returns the register's **current** value under the claimed
//!   order — the initial contents before any write, then exactly the last
//!   written value. A read of an older value is a *stale read* (the claimed
//!   serialization is not one of an atomic register); a read of a value the
//!   register never held is a *phantom read*;
//! - decisions are irrevocable: one per processor, never contradicted, and
//!   no processor steps after deciding (Theorem 6 precondition);
//! - step indices are strictly increasing (distinct instants).
//!
//! Alongside the checks the auditor assembles **vector clocks**: a write
//! stamps the register with the writer's clock, a read joins the register's
//! stamp into the reader's clock. The resulting clocks witness the
//! happens-before partial order that the serialization embeds, and are
//! reported per processor for cross-run comparison.
//!
//! Values are compared as the `Debug` strings the executor emits — the
//! stream is byte-for-byte deterministic, so string equality is value
//! equality.

use cil_obs::{OpKind, RunEvent};
use cil_sim::Protocol;
use std::fmt;

/// The declared shape of one register, stripped to what a trace audit
/// needs (values travel as `Debug` strings in event streams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegMeta {
    /// Register name (diagnostics).
    pub name: String,
    /// The only processor allowed to write.
    pub writer: usize,
    /// Allowed readers; `None` means every processor.
    pub readers: Option<Vec<usize>>,
    /// `Debug` rendering of the initial contents.
    pub init: String,
}

/// Extracts [`RegMeta`] for every register of a protocol.
pub fn reg_meta<P: Protocol>(protocol: &P) -> Vec<RegMeta> {
    protocol
        .registers()
        .iter()
        .map(|s| RegMeta {
            name: s.name.clone(),
            writer: s.writer.0,
            readers: match &s.readers {
                cil_registers::ReaderSet::All => None,
                cil_registers::ReaderSet::Only(pids) => Some(pids.iter().map(|p| p.0).collect()),
            },
            init: format!("{:?}", s.init),
        })
        .collect()
}

/// One anomaly found in a captured stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAnomaly {
    /// Step index of the offending event.
    pub index: u64,
    /// Stable anomaly kind: `stale-read`, `phantom-read`,
    /// `unauthorized-read`, `unauthorized-write`, `unknown-register`,
    /// `decision-change`, `step-after-decision`, `non-monotonic-index`.
    pub kind: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for TraceAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] step {}: {}", self.kind, self.index, self.detail)
    }
}

/// Result of auditing one event stream.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Step events examined.
    pub steps: u64,
    /// Reads that matched the serialized register contents exactly.
    pub clean_reads: u64,
    /// Decisions observed (pid, value) in stream order.
    pub decisions: Vec<(usize, u64)>,
    /// Final vector clock of every processor (index = pid). Entry `c[q]`
    /// of processor `p`'s clock counts the steps of `q` that
    /// happened-before `p`'s last step.
    pub clocks: Vec<Vec<u64>>,
    /// Every anomaly, in stream order.
    pub anomalies: Vec<TraceAnomaly>,
}

impl TraceReport {
    /// Whether the stream is a valid serialization with no anomalies.
    pub fn ok(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Renders the report for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("trace audit: {} steps\n", self.steps));
        out.push_str(&format!("  clean reads: {}\n", self.clean_reads));
        out.push_str(&format!("  decisions:   {}\n", self.decisions.len()));
        for (pid, clock) in self.clocks.iter().enumerate() {
            out.push_str(&format!("  clock P{pid}:    {clock:?}\n"));
        }
        for a in &self.anomalies {
            out.push_str(&format!("  anomaly: {a}\n"));
        }
        if self.ok() {
            out.push_str("result: PASS (serializable as atomic register operations)\n");
        } else {
            out.push_str(&format!(
                "result: FAIL ({} anomal{})\n",
                self.anomalies.len(),
                if self.anomalies.len() == 1 {
                    "y"
                } else {
                    "ies"
                }
            ));
        }
        out
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Per-register audit state: the serialized contents plus every value the
/// register ever held (to tell stale from phantom reads).
struct RegState {
    current: String,
    history: Vec<String>,
    clock: Vec<u64>,
}

/// The happens-before auditor. Build from a protocol's [`reg_meta`] and the
/// processor count, then [`audit`](TraceAuditor::audit) captured streams.
pub struct TraceAuditor {
    processes: usize,
    regs: Vec<RegMeta>,
}

impl TraceAuditor {
    /// A new auditor for `processes` processors over the given registers.
    pub fn new(processes: usize, regs: Vec<RegMeta>) -> Self {
        TraceAuditor { processes, regs }
    }

    /// Convenience: builds the auditor straight from a protocol.
    pub fn for_protocol<P: Protocol>(protocol: &P) -> Self {
        TraceAuditor::new(protocol.processes(), reg_meta(protocol))
    }

    /// Audits one event stream (the order of the slice is the claimed
    /// serialization).
    pub fn audit(&self, events: &[RunEvent]) -> TraceReport {
        let n = self.processes;
        let mut report = TraceReport {
            steps: 0,
            clean_reads: 0,
            decisions: Vec::new(),
            clocks: vec![vec![0; n]; n],
            anomalies: Vec::new(),
        };
        let mut regs: Vec<RegState> = self
            .regs
            .iter()
            .map(|m| RegState {
                current: m.init.clone(),
                history: vec![m.init.clone()],
                clock: vec![0; n],
            })
            .collect();
        let mut decided: Vec<Option<u64>> = vec![None; n];
        let mut last_index: Option<u64> = None;

        for event in events {
            match event {
                RunEvent::Step {
                    index,
                    pid,
                    op,
                    reg,
                    value,
                } => {
                    report.steps += 1;
                    if let Some(last) = last_index {
                        if *index <= last {
                            report.anomalies.push(TraceAnomaly {
                                index: *index,
                                kind: "non-monotonic-index",
                                detail: format!(
                                    "step index {index} does not advance past {last}; \
                                     serialized operations occur at distinct instants"
                                ),
                            });
                        }
                    }
                    last_index = Some(*index);
                    let pid = *pid;
                    if pid >= n {
                        report.anomalies.push(TraceAnomaly {
                            index: *index,
                            kind: "unknown-register",
                            detail: format!("step by undeclared processor P{pid}"),
                        });
                        continue;
                    }
                    if let Some(d) = decided[pid] {
                        report.anomalies.push(TraceAnomaly {
                            index: *index,
                            kind: "step-after-decision",
                            detail: format!(
                                "P{pid} takes a step after deciding v{d}; \
                                 the paper's processors decide and quit"
                            ),
                        });
                    }
                    let Some(meta) = self.regs.get(*reg) else {
                        report.anomalies.push(TraceAnomaly {
                            index: *index,
                            kind: "unknown-register",
                            detail: format!("step targets undeclared register r{reg}"),
                        });
                        continue;
                    };
                    let state = &mut regs[*reg];
                    // Tick the actor's own clock component: one entry per
                    // step, so clocks count steps in happens-before order.
                    report.clocks[pid][pid] += 1;
                    match op {
                        OpKind::Write => {
                            if meta.writer != pid {
                                report.anomalies.push(TraceAnomaly {
                                    index: *index,
                                    kind: "unauthorized-write",
                                    detail: format!(
                                        "P{pid} writes {} but its declared writer is P{}",
                                        meta.name, meta.writer
                                    ),
                                });
                            }
                            state.current = value.clone();
                            state.history.push(value.clone());
                            state.clock = report.clocks[pid].clone();
                        }
                        OpKind::Read => {
                            if let Some(allowed) = &meta.readers {
                                if !allowed.contains(&pid) {
                                    report.anomalies.push(TraceAnomaly {
                                        index: *index,
                                        kind: "unauthorized-read",
                                        detail: format!(
                                            "P{pid} reads {} outside its declared reader \
                                             set {allowed:?}",
                                            meta.name
                                        ),
                                    });
                                }
                            }
                            if *value == state.current {
                                report.clean_reads += 1;
                                // Join: the write (and everything before
                                // it) happened-before this read.
                                let clock = state.clock.clone();
                                for (mine, theirs) in report.clocks[pid].iter_mut().zip(&clock) {
                                    *mine = (*mine).max(*theirs);
                                }
                            } else if state.history.contains(value) {
                                report.anomalies.push(TraceAnomaly {
                                    index: *index,
                                    kind: "stale-read",
                                    detail: format!(
                                        "P{pid} read {value} from {} but the last \
                                         serialized write left {}; not a serialization \
                                         of an atomic register",
                                        meta.name, state.current
                                    ),
                                });
                            } else {
                                report.anomalies.push(TraceAnomaly {
                                    index: *index,
                                    kind: "phantom-read",
                                    detail: format!(
                                        "P{pid} read {value} from {} but the register \
                                         never held that value",
                                        meta.name
                                    ),
                                });
                            }
                        }
                    }
                }
                RunEvent::Decision { index, pid, value } => {
                    if *pid >= n {
                        continue;
                    }
                    match decided[*pid] {
                        Some(prev) if prev != *value => {
                            report.anomalies.push(TraceAnomaly {
                                index: *index,
                                kind: "decision-change",
                                detail: format!(
                                    "P{pid} decided v{prev} and later v{value}; \
                                     decisions are irrevocable (Theorem 6)"
                                ),
                            });
                        }
                        Some(_) => {}
                        None => {
                            decided[*pid] = Some(*value);
                            report.decisions.push((*pid, *value));
                        }
                    }
                }
                RunEvent::Violation {
                    index,
                    kind,
                    detail,
                } => {
                    report.anomalies.push(TraceAnomaly {
                        index: *index,
                        kind: "reported-violation",
                        detail: format!("stream itself reports '{kind}': {detail}"),
                    });
                }
                RunEvent::SpanBegin { .. }
                | RunEvent::SpanEnd { .. }
                | RunEvent::CoinFlip { .. }
                | RunEvent::Grant { .. } => {}
            }
        }

        // Agreement across decided processors (consistency, Theorem 6).
        let mut first: Option<(usize, u64)> = None;
        for &(pid, value) in &report.decisions {
            match first {
                None => first = Some((pid, value)),
                Some((p0, v0)) if v0 != value => {
                    report.anomalies.push(TraceAnomaly {
                        index: last_index.unwrap_or(0),
                        kind: "decision-change",
                        detail: format!(
                            "P{p0} decided v{v0} but P{pid} decided v{value}; \
                             consistency requires agreement"
                        ),
                    });
                }
                _ => {}
            }
        }
        report
    }
}
