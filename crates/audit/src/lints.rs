//! Dataflow lints over the static footprint graph.
//!
//! Where the walker ([`crate::walker`]) rejects protocols that *violate* the
//! paper's §2 model, the lints flag protocols that are *wasteful or
//! suspicious* while still compliant: dead writes, registers nobody reads,
//! states that can never decide, declared register widths wider than any
//! reachable value, and coins whose branches are indistinguishable. Each
//! lint is a pass over the captured per-processor graphs and the converged
//! register alphabets ([`crate::footprint`]).
//!
//! Soundness of the absence lints (dead-write, never-read,
//! unreachable-state, width-waste) relies on the walk's over-approximation:
//! the captured graph has a superset of the real edges and the alphabets a
//! superset of the real register contents, so "no read edge exists in the
//! over-approximated graph" implies no real schedule performs one, and "no
//! path to a decided node exists" implies the state is truly stuck. These
//! lints are therefore only emitted when coverage is complete; a bounded
//! walk records a note instead.

use crate::footprint::{capture, table_from, Capture, FootprintTable};
use crate::walker::Auditor;
use cil_obs::json::ObjWriter;
use cil_sim::Protocol;
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// Stable identifier of one lint pass (the CI-facing diagnostic code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// A state writes a register that no reachable state of any processor
    /// ever reads: the written value is unobservable.
    DeadWrite,
    /// A declared register is never read by any reachable state of any
    /// processor.
    NeverRead,
    /// A reachable, undecided state from which no decided state is
    /// reachable: the processor is statically stuck (wait-freedom is
    /// unattainable from there, let alone the paper's expected constant
    /// time).
    UnreachableState,
    /// A register's declared `width_bits` exceeds what the reachable value
    /// alphabet needs — the Theorem 6 claim is about *bounded* registers,
    /// and unused width overstates the bound the protocol actually achieves.
    WidthWaste,
    /// A `choose` coin with two branches performing the identical
    /// operation: the randomization is fictitious (the adversary sees the
    /// same access either way).
    DeadCoin,
}

impl LintCode {
    /// Every lint, in report order.
    pub fn all() -> [LintCode; 5] {
        [
            LintCode::DeadWrite,
            LintCode::NeverRead,
            LintCode::UnreachableState,
            LintCode::WidthWaste,
            LintCode::DeadCoin,
        ]
    }

    /// Stable diagnostic code.
    pub fn key(self) -> &'static str {
        match self {
            LintCode::DeadWrite => "dead-write",
            LintCode::NeverRead => "never-read",
            LintCode::UnreachableState => "unreachable-state",
            LintCode::WidthWaste => "width-waste",
            LintCode::DeadCoin => "dead-coin",
        }
    }

    /// One-line description for `cil lint --help`-style listings.
    pub fn describe(self) -> &'static str {
        match self {
            LintCode::DeadWrite => "a written value no observable path ever reads",
            LintCode::NeverRead => "a declared register nobody reads",
            LintCode::UnreachableState => "a reachable state that can never decide",
            LintCode::WidthWaste => "declared width exceeds the reachable value range",
            LintCode::DeadCoin => "coin branches performing the identical operation",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One lint finding, in the diagnostic style of
/// [`Violation`](crate::Violation): code, processor, state, detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Which lint fired.
    pub code: LintCode,
    /// The processor the finding concerns.
    pub pid: usize,
    /// The state (`Debug` rendering), or `-` for register-level findings.
    pub state: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] P{} at state {}: {}",
            self.code, self.pid, self.state, self.detail
        )
    }
}

/// Outcome of running every lint pass over one protocol.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Protocol name.
    pub protocol: String,
    /// Number of processors.
    pub processes: usize,
    /// Number of declared registers.
    pub registers: usize,
    /// Total states captured across processors.
    pub states: usize,
    /// Whether the capture covered the whole reachable graph (absence
    /// lints are suppressed otherwise).
    pub complete: bool,
    /// Every finding, report order (by lint, then discovery order).
    pub findings: Vec<LintFinding>,
    /// Non-fatal observations (skipped passes and why).
    pub notes: Vec<String>,
}

impl LintReport {
    /// Whether no lint fired.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report in a stable human-readable format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("lint: {}\n", self.protocol));
        out.push_str(&format!("  processes: {}\n", self.processes));
        out.push_str(&format!("  registers: {}\n", self.registers));
        out.push_str(&format!("  states:    {}\n", self.states));
        out.push_str(&format!(
            "  coverage:  {}\n",
            if self.complete { "complete" } else { "bounded" }
        ));
        out.push_str(
            "  passes:    dead-write never-read unreachable-state width-waste dead-coin\n",
        );
        for note in &self.notes {
            out.push_str(&format!("  note:      {note}\n"));
        }
        for finding in &self.findings {
            out.push_str(&format!("  finding:   {finding}\n"));
        }
        if self.ok() {
            out.push_str("result: CLEAN\n");
        } else {
            out.push_str(&format!(
                "result: FINDINGS ({} lint{})\n",
                self.findings.len(),
                if self.findings.len() == 1 { "" } else { "s" }
            ));
        }
        out
    }

    /// Serializes the report as one JSON object (stable field order).
    pub fn to_json(&self) -> String {
        let mut findings = String::from("[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                findings.push(',');
            }
            findings.push_str(
                &ObjWriter::new()
                    .str("code", f.code.key())
                    .num("pid", f.pid as u64)
                    .str("state", &f.state)
                    .str("detail", &f.detail)
                    .finish(),
            );
        }
        findings.push(']');
        let mut notes = String::from("[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                notes.push(',');
            }
            notes.push('"');
            notes.push_str(&cil_obs::json::escape(n));
            notes.push('"');
        }
        notes.push(']');
        ObjWriter::new()
            .str("lint", &self.protocol)
            .num("processes", self.processes as u64)
            .num("registers", self.registers as u64)
            .num("states", self.states as u64)
            .num("complete", u64::from(self.complete))
            .raw("findings", &findings)
            .raw("notes", &notes)
            .finish()
    }

    /// The distinct lint codes that fired.
    pub fn fired(&self) -> BTreeSet<LintCode> {
        self.findings.iter().map(|f| f.code).collect()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Runs every lint pass over `auditor`'s protocol (same inputs, budgets and
/// packer as the audit itself). Returns the report together with the
/// footprint table the passes were computed from, so callers (the CLI, the
/// DPOR bridge) don't re-walk.
pub fn lint_with_footprints<P: Protocol>(auditor: &Auditor<'_, P>) -> (LintReport, FootprintTable) {
    let cap = capture(auditor);
    let table = table_from(auditor.protocol, &cap);
    let report = lint_capture(auditor, &cap);
    (report, table)
}

/// Runs every lint pass over `auditor`'s protocol.
pub fn lint<P: Protocol>(auditor: &Auditor<'_, P>) -> LintReport {
    let cap = capture(auditor);
    lint_capture(auditor, &cap)
}

fn lint_capture<P: Protocol>(auditor: &Auditor<'_, P>, cap: &Capture<P>) -> LintReport {
    let protocol = auditor.protocol;
    let specs = protocol.registers();
    let mut report = LintReport {
        protocol: protocol.name(),
        processes: protocol.processes(),
        registers: specs.len(),
        states: cap.graphs.iter().map(|g| g.nodes.len()).sum(),
        complete: cap.complete,
        findings: Vec::new(),
        notes: Vec::new(),
    };

    // Registers read / written anywhere in any processor's captured graph,
    // plus the write sites for the dead-write report.
    let mut read_regs: HashSet<usize> = HashSet::new();
    let mut write_sites: Vec<(usize, String, usize)> = Vec::new(); // (pid, state, reg)
    let mut written_regs: HashSet<usize> = HashSet::new();
    for (pid, graph) in cap.graphs.iter().enumerate() {
        for node in &graph.nodes {
            for branch in &node.branches {
                if branch.access.write {
                    written_regs.insert(branch.access.reg);
                    let site = (pid, node.key.clone(), branch.access.reg);
                    if !write_sites.contains(&site) {
                        write_sites.push(site);
                    }
                } else {
                    read_regs.insert(branch.access.reg);
                }
            }
        }
    }

    if cap.complete {
        // dead-write: a write to a register with no read edge anywhere.
        for (pid, state, reg) in &write_sites {
            if !read_regs.contains(reg) {
                let name = specs
                    .iter()
                    .find(|s| s.id.0 == *reg)
                    .map_or_else(|| format!("r{reg}"), |s| s.name.clone());
                report.findings.push(LintFinding {
                    code: LintCode::DeadWrite,
                    pid: *pid,
                    state: state.clone(),
                    detail: format!(
                        "writes {name} but no reachable state of any processor reads it; \
                         the value is unobservable"
                    ),
                });
            }
        }
        // never-read: a declared register with no read edge anywhere.
        for spec in &specs {
            if !read_regs.contains(&spec.id.0) {
                let wrote = if written_regs.contains(&spec.id.0) {
                    "written but"
                } else {
                    "neither written nor"
                };
                report.findings.push(LintFinding {
                    code: LintCode::NeverRead,
                    pid: spec.writer.0,
                    state: "-".into(),
                    detail: format!(
                        "register {} is {wrote} never read by any reachable state \
                         (declared readers: {:?})",
                        spec.name, spec.readers
                    ),
                });
            }
        }
        // unreachable-state: an undecided node from which no decided node
        // is reachable. In the over-approximated graph (superset of real
        // edges) "no path to a decision" is a proof of being stuck.
        for (pid, graph) in cap.graphs.iter().enumerate() {
            let mut can_decide: Vec<bool> =
                graph.nodes.iter().map(|n| n.decided.is_some()).collect();
            loop {
                let mut changed = false;
                for (i, node) in graph.nodes.iter().enumerate() {
                    if can_decide[i] {
                        continue;
                    }
                    let reaches = node
                        .branches
                        .iter()
                        .any(|b| b.succs.iter().any(|&s| can_decide[s]));
                    if reaches {
                        can_decide[i] = true;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for (i, node) in graph.nodes.iter().enumerate() {
                if !can_decide[i] {
                    report.findings.push(LintFinding {
                        code: LintCode::UnreachableState,
                        pid,
                        state: node.key.clone(),
                        detail: "no decided state is reachable from here under any schedule \
                                 or coin outcome; the processor is stuck"
                            .into(),
                    });
                }
            }
        }
        // width-waste: declared width exceeds what the converged alphabet
        // needs. Needs the packer (same one the audit's width check uses).
        if let Some(pack) = &auditor.packer {
            for spec in &specs {
                let Some((values, _)) = cap.alphabets.get(&spec.id) else {
                    continue;
                };
                let max_word = values.iter().map(|v| pack(spec.id, v)).max().unwrap_or(0);
                let needed = u64::BITS - max_word.leading_zeros();
                let needed = needed.max(1);
                if needed < spec.width_bits {
                    report.findings.push(LintFinding {
                        code: LintCode::WidthWaste,
                        pid: spec.writer.0,
                        state: "-".into(),
                        detail: format!(
                            "register {} declares {} bits but every reachable value packs \
                             into {needed} (max word {max_word}); the bounded-register claim \
                             is weaker than declared",
                            spec.name, spec.width_bits
                        ),
                    });
                }
            }
        } else {
            report
                .notes
                .push("no packer supplied; width-waste lint skipped".into());
        }
    } else {
        report.notes.push(
            "bounded coverage: dead-write, never-read, unreachable-state and width-waste \
             lints skipped (absence claims need the full graph)"
                .into(),
        );
    }

    // dead-coin: a choose distribution with two branches performing the
    // identical operation. This is a presence claim — sound even on a
    // bounded walk.
    for (pid, graph) in cap.graphs.iter().enumerate() {
        for node in &graph.nodes {
            if node.branches.len() < 2 {
                continue;
            }
            let mut dup: Option<(usize, usize)> = None;
            'outer: for i in 0..node.branches.len() {
                for j in i + 1..node.branches.len() {
                    if node.branches[i].op == node.branches[j].op {
                        dup = Some((i, j));
                        break 'outer;
                    }
                }
            }
            if let Some((i, j)) = dup {
                report.findings.push(LintFinding {
                    code: LintCode::DeadCoin,
                    pid,
                    state: node.key.clone(),
                    detail: format!(
                        "choose branches {i} and {j} perform the identical operation \
                         {:?}; the coin is fictitious",
                        node.branches[i].op
                    ),
                });
            }
        }
    }

    // Stable report order: by lint code, then discovery order (stable sort).
    report.findings.sort_by_key(|f| f.code);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_core::two::TwoProcessor;

    #[test]
    fn the_two_processor_protocol_is_clean() {
        let p = TwoProcessor::new();
        let report = lint(&Auditor::new(&p).with_packable());
        assert!(report.ok(), "{report}");
        assert!(report.complete);
    }

    #[test]
    fn lint_codes_have_stable_keys() {
        let keys: Vec<&str> = LintCode::all().iter().map(|c| c.key()).collect();
        assert_eq!(
            keys,
            [
                "dead-write",
                "never-read",
                "unreachable-state",
                "width-waste",
                "dead-coin"
            ]
        );
    }

    #[test]
    fn json_is_parseable_and_carries_codes() {
        let p = TwoProcessor::new();
        let report = lint(&Auditor::new(&p).with_packable());
        let node = cil_obs::json::parse_value(&report.to_json()).expect("valid JSON");
        let obj = node.as_obj().expect("object");
        assert_eq!(obj["complete"].as_num(), Some(1));
        assert_eq!(obj["findings"].as_arr().map(<[_]>::len), Some(0));
    }
}
