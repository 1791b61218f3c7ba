//! Safety proofs with certificates: agreement and validity over the exact
//! product configuration graph.
//!
//! [`Prover`] runs bounded model checking over the symbolic product
//! configuration graph (via [`cil_mc::successors_indexed`]) for every input
//! assignment: a breadth-first closure of the reachable set, checking at
//! every configuration that
//!
//! - **agreement** — no reachable configuration carries two distinct
//!   decision values (the paper's consistency clause, Theorems 6/8), and
//! - **validity** — every decision value is one of the block's inputs
//!   (nontriviality as the modern validity condition).
//!
//! A violated check is the BMC half: the BFS parent chain is a concrete
//! schedule with forced coin outcomes, directly replayable by
//! `cil conc replay`. A closed frontier is the induction half: the reached
//! set *is* a 1-inductive invariant (it contains the initial configuration
//! and is closed under every step), so safety-on-every-member is a proof,
//! not a sample. [`ProveReport::certificate`] serializes that invariant —
//! each configuration as the `(pid, choose, transit)` path that produces it
//! plus a fingerprint — and [`check_certificate`] re-verifies initiation,
//! consecution and safety against the **raw** `choose`/`transit` relation,
//! sharing none of the prover's or walker's graph code, so a bug in the
//! prover cannot silently certify itself.

use crate::walker::quiet_catch;
use cil_mc::{successors_indexed, Config};
use cil_obs::json::{num_array, parse_value, Node, ObjWriter};
use cil_sim::{Op, Protocol, Val};
use std::collections::HashMap;
use std::fmt;

/// Default bound on explored configurations per input assignment.
const DEFAULT_MAX_CONFIGS: usize = 262_144;

/// FNV-1a over the canonical `Debug` rendering of a configuration. Both the
/// prover and the independent checker derive fingerprints from the same
/// `(states, regs, active)` tuple, so they agree without sharing state
/// types.
fn fingerprint(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn config_fp<P: Protocol>(cfg: &Config<P>) -> u64 {
    fingerprint(&format!("{:?}|{:?}|{}", cfg.states, cfg.regs, cfg.active))
}

/// Renders values as `a, b, a`.
fn join_vals(values: &[Val]) -> String {
    values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// The values' integer encodings.
fn val_nums(values: &[Val]) -> Vec<u64> {
    values.iter().map(|v| v.0).collect()
}

/// One step of a counterexample schedule: which processor moved and which
/// `choose`/`transit` coin branches the adversary forced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofStep {
    /// The processor that took the step.
    pub pid: usize,
    /// Forced `choose` branch index.
    pub choose: usize,
    /// Forced `transit` branch index.
    pub transit: usize,
}

/// A concrete refutation: a finite schedule with forced coins that drives
/// the protocol into a configuration violating `property`.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// `"agreement"` or `"validity"`.
    pub property: &'static str,
    /// The input assignment (one value per processor).
    pub inputs: Vec<Val>,
    /// The schedule with forced coins, in execution order.
    pub steps: Vec<ProofStep>,
    /// What the final configuration looks like.
    pub detail: String,
}

impl Counterexample {
    /// The schedule as a bare pid sequence (`cil conc replay` format).
    pub fn schedule(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.pid).collect()
    }
}

/// Outcome of a proof attempt.
#[derive(Debug, Clone)]
pub enum ProveOutcome {
    /// Every input assignment's reachable set closed and is safe: agreement
    /// and validity hold on **all** schedules and coin outcomes.
    Proved,
    /// The configuration budget truncated the search before the frontier
    /// closed; no violation was found up to the bound.
    Bounded,
    /// A reachable configuration violates a property.
    Refuted(Counterexample),
}

/// One certified configuration: the path that produces it from the block's
/// initial configuration, and its fingerprint.
#[derive(Debug, Clone)]
struct CertEntry {
    path: Vec<ProofStep>,
    fp: u64,
}

/// The invariant for one input assignment.
#[derive(Debug, Clone)]
struct CertBlock {
    inputs: Vec<Val>,
    entries: Vec<CertEntry>,
}

/// How far one input block's breadth-first closure got.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockReach {
    /// The block's input assignment.
    pub inputs: Vec<Val>,
    /// Configurations reached.
    pub configs: u64,
    /// The deepest BFS level expanded in full: every configuration that
    /// many steps from the initial one had all its successors generated.
    pub depth: u32,
    /// Whether the configuration budget stopped the block before its
    /// frontier closed.
    pub truncated: bool,
}

/// Result of a [`Prover`] run.
#[derive(Debug, Clone)]
pub struct ProveReport {
    /// Protocol name.
    pub protocol: String,
    /// Number of processors.
    pub processes: usize,
    /// The input domain proved over.
    pub domain: Vec<Val>,
    /// Input assignments checked (`domain^processes`, short-circuited on
    /// refutation).
    pub blocks: usize,
    /// Total configurations reached across blocks.
    pub configs: u64,
    /// Total transitions expanded across blocks.
    pub edges: u64,
    /// The verdict.
    pub outcome: ProveOutcome,
    /// How far each block that closed or hit the budget got, in block
    /// order; their `configs` sum to [`ProveReport::configs`].
    pub reach: Vec<BlockReach>,
    cert: Vec<CertBlock>,
}

impl ProveReport {
    /// Books one block's reach into the totals.
    fn reached(&mut self, inputs: &[Val], configs: usize, depth: u32, truncated: bool) {
        self.configs += configs as u64;
        self.reach.push(BlockReach {
            inputs: inputs.to_vec(),
            configs: configs as u64,
            depth,
            truncated,
        });
    }

    /// Whether the proof succeeded.
    pub fn proved(&self) -> bool {
        matches!(self.outcome, ProveOutcome::Proved)
    }

    /// Renders the report in a stable human-readable format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("prove: {}\n", self.protocol));
        out.push_str(&format!("  processes:  {}\n", self.processes));
        out.push_str(&format!("  inputs:     {}\n", join_vals(&self.domain)));
        out.push_str(&format!("  blocks:     {}\n", self.blocks));
        out.push_str(&format!("  configs:    {}\n", self.configs));
        out.push_str(&format!("  edges:      {}\n", self.edges));
        out.push_str("  properties: agreement validity\n");
        match &self.outcome {
            ProveOutcome::Proved => out.push_str("result: PROVED\n"),
            ProveOutcome::Bounded => {
                out.push_str("result: BOUNDED (config budget hit before the frontier closed)\n");
                out.push_str("  reach per block (configs, deepest BFS level expanded in full):\n");
                for block in &self.reach {
                    out.push_str(&format!(
                        "    {}: {} configs, level {}{}\n",
                        join_vals(&block.inputs),
                        block.configs,
                        block.depth,
                        if block.truncated {
                            " — budget hit"
                        } else {
                            ", closed"
                        }
                    ));
                }
            }
            ProveOutcome::Refuted(cex) => {
                out.push_str(&format!("result: REFUTED ({})\n", cex.property));
                out.push_str(&format!("  inputs:   {}\n", join_vals(&cex.inputs)));
                out.push_str(&format!("  schedule: {:?}\n", cex.schedule()));
                out.push_str(&format!("  detail:   {}\n", cex.detail));
            }
        }
        out
    }

    /// Serializes the report (without the certificate) as one JSON object.
    pub fn to_json(&self) -> String {
        let result = match &self.outcome {
            ProveOutcome::Proved => "proved",
            ProveOutcome::Bounded => "bounded",
            ProveOutcome::Refuted(_) => "refuted",
        };
        let mut w = ObjWriter::new()
            .str("prove", &self.protocol)
            .num("processes", self.processes as u64)
            .raw("inputs", &num_array(&val_nums(&self.domain)))
            .num("blocks", self.blocks as u64)
            .num("configs", self.configs)
            .num("edges", self.edges)
            .str("result", result);
        if let ProveOutcome::Bounded = self.outcome {
            let reach: Vec<String> = self
                .reach
                .iter()
                .map(|block| {
                    ObjWriter::new()
                        .raw("inputs", &num_array(&val_nums(&block.inputs)))
                        .num("configs", block.configs)
                        .num("depth", u64::from(block.depth))
                        .str("frontier", if block.truncated { "open" } else { "closed" })
                        .finish()
                })
                .collect();
            w = w.raw("reach", &format!("[{}]", reach.join(",")));
        }
        if let ProveOutcome::Refuted(cex) = &self.outcome {
            let schedule: Vec<u64> = cex.steps.iter().map(|s| s.pid as u64).collect();
            let choose: Vec<u64> = cex.steps.iter().map(|s| s.choose as u64).collect();
            let transit: Vec<u64> = cex.steps.iter().map(|s| s.transit as u64).collect();
            w = w.raw(
                "counterexample",
                &ObjWriter::new()
                    .str("property", cex.property)
                    .raw("inputs", &num_array(&val_nums(&cex.inputs)))
                    .raw("schedule", &num_array(&schedule))
                    .raw("choose", &num_array(&choose))
                    .raw("transit", &num_array(&transit))
                    .str("detail", &cex.detail)
                    .finish(),
            );
        }
        w.finish()
    }

    /// The inductive-invariant certificate, if the proof succeeded.
    ///
    /// Format `cil-cert-v1`: per input assignment, every reachable
    /// configuration as the `(pid, choose, transit)` path producing it plus
    /// an FNV-1a fingerprint. [`check_certificate`] re-verifies it with an
    /// independent expansion.
    pub fn certificate(&self) -> Option<String> {
        if !self.proved() {
            return None;
        }
        let mut blocks = String::from("[");
        for (bi, block) in self.cert.iter().enumerate() {
            if bi > 0 {
                blocks.push(',');
            }
            let mut configs = String::from("[");
            for (ci, entry) in block.entries.iter().enumerate() {
                if ci > 0 {
                    configs.push(',');
                }
                let mut path = String::from("[");
                for (si, step) in entry.path.iter().enumerate() {
                    if si > 0 {
                        path.push(',');
                    }
                    path.push_str(&num_array(&[
                        step.pid as u64,
                        step.choose as u64,
                        step.transit as u64,
                    ]));
                }
                path.push(']');
                configs.push_str(
                    &ObjWriter::new()
                        .raw("path", &path)
                        .num("fp", entry.fp)
                        .finish(),
                );
            }
            configs.push(']');
            blocks.push_str(
                &ObjWriter::new()
                    .raw("inputs", &num_array(&val_nums(&block.inputs)))
                    .raw("configs", &configs)
                    .finish(),
            );
        }
        blocks.push(']');
        Some(
            ObjWriter::new()
                .str("format", "cil-cert-v1")
                .str("protocol", &self.protocol)
                .num("processes", self.processes as u64)
                .raw("properties", r#"["agreement","validity"]"#)
                .raw("blocks", &blocks)
                .finish(),
        )
    }
}

impl fmt::Display for ProveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The safety prover. Borrow a protocol, configure, [`run`](Prover::run).
///
/// ```
/// use cil_audit::prove::Prover;
/// use cil_core::two::TwoProcessor;
/// let report = Prover::new(&TwoProcessor).run();
/// assert!(report.proved(), "{report}");
/// ```
pub struct Prover<'p, P: Protocol> {
    protocol: &'p P,
    domain: Vec<Val>,
    max_configs: usize,
}

impl<'p, P: Protocol> Prover<'p, P> {
    /// A new prover with the binary input domain `{a, b}` and default
    /// budget.
    pub fn new(protocol: &'p P) -> Self {
        Prover {
            protocol,
            domain: vec![Val::A, Val::B],
            max_configs: DEFAULT_MAX_CONFIGS,
        }
    }

    /// Sets the input domain (the k-valued family wants `0..k`).
    pub fn with_domain(mut self, domain: impl IntoIterator<Item = Val>) -> Self {
        self.domain = domain.into_iter().collect();
        assert!(!self.domain.is_empty(), "proofs need at least one input");
        self
    }

    /// Sets the per-assignment configuration budget.
    pub fn with_max_configs(mut self, max_configs: usize) -> Self {
        self.max_configs = max_configs.max(1);
        self
    }

    /// Runs the proof over every input assignment in `domain^processes`.
    pub fn run(&self) -> ProveReport {
        let n = self.protocol.processes();
        let mut report = ProveReport {
            protocol: self.protocol.name(),
            processes: n,
            domain: self.domain.clone(),
            blocks: 0,
            configs: 0,
            edges: 0,
            outcome: ProveOutcome::Proved,
            reach: Vec::new(),
            cert: Vec::new(),
        };
        let mut truncated = false;
        for assignment in assignments(&self.domain, n) {
            report.blocks += 1;
            match self.prove_block(&assignment, &mut report) {
                BlockOutcome::Closed(block) => report.cert.push(block),
                BlockOutcome::Truncated => truncated = true,
                BlockOutcome::Refuted(cex) => {
                    report.outcome = ProveOutcome::Refuted(cex);
                    report.cert.clear();
                    return report;
                }
            }
        }
        if truncated {
            report.outcome = ProveOutcome::Bounded;
            report.cert.clear();
        }
        report
    }

    /// BFS closure of one input assignment's reachable configurations.
    fn prove_block(&self, inputs: &[Val], report: &mut ProveReport) -> BlockOutcome {
        struct Rec<P: Protocol> {
            cfg: Config<P>,
            parent: Option<(usize, ProofStep)>,
            depth: u32,
        }
        let protocol = self.protocol;
        let init = Config::initial(protocol, inputs);
        let mut recs: Vec<Rec<P>> = vec![Rec {
            cfg: init.clone(),
            parent: None,
            depth: 0,
        }];
        let mut index: HashMap<Config<P>, usize> = HashMap::new();
        index.insert(init, 0);
        let path_to = |recs: &[Rec<P>], mut at: usize| {
            let mut steps = Vec::new();
            while let Some((parent, step)) = recs[at].parent {
                steps.push(step);
                at = parent;
            }
            steps.reverse();
            steps
        };
        let check = |recs: &[Rec<P>], at: usize| -> Option<Counterexample> {
            let cfg = &recs[at].cfg;
            let values = cfg.decision_values(protocol);
            if values.len() > 1 {
                return Some(Counterexample {
                    property: "agreement",
                    inputs: inputs.to_vec(),
                    steps: path_to(recs, at),
                    detail: format!(
                        "configuration decides {} distinct values {values:?}",
                        values.len()
                    ),
                });
            }
            if let Some(v) = values.iter().find(|v| !inputs.contains(v)) {
                return Some(Counterexample {
                    property: "validity",
                    inputs: inputs.to_vec(),
                    steps: path_to(recs, at),
                    detail: format!("decision {v} is not among the inputs {inputs:?}"),
                });
            }
            None
        };
        if let Some(cex) = check(&recs, 0) {
            return BlockOutcome::Refuted(cex);
        }
        let mut at = 0usize;
        while at < recs.len() {
            if recs.len() > self.max_configs {
                // BFS order: every level above `recs[at]`'s is expanded, and
                // `recs[at]` is never the root (the budget is at least 1).
                report.reached(inputs, recs.len(), recs[at].depth - 1, true);
                return BlockOutcome::Truncated;
            }
            let eligible = recs[at].cfg.eligible(protocol);
            for pid in eligible {
                let succs = successors_indexed(protocol, &recs[at].cfg, pid);
                for s in succs {
                    report.edges += 1;
                    if index.contains_key(&s.config) {
                        continue;
                    }
                    let idx = recs.len();
                    index.insert(s.config.clone(), idx);
                    recs.push(Rec {
                        cfg: s.config,
                        parent: Some((
                            at,
                            ProofStep {
                                pid,
                                choose: s.choose_idx,
                                transit: s.transit_idx,
                            },
                        )),
                        depth: recs[at].depth + 1,
                    });
                    if let Some(cex) = check(&recs, idx) {
                        return BlockOutcome::Refuted(cex);
                    }
                }
            }
            at += 1;
        }
        report.reached(inputs, recs.len(), recs[recs.len() - 1].depth, false);
        let entries = recs
            .iter()
            .enumerate()
            .map(|(i, rec)| CertEntry {
                path: path_to(&recs, i),
                fp: config_fp(&rec.cfg),
            })
            .collect();
        BlockOutcome::Closed(CertBlock {
            inputs: inputs.to_vec(),
            entries,
        })
    }
}

enum BlockOutcome {
    Closed(CertBlock),
    Truncated,
    Refuted(Counterexample),
}

/// Every assignment in `domain^n`, domain-major, deterministic order.
fn assignments(domain: &[Val], n: usize) -> Vec<Vec<Val>> {
    let mut out: Vec<Vec<Val>> = vec![Vec::new()];
    for _ in 0..n {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                domain.iter().map(move |&v| {
                    let mut next = prefix.clone();
                    next.push(v);
                    next
                })
            })
            .collect();
    }
    out
}

/// Statistics from a successful certificate check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertCheck {
    /// Protocol name the certificate (and the protocol) carry.
    pub protocol: String,
    /// Input assignments verified.
    pub blocks: usize,
    /// Invariant members verified.
    pub configs: u64,
    /// Transitions checked for consecution.
    pub edges: u64,
}

impl fmt::Display for CertCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certificate OK: {} — {} block{}, {} configs, {} edges checked",
            self.protocol,
            self.blocks,
            if self.blocks == 1 { "" } else { "s" },
            self.configs,
            self.edges
        )
    }
}

/// The independent certificate checker.
///
/// Re-verifies a `cil-cert-v1` certificate against the raw
/// `choose`/`transit` relation: every listed path replays to a
/// configuration with the listed fingerprint; the initial configuration is
/// a member; the member set is closed under every enabled step of every
/// processor (consecution); and every member satisfies agreement and
/// validity. None of the prover's or walker's graph code is involved — the
/// checker re-implements configuration expansion from the [`Protocol`]
/// trait alone.
///
/// # Errors
///
/// Returns a message naming the first discrepancy: malformed JSON, protocol
/// mismatch, fingerprint mismatch, a missing member, or a safety violation.
pub fn check_certificate<P: Protocol>(protocol: &P, cert: &str) -> Result<CertCheck, String> {
    // Checker-local configuration representation — deliberately not
    // `cil_mc::Config`, so agreement on fingerprints is evidence about the
    // transition relation, not about shared code.
    struct Cfg<P: Protocol> {
        states: Vec<P::State>,
        regs: Vec<P::Reg>,
        active: u64,
    }
    impl<P: Protocol> Cfg<P> {
        fn fp(&self) -> u64 {
            fingerprint(&format!(
                "{:?}|{:?}|{}",
                self.states, self.regs, self.active
            ))
        }
        fn dup(&self) -> Self {
            Cfg {
                states: self.states.clone(),
                regs: self.regs.clone(),
                active: self.active,
            }
        }
    }

    let node = parse_value(cert).map_err(|e| format!("malformed certificate JSON: {e}"))?;
    let obj = node.as_obj().ok_or("certificate is not a JSON object")?;
    let format = obj
        .get("format")
        .and_then(Node::as_str)
        .ok_or("missing format field")?;
    if format != "cil-cert-v1" {
        return Err(format!("unsupported certificate format '{format}'"));
    }
    let cert_protocol = obj
        .get("protocol")
        .and_then(Node::as_str)
        .ok_or("missing protocol field")?;
    if cert_protocol != protocol.name() {
        return Err(format!(
            "certificate is for '{cert_protocol}' but the protocol is '{}'",
            protocol.name()
        ));
    }
    let n = obj
        .get("processes")
        .and_then(Node::as_num)
        .ok_or("missing processes field")? as usize;
    if n != protocol.processes() {
        return Err(format!(
            "certificate says {n} processors, protocol has {}",
            protocol.processes()
        ));
    }
    let blocks = obj
        .get("blocks")
        .and_then(Node::as_arr)
        .ok_or("missing blocks array")?;

    let specs = protocol.registers();
    let mut check = CertCheck {
        protocol: protocol.name(),
        blocks: 0,
        configs: 0,
        edges: 0,
    };

    for (bi, block) in blocks.iter().enumerate() {
        let block = block
            .as_obj()
            .ok_or(format!("block {bi} is not an object"))?;
        let inputs: Vec<Val> = block
            .get("inputs")
            .and_then(Node::as_arr)
            .ok_or(format!("block {bi}: missing inputs"))?
            .iter()
            .map(|v| v.as_num().map(Val))
            .collect::<Option<_>>()
            .ok_or(format!("block {bi}: non-numeric input"))?;
        if inputs.len() != n {
            return Err(format!(
                "block {bi}: {} inputs for {n} processors",
                inputs.len()
            ));
        }
        let entries = block
            .get("configs")
            .and_then(Node::as_arr)
            .ok_or(format!("block {bi}: missing configs"))?;

        // The checker's own initial configuration.
        let init: Cfg<P> = Cfg {
            states: inputs
                .iter()
                .enumerate()
                .map(|(pid, &v)| {
                    quiet_catch(|| protocol.init(pid, v))
                        .map_err(|e| format!("block {bi}: init(P{pid}, {v}) panicked: {e}"))
                })
                .collect::<Result<_, _>>()?,
            regs: specs.iter().map(|s| s.init.clone()).collect(),
            active: 0,
        };

        // Replay one step of a certificate path.
        let step = |cfg: &Cfg<P>, pid: usize, ci: usize, ti: usize| -> Result<Cfg<P>, String> {
            if pid >= n {
                return Err(format!("path step names processor {pid} of {n}"));
            }
            let choice = quiet_catch(|| protocol.choose(pid, &cfg.states[pid]))
                .map_err(|e| format!("choose(P{pid}) panicked during replay: {e}"))?;
            let (_, op) = choice
                .branches()
                .get(ci)
                .ok_or(format!("choose branch {ci} out of range"))?;
            let mut regs = cfg.regs.clone();
            let read = match op {
                Op::Read(r) => Some(
                    cfg.regs
                        .get(r.0)
                        .ok_or(format!("read of undeclared register {r}"))?
                        .clone(),
                ),
                Op::Write(r, v) => {
                    *regs
                        .get_mut(r.0)
                        .ok_or(format!("write to undeclared register {r}"))? = v.clone();
                    None
                }
            };
            let tr = quiet_catch(|| protocol.transit(pid, &cfg.states[pid], op, read.as_ref()))
                .map_err(|e| format!("transit(P{pid}) panicked during replay: {e}"))?;
            let (_, next) = tr
                .branches()
                .get(ti)
                .ok_or(format!("transit branch {ti} out of range"))?;
            let mut states = cfg.states.clone();
            states[pid] = next.clone();
            Ok(Cfg {
                states,
                regs,
                active: cfg.active | (1 << pid),
            })
        };

        // Materialize every listed member and verify its fingerprint.
        let mut members: Vec<Cfg<P>> = Vec::with_capacity(entries.len());
        let mut fps: HashMap<u64, usize> = HashMap::with_capacity(entries.len());
        for (ei, entry) in entries.iter().enumerate() {
            let entry = entry
                .as_obj()
                .ok_or(format!("block {bi} config {ei} is not an object"))?;
            let path = entry
                .get("path")
                .and_then(Node::as_arr)
                .ok_or(format!("block {bi} config {ei}: missing path"))?;
            let fp = entry
                .get("fp")
                .and_then(Node::as_num)
                .ok_or(format!("block {bi} config {ei}: missing fp"))?;
            let mut cfg = init.dup();
            for (si, s) in path.iter().enumerate() {
                let triple = s
                    .as_arr()
                    .filter(|t| t.len() == 3)
                    .ok_or(format!("block {bi} config {ei} step {si}: not a triple"))?;
                let (pid, ci, ti) = (
                    triple[0].as_num().ok_or("bad pid")? as usize,
                    triple[1].as_num().ok_or("bad choose index")? as usize,
                    triple[2].as_num().ok_or("bad transit index")? as usize,
                );
                cfg = step(&cfg, pid, ci, ti)
                    .map_err(|e| format!("block {bi} config {ei} step {si}: {e}"))?;
            }
            if cfg.fp() != fp {
                return Err(format!(
                    "block {bi} config {ei}: replayed fingerprint {:#x} does not match \
                     listed {fp:#x}",
                    cfg.fp()
                ));
            }
            fps.insert(fp, ei);
            members.push(cfg);
        }

        // Initiation: the initial configuration is a member.
        if !fps.contains_key(&init.fp()) {
            return Err(format!(
                "block {bi}: initial configuration is not in the invariant"
            ));
        }

        // Consecution + safety on every member.
        for (ei, cfg) in members.iter().enumerate() {
            let mut decided: Vec<Val> = cfg
                .states
                .iter()
                .filter_map(|s| quiet_catch(|| protocol.decision(s)).ok().flatten())
                .collect();
            decided.sort_unstable();
            decided.dedup();
            if decided.len() > 1 {
                return Err(format!(
                    "block {bi} config {ei}: AGREEMENT violated — decisions {decided:?}"
                ));
            }
            if let Some(v) = decided.iter().find(|v| !inputs.contains(v)) {
                return Err(format!(
                    "block {bi} config {ei}: VALIDITY violated — decision {v} not among \
                     inputs {inputs:?}"
                ));
            }
            for pid in 0..n {
                let is_decided = quiet_catch(|| protocol.decision(&cfg.states[pid]))
                    .ok()
                    .flatten()
                    .is_some();
                if is_decided {
                    continue;
                }
                let choice = quiet_catch(|| protocol.choose(pid, &cfg.states[pid]))
                    .map_err(|e| format!("block {bi} config {ei}: choose panicked: {e}"))?;
                for ci in 0..choice.branches().len() {
                    // Transit branch count depends on the op, so probe 0..
                    // until the step reports out-of-range.
                    let mut ti = 0usize;
                    loop {
                        match step(cfg, pid, ci, ti) {
                            Ok(succ) => {
                                check.edges += 1;
                                if !fps.contains_key(&succ.fp()) {
                                    return Err(format!(
                                        "block {bi} config {ei}: NOT INDUCTIVE — successor \
                                         (P{pid}, choose {ci}, transit {ti}) escapes the \
                                         invariant"
                                    ));
                                }
                                ti += 1;
                            }
                            Err(e) if e.contains("transit branch") => break,
                            Err(e) => {
                                return Err(format!("block {bi} config {ei}: {e}"));
                            }
                        }
                    }
                    if ti == 0 {
                        return Err(format!(
                            "block {bi} config {ei}: choose branch {ci} has no transit \
                             branches"
                        ));
                    }
                }
            }
        }
        check.blocks += 1;
        check.configs += members.len() as u64;
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_core::two::TwoProcessor;

    #[test]
    fn two_processor_safety_is_proved_and_certified() {
        let p = TwoProcessor::new();
        let report = Prover::new(&p).run();
        assert!(report.proved(), "{report}");
        assert_eq!(report.blocks, 4);
        let cert = report.certificate().expect("proved => certificate");
        let check = check_certificate(&p, &cert).expect("certificate verifies");
        assert_eq!(check.blocks, 4);
        assert!(check.configs > 0 && check.edges > 0);
    }

    #[test]
    fn bounded_reach_sums_to_the_config_total() {
        let p = cil_core::three_bounded::ThreeBounded::new();
        let small = Prover::new(&p).with_max_configs(500).run();
        assert!(matches!(small.outcome, ProveOutcome::Bounded), "{small}");
        assert_eq!(small.reach.len(), small.blocks);
        let total: u64 = small.reach.iter().map(|b| b.configs).sum();
        assert_eq!(total, small.configs);
        assert!(small.reach.iter().all(|b| b.truncated && b.configs > 500));
        let text = small.render();
        for b in &small.reach {
            let line = format!(
                "{}: {} configs, level {}",
                join_vals(&b.inputs),
                b.configs,
                b.depth
            );
            assert!(text.contains(&line), "{text}");
        }
        assert!(small
            .to_json()
            .contains(r#""reach":[{"inputs":[0,0,0],"configs":"#));
        // A larger budget expands every block at least as deep.
        let large = Prover::new(&p).with_max_configs(5000).run();
        for (s, l) in small.reach.iter().zip(&large.reach) {
            assert_eq!(s.inputs, l.inputs);
            assert!(
                s.depth <= l.depth && s.configs < l.configs,
                "{s:?} vs {l:?}"
            );
        }
        // Closed blocks report the depth of their deepest configuration,
        // and a PROVED report keeps its rendering.
        let two = Prover::new(&TwoProcessor::new()).run();
        assert!(two.reach.iter().all(|b| !b.truncated && b.depth > 0));
        assert!(!two.render().contains("reach") && !two.to_json().contains("reach"));
    }

    #[test]
    fn tampered_certificates_are_rejected() {
        let p = TwoProcessor::new();
        let cert = Prover::new(&p).run().certificate().expect("certificate");
        // Drop one member: the invariant stops being inductive (or loses
        // its initial configuration).
        let node = parse_value(&cert).expect("valid");
        let obj = node.as_obj().expect("object");
        let blocks = obj["blocks"].as_arr().expect("blocks");
        let victim = blocks[0].as_obj().expect("block")["configs"]
            .as_arr()
            .expect("configs");
        assert!(victim.len() > 1, "need members to drop");
        // Rebuild the JSON with the last member of block 0 removed by
        // string surgery on a fingerprint-unique member entry.
        let entry = victim.last().expect("non-empty").as_obj().expect("entry");
        let fp = entry["fp"].as_num().expect("fp");
        let needle = ",{\"path\":";
        let marker = format!("\"fp\":{fp}}}");
        let end = cert.find(&marker).expect("member present") + marker.len();
        let start = cert[..end].rfind(needle).expect("preceded by a sibling");
        let tampered = format!("{}{}", &cert[..start], &cert[end..]);
        let err = check_certificate(&p, &tampered).expect_err("must be rejected");
        assert!(
            err.contains("NOT INDUCTIVE") || err.contains("initial configuration"),
            "unexpected rejection: {err}"
        );
    }

    #[test]
    fn wrong_protocol_is_rejected() {
        let p = TwoProcessor::new();
        let cert = Prover::new(&p).run().certificate().expect("certificate");
        let doctored = cert.replace(&p.name(), "someone else");
        assert!(check_certificate(&p, &doctored).is_err());
    }
}
