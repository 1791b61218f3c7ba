//! The symbolic transition-graph walker: static model-compliance analysis
//! of a [`Protocol`] without running a scheduler.
//!
//! [`Auditor`] enumerates, per processor, every state reachable under *any*
//! schedule, by closing the per-processor transition relation over the
//! **observable register alphabet**: the set of values a register can ever
//! hold, computed as a cross-processor fixpoint of `{init} ∪ {values any
//! writer step writes}`. A read step is expanded against every value in the
//! target register's alphabet, and every coin branch of `choose`/`transit`
//! is followed. This over-approximates real executions (it pairs states with
//! register values that a particular schedule might forbid), so it is
//! *sound* for the checks below: a violation reachable in some real run is
//! reachable in the walk.
//!
//! On every edge the walker verifies the model clauses of the paper's §2 and
//! the Theorem 6 precondition (see [`Clause`]):
//!
//! - **(a) access sets** — each `Op` targets a declared register, writes go
//!   through the declared writer, reads stay inside the reader set;
//! - **(b) width bounds** — every written value packs into the register's
//!   declared `width_bits` (needs a [codec](Auditor::with_codec));
//! - **(c) coin measures** — every `Choice` is a well-formed probability
//!   measure: non-empty, strictly positive weights;
//! - **(d) decision stability** — a decided state is absorbing: it either
//!   quits (panics when stepped, like the executor which never schedules
//!   decided processors) or performs no write and never changes its
//!   decision;
//! - **(e) purity** — `choose`/`transit`/`decision` return identical
//!   distributions when called twice on the same arguments.
//!
//! States with unbounded counters (the §4 protocol) make the graph
//! infinite; the walk carries a state budget and reports `complete = false`
//! when it truncates, so a PASS on an incomplete walk is explicitly a
//! bounded claim.

use crate::diag::{Clause, Violation};
use cil_registers::{Pid, RegId, RegisterSpec, SharedMemory};
use cil_sim::{Choice, Op, PackCodec, Protocol, Val, WordCodec};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

/// Default per-(processor, input) state budget.
const DEFAULT_MAX_STATES: usize = 4096;
/// Default bound on alphabet fixpoint passes.
const DEFAULT_MAX_PASSES: u32 = 8;
/// Maximum distinct notes kept in a report.
const MAX_NOTES: usize = 12;

thread_local! {
    /// When true, the silenced panic hook swallows panic output on this
    /// thread (the walker probes decided states by catching their panics).
    static SILENCE_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f`, catching panics; panic output is suppressed while `f` runs.
///
/// Returns the panic payload rendered as a string on unwind.
pub(crate) fn quiet_catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SILENCE_PANICS.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
    SILENCE_PANICS.with(|s| s.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SILENCE_PANICS.with(|s| s.set(false));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Outcome of one static audit: exploration statistics plus every
/// violation found, in deterministic discovery order.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Protocol name ([`Protocol::name`]).
    pub protocol: String,
    /// Number of processors.
    pub processes: usize,
    /// Number of declared registers.
    pub registers: usize,
    /// Distinct per-processor states explored (summed over processors and
    /// inputs, in the final fixpoint pass).
    pub states: usize,
    /// Transition edges checked in the final pass (one per coin branch of
    /// `choose`, expanded per possible read value).
    pub edges: u64,
    /// Alphabet fixpoint passes performed.
    pub passes: u32,
    /// Whether the walk covered the whole reachable graph (false when a
    /// state budget or pass bound truncated it).
    pub complete: bool,
    /// Every violation found, deterministic order.
    pub violations: Vec<Violation>,
    /// Non-fatal observations (e.g. `transit` rejecting an
    /// over-approximated read value).
    pub notes: Vec<String>,
}

impl AuditReport {
    /// Whether the protocol passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report in the stable format pinned by the golden test.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("audit: {}\n", self.protocol));
        out.push_str(&format!("  processes: {}\n", self.processes));
        out.push_str(&format!("  registers: {}\n", self.registers));
        out.push_str(&format!("  passes:    {}\n", self.passes));
        out.push_str(&format!("  states:    {}\n", self.states));
        out.push_str(&format!("  edges:     {}\n", self.edges));
        out.push_str(&format!(
            "  coverage:  {}\n",
            if self.complete { "complete" } else { "bounded" }
        ));
        out.push_str("  checks:    access-sets width-bound coin-measure decision-stable purity\n");
        for note in &self.notes {
            out.push_str(&format!("  note:      {note}\n"));
        }
        for v in &self.violations {
            out.push_str(&format!("  violation: {v}\n"));
        }
        if self.ok() {
            out.push_str("result: PASS\n");
        } else {
            out.push_str(&format!(
                "result: FAIL ({} violation{})\n",
                self.violations.len(),
                if self.violations.len() == 1 { "" } else { "s" }
            ));
        }
        out
    }

    /// Serializes the report as one JSON object (stable field order).
    pub fn to_json(&self) -> String {
        use cil_obs::json::{escape, ObjWriter};
        let mut violations = String::from("[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                violations.push(',');
            }
            violations.push_str(
                &ObjWriter::new()
                    .str("clause", v.clause.key())
                    .num("pid", v.pid as u64)
                    .str("state", &v.state)
                    .num("step", v.step)
                    .str("detail", &v.detail)
                    .finish(),
            );
        }
        violations.push(']');
        let mut notes = String::from("[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                notes.push(',');
            }
            notes.push('"');
            notes.push_str(&escape(n));
            notes.push('"');
        }
        notes.push(']');
        ObjWriter::new()
            .str("audit", &self.protocol)
            .num("processes", self.processes as u64)
            .num("registers", self.registers as u64)
            .num("passes", u64::from(self.passes))
            .num("states", self.states as u64)
            .num("edges", self.edges)
            .num("complete", u64::from(self.complete))
            .raw("violations", &violations)
            .raw("notes", &notes)
            .str("result", if self.ok() { "pass" } else { "fail" })
            .finish()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The static analyzer. Borrow a protocol, configure, [`run`](Auditor::run).
///
/// ```
/// use cil_audit::Auditor;
/// use cil_core::two::TwoProcessor;
/// let report = Auditor::new(&TwoProcessor).with_packable().run();
/// assert!(report.ok(), "{report}");
/// ```
pub struct Auditor<'p, P: Protocol> {
    pub(crate) protocol: &'p P,
    pub(crate) inputs: Vec<Val>,
    pub(crate) max_states: usize,
    max_passes: u32,
    pub(crate) packer: Option<Packer<'p, P::Reg>>,
}

/// A caller-supplied register-value-to-machine-word packing function,
/// given the register the value is stored in.
type Packer<'p, R> = Box<dyn Fn(RegId, &R) -> u64 + 'p>;

/// One register's observable alphabet: values in discovery order (for
/// deterministic reports) plus a membership set.
pub(crate) type RegAlphabet<R> = (Vec<R>, HashSet<R>);

/// Every register's alphabet, keyed by register id.
pub(crate) type Alphabets<R> = HashMap<RegId, RegAlphabet<R>>;

/// Register specs indexed by id.
type SpecIndex<'a, R> = HashMap<RegId, &'a RegisterSpec<R>>;

impl<'p, P: Protocol> Auditor<'p, P> {
    /// A new auditor with default budgets and binary inputs `{a, b}`.
    pub fn new(protocol: &'p P) -> Self {
        Auditor {
            protocol,
            inputs: vec![Val::A, Val::B],
            max_states: DEFAULT_MAX_STATES,
            max_passes: DEFAULT_MAX_PASSES,
            packer: None,
        }
    }

    /// Sets the input values each processor is audited with (default
    /// `{a, b}`; the k-valued protocol wants `0..k`).
    pub fn with_inputs(mut self, inputs: impl IntoIterator<Item = Val>) -> Self {
        self.inputs = inputs.into_iter().collect();
        assert!(!self.inputs.is_empty(), "audit needs at least one input");
        self
    }

    /// Sets the per-(processor, input) state budget (default 4096).
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states.max(1);
        self
    }

    /// Supplies the encoding used for check (b): how a register value maps
    /// to a machine word — the codec the hardware backends store words
    /// with, per register, so heterogeneous register banks are checked
    /// against their own encodings. Without one, width bounds are not
    /// checked (a note records the omission).
    pub fn with_codec(mut self, codec: &'p impl WordCodec<P::Reg>) -> Self {
        self.packer = Some(Box::new(move |reg, value| codec.pack(reg, value)));
        self
    }

    /// Runs the audit.
    pub fn run(&self) -> AuditReport {
        let n = self.protocol.processes();
        let specs = self.protocol.registers();
        let mut report = AuditReport {
            protocol: self.protocol.name(),
            processes: n,
            registers: specs.len(),
            states: 0,
            edges: 0,
            passes: 0,
            complete: true,
            violations: Vec::new(),
            notes: Vec::new(),
        };

        self.check_specs(n, &specs, &mut report.violations);
        if self.packer.is_none() {
            report
                .notes
                .push("no packer supplied; width-bound check skipped".into());
        }

        let by_id: SpecIndex<'_, P::Reg> = specs.iter().map(|s| (s.id, s)).collect();

        // Observable register alphabets, seeded with the declared initial
        // contents, grown by every write the walk discovers. Vec preserves
        // discovery order for determinism; the set is membership only.
        let mut alphabet: Alphabets<P::Reg> = specs
            .iter()
            .map(|s| {
                let mut set = HashSet::new();
                set.insert(s.init.clone());
                (s.id, (vec![s.init.clone()], set))
            })
            .collect();

        // Fixpoint: re-walk until no register learns a new value. The final
        // pass sees the full alphabet from its first state, so its
        // violations subsume every earlier pass's.
        loop {
            report.passes += 1;
            let sizes: Vec<usize> = specs.iter().map(|s| alphabet[&s.id].0.len()).collect();
            let pass = self.walk_pass(n, &by_id, &mut alphabet);
            let grew = specs
                .iter()
                .zip(&sizes)
                .any(|(s, &before)| alphabet[&s.id].0.len() != before);
            if !grew || report.passes >= self.max_passes {
                report.states = pass.states;
                report.edges = pass.edges;
                report.complete = pass.complete && !grew;
                report.violations.extend(pass.violations);
                for note in pass.notes {
                    if report.notes.len() < MAX_NOTES {
                        report.notes.push(note);
                    }
                }
                break;
            }
        }
        report
    }

    /// Runs the observable-alphabet fixpoint alone — no diagnostics — and
    /// returns the final alphabets plus whether they converged within the
    /// pass bound with every walk complete. This is the substrate the
    /// footprint analysis ([`crate::footprint`]) extends: the alphabets are
    /// exactly those of the last [`run`](Auditor::run) pass, so footprints
    /// and audit diagnostics describe the same over-approximated graph.
    pub(crate) fn fixpoint_alphabets(&self) -> (Alphabets<P::Reg>, bool) {
        let specs = self.protocol.registers();
        let by_id: SpecIndex<'_, P::Reg> = specs.iter().map(|s| (s.id, s)).collect();
        let mut alphabet: Alphabets<P::Reg> = specs
            .iter()
            .map(|s| {
                let mut set = HashSet::new();
                set.insert(s.init.clone());
                (s.id, (vec![s.init.clone()], set))
            })
            .collect();
        let n = self.protocol.processes();
        let mut passes = 0u32;
        loop {
            passes += 1;
            let sizes: Vec<usize> = specs.iter().map(|s| alphabet[&s.id].0.len()).collect();
            let pass = self.walk_pass(n, &by_id, &mut alphabet);
            let grew = specs
                .iter()
                .zip(&sizes)
                .any(|(s, &before)| alphabet[&s.id].0.len() != before);
            if !grew || passes >= self.max_passes {
                return (alphabet, pass.complete && !grew);
            }
        }
    }

    /// Clause 0: the register specification itself.
    fn check_specs(&self, n: usize, specs: &[RegisterSpec<P::Reg>], out: &mut Vec<Violation>) {
        let mut push = |detail: String| {
            out.push(Violation {
                clause: Clause::SpecInvalid,
                pid: 0,
                state: "-".into(),
                step: 0,
                detail,
            });
        };
        if let Err(e) = SharedMemory::new(specs.to_vec()) {
            push(format!("register specs rejected by shared memory: {e}"));
        }
        for s in specs {
            if s.writer.0 >= n {
                push(format!(
                    "register {} declares writer {} but there are only {n} processors",
                    s.name, s.writer
                ));
            }
            if let cil_registers::ReaderSet::Only(pids) = &s.readers {
                for p in pids {
                    if p.0 >= n {
                        push(format!(
                            "register {} lists reader {p} but there are only {n} processors",
                            s.name
                        ));
                    }
                }
            }
        }
        // A second call to registers() must describe the same memory
        // (purity of the spec itself).
        let again = quiet_catch(|| self.protocol.registers());
        match again {
            Ok(again) if format!("{again:?}") != format!("{specs:?}") => {
                push("registers() returned a different spec on a second call".into())
            }
            Err(msg) => push(format!("registers() panicked on a second call: {msg}")),
            _ => {}
        }
    }

    /// One full walk of every (processor, input) pair against the current
    /// alphabets, growing them with discovered writes.
    fn walk_pass(
        &self,
        n: usize,
        by_id: &SpecIndex<'_, P::Reg>,
        alphabet: &mut Alphabets<P::Reg>,
    ) -> PassResult {
        let mut pass = PassResult::default();
        for pid in 0..n {
            for &input in &self.inputs {
                self.walk_one(pid, input, by_id, alphabet, &mut pass);
            }
        }
        pass
    }

    /// BFS over the reachable states of one processor with one input.
    fn walk_one(
        &self,
        pid: usize,
        input: Val,
        by_id: &SpecIndex<'_, P::Reg>,
        alphabet: &mut Alphabets<P::Reg>,
        pass: &mut PassResult,
    ) {
        let init = match quiet_catch(|| self.protocol.init(pid, input)) {
            Ok(s) => s,
            Err(msg) => {
                pass.note(format!("init(P{pid}, {input}) panicked: {msg}"));
                return;
            }
        };
        let mut visited: HashSet<P::State> = HashSet::new();
        let mut queue: VecDeque<P::State> = VecDeque::new();
        visited.insert(init.clone());
        queue.push_back(init);
        let mut local_states = 0usize;

        while let Some(state) = queue.pop_front() {
            if local_states >= self.max_states {
                pass.complete = false;
                break;
            }
            local_states += 1;
            pass.states += 1;
            let state_str = format!("{state:?}");

            // (e) decision purity.
            let d1 = quiet_catch(|| self.protocol.decision(&state));
            let d2 = quiet_catch(|| self.protocol.decision(&state));
            match (&d1, &d2) {
                (Ok(a), Ok(b)) if a != b => pass.violations.push(Violation {
                    clause: Clause::Purity,
                    pid,
                    state: state_str.clone(),
                    step: pass.edges,
                    detail: format!("decision() returned {a:?} then {b:?} on the same state"),
                }),
                (Err(msg), _) => {
                    pass.note(format!("decision() panicked at {state_str}: {msg}"));
                    continue;
                }
                _ => {}
            }
            let decided = d1.ok().flatten();

            let choice = quiet_catch(|| self.protocol.choose(pid, &state));
            if let Some(v) = decided {
                // (d) decided states are absorbing. A panic is the paper's
                // "decide and quit" — the executor never steps a decided
                // processor, so refusing the step is compliant.
                if let Ok(choice) = choice {
                    self.check_decided(pid, &state, &state_str, v, &choice, alphabet, pass);
                }
                continue;
            }
            let choice = match choice {
                Ok(c) => c,
                Err(msg) => {
                    pass.note(format!("choose(P{pid}, {state_str}) panicked: {msg}"));
                    continue;
                }
            };
            // (e) choose purity.
            if let Ok(second) = quiet_catch(|| self.protocol.choose(pid, &state)) {
                if second != choice {
                    pass.violations.push(Violation {
                        clause: Clause::Purity,
                        pid,
                        state: state_str.clone(),
                        step: pass.edges,
                        detail: "choose() returned a different distribution on a second call"
                            .into(),
                    });
                }
            }
            // (c) the operation measure.
            self.check_measure(pid, &state_str, "choose", &choice, pass);

            for (_, op) in choice.branches() {
                pass.edges += 1;
                let step = pass.edges;
                self.check_op(pid, &state_str, step, op, by_id, alphabet, pass);
                for succ in self.successors(pid, &state, &state_str, op, alphabet, pass) {
                    if visited.insert(succ.clone()) {
                        queue.push_back(succ);
                    }
                }
            }
        }
    }

    /// Checks (a) access sets and (b) width bounds for one operation and
    /// feeds written values into the register's alphabet.
    #[allow(clippy::too_many_arguments)]
    fn check_op(
        &self,
        pid: usize,
        state: &str,
        step: u64,
        op: &Op<P::Reg>,
        by_id: &SpecIndex<'_, P::Reg>,
        alphabet: &mut Alphabets<P::Reg>,
        pass: &mut PassResult,
    ) {
        let Some(spec) = by_id.get(&op.reg()) else {
            pass.violations.push(Violation {
                clause: Clause::AccessSets,
                pid,
                state: state.to_string(),
                step,
                detail: format!("operation targets undeclared register {}", op.reg()),
            });
            return;
        };
        if let Some(value) = op.write_value() {
            if spec.writer != Pid(pid) {
                pass.violations.push(Violation {
                    clause: Clause::AccessSets,
                    pid,
                    state: state.to_string(),
                    step,
                    detail: format!(
                        "write to {} but its declared writer is {}",
                        spec.name, spec.writer
                    ),
                });
            }
            if let Some(pack) = &self.packer {
                let word = pack(spec.id, value);
                if word > spec.max_word() {
                    pass.violations.push(Violation {
                        clause: Clause::WidthBound,
                        pid,
                        state: state.to_string(),
                        step,
                        detail: format!(
                            "write {} <- {value:?} packs to {word}, exceeding the declared \
                             {}-bit width (max {})",
                            spec.name,
                            spec.width_bits,
                            spec.max_word()
                        ),
                    });
                }
            }
            let entry = alphabet.get_mut(&op.reg()).expect("spec id present");
            if entry.1.insert(value.clone()) {
                entry.0.push(value.clone());
            }
        } else if !spec.readers.allows(Pid(pid)) {
            pass.violations.push(Violation {
                clause: Clause::AccessSets,
                pid,
                state: state.to_string(),
                step,
                detail: format!(
                    "read of {} but P{pid} is outside its declared reader set",
                    spec.name
                ),
            });
        }
    }

    /// (c): a `Choice` must be a well-formed probability measure.
    fn check_measure<T>(
        &self,
        pid: usize,
        state: &str,
        site: &str,
        choice: &Choice<T>,
        pass: &mut PassResult,
    ) {
        let mut fail = |detail: String| {
            pass.violations.push(Violation {
                clause: Clause::CoinMeasure,
                pid,
                state: state.to_string(),
                step: pass.edges,
                detail,
            });
        };
        if choice.branches().is_empty() {
            fail(format!(
                "{site} produced an empty branch list (total mass 0)"
            ));
            return;
        }
        let zeros = choice.branches().iter().filter(|&&(w, _)| w == 0).count();
        if zeros > 0 {
            fail(format!(
                "{site} produced {zeros} zero-weight branch{} out of {} \
                 (weights must be strictly positive)",
                if zeros == 1 { "" } else { "es" },
                choice.branches().len()
            ));
        }
    }

    /// Expands one operation into successor states, replaying reads against
    /// the register's current alphabet, and checks transit's measure and
    /// purity on the way.
    fn successors(
        &self,
        pid: usize,
        state: &P::State,
        state_str: &str,
        op: &Op<P::Reg>,
        alphabet: &Alphabets<P::Reg>,
        pass: &mut PassResult,
    ) -> Vec<P::State> {
        let reads: Vec<Option<P::Reg>> = if op.is_write() {
            vec![None]
        } else {
            match alphabet.get(&op.reg()) {
                Some((values, _)) => values.iter().cloned().map(Some).collect(),
                None => Vec::new(), // undeclared register, already flagged
            }
        };
        let mut out = Vec::new();
        for read in reads {
            let t = quiet_catch(|| self.protocol.transit(pid, state, op, read.as_ref()));
            let t = match t {
                Ok(t) => t,
                Err(msg) => {
                    pass.note(format!(
                        "transit(P{pid}, {state_str}, {op:?}, read {read:?}) panicked \
                         (value may be unreachable under real schedules): {msg}"
                    ));
                    continue;
                }
            };
            if let Ok(second) = quiet_catch(|| self.protocol.transit(pid, state, op, read.as_ref()))
            {
                if second != t {
                    pass.violations.push(Violation {
                        clause: Clause::Purity,
                        pid,
                        state: state_str.to_string(),
                        step: pass.edges,
                        detail: "transit() returned a different distribution on a second call"
                            .into(),
                    });
                }
            }
            self.check_measure(pid, state_str, "transit", &t, pass);
            out.extend(t.branches().iter().map(|(_, s)| s.clone()));
        }
        out
    }

    /// (d): a decided state that still answers `choose` must not write and
    /// must keep its decision in every successor.
    #[allow(clippy::too_many_arguments)]
    fn check_decided(
        &self,
        pid: usize,
        state: &P::State,
        state_str: &str,
        decision: Val,
        choice: &Choice<Op<P::Reg>>,
        alphabet: &Alphabets<P::Reg>,
        pass: &mut PassResult,
    ) {
        self.check_measure(pid, state_str, "choose", choice, pass);
        for (_, op) in choice.branches() {
            pass.edges += 1;
            let step = pass.edges;
            if op.is_write() {
                pass.violations.push(Violation {
                    clause: Clause::DecisionStable,
                    pid,
                    state: state_str.to_string(),
                    step,
                    detail: format!(
                        "state decided {decision} but still writes ({op:?}); decisions \
                         must be followed by quitting"
                    ),
                });
            }
            for succ in self.successors(pid, state, state_str, op, alphabet, pass) {
                let after = quiet_catch(|| self.protocol.decision(&succ)).ok().flatten();
                if after != Some(decision) {
                    pass.violations.push(Violation {
                        clause: Clause::DecisionStable,
                        pid,
                        state: state_str.to_string(),
                        step,
                        detail: format!(
                            "decision {decision} is not stable: successor {succ:?} \
                             reports {after:?}"
                        ),
                    });
                }
            }
        }
    }
}

impl<'p, P: Protocol> Auditor<'p, P>
where
    P::Reg: cil_registers::Packable,
{
    /// Uses the register type's [`Packable`](cil_registers::Packable)
    /// implementation as the width-check packer.
    pub fn with_packable(self) -> Self {
        self.with_codec(&PackCodec)
    }
}

/// Mutable accumulator for one fixpoint pass.
struct PassResult {
    states: usize,
    edges: u64,
    complete: bool,
    violations: Vec<Violation>,
    notes: Vec<String>,
    seen_notes: HashSet<String>,
}

impl Default for PassResult {
    fn default() -> Self {
        PassResult {
            states: 0,
            edges: 0,
            complete: true,
            violations: Vec::new(),
            notes: Vec::new(),
            seen_notes: HashSet::new(),
        }
    }
}

impl PassResult {
    fn note(&mut self, note: String) {
        if self.seen_notes.insert(note.clone()) && self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }
}
