//! Seeded fault-injection mutants for the static analyzer.
//!
//! Each [`MutantKind`] wraps the §4 two-processor protocol with exactly one
//! model violation planted, one per audit check. They exist to prove the
//! analyzer's checks actually fire — the mutation tests assert that
//! [`Auditor`](crate::Auditor) rejects every mutant with a diagnostic naming
//! the planted clause — and to give the CLI concrete failing inputs
//! (`cil audit mutant:<name>`).

use crate::diag::Clause;
use cil_core::two::{TwoProcessor, TwoReg, TwoState};
use cil_registers::RegisterSpec;
use cil_sim::{Choice, Op, Protocol, Val};

/// Which single violation a [`MutantTwo`] plants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantKind {
    /// The initial write stores a value that does not pack into the
    /// register's declared 2-bit width — breaks check (b).
    WidthOverflow,
    /// Line (1) reads the processor's **own** register, which its declared
    /// reader set excludes (1W1R layout) — breaks check (a).
    UnauthorizedReader,
    /// Decided states keep stepping: they write and flip their decision —
    /// breaks check (d), the Theorem 6 precondition.
    UnstableDecision,
    /// The line-(2) coin is built with a zero-weight branch, smuggled past
    /// the checked constructors via `Choice::weighted_raw` — breaks
    /// check (c).
    NonNormalizedCoin,
}

impl MutantKind {
    /// Every mutant, in a stable order.
    pub fn all() -> [MutantKind; 4] {
        [
            MutantKind::WidthOverflow,
            MutantKind::UnauthorizedReader,
            MutantKind::UnstableDecision,
            MutantKind::NonNormalizedCoin,
        ]
    }

    /// Stable CLI name.
    pub fn key(self) -> &'static str {
        match self {
            MutantKind::WidthOverflow => "width-overflow",
            MutantKind::UnauthorizedReader => "unauthorized-reader",
            MutantKind::UnstableDecision => "unstable-decision",
            MutantKind::NonNormalizedCoin => "non-normalized-coin",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<MutantKind> {
        MutantKind::all().into_iter().find(|k| k.key() == name)
    }

    /// The clause the planted violation breaks (what the audit must report).
    pub fn expected_clause(self) -> Clause {
        match self {
            MutantKind::WidthOverflow => Clause::WidthBound,
            MutantKind::UnauthorizedReader => Clause::AccessSets,
            MutantKind::UnstableDecision => Clause::DecisionStable,
            MutantKind::NonNormalizedCoin => Clause::CoinMeasure,
        }
    }
}

/// The two-processor protocol with one planted model violation.
#[derive(Debug, Clone, Copy)]
pub struct MutantTwo {
    base: TwoProcessor,
    kind: MutantKind,
}

impl MutantTwo {
    /// Plants `kind` into a fresh two-processor protocol.
    pub fn new(kind: MutantKind) -> Self {
        MutantTwo {
            base: TwoProcessor::new(),
            kind,
        }
    }

    /// The planted violation.
    pub fn kind(&self) -> MutantKind {
        self.kind
    }
}

impl Protocol for MutantTwo {
    type State = TwoState;
    type Reg = TwoReg;

    fn processes(&self) -> usize {
        self.base.processes()
    }

    fn registers(&self) -> Vec<RegisterSpec<TwoReg>> {
        self.base.registers()
    }

    fn init(&self, pid: usize, input: Val) -> TwoState {
        self.base.init(pid, input)
    }

    fn choose(&self, pid: usize, state: &TwoState) -> Choice<Op<TwoReg>> {
        match (self.kind, state) {
            (MutantKind::WidthOverflow, TwoState::Start { .. }) => {
                // Some(Val(5)) packs to 6 — over the 2-bit register's max 3.
                Choice::det(Op::Write(cil_registers::RegId(pid), Some(Val(5))))
            }
            (MutantKind::UnauthorizedReader, TwoState::AboutToRead { .. }) => {
                // Reads its own register; the 1W1R reader set excludes pid.
                Choice::det(Op::Read(cil_registers::RegId(pid)))
            }
            (MutantKind::UnstableDecision, TwoState::Decided { value }) => {
                // Keeps stepping after deciding instead of quitting.
                Choice::det(Op::Write(cil_registers::RegId(pid), Some(*value)))
            }
            (MutantKind::NonNormalizedCoin, TwoState::AboutToWrite { mine, seen }) => {
                Choice::weighted_raw(vec![
                    (0, Op::Write(cil_registers::RegId(pid), Some(*mine))),
                    (2, Op::Write(cil_registers::RegId(pid), Some(*seen))),
                ])
            }
            _ => self.base.choose(pid, state),
        }
    }

    fn transit(
        &self,
        pid: usize,
        state: &TwoState,
        op: &Op<TwoReg>,
        read: Option<&TwoReg>,
    ) -> Choice<TwoState> {
        match (self.kind, state) {
            (MutantKind::UnstableDecision, TwoState::Decided { value }) => {
                // The decision flips — exactly what Theorem 6 forbids.
                Choice::det(TwoState::Decided {
                    value: Val(value.0 ^ 1),
                })
            }
            (MutantKind::UnauthorizedReader, TwoState::AboutToRead { mine }) => {
                // Tolerate reading any value so the walk continues past the
                // planted access violation.
                match read {
                    Some(Some(seen)) if seen != mine => Choice::det(TwoState::AboutToWrite {
                        mine: *mine,
                        seen: *seen,
                    }),
                    _ => Choice::det(TwoState::Decided { value: *mine }),
                }
            }
            _ => self.base.transit(pid, state, op, read),
        }
    }

    fn decision(&self, state: &TwoState) -> Option<Val> {
        self.base.decision(state)
    }

    fn name(&self) -> String {
        format!("mutant:{}", self.kind.key())
    }
}

/// Which single *lint* (not model-violation) a [`LintMutantTwo`] plants.
///
/// Unlike [`MutantKind`], these mutants stay fully **model-compliant** —
/// the audit passes — but each one triggers specific dataflow lints
/// ([`crate::lints`]). They prove the lint passes fire on real defects
/// without conflating linting with model checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintMutant {
    /// P0 sometimes detours through a scratch register nobody ever reads,
    /// then parks in a state that can never decide — fires `dead-write`,
    /// `never-read` and `unreachable-state`.
    DeadWrite,
    /// P0's register is declared 6 bits wide though only 2 are reachable,
    /// and its read step is a coin between two identical reads — fires
    /// `width-waste` and `dead-coin`.
    WidthWaste,
}

impl LintMutant {
    /// Every lint mutant, in a stable order.
    pub fn all() -> [LintMutant; 2] {
        [LintMutant::DeadWrite, LintMutant::WidthWaste]
    }

    /// Stable CLI name.
    pub fn key(self) -> &'static str {
        match self {
            LintMutant::DeadWrite => "dead-write",
            LintMutant::WidthWaste => "width-waste",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<LintMutant> {
        LintMutant::all().into_iter().find(|k| k.key() == name)
    }

    /// The exact set of lint codes this mutant must (and must only) fire.
    pub fn expected_lints(self) -> Vec<crate::lints::LintCode> {
        use crate::lints::LintCode;
        match self {
            LintMutant::DeadWrite => vec![
                LintCode::DeadWrite,
                LintCode::NeverRead,
                LintCode::UnreachableState,
            ],
            LintMutant::WidthWaste => vec![LintCode::WidthWaste, LintCode::DeadCoin],
        }
    }
}

/// The two-processor protocol with one planted lint trigger. Passes the
/// model audit; fails `cil lint` with exactly
/// [`expected_lints`](LintMutant::expected_lints).
#[derive(Debug, Clone, Copy)]
pub struct LintMutantTwo {
    base: TwoProcessor,
    kind: LintMutant,
}

/// The sentinel state P0 parks in after its dead scratch write: a
/// `TwoState` value unreachable in the base protocol (states carry inputs,
/// and inputs are 0/1).
fn dead_write_sentinel() -> TwoState {
    TwoState::AboutToWrite {
        mine: Val(3),
        seen: Val(3),
    }
}

impl LintMutantTwo {
    /// Plants `kind` into a fresh two-processor protocol.
    pub fn new(kind: LintMutant) -> Self {
        LintMutantTwo {
            base: TwoProcessor::new(),
            kind,
        }
    }

    /// The planted lint trigger.
    pub fn kind(&self) -> LintMutant {
        self.kind
    }
}

impl Protocol for LintMutantTwo {
    type State = TwoState;
    type Reg = TwoReg;

    fn processes(&self) -> usize {
        self.base.processes()
    }

    fn registers(&self) -> Vec<RegisterSpec<TwoReg>> {
        let mut specs = self.base.registers();
        match self.kind {
            LintMutant::DeadWrite => {
                // A scratch register only P0 writes and P1 is *allowed* to
                // read — but no state ever does.
                specs.push(
                    RegisterSpec::new(
                        cil_registers::RegId(2),
                        "scratch",
                        cil_registers::Pid(0),
                        cil_registers::ReaderSet::Only(vec![cil_registers::Pid(1)]),
                        None,
                    )
                    .with_width(2),
                );
            }
            LintMutant::WidthWaste => {
                // r0 claims 6 bits; the reachable alphabet needs 2.
                specs[0].width_bits = 6;
            }
        }
        specs
    }

    fn init(&self, pid: usize, input: Val) -> TwoState {
        self.base.init(pid, input)
    }

    fn choose(&self, pid: usize, state: &TwoState) -> Choice<Op<TwoReg>> {
        if pid != 0 {
            return self.base.choose(pid, state);
        }
        match (self.kind, state) {
            (LintMutant::DeadWrite, TwoState::Start { input }) => {
                // Branch 0: the dead detour (write scratch, get stuck).
                // Branch 1: the base protocol's opening write.
                Choice::coin(
                    Op::Write(cil_registers::RegId(2), Some(*input)),
                    Op::Write(cil_registers::RegId(0), Some(*input)),
                )
            }
            (LintMutant::DeadWrite, s) if *s == dead_write_sentinel() => {
                // The stuck state spins on reads of r1 (P0 is in r1's
                // reader set) and never decides.
                Choice::det(Op::Read(cil_registers::RegId(1)))
            }
            (LintMutant::WidthWaste, TwoState::AboutToRead { .. }) => {
                // A coin whose branches are the identical operation.
                Choice::coin(
                    Op::Read(cil_registers::RegId(1)),
                    Op::Read(cil_registers::RegId(1)),
                )
            }
            _ => self.base.choose(pid, state),
        }
    }

    fn transit(
        &self,
        pid: usize,
        state: &TwoState,
        op: &Op<TwoReg>,
        read: Option<&TwoReg>,
    ) -> Choice<TwoState> {
        if pid != 0 {
            return self.base.transit(pid, state, op, read);
        }
        match (self.kind, state, op) {
            (LintMutant::DeadWrite, TwoState::Start { .. }, Op::Write(r, _)) if r.0 == 2 => {
                Choice::det(dead_write_sentinel())
            }
            (LintMutant::DeadWrite, s, _) if *s == dead_write_sentinel() => {
                Choice::det(dead_write_sentinel())
            }
            _ => self.base.transit(pid, state, op, read),
        }
    }

    fn decision(&self, state: &TwoState) -> Option<Val> {
        self.base.decision(state)
    }

    fn name(&self) -> String {
        format!("mutant:{}", self.kind.key())
    }
}

/// No symmetry elements declared: each mutant plants its trigger in P0.
impl cil_mc::Symmetric for LintMutantTwo {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Auditor;

    #[test]
    fn the_unmutated_base_passes() {
        let report = Auditor::new(&TwoProcessor::new()).with_packable().run();
        assert!(report.ok(), "{report}");
        assert!(report.complete);
    }

    #[test]
    fn lint_mutants_stay_model_compliant() {
        for kind in LintMutant::all() {
            let mutant = LintMutantTwo::new(kind);
            let report = Auditor::new(&mutant).with_packable().run();
            assert!(
                report.ok(),
                "lint mutant {} must pass the model audit: {report}",
                kind.key()
            );
            assert!(report.complete);
        }
    }

    #[test]
    fn lint_mutants_fire_exactly_their_expected_lints() {
        for kind in LintMutant::all() {
            let mutant = LintMutantTwo::new(kind);
            let report = crate::lints::lint(&Auditor::new(&mutant).with_packable());
            let fired: Vec<_> = report.fired().into_iter().collect();
            let mut expected = kind.expected_lints();
            expected.sort();
            assert_eq!(
                fired,
                expected,
                "mutant {} fired {fired:?}, expected {expected:?}: {report}",
                kind.key()
            );
        }
    }

    #[test]
    fn every_mutant_is_rejected_for_its_planted_clause() {
        for kind in MutantKind::all() {
            let mutant = MutantTwo::new(kind);
            let report = Auditor::new(&mutant).with_packable().run();
            assert!(!report.ok(), "mutant {} slipped through", kind.key());
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.clause == kind.expected_clause()),
                "mutant {} reported {:?}, expected clause {:?}",
                kind.key(),
                report.violations,
                kind.expected_clause()
            );
        }
    }
}
