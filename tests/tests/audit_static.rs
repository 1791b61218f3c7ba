//! Tier-1: the static model-compliance analyzer accepts every built-in
//! protocol and rejects each seeded mutant with a diagnostic naming the
//! violated paper clause, the processor, the state and the step.

use cil_audit::{Auditor, Clause, MutantKind, MutantTwo};
use cil_core::deterministic::{DetRule, DetTwo};
use cil_core::kvalued::KValued;
use cil_core::n_unbounded::NUnbounded;
use cil_core::n_unbounded_1w1r::NUnbounded1W1R;
use cil_core::naive::Naive;
use cil_core::three_bounded::ThreeBounded;
use cil_core::two::{TwoProcessor, TwoReg};
use cil_core::KRegCodec;
use cil_sim::Val;

/// Every protocol family in the workspace passes all five checks.
///
/// `apps` (leader election / mutual exclusion) is driven by `NUnbounded`,
/// so its underlying protocol is covered by the fig2 entries.
#[test]
fn all_builtin_protocols_are_model_compliant() {
    let kvalued = KValued::new(TwoProcessor::new(), 4);
    let reports = vec![
        (
            "two",
            Auditor::new(&TwoProcessor::new()).with_packable().run(),
        ),
        (
            "three_bounded",
            Auditor::new(&ThreeBounded::new())
                .with_packable()
                .with_max_states(2048)
                .run(),
        ),
        (
            "n_unbounded (fig2, also `apps` underlying)",
            Auditor::new(&NUnbounded::three())
                .with_packable()
                .with_max_states(400)
                .run(),
        ),
        (
            "n_unbounded literal fig2",
            Auditor::new(&NUnbounded::literal_fig2(3))
                .with_packable()
                .with_max_states(400)
                .run(),
        ),
        (
            "n_unbounded_1w1r",
            Auditor::new(&NUnbounded1W1R::three())
                .with_packable()
                .with_max_states(400)
                .run(),
        ),
        (
            "deterministic",
            Auditor::new(&DetTwo::new(DetRule::AlwaysAdopt))
                .with_packable()
                .run(),
        ),
        ("naive", Auditor::new(&Naive::new(3)).with_packable().run()),
        (
            "kvalued",
            Auditor::new(&kvalued)
                .with_inputs((0..4).map(Val))
                .with_codec(&KRegCodec::for_protocol(&kvalued))
                .run(),
        ),
    ];
    for (name, report) in reports {
        assert!(report.ok(), "{name} failed the audit:\n{report}");
        assert!(report.states > 0, "{name}: walk explored nothing");
    }
}

/// Every deterministic rule variant is compliant (they differ only in the
/// adopt/keep policy, which the model does not constrain).
#[test]
fn every_deterministic_rule_is_compliant() {
    for rule in [
        DetRule::AlwaysAdopt,
        DetRule::AlwaysKeep,
        DetRule::AdoptIfGreater,
        DetRule::Alternate,
    ] {
        let report = Auditor::new(&DetTwo::new(rule)).with_packable().run();
        assert!(report.ok(), "{rule:?}:\n{report}");
        assert!(report.complete, "{rule:?}: finite protocol should complete");
    }
}

/// Finite protocols reach the alphabet fixpoint and report full coverage.
#[test]
fn finite_walks_report_complete_coverage() {
    let report = Auditor::new(&TwoProcessor::new()).with_packable().run();
    assert!(report.complete, "{report}");
    // The unbounded §5 counter forces truncation under a small budget.
    let bounded = Auditor::new(&NUnbounded::three())
        .with_packable()
        .with_max_states(100)
        .run();
    assert!(!bounded.complete, "{bounded}");
    assert!(bounded.ok(), "truncation is not a violation:\n{bounded}");
}

/// Each mutant is rejected, the diagnostic blames exactly the planted
/// clause, and it names the state and step it fired at.
#[test]
fn mutants_are_rejected_with_precise_diagnostics() {
    for kind in MutantKind::all() {
        let mutant = MutantTwo::new(kind);
        let report = Auditor::new(&mutant).with_packable().run();
        assert!(!report.ok(), "mutant {} passed the audit", kind.key());
        let expected = kind.expected_clause();
        let hit = report
            .violations
            .iter()
            .find(|v| v.clause == expected)
            .unwrap_or_else(|| {
                panic!(
                    "mutant {} never reported clause {expected:?}:\n{report}",
                    kind.key()
                )
            });
        // Diagnostics carry the state and the paper clause.
        let line = hit.to_string();
        assert!(!hit.state.is_empty() && hit.state != "-", "{line}");
        assert!(line.contains(&hit.state), "{line}");
        assert!(line.contains(expected.key()), "{line}");
        assert!(line.contains(expected.paper_clause()), "{line}");
        assert!(line.contains(&format!("step {}", hit.step)), "{line}");
    }
}

/// The width check compares packed words against each register's declared
/// `width_bits` — shrinking a declared width below the real domain makes a
/// previously compliant protocol fail, proving the bound is actually read.
#[test]
fn width_check_reads_the_declared_bound() {
    use cil_registers::RegisterSpec;
    use cil_sim::{Choice, Op, Protocol};

    /// TwoProcessor with its register widths squeezed to 1 bit: the domain
    /// {⊥, a, b} packs to {0, 1, 2}, and 2 no longer fits.
    #[derive(Debug, Clone, Copy)]
    struct Squeezed(TwoProcessor);
    impl Protocol for Squeezed {
        type State = <TwoProcessor as Protocol>::State;
        type Reg = TwoReg;
        fn processes(&self) -> usize {
            self.0.processes()
        }
        fn registers(&self) -> Vec<RegisterSpec<TwoReg>> {
            self.0
                .registers()
                .into_iter()
                .map(|s| {
                    let mut s = s;
                    s.width_bits = 1;
                    s
                })
                .collect()
        }
        fn init(&self, pid: usize, input: Val) -> Self::State {
            self.0.init(pid, input)
        }
        fn choose(&self, pid: usize, state: &Self::State) -> Choice<Op<TwoReg>> {
            self.0.choose(pid, state)
        }
        fn transit(
            &self,
            pid: usize,
            state: &Self::State,
            op: &Op<TwoReg>,
            read: Option<&TwoReg>,
        ) -> Choice<Self::State> {
            self.0.transit(pid, state, op, read)
        }
        fn decision(&self, state: &Self::State) -> Option<Val> {
            self.0.decision(state)
        }
    }

    let report = Auditor::new(&Squeezed(TwoProcessor::new()))
        .with_packable()
        .run();
    assert!(!report.ok());
    assert!(
        report
            .violations
            .iter()
            .all(|v| v.clause == Clause::WidthBound),
        "{report}"
    );
}

/// Golden pin of the `cil audit two` report format (satellite 5): the
/// renderer is deterministic, so the exact bytes are stable.
#[test]
fn golden_cil_audit_two_report() {
    let out = cil_cli::dispatch(["audit".to_string(), "two".to_string()]).unwrap();
    let expected = "\
audit: two-processor (Fig. 1)
  processes: 2
  registers: 2
  passes:    2
  states:    28
  edges:     28
  coverage:  complete
  checks:    access-sets width-bound coin-measure decision-stable purity
result: PASS
";
    assert_eq!(out, expected);
}

/// `cil audit all` covers every family and reports the summary line.
#[test]
fn cli_audit_all_passes() {
    let out = cil_cli::dispatch(["audit".to_string(), "all".to_string()]).unwrap();
    assert!(
        out.contains("9/9 protocols pass the model-compliance audit"),
        "{out}"
    );
    assert!(!out.contains("FAIL"), "{out}");
}

/// Exit-code semantics (satellite 5): mutants map to `CliFailure::Audit`
/// (exit 1), unknown specs to `CliFailure::Usage` (exit 2).
#[test]
fn cli_audit_failure_kinds_map_to_exit_codes() {
    use cil_cli::CliFailure;
    let err = cil_cli::dispatch_full(["audit".to_string(), "mutant:width-overflow".to_string()])
        .unwrap_err();
    assert!(matches!(err, CliFailure::Audit(_)), "{err:?}");
    assert_eq!(err.exit_code(), 1);
    assert!(err.message().contains("width-bound"), "{}", err.message());

    let err = cil_cli::dispatch_full(["audit".to_string(), "nonsense".to_string()]).unwrap_err();
    assert!(matches!(err, CliFailure::Usage(_)), "{err:?}");
    assert_eq!(err.exit_code(), 2);

    let err =
        cil_cli::dispatch_full(["audit".to_string(), "mutant:bogus".to_string()]).unwrap_err();
    assert_eq!(err.exit_code(), 2, "unknown mutant is a usage error");
}

/// All four mutants are rejected through the CLI spec syntax.
#[test]
fn cli_rejects_every_mutant_spec() {
    for kind in MutantKind::all() {
        let spec = format!("mutant:{}", kind.key());
        let err = cil_cli::dispatch_full(["audit".to_string(), spec.clone()]).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{spec}");
        assert!(
            err.message().contains(kind.expected_clause().key()),
            "{spec}: {}",
            err.message()
        );
    }
}
