//! Contract tests for the adversary suite: every scheduler must always pick
//! an eligible processor, for every protocol, under randomized stress —
//! plus cross-checks tying the model checker's enumeration to the MDP
//! solver's.

use cil_core::n_unbounded::NUnbounded;
use cil_core::three_bounded::ThreeBounded;
use cil_core::two::TwoProcessor;
use cil_mc::{CompactExplorer, CompactMdp, CompactOptions};
use cil_sim::{
    Adversary, Alternator, BoxedAdversary, CrashPlan, FixedSchedule, Halt, LaggardFirst,
    LeaderFirst, Protocol, RandomScheduler, RoundRobin, Runner, Solo, SplitKeeper, Val, View,
};
use proptest::prelude::*;

/// Wraps any adversary and asserts the executor's eligibility contract on
/// every pick (the executor would panic anyway; this makes the property
/// explicit and testable per adversary).
struct ContractChecked<A>(A, u64);

impl<P: Protocol, A: Adversary<P>> Adversary<P> for ContractChecked<A> {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        let pid = self.0.pick(view);
        assert!(
            view.is_eligible(pid),
            "{} picked ineligible P{pid}",
            self.0.name()
        );
        self.1 += 1;
        pid
    }
}

fn full_suite<P: Protocol>(seed: u64) -> Vec<BoxedAdversary<P>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomScheduler::new(seed)),
        Box::new(SplitKeeper::new()),
        Box::new(LaggardFirst::new()),
        Box::new(LeaderFirst::new()),
        Box::new(Alternator::new()),
        Box::new(Solo::new(0)),
        Box::new(FixedSchedule::new(vec![0, 1, 0, 1, 2 % 2])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_adversary_honours_eligibility_two_proc(seed in any::<u64>()) {
        let p = TwoProcessor::new();
        for adv in full_suite::<TwoProcessor>(seed) {
            let out = Runner::new(&p, &[Val::A, Val::B], ContractChecked(adv, 0))
                .seed(seed)
                .max_steps(50_000)
                .run();
            prop_assert!(out.consistent());
        }
    }

    #[test]
    fn every_adversary_honours_eligibility_fig2(seed in any::<u64>()) {
        let p = NUnbounded::three();
        for adv in full_suite::<NUnbounded>(seed) {
            let out = Runner::new(&p, &[Val::A, Val::B, Val::A], ContractChecked(adv, 0))
                .seed(seed)
                .max_steps(500_000)
                .run();
            prop_assert!(out.consistent());
        }
    }

    #[test]
    fn eligibility_holds_even_under_crashes(seed in any::<u64>(), victim in 0usize..3) {
        let p = ThreeBounded::new();
        for adv in full_suite::<ThreeBounded>(seed) {
            let out = Runner::new(&p, &[Val::B, Val::A, Val::A], ContractChecked(adv, 0))
                .seed(seed)
                .crashes(CrashPlan::none().crash(victim, seed % 7))
                .max_steps(500_000)
                .run();
            prop_assert!(out.consistent());
            prop_assert_eq!(out.halt, Halt::Done);
        }
    }
}

#[test]
fn explorer_and_mdp_agree_on_the_state_space_size() {
    // Two enumerations of the same closed space must coincide. Both keep
    // raw configurations: no symmetry quotient, no decided-state merging,
    // and a depth bound the space never reaches keeps the activation mask
    // in the MDP's keys, as the explorer's.
    let p = TwoProcessor::new();
    let raw = CompactOptions {
        max_depth: Some(64),
        use_symmetry: false,
        merge_decided: false,
        ..CompactOptions::default()
    };
    for inputs in [[Val::A, Val::B], [Val::A, Val::A], [Val::B, Val::A]] {
        let report = CompactExplorer::new(&p, &inputs).use_symmetry(false).run();
        assert!(report.complete);
        let mdp = CompactMdp::build(&p, &inputs, &raw).unwrap();
        assert_eq!(
            mdp.stats().truncated,
            0,
            "inputs {inputs:?}: depth bound reached"
        );
        assert_eq!(
            report.explored,
            mdp.size(),
            "inputs {inputs:?}: explorer vs mdp enumeration mismatch"
        );
    }
}

#[test]
fn solo_adversary_matches_paper_schedule_semantics() {
    // Solo(i) is the paper's S_i = (i, i, i, …): the target runs alone until
    // it decides.
    let p = NUnbounded::three();
    let out = Runner::new(&p, &[Val::B, Val::A, Val::A], Solo::new(1))
        .seed(4)
        .record_trace(true)
        .stop_when(cil_sim::StopWhen::PidDecided(1))
        .max_steps(100_000)
        .run();
    let sched = out.trace.unwrap().schedule();
    assert!(sched.iter().all(|&pid| pid == 1), "{sched:?}");
    assert_eq!(out.decisions[1], Some(Val::A));
}
