//! The shared pieces every engine runs: the §2 step kernel
//! (`cil_sim::step`) and the safety verdict (`cil_sim::Verdict`).
//!
//! * For each of the nine built-in families, one recorded round-robin
//!   schedule is stepped through the simulator's `SharedMemory` and
//!   through a hardware register file plus the family's codec: both must
//!   give the same step records, and those must be the `Runner`'s trace. A
//!   forced-coin hook must take exactly the branch it names and draw
//!   nothing from the generator.
//! * The verdict is checked against the formulas the engines used to write
//!   out by hand, kept here as a private oracle, over decided, undecided,
//!   crashed, trivial and inconsistent decision vectors.

use cil_conc::{classify, ConcHalt, ConcOutcome};
use cil_core::deterministic::{DetRule, DetTwo};
use cil_core::kvalued::KValued;
use cil_core::n_unbounded::NUnbounded;
use cil_core::n_unbounded_1w1r::NUnbounded1W1R;
use cil_core::naive::Naive;
use cil_core::three_bounded::ThreeBounded;
use cil_core::two::TwoProcessor;
use cil_core::KRegCodec;
use cil_obs::CoinStage;
use cil_registers::{HwRegisterFile, SharedMemory};
use cil_sim::{
    step, Choice, Halt, Memory, PackCodec, Protocol, Rng, RoundRobin, RunOutcome, Runner,
    StepRecord, ThreadOutcome, TrialOutcome, TrialResult, Val, Verdict, WordCodec,
    Xoshiro256StarStar,
};
use proptest::prelude::*;

/// Steps `schedule` from the initial configuration over `memory`, with
/// coins sampled from `seed`'s stream, as `Runner` does.
fn sampled_records<P: Protocol, M: Memory<P::Reg>>(
    p: &P,
    inputs: &[Val],
    memory: &mut M,
    seed: u64,
    schedule: &[usize],
) -> Vec<StepRecord<P::Reg>> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut states: Vec<P::State> = (0..inputs.len()).map(|i| p.init(i, inputs[i])).collect();
    schedule
        .iter()
        .map(|&pid| step(p, pid, &mut states[pid], memory, &mut rng, |_, _| None))
        .collect()
}

/// A generator a forced step must never draw from.
struct NoDraws;

impl Rng for NoDraws {
    fn next_u64(&mut self) -> u64 {
        panic!("a step with every coin forced drew from the generator")
    }
}

/// The branch of `choice` the kernel must have taken: the only one of a
/// deterministic choice, else the one `forced` names for `stage`.
fn expected_branch<'c, T>(
    choice: &'c Choice<T>,
    stage: CoinStage,
    forced: &mut impl Iterator<Item = (CoinStage, usize, usize)>,
) -> (&'c T, Option<usize>) {
    let branches = choice.branches();
    if choice.is_det() {
        return (&branches[0].1, None);
    }
    let (named_stage, count, index) = forced.next().expect("the coin consulted the hook");
    assert_eq!(named_stage, stage);
    assert_eq!(count, branches.len());
    (&branches[index].1, Some(count))
}

/// Steps `schedule` (skipping processors that already decided) with every
/// coin forced, cycling through the branches; each step must take exactly
/// the branches named. Returns how many coins were forced.
fn forced_coins<P: Protocol>(p: &P, inputs: &[Val], schedule: &[usize]) -> usize {
    let mut memory = SharedMemory::new(p.registers()).expect("valid specs");
    let mut states: Vec<P::State> = (0..inputs.len()).map(|i| p.init(i, inputs[i])).collect();
    let mut forced = 0;
    for &pid in schedule {
        if p.decision(&states[pid]).is_some() {
            continue;
        }
        let before = states[pid].clone();
        let mut named = Vec::new();
        let record = step(
            p,
            pid,
            &mut states[pid],
            &mut memory,
            &mut NoDraws,
            |stage, branches| {
                let index = (forced + named.len()) % branches;
                named.push((stage, branches, index));
                Some(index)
            },
        );
        let mut named_iter = named.iter().copied();
        let choice = p.choose(pid, &before);
        let (op, choose_branches) = expected_branch(&choice, CoinStage::Choose, &mut named_iter);
        assert_eq!(&record.op, op);
        assert_eq!(record.choose_branches, choose_branches);
        let transition = p.transit(pid, &before, &record.op, record.read.as_ref());
        let (next, transit_branches) =
            expected_branch(&transition, CoinStage::Transit, &mut named_iter);
        assert_eq!(&states[pid], next);
        assert_eq!(record.transit_branches, transit_branches);
        assert_eq!(record.decision, p.decision(next));
        assert_eq!(named_iter.next(), None, "the hook was asked only for coins");
        let flips = [record.choose_branches, record.transit_branches];
        assert_eq!(flips.iter().flatten().count(), named.len());
        forced += named.len();
    }
    forced
}

/// The kernel gives one family the same records over both memories, those
/// records are its `Runner` trace, and forced coins are taken as named.
/// Returns how many coins the forced run took.
fn check_family<P: Protocol, C: WordCodec<P::Reg>>(p: &P, codec: &C, inputs: &[Val]) -> usize {
    let seed = 7;
    let out = Runner::new(p, inputs, RoundRobin::new())
        .seed(seed)
        .max_steps(300)
        .record_trace(true)
        .run();
    let trace = out.trace.expect("recorded");
    let schedule = trace.schedule();
    let name = p.name();

    let mut shared = SharedMemory::new(p.registers()).expect("valid specs");
    let simulated = sampled_records(p, inputs, &mut shared, seed, &schedule);
    let file = HwRegisterFile::with_packer(p.registers(), |reg, v| codec.pack(reg, v))
        .expect("valid specs");
    let mut hw = (&file, codec);
    let hardware = sampled_records(p, inputs, &mut hw, seed, &schedule);
    assert_eq!(
        simulated, hardware,
        "{name}: SharedMemory vs HwRegisterFile"
    );

    assert_eq!(simulated.len(), trace.len(), "{name}");
    for (record, event) in simulated.iter().zip(trace.events()) {
        assert_eq!(
            (record.pid, &record.op, &record.read),
            (event.pid, &event.op, &event.read),
            "{name}: step {}",
            event.index
        );
    }
    let decided = simulated.iter().filter(|r| r.decision.is_some()).count();
    assert_eq!(decided, out.decisions.iter().flatten().count(), "{name}");

    forced_coins(p, inputs, &schedule)
}

#[test]
fn every_family_steps_alike_over_both_memories_and_forced_coins() {
    let (a, b) = (Val::A, Val::B);
    let coins = [
        check_family(&TwoProcessor::new(), &PackCodec, &[a, b]),
        check_family(&NUnbounded::three(), &PackCodec, &[a, b, a]),
        check_family(&NUnbounded::literal_fig2(3), &PackCodec, &[b, a, a]),
        check_family(&NUnbounded1W1R::three(), &PackCodec, &[a, b, a]),
        check_family(&ThreeBounded::new(), &PackCodec, &[a, b, a]),
        check_family(&Naive::new(3), &PackCodec, &[a, b, a]),
        check_family(&NUnbounded::new(4), &PackCodec, &[a, b, a, b]),
    ];
    assert!(coins.iter().all(|&n| n > 0), "coins forced: {coins:?}");
    let k3 = KValued::new(TwoProcessor::new(), 3);
    let forced = check_family(&k3, &KRegCodec::for_protocol(&k3), &[Val(0), Val(2)]);
    assert!(forced > 0);
    // The Theorem 4 family flips no coin at all.
    for rule in [DetRule::AdoptIfGreater, DetRule::AlwaysKeep] {
        assert_eq!(check_family(&DetTwo::new(rule), &PackCodec, &[a, b]), 0);
    }
}

// --- The verdict against the formulas it replaced. ---

/// `RunOutcome::agreement`'s old formula.
fn oracle_agreement(decisions: &[Option<Val>]) -> Option<Val> {
    let mut agreed = None;
    for d in decisions.iter().flatten() {
        match agreed {
            None => agreed = Some(*d),
            Some(v) if v != *d => return None,
            _ => {}
        }
    }
    agreed
}

/// `RunOutcome::consistent`'s old formula.
fn oracle_consistent(decisions: &[Option<Val>]) -> bool {
    let mut first = None;
    for d in decisions.iter().flatten() {
        match first {
            None => first = Some(*d),
            Some(v) if v != *d => return false,
            _ => {}
        }
    }
    true
}

/// `RunOutcome::nontrivial`'s old formula.
fn oracle_nontrivial(decisions: &[Option<Val>], inputs: &[Val], steps: &[u64]) -> bool {
    decisions.iter().flatten().all(|d| {
        inputs
            .iter()
            .zip(steps)
            .any(|(input, &steps)| steps > 0 && input == d)
    })
}

/// `ConcOutcome::agreement`'s and `ThreadOutcome::agreed`'s old formula.
fn oracle_unanimous(decisions: &[Option<Val>]) -> Option<Val> {
    let first = decisions.first().copied().flatten()?;
    decisions.iter().all(|d| *d == Some(first)).then_some(first)
}

/// The classification `TrialResult::from_run`, `InstanceSlot::finish` and
/// `stress::classify` each wrote out.
fn oracle_outcome(
    decisions: &[Option<Val>],
    inputs: &[Val],
    steps: &[u64],
    stopped_short: bool,
) -> TrialOutcome {
    if !oracle_consistent(decisions) {
        TrialOutcome::Inconsistent
    } else if !oracle_nontrivial(decisions, inputs, steps) {
        TrialOutcome::Trivial
    } else if stopped_short {
        TrialOutcome::Undecided
    } else {
        TrialOutcome::Decided
    }
}

/// One processor: its input, the steps it took (0 = never activated, or
/// crashed before its first step) and its decision. Values range over
/// 0..4 and inputs over 0..3, so some decisions match no input.
fn processor() -> impl Strategy<Value = (u64, u64, Option<u64>)> {
    (0u64..3, 0u64..3, proptest::option::of(0u64..4))
}

/// A run whose decisions all agree on an activated processor's input
/// (decided or undecided, never unsafe), to balance the random vectors,
/// which are mostly inconsistent or trivial.
fn safe_run() -> impl Strategy<Value = Vec<(u64, u64, Option<u64>)>> {
    (
        proptest::collection::vec((0u64..3, 1u64..3, any::<bool>()), 1..6),
        0usize..5,
    )
        .prop_map(|(rows, leader)| {
            let value = rows[leader % rows.len()].0;
            rows.into_iter()
                .map(|(input, steps, decided)| (input, steps, decided.then_some(value)))
                .collect()
        })
}

fn check_verdict(rows: &[(u64, u64, Option<u64>)], budget_hit: bool) {
    let inputs: Vec<Val> = rows.iter().map(|r| Val(r.0)).collect();
    let steps: Vec<u64> = rows.iter().map(|r| r.1).collect();
    let decisions: Vec<Option<Val>> = rows.iter().map(|r| r.2.map(Val)).collect();

    let verdict = Verdict::judge(decisions.iter().copied(), &inputs, &steps);
    assert_eq!(verdict.agreed, oracle_agreement(&decisions), "{rows:?}");
    assert_eq!(
        verdict.consistent,
        oracle_consistent(&decisions),
        "{rows:?}"
    );
    assert_eq!(
        verdict.nontrivial,
        oracle_nontrivial(&decisions, &inputs, &steps),
        "{rows:?}"
    );
    assert_eq!(
        verdict.unanimous(),
        oracle_unanimous(&decisions),
        "{rows:?}"
    );
    assert_eq!(
        verdict.all_decided,
        decisions.iter().all(Option::is_some),
        "{rows:?}"
    );

    // The engines' public wrappers, built from the same vectors.
    let run = RunOutcome::<TwoProcessor> {
        inputs: inputs.clone(),
        decisions: decisions.clone(),
        steps: steps.clone(),
        total_steps: steps.iter().sum(),
        crashed: vec![false; rows.len()],
        final_regs: Vec::new(),
        final_states: Vec::new(),
        halt: if budget_hit {
            Halt::MaxSteps
        } else {
            Halt::Done
        },
        trace: None,
    };
    assert_eq!(run.agreement(), oracle_agreement(&decisions));
    assert_eq!(run.consistent(), oracle_consistent(&decisions));
    assert_eq!(
        run.nontrivial(),
        oracle_nontrivial(&decisions, &inputs, &steps)
    );
    assert_eq!(
        TrialResult::from_run(&run).outcome,
        oracle_outcome(&decisions, &inputs, &steps, budget_hit),
        "{rows:?}"
    );

    let conc = ConcOutcome {
        inputs: inputs.clone(),
        decisions: decisions.clone(),
        steps: steps.clone(),
        flips: vec![0; rows.len()],
        reg_words: Vec::new(),
        total_steps: run.total_steps,
        halt: ConcHalt::Done,
        schedule: Vec::new(),
        events: Vec::new(),
    };
    assert_eq!(conc.agreement(), oracle_unanimous(&decisions));
    assert_eq!(conc.consistent(), oracle_consistent(&decisions));
    assert_eq!(
        conc.nontrivial(),
        oracle_nontrivial(&decisions, &inputs, &steps)
    );
    let all_decided = decisions.iter().all(Option::is_some);
    assert_eq!(
        classify(&conc).outcome,
        oracle_outcome(&decisions, &inputs, &steps, !all_decided),
        "{rows:?}"
    );

    let threads = ThreadOutcome {
        inputs,
        decisions: decisions.clone(),
        steps,
        flips: vec![0; rows.len()],
        reg_words: Vec::new(),
    };
    assert_eq!(threads.agreed(), oracle_unanimous(&decisions));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn verdict_matches_the_formulas_it_replaced(
        rows in proptest::collection::vec(processor(), 0..7),
        budget_hit in any::<bool>(),
    ) {
        check_verdict(&rows, budget_hit);
    }

    #[test]
    fn verdict_matches_on_safe_runs(rows in safe_run(), budget_hit in any::<bool>()) {
        check_verdict(&rows, budget_hit);
    }
}
