//! Property-based tests of the protocols' pure transition logic, via the
//! public `Protocol` interface: invariants every `choose`/`transit` pair
//! must satisfy regardless of state, plus circular-order laws of the §6
//! counter.

use cil_core::n_unbounded::{NReg, NUnbounded};
use cil_core::three_bounded::{ahead, ThreeBounded};
use cil_core::two::TwoProcessor;
use cil_sim::{Choice, Op, Protocol, RandomScheduler, Runner, Val, Xoshiro256StarStar};
use proptest::prelude::*;

/// Drive a protocol with real steps, checking structural invariants at
/// every state it actually visits.
fn check_visited_states<P: Protocol>(
    protocol: &P,
    inputs: &[Val],
    seed: u64,
    check: impl Fn(usize, &P::State),
) {
    use cil_registers::SharedMemory;
    use cil_sim::Rng as _;
    let mut memory = SharedMemory::new(protocol.registers()).unwrap();
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut sched = Xoshiro256StarStar::new(seed ^ 0xFEED);
    let mut states: Vec<P::State> = inputs
        .iter()
        .enumerate()
        .map(|(pid, &v)| protocol.init(pid, v))
        .collect();
    for _ in 0..200 {
        let eligible: Vec<usize> = (0..states.len())
            .filter(|&i| protocol.decision(&states[i]).is_none())
            .collect();
        if eligible.is_empty() {
            break;
        }
        let pid = eligible[sched.below(eligible.len() as u64) as usize];
        check(pid, &states[pid]);
        cil_sim::step(
            protocol,
            pid,
            &mut states[pid],
            &mut memory,
            &mut rng,
            |_, _| None,
        );
    }
}

fn choice_weights_positive<T>(c: &Choice<T>) -> bool {
    !c.branches().is_empty() && c.branches().iter().all(|&(w, _)| w > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn circular_distance_is_antisymmetric(x in 1u8..=9, y in 1u8..=9) {
        let d = ahead(x, y);
        prop_assert!((-4..=4).contains(&d));
        if d != 0 && d.abs() != 4 {
            // -4/+4 is the ambiguous antipode of the 9-cycle; elsewhere the
            // relation is perfectly antisymmetric.
            prop_assert_eq!(ahead(y, x), -d);
        }
        prop_assert_eq!(ahead(x, x), 0);
    }

    #[test]
    fn circular_distance_respects_unit_steps(x in 1u8..=9) {
        let next = if x == 9 { 1 } else { x + 1 };
        prop_assert_eq!(ahead(next, x), 1);
        prop_assert_eq!(ahead(x, next), -1);
    }

    #[test]
    fn every_visited_choice_is_well_formed_two(seed in any::<u64>(), a in 0u64..2, b in 0u64..2) {
        let p = TwoProcessor::new();
        check_visited_states(&p, &[Val(a), Val(b)], seed, |pid, s| {
            assert!(choice_weights_positive(&p.choose(pid, s)));
            // Preference is always defined for this protocol.
            assert!(p.preference(pid, s).is_some());
        });
    }

    #[test]
    fn every_visited_choice_is_well_formed_fig2(seed in any::<u64>()) {
        let p = NUnbounded::three();
        check_visited_states(&p, &[Val::A, Val::B, Val::A], seed, |pid, s| {
            assert!(choice_weights_positive(&p.choose(pid, s)));
        });
    }

    #[test]
    fn every_visited_choice_is_well_formed_fig3(seed in any::<u64>()) {
        let p = ThreeBounded::new();
        check_visited_states(&p, &[Val::B, Val::A, Val::B], seed, |pid, s| {
            assert!(choice_weights_positive(&p.choose(pid, s)));
            assert!(p.preference(pid, s).is_some());
        });
    }

    #[test]
    fn fig2_writes_only_monotone_nums(seed in any::<u64>()) {
        // The num field in any processor's own register never decreases —
        // the global-ordering invariant Theorem 9 builds on.
        let p = NUnbounded::three();
        let out = Runner::new(&p, &[Val::A, Val::B, Val::A], RandomScheduler::new(seed))
            .seed(seed)
            .record_trace(true)
            .max_steps(100_000)
            .run();
        let mut last: Vec<Option<NReg>> = vec![None; 3];
        for e in out.trace.unwrap().events() {
            if let Op::Write(_, v) = &e.op {
                if let Some(prev) = last[e.pid] {
                    prop_assert!(
                        v.num >= prev.num,
                        "P{} wrote num {} after {}",
                        e.pid, v.num, prev.num
                    );
                }
                last[e.pid] = Some(*v);
            }
        }
    }

    #[test]
    fn decisions_are_irrevocable_across_protocols(seed in any::<u64>()) {
        // Run to completion and confirm decision states report stable values.
        let p = NUnbounded::three();
        let out = Runner::new(&p, &[Val::A, Val::B, Val::B], RandomScheduler::new(seed))
            .seed(seed)
            .run();
        for (pid, s) in out.final_states.iter().enumerate() {
            if let Some(v) = p.decision(s) {
                prop_assert_eq!(Some(v), out.decisions[pid]);
            }
        }
    }

    #[test]
    fn registers_declared_match_protocol_arity(n in 2usize..8) {
        let p = NUnbounded::new(n);
        let specs = p.registers();
        prop_assert_eq!(specs.len(), n);
        for (i, s) in specs.iter().enumerate() {
            prop_assert_eq!(s.id.0, i);
            prop_assert_eq!(s.writer.0, i);
            prop_assert!(!s.readers.allows(i.into()), "writer must not self-read");
        }
    }
}
