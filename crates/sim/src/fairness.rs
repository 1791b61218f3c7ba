//! Schedule fairness analysis and schedule-shaping adversary combinators.
//!
//! The paper's termination requirement is deliberately *stronger* than
//! fairness: "every schedule in which a processor is activated at least k
//! times leads to termination by that processor" — no fairness assumption
//! at all (that is what separates coordination from Dijkstra-style mutual
//! exclusion, which is correct "only with respect to admissible
//! schedules"; see the paper's §1 footnote). To *study* that distinction,
//! this module measures schedules:
//!
//! * [`starvation_gaps`] / [`is_k_fair`] — bounded-waiting analysis of a
//!   recorded schedule;
//! * [`Alternator`] — the strict lockstep scheduler (the classic livelock
//!   shape for deterministic copycats);
//! * [`PrefixThen`] — play a fixed prefix, then hand over to another
//!   adversary (how the §5 killer's "set up a split, then starve" strategy
//!   shapes are composed).

use crate::adversary::{Adversary, View};
use crate::protocol::Protocol;

/// For each processor, the largest gap (in steps) between consecutive
/// activations within `schedule` — including the leading gap before its
/// first activation and the trailing gap after its last. Starved processors
/// (never scheduled) get `schedule.len()`.
pub fn starvation_gaps(schedule: &[usize], n: usize) -> Vec<usize> {
    let mut last: Vec<Option<usize>> = vec![None; n];
    let mut gaps = vec![0usize; n];
    for (t, &pid) in schedule.iter().enumerate() {
        if pid < n {
            let prev = last[pid].map_or(0, |p| p + 1);
            gaps[pid] = gaps[pid].max(t - prev);
            last[pid] = Some(t);
        }
    }
    for pid in 0..n {
        let tail_start = last[pid].map_or(0, |p| p + 1);
        gaps[pid] = gaps[pid].max(schedule.len() - tail_start);
    }
    gaps
}

/// Whether every processor is activated at least once in every window of
/// `k` consecutive steps ("k-bounded waiting").
pub fn is_k_fair(schedule: &[usize], n: usize, k: usize) -> bool {
    starvation_gaps(schedule, n).iter().all(|&g| g < k)
}

/// Strict alternation `0, 1, …, n−1, 0, …` *without* skipping ineligible
/// processors: if the due processor is ineligible it falls back to the
/// next eligible one but does not advance its own phase — preserving the
/// lockstep shape that livelocks deterministic copycats.
#[derive(Debug, Clone, Default)]
pub struct Alternator {
    tick: usize,
}

impl Alternator {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P: Protocol> Adversary<P> for Alternator {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        let n = view.states.len();
        let due = self.tick % n;
        self.tick += 1;
        if view.is_eligible(due) {
            due
        } else {
            view.eligible().next().expect("no eligible processor")
        }
    }

    fn name(&self) -> String {
        "alternator".into()
    }
}

/// Plays an explicit prefix, then delegates to `then`.
#[derive(Debug, Clone)]
pub struct PrefixThen<A> {
    prefix: Vec<usize>,
    pos: usize,
    then: A,
}

impl<A> PrefixThen<A> {
    /// Creates the combinator.
    pub fn new(prefix: Vec<usize>, then: A) -> Self {
        PrefixThen {
            prefix,
            pos: 0,
            then,
        }
    }
}

impl<P: Protocol, A: Adversary<P>> Adversary<P> for PrefixThen<A> {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        while self.pos < self.prefix.len() {
            let pid = self.prefix[self.pos];
            self.pos += 1;
            if view.is_eligible(pid) {
                return pid;
            }
        }
        self.then.pick(view)
    }

    fn name(&self) -> String {
        format!("prefix-then({})", self.then.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::RandomScheduler;
    use crate::executor::Runner;
    use crate::protocol::Val;

    #[test]
    fn gaps_of_a_round_robin_schedule_are_n() {
        let sched: Vec<usize> = (0..12).map(|i| i % 3).collect();
        assert_eq!(starvation_gaps(&sched, 3), vec![2, 2, 2]);
        assert!(is_k_fair(&sched, 3, 3));
        assert!(!is_k_fair(&sched, 3, 2));
    }

    #[test]
    fn starved_processor_gets_full_length_gap() {
        let sched = vec![0, 0, 0, 0];
        assert_eq!(starvation_gaps(&sched, 2), vec![0, 4]);
        assert!(!is_k_fair(&sched, 2, 4));
    }

    #[test]
    fn leading_and_trailing_gaps_count() {
        // P1 activated only at t=3 of 6 steps: leading gap 3, trailing 2.
        let sched = vec![0, 0, 0, 1, 0, 0];
        assert_eq!(starvation_gaps(&sched, 2)[1], 3);
    }

    #[test]
    fn empty_schedule_is_vacuously_fair() {
        assert_eq!(starvation_gaps(&[], 2), vec![0, 0]);
        assert!(is_k_fair(&[], 2, 1));
    }

    // A trivial protocol: write once, read once, decide input.
    #[derive(Debug, Clone)]
    struct Toy(usize);

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum TS {
        W(Val),
        R(Val),
        D(Val),
    }

    impl Protocol for Toy {
        type State = TS;
        type Reg = u8;
        fn processes(&self) -> usize {
            self.0
        }
        fn registers(&self) -> Vec<cil_registers::RegisterSpec<u8>> {
            cil_registers::access::per_process_registers(self.0, 0, |_| {
                cil_registers::ReaderSet::All
            })
        }
        fn init(&self, _pid: usize, v: Val) -> TS {
            TS::W(v)
        }
        fn choose(&self, pid: usize, s: &TS) -> crate::protocol::Choice<crate::protocol::Op<u8>> {
            use crate::protocol::{Choice, Op};
            match s {
                TS::W(_) => Choice::det(Op::Write(cil_registers::RegId(pid), 1)),
                TS::R(_) => Choice::det(Op::Read(cil_registers::RegId(pid))),
                TS::D(_) => unreachable!(),
            }
        }
        fn transit(
            &self,
            _pid: usize,
            s: &TS,
            _op: &crate::protocol::Op<u8>,
            _read: Option<&u8>,
        ) -> crate::protocol::Choice<TS> {
            use crate::protocol::Choice;
            match s {
                TS::W(v) => Choice::det(TS::R(*v)),
                TS::R(v) => Choice::det(TS::D(*v)),
                TS::D(_) => unreachable!(),
            }
        }
        fn decision(&self, s: &TS) -> Option<Val> {
            match s {
                TS::D(v) => Some(*v),
                _ => None,
            }
        }
    }

    #[test]
    fn alternator_produces_lockstep_schedules() {
        let p = Toy(3);
        let out = Runner::new(&p, &[Val(0), Val(1), Val(2)], Alternator::new())
            .record_trace(true)
            .run();
        let sched = out.trace.unwrap().schedule();
        assert_eq!(sched, vec![0, 1, 2, 0, 1, 2]);
        assert!(is_k_fair(&sched, 3, 3));
    }

    #[test]
    fn prefix_then_hands_over_after_the_prefix() {
        let p = Toy(3);
        let out = Runner::new(
            &p,
            &[Val(0), Val(1), Val(2)],
            PrefixThen::new(vec![2, 2], RandomScheduler::new(1)),
        )
        .record_trace(true)
        .run();
        let sched = out.trace.unwrap().schedule();
        assert_eq!(&sched[..2], &[2, 2]);
    }

    #[test]
    fn prefix_skips_ineligible_entries() {
        let p = Toy(2);
        // P0 decides after 2 steps; remaining prefix entries for P0 are
        // skipped in favour of the fallback.
        let out = Runner::new(
            &p,
            &[Val(0), Val(1)],
            PrefixThen::new(vec![0, 0, 0, 0, 0], RandomScheduler::new(1)),
        )
        .record_trace(true)
        .run();
        let sched = out.trace.unwrap().schedule();
        assert_eq!(&sched[..2], &[0, 0]);
        assert!(sched[2..].iter().all(|&pid| pid == 1));
    }
}
