//! The Figure 2 protocol over **single-writer single-reader** registers —
//! the variant the paper defers to the full paper ("In the full paper we
//! prove that the same protocol also works with 1-writer 1-reader
//! registers").
//!
//! Instead of one 1-writer (n−1)-reader register per processor, every
//! ordered pair `(i, j)` gets its own register `r_{i→j}` written by `P_i`
//! and read only by `P_j` — the most restricted register class of the
//! paper, the one Lamport's constructions actually provide. A phase of
//! `P_i` becomes:
//!
//! 1. write the current `(pref, num)` into all `n − 1` outgoing copies
//!    (one register operation each — the copies are briefly *incoherent*,
//!    which is exactly the new difficulty of this variant);
//! 2. read the `n − 1` incoming registers `r_{j→i}`;
//! 3. conclude exactly as in Fig. 2 (same decision and advance rules,
//!    including this repository's corrected leader-self gap-2 rule — see
//!    [`crate::n_unbounded::NUnbounded`]);
//! 4. coin: write the new contents (all copies, next phase) or retain.
//!
//! **Why the correctness argument survives copy incoherence.** The barrier
//! argument for the corrected rule needs: every register value with
//! `num ≥ m` (the decided level) carries the decided pref `v`. A winner
//! `W` deciding at level `m` has *all* its outgoing copies at `(v, m)`
//! before its decision reads (copies are written at the start of the
//! phase), and they stay frozen. Any processor climbing to level `m` does
//! the climb-phase reads *after* `W` observed it at `≤ m − 2` — and a
//! read of `r_{W→j}` at any such time returns `(v, m)` — so its view's
//! maximal level is `m` and, by induction over the order in which `num ≥ m`
//! copy-values are written, all leaders it sees carry `v`; it adopts `v`.
//! A peer's lagging copy only makes views *staler* (smaller `num`), never
//! fresher, so incoherence cannot manufacture a spurious leader.

use crate::n_unbounded::{NReg, NUnbounded, PhaseOutcome, PhaseScan};
use cil_registers::{ReaderSet, RegId, RegisterSpec};
use cil_sim::{Choice, Op, Protocol, Val};

/// Internal state of one processor of the 1W1R variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WState {
    /// Writing the current register contents into outgoing copy `idx`.
    WriteCopies {
        /// Value being replicated.
        reg: NReg,
        /// Index into the peer list (0-based).
        idx: usize,
    },
    /// Reading incoming register `idx`.
    Reading {
        /// Own (fully replicated) register contents.
        my: NReg,
        /// Index into the peer list.
        idx: usize,
        /// Running leader-scan statistics folded over the values read so
        /// far this phase (replaces storing the raw reads).
        scan: PhaseScan,
    },
    /// End of phase: coin between replicating `new` and retaining `old`.
    /// The coin is flipped once; the chosen value is then replicated to all
    /// copies by the following [`WState::WriteCopies`] phase.
    CoinThenWrite {
        /// Current contents.
        old: NReg,
        /// Computed new contents.
        new: NReg,
    },
    /// Decision state.
    Decided {
        /// The irrevocable output value.
        value: Val,
    },
}

/// The Fig. 2 protocol over per-pair 1W1R registers, with the corrected
/// decision rule. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NUnbounded1W1R {
    n: usize,
}

impl NUnbounded1W1R {
    /// Creates the protocol for `n` processors.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "coordination needs at least two processors");
        NUnbounded1W1R { n }
    }

    /// The three-processor instance (the §5 setting).
    pub fn three() -> Self {
        NUnbounded1W1R::new(3)
    }

    /// Peers of `pid` in fixed order.
    #[inline]
    fn peers(&self, pid: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&j| j != pid)
    }

    /// Register `r_{writer→reader}`.
    #[inline]
    fn pair_reg(&self, writer: usize, reader: usize) -> RegId {
        debug_assert_ne!(writer, reader);
        let slot = self
            .peers(writer)
            .position(|j| j == reader)
            .expect("reader is a peer");
        RegId(writer * (self.n - 1) + slot)
    }
}

impl Protocol for NUnbounded1W1R {
    type State = WState;
    type Reg = NReg;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> Vec<RegisterSpec<NReg>> {
        let mut specs = Vec::with_capacity(self.n * (self.n - 1));
        for writer in 0..self.n {
            for reader in self.peers(writer) {
                let id = self.pair_reg(writer, reader);
                specs.push(
                    RegisterSpec::new(
                        id,
                        format!("r{writer}->{reader}"),
                        writer.into(),
                        ReaderSet::only([reader.into()]),
                        NReg::BOT,
                    )
                    // Same unbounded `(pref, num)` contents as Fig. 2: the
                    // declared width is the full packed word.
                    .with_width(64),
                );
            }
        }
        // pair_reg enumerates ids densely in writer-major order.
        specs.sort_by_key(|s| s.id.0);
        specs
    }

    #[inline]
    fn init(&self, _pid: usize, input: Val) -> WState {
        WState::WriteCopies {
            reg: NReg {
                pref: Some(input),
                num: 1,
            },
            idx: 0,
        }
    }

    #[inline]
    fn choose(&self, pid: usize, state: &WState) -> Choice<Op<NReg>> {
        match state {
            WState::WriteCopies { reg, idx } => {
                let reader = self.peers(pid).nth(*idx).expect("peer in range");
                Choice::det(Op::Write(self.pair_reg(pid, reader), *reg))
            }
            WState::Reading { idx, .. } => {
                let writer = self.peers(pid).nth(*idx).expect("peer in range");
                Choice::det(Op::Read(self.pair_reg(writer, pid)))
            }
            WState::CoinThenWrite { old, new } => {
                // The phase coin: heads installs the new contents, tails
                // retains the old — realized as the *first copy write* of
                // the chosen value; the remaining copies follow.
                let reader = self.peers(pid).next().expect("n >= 2");
                let reg = self.pair_reg(pid, reader);
                Choice::coin(Op::Write(reg, *new), Op::Write(reg, *old))
            }
            WState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn transit(
        &self,
        _pid: usize,
        state: &WState,
        op: &Op<NReg>,
        read: Option<&NReg>,
    ) -> Choice<WState> {
        match state {
            WState::WriteCopies { reg, idx } => {
                if *idx + 1 < self.n - 1 {
                    Choice::det(WState::WriteCopies {
                        reg: *reg,
                        idx: idx + 1,
                    })
                } else {
                    Choice::det(WState::Reading {
                        my: *reg,
                        idx: 0,
                        scan: PhaseScan::start(*reg),
                    })
                }
            }
            WState::Reading { my, idx, scan } => {
                let v = *read.expect("reading phase reads");
                let mut scan = *scan;
                scan.observe(*my, v);
                if *idx + 1 < self.n - 1 {
                    Choice::det(WState::Reading {
                        my: *my,
                        idx: idx + 1,
                        scan,
                    })
                } else {
                    match NUnbounded::conclude_scan(*my, scan, true) {
                        PhaseOutcome::Decide(v) => Choice::det(WState::Decided { value: v }),
                        PhaseOutcome::Advance(new) => {
                            Choice::det(WState::CoinThenWrite { old: *my, new })
                        }
                    }
                }
            }
            WState::CoinThenWrite { .. } => {
                let written = match op {
                    Op::Write(_, w) => *w,
                    Op::Read(_) => unreachable!("coin step writes"),
                };
                // The first copy is already written (this step); replicate
                // to the remaining copies, then read.
                if self.n - 1 > 1 {
                    Choice::det(WState::WriteCopies {
                        reg: written,
                        idx: 1,
                    })
                } else {
                    Choice::det(WState::Reading {
                        my: written,
                        idx: 0,
                        scan: PhaseScan::start(written),
                    })
                }
            }
            WState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn decision(&self, state: &WState) -> Option<Val> {
        match state {
            WState::Decided { value } => Some(*value),
            _ => None,
        }
    }

    fn preference(&self, _pid: usize, state: &WState) -> Option<Val> {
        match state {
            WState::WriteCopies { reg, .. } => reg.pref,
            WState::Reading { my, .. } | WState::CoinThenWrite { old: my, .. } => my.pref,
            WState::Decided { value } => Some(*value),
        }
    }

    fn name(&self) -> String {
        format!("{}-processor unbounded, 1W1R registers", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_sim::{
        CrashPlan, Halt, LaggardFirst, RandomScheduler, Runner, Solo, SplitKeeper, StopWhen,
    };

    #[test]
    fn registers_are_strictly_single_reader() {
        let p = NUnbounded1W1R::three();
        let specs = cil_sim::Protocol::registers(&p);
        assert_eq!(specs.len(), 6);
        for s in &specs {
            let readers: Vec<usize> = (0..3).filter(|&j| s.readers.allows(j.into())).collect();
            assert_eq!(readers.len(), 1, "register {} has {readers:?}", s.name);
            assert_ne!(s.writer.0, readers[0], "writer reads its own register");
        }
    }

    #[test]
    fn pair_register_ids_are_dense_and_distinct() {
        let p = NUnbounded1W1R::new(5);
        let mut ids = std::collections::HashSet::new();
        for w in 0..5 {
            for r in 0..5 {
                if w != r {
                    assert!(ids.insert(p.pair_reg(w, r)));
                }
            }
        }
        assert_eq!(ids.len(), 20);
        assert!(ids.iter().all(|id| id.0 < 20));
    }

    #[test]
    fn solo_processor_decides() {
        let p = NUnbounded1W1R::three();
        let out = Runner::new(&p, &[Val::B, Val::A, Val::A], Solo::new(0))
            .stop_when(StopWhen::PidDecided(0))
            .seed(5)
            .max_steps(100_000)
            .run();
        assert_eq!(out.decisions[0], Some(Val::B));
        assert_eq!(out.steps[1] + out.steps[2], 0);
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        let p = NUnbounded1W1R::three();
        for seed in 0..50 {
            let out = Runner::new(&p, &[Val::A; 3], RandomScheduler::new(seed))
                .seed(seed)
                .max_steps(1_000_000)
                .run();
            assert_eq!(out.agreement(), Some(Val::A), "seed {seed}");
        }
    }

    #[test]
    fn mixed_inputs_safe_across_seeds_and_adversaries() {
        let p = NUnbounded1W1R::three();
        let inputs = [Val::A, Val::B, Val::A];
        for seed in 0..300 {
            let out = Runner::new(&p, &inputs, RandomScheduler::new(seed))
                .seed(seed ^ 0x1337)
                .max_steps(2_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed}");
            assert!(out.consistent(), "seed {seed}");
            assert!(out.nontrivial(), "seed {seed}");
        }
        for seed in 0..100 {
            let out = Runner::new(&p, &inputs, SplitKeeper::new())
                .seed(seed)
                .max_steps(2_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "sk seed {seed}");
            assert!(out.consistent());
            let out = Runner::new(&p, &inputs, LaggardFirst::new())
                .seed(seed)
                .max_steps(2_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "lf seed {seed}");
            assert!(out.consistent());
        }
    }

    #[test]
    fn larger_n_works_too() {
        for n in [4usize, 5] {
            let p = NUnbounded1W1R::new(n);
            let inputs: Vec<Val> = (0..n).map(|i| Val((i % 2) as u64)).collect();
            for seed in 0..60 {
                let out = Runner::new(&p, &inputs, RandomScheduler::new(seed))
                    .seed(seed)
                    .max_steps(5_000_000)
                    .run();
                assert_eq!(out.halt, Halt::Done, "n={n} seed={seed}");
                assert!(out.consistent() && out.nontrivial(), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn tolerates_crashes() {
        let p = NUnbounded1W1R::three();
        for seed in 0..50 {
            let out = Runner::new(&p, &[Val::A, Val::B, Val::A], RandomScheduler::new(seed))
                .seed(seed)
                .crashes(CrashPlan::none().crash(1, 2).crash(2, 6))
                .max_steps(2_000_000)
                .run();
            assert!(out.decisions[0].is_some(), "survivor stuck, seed {seed}");
            assert!(out.consistent() && out.nontrivial());
        }
    }

    #[test]
    fn copies_can_be_transiently_incoherent_but_converge() {
        // Drive P0 mid-replication and observe the two outgoing copies
        // disagreeing, then let it finish and observe coherence.
        let p = NUnbounded1W1R::three();
        let out = Runner::new(
            &p,
            &[Val::A, Val::B, Val::A],
            cil_sim::FixedSchedule::new(vec![0]),
        )
        .seed(1)
        .max_steps(1)
        .record_trace(true)
        .run();
        // After exactly one step, P0 wrote only its first copy.
        let r01 = out.final_regs[p.pair_reg(0, 1).0];
        let r02 = out.final_regs[p.pair_reg(0, 2).0];
        assert_ne!(r01, r02, "copies should be incoherent mid-replication");
        assert_eq!(r02, NReg::BOT);
    }
}
