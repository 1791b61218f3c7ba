//! The unbounded-register coordination protocol (§5, Figure 2), for three
//! processors and its natural generalization to arbitrary `n`.
//!
//! Each processor `P_i` owns a single-writer register holding a pair
//! `(pref, num)`: its currently preferred decision value and a round
//! counter used to keep a (global, because unbounded) ordering of the
//! processors. All registers start at `(⊥, 0)`. One *phase* of `P_i`
//! (Fig. 2):
//!
//! 1. read every other processor's register;
//! 2. let `maxnum` be the largest `num` field (its own included); the
//!    *leading* processors are those with `num = maxnum`;
//! 3. **decide** if (a) all prefs are equal, or (b) all leading processors
//!    share one pref and every other processor's `num ≤ maxnum − 2`
//!    (the paper: "greater by two or more") — the decision value is the
//!    leaders' pref;
//! 4. otherwise toss a fair coin. Heads: write `(newpref, num+1)` where
//!    `newpref` adopts the leaders' pref if they are unanimous, else keeps
//!    its own. Tails: rewrite the old register unchanged ("in order to break
//!    symmetry this new contents is only used in half of the time").
//!
//! §5 presents the `n = 3` case ([`ThreeUnbounded`]); the "full paper"
//! generalization to `n` processors keeps the same leader/gap-2 rules and is
//! what [`NUnbounded`] implements. Quantitative claims reproduced by the
//! bench harness: `P[num = k] ≤ (3/4)^k` (Theorem 9) and constant expected
//! running time (its Corollary).
//!
//! The registers are formally unbounded, but large `num` values occur with
//! geometrically vanishing probability — that observation is the paper's
//! motivation for the bounded protocol of §6.

use cil_registers::{ReaderSet, RegisterSpec};
use cil_sim::{Choice, Op, Protocol, Val};

/// Contents of one `(pref, num)` register. `pref = None` is the paper's ⊥.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NReg {
    /// Currently preferred decision value.
    pub pref: Option<Val>,
    /// Round counter (the paper's `num` field).
    pub num: u64,
}

impl NReg {
    /// The initial register contents `(⊥, 0)`.
    pub const BOT: NReg = NReg { pref: None, num: 0 };
}

/// Internal state of one processor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NState {
    /// About to perform the initial write of `(input, 1)`.
    Start {
        /// The processor's input value.
        input: Val,
    },
    /// Mid-phase: reading the other registers one at a time.
    Reading {
        /// Own register contents (the paper's `newreg` after its write).
        my: NReg,
        /// Index into the list of peers still to be read.
        peer_idx: usize,
        /// Running leader-scan statistics folded over the values read so
        /// far this phase (replaces storing the raw reads).
        scan: PhaseScan,
    },
    /// End of phase, no decision: about to write, coin picks new vs old.
    WriteBack {
        /// Current register contents (the paper's `oldreg`).
        old: NReg,
        /// Computed new contents (the paper's `newreg`).
        new: NReg,
    },
    /// Decision state.
    Decided {
        /// The irrevocable output value.
        value: Val,
    },
}

/// The Figure 2 protocol generalized to `n ≥ 2` processors
/// (1-writer, (n−1)-reader registers, as in the paper's 1-writer 2-reader
/// presentation for `n = 3`).
///
/// # The corrected gap-2 decision rule (a bug in the extended abstract)
///
/// Figure 2's gap-2 rule lets **any** processor decide the leaders' pref as
/// soon as it *observes* unanimous leaders two ahead of everyone else. This
/// repository's harness found that rule to be **inconsistent as literally
/// stated — already at `n = 3`** (Theorem 8 is stated without proof in the
/// extended abstract). The mechanism: the observer's per-register reads
/// happen at different times. A laggard `L` can read `r_x = (v, 1)` early,
/// then `r_y = (w, 3)` much later; its view shows a unanimous leader `y`
/// with everyone else ≥ 2 behind, so `L` decides `w` — but in the meantime
/// `x` climbed to `num = 3` *keeping* pref `v` (it read `y`'s register
/// before `y` became leader and saw split leaders), and `x`, `y` go on to
/// decide `v`. See `literal_fig2_rule_admits_inconsistency` in this
/// module's tests for the pinned interleaving, found by random search and
/// reproducible by seed.
///
/// The sound rule — used here by default for every `n`, and presumably what
/// the unpublished "full paper" proof needed — restricts the gap-2 decision
/// to the **leader itself**: decide only if *my own* `num` equals `maxnum`,
/// all leaders are unanimous, and everyone else is ≥ 2 behind. The
/// decider's own register is never stale, and its frozen `(v, m)` register
/// then acts as a barrier: any processor whose register ever shows
/// `num ≥ m` wrote that value after reading the barrier register as a
/// unanimous leader (its own pre-crossing reads of third parties can only
/// under-report their `num`), so by induction on the order of `num ≥ m`
/// writes every such register carries pref `v`.
///
/// [`NUnbounded::literal_fig2`] builds the uncorrected protocol for the
/// negative demonstration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NUnbounded {
    n: usize,
    /// Restrict the gap-2 decision to leaders themselves (the corrected
    /// rule; `false` reproduces the extended abstract's literal — unsound —
    /// Figure 2).
    strict_leader_decide: bool,
    /// Ablation: always install the new register contents instead of
    /// flipping the paper's retain-coin ("this new contents is only used in
    /// half of the time ... in order to break symmetry"). Safe but removes
    /// the randomness the termination guarantee relies on; EXP-10 measures
    /// the consequences.
    always_write: bool,
}

/// The paper's §5 three-processor protocol is exactly [`NUnbounded`] with
/// `n = 3`.
pub type ThreeUnbounded = NUnbounded;

impl NUnbounded {
    /// Creates the protocol for `n` processors.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "coordination needs at least two processors");
        NUnbounded {
            n,
            strict_leader_decide: true,
            always_write: false,
        }
    }

    /// The §5 protocol (`n = 3`) with the corrected decision rule.
    pub fn three() -> Self {
        NUnbounded::new(3)
    }

    /// The **literal** Figure 2 protocol of the extended abstract, in which
    /// any processor may decide on an *observed* gap-2 leader. Kept for the
    /// negative demonstration: this rule is inconsistent (see the type-level
    /// docs); do not use it for anything but experiments.
    pub fn literal_fig2(n: usize) -> Self {
        assert!(n >= 2, "coordination needs at least two processors");
        NUnbounded {
            n,
            strict_leader_decide: false,
            always_write: false,
        }
    }

    /// Ablation for EXP-10: remove the retain-coin — every phase installs
    /// its newly computed register contents deterministically. Safety is
    /// untouched (the decision rules are unchanged); what breaks is the
    /// symmetry-breaking that randomized termination relies on.
    pub fn ablate_always_write(n: usize) -> Self {
        let mut p = NUnbounded::new(n);
        p.always_write = true;
        p
    }

    /// The peers of `pid`, in the fixed order they are read each phase.
    #[inline]
    fn peers(&self, pid: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&j| j != pid)
    }

    /// End-of-phase computation: decide, or compute the next register
    /// contents. Pure function of the registers seen this phase.
    /// `strict` restricts the gap-2 decision to leaders themselves (the
    /// soundness fix described on [`NUnbounded`]). Test-only slice form;
    /// the executor hot path (here and in the 1W1R variant) folds the same
    /// statistics incrementally via [`PhaseScan`] instead of materializing
    /// the reads.
    #[cfg(test)]
    pub(crate) fn conclude(my: NReg, seen: &[NReg], strict: bool) -> PhaseOutcome {
        let mut scan = PhaseScan::start(my);
        for r in seen {
            scan.observe(my, *r);
        }
        Self::conclude_scan(my, scan, strict)
    }

    /// [`conclude`](Self::conclude) over pre-folded scan statistics — one
    /// alloc-free pass, no `all`/`leaders` temporaries.
    #[inline]
    pub(crate) fn conclude_scan(my: NReg, scan: PhaseScan, strict: bool) -> PhaseOutcome {
        // Decision case 1: the pref of all registers is the same.
        if scan.all_same {
            if let Some(v) = my.pref {
                return PhaseOutcome::Decide(v);
            }
            // All ⊥ cannot happen for the phase owner (it wrote (input,1)),
            // but keep the math total: fall through to advance.
        }

        // Decision case 2: leaders unanimous and everyone else ≥ 2 behind.
        // In strict mode only the leader itself may use this rule.
        if scan.unanimous && (!strict || my.num == scan.maxnum) {
            if let Some(v) = scan.leader_pref {
                let others_far_behind = scan.second.is_none_or(|s| s + 2 <= scan.maxnum);
                if others_far_behind {
                    return PhaseOutcome::Decide(v);
                }
            }
        }

        // Advance: adopt the leaders' pref when unanimous, else keep own.
        let newpref = if scan.unanimous && scan.leader_pref.is_some() {
            scan.leader_pref
        } else {
            my.pref
        };
        PhaseOutcome::Advance(NReg {
            pref: newpref,
            num: my.num + 1,
        })
    }
}

/// Constant-size running statistics of one read phase: everything the
/// end-of-phase rule needs about `{my} ∪ seen`, folded one register at a
/// time. Replaces the per-step `all`/`leaders` vector materialization —
/// the read loop stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseScan {
    /// Largest `num` observed so far (own register included).
    maxnum: u64,
    /// Pref of the first register observed at the current `maxnum`.
    leader_pref: Option<Val>,
    /// Whether every register at the current `maxnum` shares `leader_pref`.
    unanimous: bool,
    /// Largest `num` observed strictly below the current `maxnum`, if any
    /// register is behind at all (drives the gap-2 rule).
    second: Option<u64>,
    /// Whether every pref observed equals the phase owner's own pref.
    all_same: bool,
}

impl PhaseScan {
    /// Statistics of the singleton view `{my}` at the start of a phase.
    #[inline]
    pub fn start(my: NReg) -> Self {
        PhaseScan {
            maxnum: my.num,
            leader_pref: my.pref,
            unanimous: true,
            second: None,
            all_same: true,
        }
    }

    /// Folds one peer register into the statistics. `my` is the phase
    /// owner's own contents (needed for the all-prefs-equal rule).
    #[inline]
    pub fn observe(&mut self, my: NReg, r: NReg) {
        self.all_same &= r.pref == my.pref;
        if r.num > self.maxnum {
            // The old leading pack falls behind; it is the best candidate
            // for the runner-up num.
            self.second = Some(self.second.map_or(self.maxnum, |s| s.max(self.maxnum)));
            self.maxnum = r.num;
            self.leader_pref = r.pref;
            self.unanimous = true;
        } else if r.num == self.maxnum {
            self.unanimous &= r.pref == self.leader_pref;
        } else {
            self.second = Some(self.second.map_or(r.num, |s| s.max(r.num)));
        }
    }
}

/// Result of the end-of-phase computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseOutcome {
    /// Decide this value and quit.
    Decide(Val),
    /// Write this new register contents (with probability 1/2; retain the
    /// old contents otherwise).
    Advance(NReg),
}

impl Protocol for NUnbounded {
    type State = NState;
    type Reg = NReg;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> Vec<RegisterSpec<NReg>> {
        cil_registers::access::per_process_registers(self.n, NReg::BOT, |i| {
            // 1-writer (n−1)-reader: everyone but the owner reads.
            ReaderSet::only((0..self.n).filter(|&j| j != i).map(Into::into))
        })
        .into_iter()
        // §5's registers are unbounded in principle (num grows without
        // bound); the declared width is the full word the packing uses
        // (pref in the top 16 bits, num in the low 48 — see `packing.rs`).
        .map(|s| s.with_width(64))
        .collect()
    }

    #[inline]
    fn init(&self, _pid: usize, input: Val) -> NState {
        NState::Start { input }
    }

    #[inline]
    fn choose(&self, pid: usize, state: &NState) -> Choice<Op<NReg>> {
        match state {
            NState::Start { input } => Choice::det(Op::Write(
                pid.into(),
                NReg {
                    pref: Some(*input),
                    num: 1,
                },
            )),
            NState::Reading { peer_idx, .. } => {
                let peer = self.peers(pid).nth(*peer_idx).expect("peer index in range");
                Choice::det(Op::Read(peer.into()))
            }
            NState::WriteBack { old, new } => {
                if self.always_write {
                    // Ablated variant: no retain-coin.
                    Choice::det(Op::Write(pid.into(), *new))
                } else {
                    Choice::coin(
                        // Heads: install the new contents; tails: retain.
                        Op::Write(pid.into(), *new),
                        Op::Write(pid.into(), *old),
                    )
                }
            }
            NState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    // Forced: at a plain `#[inline]` LLVM keeps this one out of line in
    // `Runner::run`'s loop, which calls it through the step kernel.
    #[inline(always)]
    fn transit(
        &self,
        _pid: usize,
        state: &NState,
        op: &Op<NReg>,
        read: Option<&NReg>,
    ) -> Choice<NState> {
        match state {
            NState::Start { input } => {
                let my = NReg {
                    pref: Some(*input),
                    num: 1,
                };
                Choice::det(NState::Reading {
                    my,
                    peer_idx: 0,
                    scan: PhaseScan::start(my),
                })
            }
            NState::Reading { my, peer_idx, scan } => {
                let v = *read.expect("reading phase reads");
                let mut scan = *scan;
                scan.observe(*my, v);
                if *peer_idx + 1 < self.n - 1 {
                    Choice::det(NState::Reading {
                        my: *my,
                        peer_idx: peer_idx + 1,
                        scan,
                    })
                } else {
                    match Self::conclude_scan(*my, scan, self.strict_leader_decide) {
                        PhaseOutcome::Decide(v) => Choice::det(NState::Decided { value: v }),
                        PhaseOutcome::Advance(new) => {
                            Choice::det(NState::WriteBack { old: *my, new })
                        }
                    }
                }
            }
            NState::WriteBack { .. } => {
                let written = match op {
                    Op::Write(_, w) => *w,
                    Op::Read(_) => unreachable!("write-back writes"),
                };
                Choice::det(NState::Reading {
                    my: written,
                    peer_idx: 0,
                    scan: PhaseScan::start(written),
                })
            }
            NState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn decision(&self, state: &NState) -> Option<Val> {
        match state {
            NState::Decided { value } => Some(*value),
            _ => None,
        }
    }

    fn preference(&self, _pid: usize, state: &NState) -> Option<Val> {
        match state {
            NState::Start { input } => Some(*input),
            NState::Reading { my, .. } | NState::WriteBack { old: my, .. } => my.pref,
            NState::Decided { value } => Some(*value),
        }
    }

    fn name(&self) -> String {
        if self.n == 3 {
            "three-processor unbounded (Fig. 2)".into()
        } else {
            format!("{}-processor unbounded (Fig. 2 generalized)", self.n)
        }
    }
}

/// The largest `num` field appearing in a set of final registers — the
/// quantity bounded by Theorem 9 (`P[num = k] ≤ (3/4)^k`).
pub fn max_num(regs: &[NReg]) -> u64 {
    regs.iter().map(|r| r.num).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_sim::{
        CrashPlan, Halt, LaggardFirst, RandomScheduler, RoundRobin, Runner, Solo, SplitKeeper,
        StopWhen,
    };

    fn abc() -> [Val; 3] {
        [Val::A, Val::B, Val::A]
    }

    #[test]
    fn solo_processor_decides_after_two_phases() {
        // P0 alone: writes (a,1); phase 1 reads ⊥s — no decision (others'
        // num 0 is only 1 behind); advances to (a,2) (needs a heads coin);
        // next phase others are 2 behind -> decide a.
        let p = NUnbounded::three();
        let out = Runner::new(&p, &abc(), Solo::new(0))
            .stop_when(StopWhen::PidDecided(0))
            .seed(7)
            .max_steps(10_000)
            .run();
        assert_eq!(out.decisions[0], Some(Val::A));
        assert_eq!(out.steps[1], 0);
        assert_eq!(out.steps[2], 0);
        // 1 initial write + phases of 2 reads + 1 write; tails retries make
        // the exact count coin-dependent but small.
        assert!(out.steps[0] >= 6, "steps {}", out.steps[0]);
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        let p = NUnbounded::three();
        for seed in 0..100 {
            let out = Runner::new(&p, &[Val::B, Val::B, Val::B], RandomScheduler::new(seed))
                .seed(seed)
                .run();
            assert_eq!(out.agreement(), Some(Val::B), "seed {seed}");
            assert!(out.nontrivial());
        }
    }

    #[test]
    fn mixed_inputs_consistent_across_seeds_and_adversaries() {
        let p = NUnbounded::three();
        for seed in 0..300 {
            let out = Runner::new(&p, &abc(), RandomScheduler::new(seed))
                .seed(seed ^ 0xBEEF)
                .max_steps(1_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed}");
            assert!(out.consistent(), "seed {seed}");
            assert!(out.nontrivial(), "seed {seed}");
        }
        for seed in 0..100 {
            let out = Runner::new(&p, &abc(), SplitKeeper::new())
                .seed(seed)
                .max_steps(1_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "split-keeper seed {seed}");
            assert!(out.consistent());
        }
        for seed in 0..100 {
            let out = Runner::new(&p, &abc(), LaggardFirst::new())
                .seed(seed)
                .max_steps(1_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "laggard seed {seed}");
            assert!(out.consistent());
        }
    }

    #[test]
    fn generalization_holds_for_larger_n() {
        for n in [2usize, 4, 5, 6] {
            let p = NUnbounded::new(n);
            let inputs: Vec<Val> = (0..n).map(|i| Val((i % 2) as u64)).collect();
            for seed in 0..100 {
                let out = Runner::new(&p, &inputs, RandomScheduler::new(seed))
                    .seed(seed)
                    .max_steps(2_000_000)
                    .run();
                assert_eq!(out.halt, Halt::Done, "n={n} seed={seed}");
                assert!(out.consistent(), "n={n} seed={seed}");
                assert!(out.nontrivial(), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn tolerates_n_minus_one_crashes() {
        let p = NUnbounded::new(4);
        let inputs = [Val::A, Val::B, Val::A, Val::B];
        for seed in 0..50 {
            // Crash P1..P3 early at staggered adversarial points.
            let out = Runner::new(&p, &inputs, RandomScheduler::new(seed))
                .seed(seed)
                .crashes(CrashPlan::none().crash(1, 1).crash(2, 5).crash(3, 9))
                .max_steps(1_000_000)
                .run();
            assert!(out.decisions[0].is_some(), "survivor stuck, seed {seed}");
            assert!(out.consistent());
            assert!(out.nontrivial());
        }
    }

    #[test]
    fn num_fields_stay_small_in_practice() {
        // Theorem 9 shape: large num values are geometrically rare.
        let p = NUnbounded::three();
        let mut max_seen = 0;
        for seed in 0..500 {
            let out = Runner::new(&p, &abc(), RandomScheduler::new(seed))
                .seed(seed)
                .run();
            max_seen = max_seen.max(max_num(&out.final_regs));
        }
        assert!(max_seen < 40, "max num {max_seen} suspiciously large");
    }

    #[test]
    fn conclude_decides_on_unanimous_prefs() {
        let a = |num| NReg {
            pref: Some(Val::A),
            num,
        };
        assert_eq!(
            NUnbounded::conclude(a(3), &[a(1), a(7)], false),
            PhaseOutcome::Decide(Val::A)
        );
    }

    #[test]
    fn conclude_decides_on_gap_two_leader() {
        let r = |p, num| NReg { pref: Some(p), num };
        // Leader at 5 with pref b, others at ≤ 3: decide b.
        assert_eq!(
            NUnbounded::conclude(r(Val::B, 5), &[r(Val::A, 3), r(Val::A, 2)], false),
            PhaseOutcome::Decide(Val::B)
        );
        // Gap of only 1: no decision; leader keeps its pref, advances.
        assert_eq!(
            NUnbounded::conclude(r(Val::B, 5), &[r(Val::A, 4), r(Val::A, 2)], false),
            PhaseOutcome::Advance(r(Val::B, 6))
        );
    }

    #[test]
    fn conclude_adopts_unanimous_leader_pref() {
        let r = |p, num| NReg { pref: Some(p), num };
        // Two leaders at 4 both prefer a; the phase owner at 3 adopts a.
        assert_eq!(
            NUnbounded::conclude(r(Val::B, 3), &[r(Val::A, 4), r(Val::A, 4)], false),
            PhaseOutcome::Advance(r(Val::A, 4))
        );
    }

    #[test]
    fn conclude_keeps_own_pref_on_split_leaders() {
        let r = |p, num| NReg { pref: Some(p), num };
        assert_eq!(
            NUnbounded::conclude(r(Val::B, 4), &[r(Val::A, 4), r(Val::A, 2)], false),
            PhaseOutcome::Advance(r(Val::B, 5))
        );
    }

    #[test]
    fn conclude_ignores_bot_registers_for_decision_one() {
        // Peer registers still ⊥: not "all prefs equal".
        let my = NReg {
            pref: Some(Val::A),
            num: 1,
        };
        assert_eq!(
            NUnbounded::conclude(my, &[NReg::BOT, NReg::BOT], false),
            PhaseOutcome::Advance(NReg {
                pref: Some(Val::A),
                num: 2
            })
        );
    }

    #[test]
    fn bot_peers_two_behind_allow_decision() {
        // Own num 2, ⊥ peers at 0: gap-2 rule fires (wait-freedom).
        let my = NReg {
            pref: Some(Val::A),
            num: 2,
        };
        assert_eq!(
            NUnbounded::conclude(my, &[NReg::BOT, NReg::BOT], false),
            PhaseOutcome::Decide(Val::A)
        );
    }

    /// The pre-refactor end-of-phase rule, materializing `all`/`leaders`
    /// vectors — kept as the oracle for the alloc-free scan fold.
    fn conclude_reference(my: NReg, seen: &[NReg], strict: bool) -> PhaseOutcome {
        let all: Vec<NReg> = std::iter::once(my).chain(seen.iter().copied()).collect();
        let maxnum = all.iter().map(|r| r.num).max().expect("non-empty");
        let leaders: Vec<NReg> = all.iter().copied().filter(|r| r.num == maxnum).collect();
        let leader_pref = leaders[0].pref;
        let leaders_unanimous = leaders.iter().all(|r| r.pref == leader_pref);
        let all_same = all.iter().all(|r| r.pref == all[0].pref);
        if all_same {
            if let Some(v) = all[0].pref {
                return PhaseOutcome::Decide(v);
            }
        }
        if leaders_unanimous && (!strict || my.num == maxnum) {
            if let Some(v) = leader_pref {
                let others_far_behind = all
                    .iter()
                    .filter(|r| r.num != maxnum)
                    .all(|r| r.num + 2 <= maxnum);
                if others_far_behind {
                    return PhaseOutcome::Decide(v);
                }
            }
        }
        let newpref = if leaders_unanimous && leader_pref.is_some() {
            leader_pref
        } else {
            my.pref
        };
        PhaseOutcome::Advance(NReg {
            pref: newpref,
            num: my.num + 1,
        })
    }

    #[test]
    fn scan_fold_matches_vector_reference_exhaustively() {
        // Every (pref, num) register over prefs {⊥, a, b} × nums {0..5},
        // phase owner plus two peers, both strictness modes — the scan fold
        // must agree with the materializing reference everywhere.
        let regs: Vec<NReg> = [None, Some(Val::A), Some(Val::B)]
            .into_iter()
            .flat_map(|pref| (0..5u64).map(move |num| NReg { pref, num }))
            .collect();
        for &my in &regs {
            for &p1 in &regs {
                for &p2 in &regs {
                    for strict in [false, true] {
                        assert_eq!(
                            NUnbounded::conclude(my, &[p1, p2], strict),
                            conclude_reference(my, &[p1, p2], strict),
                            "my={my:?} p1={p1:?} p2={p2:?} strict={strict}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn literal_fig2_rule_admits_inconsistency() {
        // The pinned counterexample to the extended abstract's literal
        // Figure 2 (see the type-level docs): under a plain random
        // scheduler, a laggard with temporally-incoherent reads decides on
        // a stale gap-2 leader while the two climbers decide the other way.
        // Found by random search; the seed pins the interleaving.
        let p = NUnbounded::literal_fig2(3);
        let inputs = [Val(0), Val(1), Val(0)];
        let out = Runner::new(&p, &inputs, RandomScheduler::new(4235))
            .seed(4235 ^ 0x5CA1E)
            .max_steps(10_000_000)
            .run();
        assert!(
            !out.consistent(),
            "expected the literal Fig. 2 rule to split: {:?}",
            out.decisions
        );
    }

    #[test]
    fn corrected_rule_fixes_the_pinned_counterexample() {
        let p = NUnbounded::three();
        let inputs = [Val(0), Val(1), Val(0)];
        let out = Runner::new(&p, &inputs, RandomScheduler::new(4235))
            .seed(4235 ^ 0x5CA1E)
            .max_steps(10_000_000)
            .run();
        assert!(out.consistent(), "{:?}", out.decisions);
        assert!(out.nontrivial());
    }

    #[test]
    fn round_robin_schedule_terminates_quickly() {
        let p = NUnbounded::three();
        let out = Runner::new(&p, &abc(), RoundRobin::new())
            .seed(3)
            .max_steps(100_000)
            .run();
        assert_eq!(out.halt, Halt::Done);
        assert!(out.total_steps < 1_000);
    }
}
