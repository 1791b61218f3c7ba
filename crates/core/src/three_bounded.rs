//! The three-processor protocol with **bounded** registers (§6, Figure 3).
//!
//! §5's protocol needs unbounded `num` fields to maintain a global ordering
//! of the processors. §6 replaces the counter with a **circular** one over
//! `1..=9` and keeps only a *local* (non-transitive) ordering, which turns
//! out to suffice. Every register holds one of finitely many values — the
//! paper's headline "bounded size single reader single writer registers ...
//! implementable in existing technology".
//!
//! # The paper's design, rule by rule
//!
//! * Register values are `[m, x]` with counter `m ∈ 1..=9` and value field
//!   `x ∈ {a, b}`; at the *boundary* counters `3, 6, 9` there are additional
//!   `[m, pref-a] / [m, pref-b]` states; plus terminal `[dec-a] / [dec-b]`;
//!   plus a third *history* field (see T3). Counters are circularly ordered
//!   `[1] < [2] < … < [9] < [1] < …`, and the protocol maintains the
//!   invariant that all live registers lie inside one of the overlapping
//!   windows `([8..3]), ([2..6]), ([5..9])`, so "ahead/behind" is locally
//!   well defined (here: signed circular distance in `−4..=4`).
//! * Each **phase**: read the two peer registers — re-reading the first one
//!   if it was ahead of the second, so *the processor ahead is read last*
//!   (the paper: "the protocol works only if the value of the processor
//!   ahead is read last") — then compute a new register value and write it
//!   with probability 1/2, retaining the old value otherwise.
//! * **A₃ movement** (value states `[m, x]`): advance the counter by one;
//!   the new value field follows conditions c1/c2 of the paper:
//!   c1 — some leading processor has value or pref `a` and none has
//!   `pref-b` → move with `a`; c2 — some leading processor has `pref-b`, or
//!   all leading processors have `b` → move with `b` (and the symmetric
//!   rules with `a`/`b` exchanged). Leaders are the registers at the maximal
//!   circular position; ⊥ registers count as position 1 with no value.
//! * **A₂ embedding**: when a leading processor reaches a boundary (`3`, `6`
//!   or `9`) and the last processor is ≥ 2 steps behind, it moves to the
//!   `pref` state and runs the two-processor protocol with the other leader
//!   (they are at most 1 apart): read the partner's value; equal → decide;
//!   different → coin between keeping and adopting (Fig. 1's line (2)).
//!   When the third processor catches up to within 1 step, revert to the
//!   value state and resume A₃.
//! * **T1**: a processor that reads `[dec-x]` moves to `[dec-x]` (and
//!   decides `x`).
//! * **T2**: a processor in a value state that sees both other processors at
//!   least 2 steps behind writes `[dec-x]` and decides its value `x`.
//! * **T3**: each register's third field records, at every *section exit*
//!   (advancing `3→4`, `6→7` or `9→1`), whether the processor held only `a`
//!   ("A"), only `b` ("B"), or both ("C") inside the section just completed.
//!   If all three processors are out of a section with history "A" — we
//!   additionally require, conservatively, that all three *current* values
//!   are `a` — decide `a` (symmetrically for `b`). This is the rule that
//!   terminates the "unanimous lockstep" runs which T2 can never catch.
//!
//! # Reconstruction caveats
//!
//! The extended abstract specifies Figure 3 through the conditions c1–c5 and
//! T1–T3 but omits the diagram's full arrow set; this module is a faithful
//! reconstruction of the prose with two conservative choices, both noted
//! above: (i) T3 additionally requires current unanimity, (ii) a processor
//! in a `pref` state whose peers are both still ⊥ decides its preference
//! (the A₂ partner "register" is ⊥, which in Fig. 1 means decide). Bounded
//! consistency is machine-checked in `cil-mc` and hammered by adversarial
//! Monte Carlo here and in EXP-6.

use cil_registers::{ReaderSet, RegisterSpec};
use cil_sim::{Choice, Op, Protocol, Val};

/// The value/pref tag of a live register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// A value state `[m, x]`.
    V(Val),
    /// A boundary preference state `[m, pref-x]` (A₂ embedding).
    Pref(Val),
}

impl Tag {
    /// The underlying value `x`.
    #[inline]
    pub fn value(self) -> Val {
        match self {
            Tag::V(v) | Tag::Pref(v) => v,
        }
    }

    /// Whether this is a `pref` state.
    #[inline]
    pub fn is_pref(self) -> bool {
        matches!(self, Tag::Pref(_))
    }
}

/// The third register field (T3): what the processor held during the last
/// *completed* section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Held only `a`.
    A,
    /// Held only `b`.
    B,
    /// Held both (or no section completed yet — the initial value).
    C,
}

/// A live (non-decided) register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunReg {
    /// Circular counter `1..=9`.
    pub ctr: u8,
    /// Value or preference tag.
    pub tag: Tag,
    /// T3 history field.
    pub hist: Hist,
}

/// Contents of one shared register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BReg {
    /// ⊥ — the owner has not taken its first step.
    Bot,
    /// A live protocol value.
    Run(RunReg),
    /// Terminal `[dec-x]`.
    Dec(Val),
}

/// Boundary counters where the A₂ embedding lives.
pub const BOUNDARIES: [u8; 3] = [3, 6, 9];

/// Signed circular distance: how far `x` is ahead of `y`, in `−4..=4`.
/// Well defined while the window invariant (spread ≤ 4) holds.
#[inline]
pub fn ahead(x: u8, y: u8) -> i8 {
    let d = (i16::from(x) + 9 - i16::from(y)) % 9;
    if d <= 4 {
        d as i8
    } else {
        (d - 9) as i8
    }
}

#[inline]
fn wrap_next(ctr: u8) -> u8 {
    if ctr == 9 {
        1
    } else {
        ctr + 1
    }
}

#[inline]
fn is_boundary(ctr: u8) -> bool {
    BOUNDARIES.contains(&ctr)
}

/// The position a peer register occupies for ordering purposes.
/// ⊥ counts as the starting position 1; decided registers have none.
#[inline]
fn pos_of(reg: &BReg) -> Option<u8> {
    match reg {
        BReg::Bot => Some(1),
        BReg::Run(r) => Some(r.ctr),
        BReg::Dec(_) => None,
    }
}

/// Phase-reading stage: which peer reads have completed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stage {
    /// About to read the first peer (`pid + 1`).
    First,
    /// About to read the second peer (`pid + 2`).
    Second {
        /// The first peer's value.
        first: BReg,
    },
    /// First peer was ahead of the second: re-reading it so the processor
    /// ahead is read last.
    ReRead {
        /// The second peer's value.
        second: BReg,
    },
}

/// Internal state of one processor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BState {
    /// About to write the initial `[1, input]`.
    Start {
        /// The processor's input value.
        input: Val,
    },
    /// Mid-phase: reading peers.
    Phase {
        /// Own register contents.
        my: RunReg,
        /// Values held since the last section exit (T3 bookkeeping).
        saw_a: bool,
        /// See `saw_a`.
        saw_b: bool,
        /// Read progress.
        stage: Stage,
    },
    /// About to write the terminal `[dec-v]`.
    WriteDec {
        /// The decision value.
        v: Val,
        /// Own register contents (unused after the decision, kept for
        /// debugging).
        my: RunReg,
    },
    /// End of phase: about to write `new` (heads) or retain `my` (tails).
    WriteBack {
        /// Current register contents.
        my: RunReg,
        /// Computed next contents.
        new: RunReg,
        /// Whether installing `new` exits a section (resets T3 tracking).
        crossed: bool,
        /// T3 tracking.
        saw_a: bool,
        /// T3 tracking.
        saw_b: bool,
    },
    /// Decision state.
    Decided {
        /// The irrevocable output value.
        value: Val,
    },
}

/// Outcome of the end-of-phase computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Decide(Val),
    Move { new: RunReg, crossed: bool },
}

/// Ablation switches for [`ThreeBounded`], used by the EXP-10 ablation
/// study to demonstrate *why* each of the paper's ingredients is there.
/// The default is the faithful protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedOptions {
    /// Re-read the first peer when it was ahead of the second ("the value
    /// of the processor ahead is read last" — the paper says the protocol
    /// works *only if* this holds).
    pub reread_ahead_last: bool,
    /// Enable the T3 history rule (without it, unanimous lockstep runs can
    /// only terminate through coin-drift into T2).
    pub t3: bool,
    /// The T2/A₂ lead gap (paper: 2). Setting 1 lets a processor decide on
    /// a lead its peers may erase — expected to break consistency.
    pub decide_gap: i8,
}

impl Default for BoundedOptions {
    fn default() -> Self {
        BoundedOptions {
            reread_ahead_last: true,
            t3: true,
            decide_gap: 2,
        }
    }
}

/// The §6 bounded-register protocol for exactly three processors over the
/// binary value set `{a, b}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreeBounded {
    opts: BoundedOptions,
}

impl ThreeBounded {
    /// Creates the faithful protocol.
    pub fn new() -> Self {
        ThreeBounded::default()
    }

    /// Creates an ablated variant (for the EXP-10 study; see
    /// [`BoundedOptions`]).
    pub fn with_options(opts: BoundedOptions) -> Self {
        ThreeBounded { opts }
    }

    /// The options in effect.
    pub fn options(&self) -> BoundedOptions {
        self.opts
    }

    #[inline]
    fn other(v: Val) -> Val {
        if v == Val::A {
            Val::B
        } else {
            Val::A
        }
    }

    #[inline]
    fn summarize(saw_a: bool, saw_b: bool) -> Hist {
        match (saw_a, saw_b) {
            (true, false) => Hist::A,
            (false, true) => Hist::B,
            _ => Hist::C,
        }
    }

    /// c1/c2 of the paper: the value carried by an A₃ advance, given the
    /// mover's current value `v` and the leader tags.
    #[inline]
    fn advance_value(v: Val, leader_tags: &[Tag]) -> Val {
        let o = Self::other(v);
        let c1 = leader_tags.iter().any(|t| t.value() == v)
            && !leader_tags.iter().any(|t| t.is_pref() && t.value() == o);
        if c1 {
            return v;
        }
        let c2 = leader_tags.iter().any(|t| t.is_pref() && t.value() == o)
            || (!leader_tags.is_empty() && leader_tags.iter().all(|t| *t == Tag::V(o)));
        if c2 {
            o
        } else {
            v
        }
    }

    /// The end-of-phase computation for a processor holding `my`, having
    /// read `peers` (with the ahead one read last — see [`Stage`]).
    #[inline]
    fn compute(
        opts: BoundedOptions,
        my: &RunReg,
        saw_a: bool,
        saw_b: bool,
        peers: [&BReg; 2],
    ) -> Outcome {
        // T1: adopt any decision seen.
        for p in peers {
            if let BReg::Dec(v) = p {
                return Outcome::Decide(*v);
            }
        }
        let my_val = my.tag.value();
        let peer_pos = peers.map(|p| pos_of(p).expect("live"));
        let behind = peer_pos.map(|p| ahead(my.ctr, p));

        if let Tag::Pref(v) = my.tag {
            // --- A₂ embedding at a boundary ---
            // The laggard caught up to within 1: revert to the value state.
            let laggard_behind = *behind.iter().max().expect("two peers");
            if laggard_behind <= 1 {
                return Outcome::Move {
                    new: RunReg {
                        ctr: my.ctr,
                        tag: Tag::V(v),
                        hist: my.hist,
                    },
                    crossed: false,
                };
            }
            // Partner = the peer at the greater position (the co-leader).
            let partner_idx = if ahead(
                pos_of(peers[0]).expect("live"),
                pos_of(peers[1]).expect("live"),
            ) >= 0
            {
                0
            } else {
                1
            };
            match peers[partner_idx] {
                BReg::Bot => {
                    // Fig. 1: reading ⊥ decides the own preference.
                    Outcome::Decide(v)
                }
                BReg::Run(partner) => {
                    let w = partner.tag.value();
                    if w == v {
                        Outcome::Decide(v)
                    } else {
                        // Fig. 1 line (2): coin between keep and adopt —
                        // realized by the write-back coin (new = adopt).
                        Outcome::Move {
                            new: RunReg {
                                ctr: my.ctr,
                                tag: Tag::Pref(w),
                                hist: my.hist,
                            },
                            crossed: false,
                        }
                    }
                }
                BReg::Dec(_) => unreachable!("handled by T1"),
            }
        } else {
            // --- A₃ movement ---
            // T3 (conservative form: histories all "A"/"B" and currently
            // unanimous).
            let peer_runs = peers.map(|p| match p {
                BReg::Run(r) => Some(r),
                _ => None,
            });
            if let (true, [Some(r0), Some(r1)]) = (opts.t3, peer_runs) {
                for (h, v) in [(Hist::A, Val::A), (Hist::B, Val::B)] {
                    if [my, r0, r1]
                        .iter()
                        .all(|r| r.hist == h && r.tag.value() == v)
                    {
                        return Outcome::Decide(v);
                    }
                }
            }
            // T2: both peers at least `decide_gap` behind (paper: 2).
            if behind.iter().all(|&d| d >= opts.decide_gap) {
                return Outcome::Decide(my_val);
            }
            // Boundary with the last processor ≥ 2 behind: enter A₂.
            let laggard_behind = *behind.iter().max().expect("two peers");
            if is_boundary(my.ctr) && laggard_behind >= opts.decide_gap {
                return Outcome::Move {
                    new: RunReg {
                        ctr: my.ctr,
                        tag: Tag::Pref(my_val),
                        hist: my.hist,
                    },
                    crossed: false,
                };
            }
            // Plain A₃ advance with the c1/c2 value.
            let all_pos = [my.ctr, peer_pos[0], peer_pos[1]];
            // Circular max: the position no other position is ahead of.
            let maxpos = all_pos
                .into_iter()
                .find(|&c| all_pos.iter().all(|&d| ahead(d, c) <= 0))
                .unwrap_or(my.ctr);
            // At most three leaders: this processor and its two peers.
            let mut leader_tags = [my.tag; 3];
            let mut leaders = 0;
            for r in [Some(my), peer_runs[0], peer_runs[1]].into_iter().flatten() {
                if r.ctr == maxpos {
                    leader_tags[leaders] = r.tag;
                    leaders += 1;
                }
            }
            let newv = Self::advance_value(my_val, &leader_tags[..leaders]);
            let crossed = is_boundary(my.ctr);
            let hist = if crossed {
                Self::summarize(saw_a, saw_b)
            } else {
                my.hist
            };
            Outcome::Move {
                new: RunReg {
                    ctr: wrap_next(my.ctr),
                    tag: Tag::V(newv),
                    hist,
                },
                crossed,
            }
        }
    }
}

impl Protocol for ThreeBounded {
    type State = BState;
    type Reg = BReg;

    fn processes(&self) -> usize {
        3
    }

    fn registers(&self) -> Vec<RegisterSpec<BReg>> {
        // The §6 point: registers are *bounded*. The 75-value alphabet
        // (see `register_alphabet`) packs densely into 7 bits.
        cil_registers::access::per_process_registers(3, BReg::Bot, |i| {
            ReaderSet::only((0..3).filter(|&j| j != i).map(Into::into))
        })
        .into_iter()
        .map(|s| s.with_width(7))
        .collect()
    }

    #[inline]
    fn init(&self, _pid: usize, input: Val) -> BState {
        BState::Start { input }
    }

    #[inline]
    fn choose(&self, pid: usize, state: &BState) -> Choice<Op<BReg>> {
        match state {
            BState::Start { input } => Choice::det(Op::Write(
                pid.into(),
                BReg::Run(RunReg {
                    ctr: 1,
                    tag: Tag::V(*input),
                    hist: Hist::C,
                }),
            )),
            BState::Phase { stage, .. } => {
                let q = (pid + 1) % 3;
                let r = (pid + 2) % 3;
                match stage {
                    Stage::First | Stage::ReRead { .. } => Choice::det(Op::Read(q.into())),
                    Stage::Second { .. } => Choice::det(Op::Read(r.into())),
                }
            }
            BState::WriteDec { v, .. } => Choice::det(Op::Write(pid.into(), BReg::Dec(*v))),
            BState::WriteBack { my, new, .. } => Choice::coin(
                Op::Write(pid.into(), BReg::Run(*new)),
                Op::Write(pid.into(), BReg::Run(*my)),
            ),
            BState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn transit(
        &self,
        _pid: usize,
        state: &BState,
        op: &Op<BReg>,
        read: Option<&BReg>,
    ) -> Choice<BState> {
        match state {
            BState::Start { input } => Choice::det(BState::Phase {
                my: RunReg {
                    ctr: 1,
                    tag: Tag::V(*input),
                    hist: Hist::C,
                },
                saw_a: *input == Val::A,
                saw_b: *input == Val::B,
                stage: Stage::First,
            }),
            BState::Phase {
                my,
                saw_a,
                saw_b,
                stage,
            } => {
                let v = *read.expect("phase stages read");
                let conclude = |first: BReg, second: BReg| -> BState {
                    match Self::compute(self.opts, my, *saw_a, *saw_b, [&first, &second]) {
                        Outcome::Decide(d) => BState::WriteDec { v: d, my: *my },
                        Outcome::Move { new, crossed } => BState::WriteBack {
                            my: *my,
                            new,
                            crossed,
                            saw_a: *saw_a,
                            saw_b: *saw_b,
                        },
                    }
                };
                match stage {
                    Stage::First => Choice::det(BState::Phase {
                        my: *my,
                        saw_a: *saw_a,
                        saw_b: *saw_b,
                        stage: Stage::Second { first: v },
                    }),
                    Stage::Second { first } => {
                        // Re-read the first peer if it is ahead of the
                        // second (the ahead processor must be read last).
                        let needs_reread = self.opts.reread_ahead_last
                            && match (pos_of(first), pos_of(&v)) {
                                (Some(p1), Some(p2)) => ahead(p1, p2) >= 1,
                                _ => false,
                            };
                        if needs_reread {
                            Choice::det(BState::Phase {
                                my: *my,
                                saw_a: *saw_a,
                                saw_b: *saw_b,
                                stage: Stage::ReRead { second: v },
                            })
                        } else {
                            Choice::det(conclude(*first, v))
                        }
                    }
                    Stage::ReRead { second } => Choice::det(conclude(v, *second)),
                }
            }
            BState::WriteDec { v, .. } => Choice::det(BState::Decided { value: *v }),
            BState::WriteBack {
                my,
                new,
                crossed,
                saw_a,
                saw_b,
            } => {
                let written = match op {
                    Op::Write(_, BReg::Run(w)) => *w,
                    _ => unreachable!("write-back writes a live value"),
                };
                let installed = written == *new && *new != *my;
                let wv = written.tag.value();
                let (saw_a, saw_b) = if installed && *crossed {
                    (wv == Val::A, wv == Val::B)
                } else {
                    (*saw_a || wv == Val::A, *saw_b || wv == Val::B)
                };
                Choice::det(BState::Phase {
                    my: written,
                    saw_a,
                    saw_b,
                    stage: Stage::First,
                })
            }
            BState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn decision(&self, state: &BState) -> Option<Val> {
        match state {
            BState::Decided { value } => Some(*value),
            _ => None,
        }
    }

    fn preference(&self, _pid: usize, state: &BState) -> Option<Val> {
        Some(match state {
            BState::Start { input } => *input,
            BState::Phase { my, .. }
            | BState::WriteBack { my, .. }
            | BState::WriteDec { my, .. } => my.tag.value(),
            BState::Decided { value } => *value,
        })
    }

    fn name(&self) -> String {
        "three-processor bounded (Fig. 3)".into()
    }
}

/// Every value a register of this protocol can hold — the *bounded alphabet*
/// that EXP-6 censuses. 75 values: ⊥, 2 decisions, and 72 live values
/// (9 counters × {a,b} × 3 histories gives 54 value states; the 3 boundary
/// counters × {pref-a, pref-b} × 3 histories give 18 pref states).
pub fn register_alphabet() -> Vec<BReg> {
    let mut all = vec![BReg::Bot, BReg::Dec(Val::A), BReg::Dec(Val::B)];
    for ctr in 1..=9u8 {
        for hist in [Hist::A, Hist::B, Hist::C] {
            for v in [Val::A, Val::B] {
                all.push(BReg::Run(RunReg {
                    ctr,
                    tag: Tag::V(v),
                    hist,
                }));
                if is_boundary(ctr) {
                    all.push(BReg::Run(RunReg {
                        ctr,
                        tag: Tag::Pref(v),
                        hist,
                    }));
                }
            }
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_sim::{
        CrashPlan, Halt, LaggardFirst, RandomScheduler, RoundRobin, Runner, Solo, SplitKeeper,
        StopWhen,
    };

    fn run_reg(ctr: u8, tag: Tag) -> RunReg {
        RunReg {
            ctr,
            tag,
            hist: Hist::C,
        }
    }

    #[test]
    fn circular_distance_is_signed_and_wraps() {
        assert_eq!(ahead(3, 1), 2);
        assert_eq!(ahead(1, 3), -2);
        assert_eq!(ahead(1, 9), 1);
        assert_eq!(ahead(9, 1), -1);
        assert_eq!(ahead(2, 8), 3);
        assert_eq!(ahead(5, 5), 0);
    }

    #[test]
    fn alphabet_is_bounded_and_complete() {
        let alpha = register_alphabet();
        assert_eq!(alpha.len(), 75);
        let unique: std::collections::HashSet<_> = alpha.iter().collect();
        assert_eq!(unique.len(), 75);
    }

    #[test]
    fn t1_adopts_seen_decisions() {
        let my = run_reg(2, Tag::V(Val::A));
        let out = ThreeBounded::compute(
            BoundedOptions::default(),
            &my,
            true,
            false,
            [&BReg::Dec(Val::B), &BReg::Run(run_reg(1, Tag::V(Val::A)))],
        );
        assert_eq!(out, Outcome::Decide(Val::B));
    }

    #[test]
    fn t2_fires_when_both_peers_two_behind() {
        let my = run_reg(3, Tag::V(Val::A));
        let out = ThreeBounded::compute(
            BoundedOptions::default(),
            &my,
            true,
            false,
            [&BReg::Bot, &BReg::Bot],
        );
        assert_eq!(out, Outcome::Decide(Val::A));
    }

    #[test]
    fn boundary_with_one_laggard_enters_pref() {
        let my = run_reg(3, Tag::V(Val::B));
        let co = BReg::Run(run_reg(3, Tag::V(Val::A)));
        let lag = BReg::Run(run_reg(1, Tag::V(Val::A)));
        let out = ThreeBounded::compute(BoundedOptions::default(), &my, false, true, [&co, &lag]);
        assert_eq!(
            out,
            Outcome::Move {
                new: run_reg(3, Tag::Pref(Val::B)),
                crossed: false
            }
        );
    }

    #[test]
    fn pref_decides_on_matching_partner() {
        let my = run_reg(3, Tag::Pref(Val::A));
        let co = BReg::Run(run_reg(3, Tag::Pref(Val::A)));
        let lag = BReg::Run(run_reg(1, Tag::V(Val::B)));
        let out = ThreeBounded::compute(BoundedOptions::default(), &my, true, false, [&co, &lag]);
        assert_eq!(out, Outcome::Decide(Val::A));
    }

    #[test]
    fn pref_flips_or_keeps_on_disagreeing_partner() {
        let my = run_reg(3, Tag::Pref(Val::A));
        let co = BReg::Run(run_reg(3, Tag::Pref(Val::B)));
        let lag = BReg::Run(run_reg(1, Tag::V(Val::B)));
        let out = ThreeBounded::compute(BoundedOptions::default(), &my, true, false, [&co, &lag]);
        assert_eq!(
            out,
            Outcome::Move {
                new: run_reg(3, Tag::Pref(Val::B)),
                crossed: false
            }
        );
    }

    #[test]
    fn pref_reverts_when_laggard_catches_up() {
        let my = run_reg(3, Tag::Pref(Val::A));
        let co = BReg::Run(run_reg(3, Tag::Pref(Val::B)));
        let lag = BReg::Run(run_reg(2, Tag::V(Val::B)));
        let out = ThreeBounded::compute(BoundedOptions::default(), &my, true, false, [&co, &lag]);
        assert_eq!(
            out,
            Outcome::Move {
                new: run_reg(3, Tag::V(Val::A)),
                crossed: false
            }
        );
    }

    #[test]
    fn a3_advance_adopts_unanimous_leaders() {
        // Me at 1 with b; both peers lead at 2 with a: c2 → move with a.
        let my = run_reg(1, Tag::V(Val::B));
        let l1 = BReg::Run(run_reg(2, Tag::V(Val::A)));
        let l2 = BReg::Run(run_reg(2, Tag::V(Val::A)));
        let out = ThreeBounded::compute(BoundedOptions::default(), &my, false, true, [&l1, &l2]);
        assert_eq!(
            out,
            Outcome::Move {
                new: run_reg(2, Tag::V(Val::A)),
                crossed: false
            }
        );
    }

    #[test]
    fn a3_advance_keeps_value_on_split_leaders() {
        // Me a leader with a, other leader with b: c1 holds for me → keep a.
        let my = run_reg(2, Tag::V(Val::A));
        let l = BReg::Run(run_reg(2, Tag::V(Val::B)));
        let lag = BReg::Run(run_reg(1, Tag::V(Val::B)));
        let out = ThreeBounded::compute(BoundedOptions::default(), &my, true, false, [&l, &lag]);
        assert_eq!(
            out,
            Outcome::Move {
                new: run_reg(3, Tag::V(Val::A)),
                crossed: false
            }
        );
    }

    #[test]
    fn pref_b_leader_pulls_movers_to_b() {
        // A leader in pref-b: c2 → move with b even though I hold a.
        let my = run_reg(2, Tag::V(Val::A));
        let l = BReg::Run(run_reg(3, Tag::Pref(Val::B)));
        let lag = BReg::Run(run_reg(2, Tag::V(Val::A)));
        let out = ThreeBounded::compute(BoundedOptions::default(), &my, true, false, [&l, &lag]);
        assert_eq!(
            out,
            Outcome::Move {
                new: run_reg(3, Tag::V(Val::B)),
                crossed: false
            }
        );
    }

    #[test]
    fn section_exit_summarizes_history() {
        // Advancing 3→4 exits section [8..3]: hist becomes the summary.
        let my = RunReg {
            ctr: 3,
            tag: Tag::V(Val::A),
            hist: Hist::C,
        };
        let peer = BReg::Run(run_reg(3, Tag::V(Val::A)));
        let peer2 = BReg::Run(run_reg(2, Tag::V(Val::A)));
        let out =
            ThreeBounded::compute(BoundedOptions::default(), &my, true, false, [&peer, &peer2]);
        match out {
            Outcome::Move { new, crossed } => {
                assert!(crossed);
                assert_eq!(new.ctr, 4);
                assert_eq!(new.hist, Hist::A);
            }
            other => panic!("expected move, got {other:?}"),
        }
    }

    #[test]
    fn t3_decides_unanimous_lockstep() {
        let reg = |ctr| RunReg {
            ctr,
            tag: Tag::V(Val::A),
            hist: Hist::A,
        };
        let my = reg(5);
        let out = ThreeBounded::compute(
            BoundedOptions::default(),
            &my,
            true,
            false,
            [&BReg::Run(reg(5)), &BReg::Run(reg(4))],
        );
        assert_eq!(out, Outcome::Decide(Val::A));
    }

    #[test]
    fn solo_processor_decides_quickly() {
        let p = ThreeBounded::new();
        let out = Runner::new(&p, &[Val::B, Val::A, Val::A], Solo::new(0))
            .stop_when(StopWhen::PidDecided(0))
            .seed(11)
            .max_steps(100_000)
            .run();
        assert_eq!(out.decisions[0], Some(Val::B));
        assert_eq!(out.steps[1] + out.steps[2], 0);
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        let p = ThreeBounded::new();
        for seed in 0..100 {
            let out = Runner::new(&p, &[Val::A, Val::A, Val::A], RandomScheduler::new(seed))
                .seed(seed)
                .max_steps(500_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed}");
            assert_eq!(out.agreement(), Some(Val::A), "seed {seed}");
        }
    }

    #[test]
    fn mixed_inputs_consistent_across_seeds() {
        let p = ThreeBounded::new();
        for seed in 0..300 {
            let out = Runner::new(&p, &[Val::A, Val::B, Val::A], RandomScheduler::new(seed))
                .seed(seed ^ 0xABCD)
                .max_steps(1_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed} did not finish");
            assert!(out.consistent(), "seed {seed} violated consistency");
            assert!(out.nontrivial(), "seed {seed} violated nontriviality");
        }
    }

    #[test]
    fn adaptive_adversaries_do_not_block_or_break() {
        let p = ThreeBounded::new();
        for seed in 0..100 {
            let out = Runner::new(&p, &[Val::A, Val::B, Val::B], SplitKeeper::new())
                .seed(seed)
                .max_steps(1_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "split-keeper seed {seed}");
            assert!(out.consistent());
        }
        for seed in 0..100 {
            let out = Runner::new(&p, &[Val::B, Val::A, Val::B], LaggardFirst::new())
                .seed(seed)
                .max_steps(1_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "laggard seed {seed}");
            assert!(out.consistent());
        }
    }

    #[test]
    fn lockstep_round_robin_terminates_via_t3() {
        // Unanimous inputs under strict round-robin: T2 never fires (nobody
        // gets 2 ahead when every write installs . . . coin permitting); T3
        // must eventually catch it.
        let p = ThreeBounded::new();
        for seed in 0..50 {
            let out = Runner::new(&p, &[Val::B, Val::B, Val::B], RoundRobin::new())
                .seed(seed)
                .max_steps(500_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed}");
            assert_eq!(out.agreement(), Some(Val::B));
        }
    }

    #[test]
    fn tolerates_two_crashes() {
        let p = ThreeBounded::new();
        for seed in 0..50 {
            let out = Runner::new(&p, &[Val::A, Val::B, Val::B], RandomScheduler::new(seed))
                .seed(seed)
                .crashes(CrashPlan::none().crash(1, 3).crash(2, 7))
                .max_steps(500_000)
                .run();
            assert!(out.decisions[0].is_some(), "survivor stuck at seed {seed}");
            assert!(out.consistent());
            assert!(out.nontrivial());
        }
    }

    #[test]
    fn registers_stay_within_the_bounded_alphabet() {
        use std::collections::HashSet;
        let alpha: HashSet<BReg> = register_alphabet().into_iter().collect();
        let p = ThreeBounded::new();
        for seed in 0..50 {
            let out = Runner::new(&p, &[Val::A, Val::B, Val::A], RandomScheduler::new(seed))
                .seed(seed)
                .record_trace(true)
                .max_steps(1_000_000)
                .run();
            for e in out.trace.unwrap().events() {
                if let Op::Write(_, v) = &e.op {
                    assert!(alpha.contains(v), "wrote value outside alphabet: {v:?}");
                }
            }
        }
    }
}
