//! Word-packing of protocol register values, enabling execution on real
//! hardware registers (`AtomicU64`) via [`cil_sim::run_on_threads`].
//!
//! Every register of the paper's protocols is *bounded* (or, for §5's `num`
//! field, bounded in any feasible run), so each packs into a single machine
//! word — the concrete substance behind the paper's "implementable in
//! existing technology".

use crate::kvalued::{KReg, KValued};
use crate::n_unbounded::NReg;
use crate::three_bounded::{BReg, Hist, RunReg, Tag};
use cil_registers::{Packable, RegId};
use cil_sim::{Protocol, Val, WordCodec};
use std::marker::PhantomData;

impl Packable for NReg {
    /// Packs `(pref, num)` as `pref_code << 48 | num`. Supports `pref`
    /// values below 2¹⁵ and `num` below 2⁴⁸ — far beyond anything a run can
    /// produce (Theorem 9: `P[num = k] ≤ (3/4)^k`).
    #[inline]
    fn pack(&self) -> u64 {
        let pref_code = match self.pref {
            None => 0u64,
            Some(Val(v)) => {
                assert!(v < (1 << 15), "pref value too large to pack");
                v + 1
            }
        };
        assert!(self.num < (1 << 48), "num too large to pack");
        (pref_code << 48) | self.num
    }

    #[inline]
    fn unpack(word: u64) -> Self {
        let pref_code = word >> 48;
        let num = word & ((1 << 48) - 1);
        let pref = if pref_code == 0 {
            None
        } else {
            Some(Val(pref_code - 1))
        };
        NReg { pref, num }
    }
}

#[inline]
fn tag_code(tag: Tag) -> u64 {
    match tag {
        Tag::V(Val::A) => 0,
        Tag::V(Val::B) => 1,
        Tag::Pref(Val::A) => 2,
        Tag::Pref(Val::B) => 3,
        _ => panic!("bounded protocol tags carry binary values"),
    }
}

#[inline]
fn tag_decode(code: u64) -> Tag {
    match code {
        0 => Tag::V(Val::A),
        1 => Tag::V(Val::B),
        2 => Tag::Pref(Val::A),
        _ => Tag::Pref(Val::B),
    }
}

#[inline]
fn hist_code(h: Hist) -> u64 {
    match h {
        Hist::A => 0,
        Hist::B => 1,
        Hist::C => 2,
    }
}

#[inline]
fn hist_decode(code: u64) -> Hist {
    match code {
        0 => Hist::A,
        1 => Hist::B,
        _ => Hist::C,
    }
}

impl Packable for BReg {
    /// Dense encoding of the 75-value bounded alphabet (fits in 7 bits).
    #[inline]
    fn pack(&self) -> u64 {
        match self {
            BReg::Bot => 0,
            BReg::Dec(Val::A) => 1,
            BReg::Dec(Val::B) => 2,
            BReg::Dec(v) => panic!("bounded protocol decisions are binary, got {v}"),
            BReg::Run(r) => {
                3 + ((u64::from(r.ctr) - 1) * 4 + tag_code(r.tag)) * 3 + hist_code(r.hist)
            }
        }
    }

    #[inline]
    fn unpack(word: u64) -> Self {
        match word {
            0 => BReg::Bot,
            1 => BReg::Dec(Val::A),
            2 => BReg::Dec(Val::B),
            w => {
                let w = w - 3;
                let hist = hist_decode(w % 3);
                let rest = w / 3;
                let tag = tag_decode(rest % 4);
                let ctr = (rest / 4 + 1) as u8;
                BReg::Run(RunReg { ctr, tag, hist })
            }
        }
    }
}

/// Per-register word codec for the Theorem 5 composite protocol's
/// heterogeneous register bank.
///
/// [`KReg`] cannot implement [`Packable`] uniformly: which variant a word
/// decodes to depends on *which register* it came from. The composite's
/// layout is fixed — all inner-instance registers first, the `n`
/// candidate-publication registers last — so the codec just needs the
/// boundary. Candidates encode `None` as `0` and `Some(v)` as `v + 1`
/// (⊥-is-zero, like every other packing in this module); inner registers
/// delegate to the inner protocol's [`Packable`] impl.
#[derive(Debug, Clone, Copy)]
pub struct KRegCodec<R> {
    inner_regs: usize,
    _marker: PhantomData<fn() -> R>,
}

impl<R> KRegCodec<R> {
    /// Builds the codec for a register bank whose first `inner_regs`
    /// registers belong to inner binary instances (the rest are candidate
    /// registers).
    pub fn new(inner_regs: usize) -> Self {
        KRegCodec {
            inner_regs,
            _marker: PhantomData,
        }
    }

    /// Builds the codec matching `protocol`'s register layout.
    pub fn for_protocol<P>(protocol: &KValued<P>) -> Self
    where
        P: Protocol<Reg = R>,
        KValued<P>: Protocol,
    {
        let specs = Protocol::registers(protocol).len();
        KRegCodec::new(specs - Protocol::processes(protocol))
    }
}

impl<R: Packable + Send + Sync> WordCodec<KReg<R>> for KRegCodec<R> {
    fn pack(&self, reg: RegId, value: &KReg<R>) -> u64 {
        match value {
            KReg::Inner(inner) => {
                debug_assert!(reg.0 < self.inner_regs, "inner value in candidate {reg}");
                inner.pack()
            }
            KReg::Cand(cand) => {
                debug_assert!(reg.0 >= self.inner_regs, "candidate value in inner {reg}");
                cand.map_or(0, |v| v + 1)
            }
        }
    }

    fn unpack(&self, reg: RegId, word: u64) -> KReg<R> {
        if reg.0 < self.inner_regs {
            KReg::Inner(R::unpack(word))
        } else if word == 0 {
            KReg::Cand(None)
        } else {
            KReg::Cand(Some(word - 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::three_bounded::register_alphabet;

    #[test]
    fn nreg_round_trips() {
        for pref in [None, Some(Val::A), Some(Val::B), Some(Val(77))] {
            for num in [0u64, 1, 9, 1 << 40] {
                let r = NReg { pref, num };
                assert_eq!(NReg::unpack(r.pack()), r);
            }
        }
    }

    #[test]
    fn nreg_bot_packs_to_zero() {
        assert_eq!(NReg::BOT.pack(), 0);
    }

    #[test]
    fn kreg_codec_round_trips_both_register_classes() {
        use crate::two::{TwoProcessor, TwoReg};
        let p = KValued::new(TwoProcessor::new(), 4);
        let codec = KRegCodec::for_protocol(&p);
        let specs = p.registers();
        let boundary = specs.len() - p.processes();
        let inner_vals: [TwoReg; 3] = [None, Some(Val::A), Some(Val::B)];
        for reg in 0..boundary {
            for v in &inner_vals {
                let kv = KReg::Inner(*v);
                assert_eq!(codec.unpack(RegId(reg), codec.pack(RegId(reg), &kv)), kv);
            }
        }
        for reg in boundary..specs.len() {
            for cand in [None, Some(0), Some(3)] {
                let kv = KReg::<TwoReg>::Cand(cand);
                assert_eq!(codec.unpack(RegId(reg), codec.pack(RegId(reg), &kv)), kv);
            }
        }
        // The encoding stays within every register's declared width.
        for s in &specs {
            let max = match s.id.0 < boundary {
                true => inner_vals
                    .iter()
                    .map(|v| codec.pack(s.id, &KReg::Inner(*v)))
                    .max()
                    .unwrap(),
                false => codec.pack(s.id, &KReg::<TwoReg>::Cand(Some(3))),
            };
            assert!(max <= s.max_word(), "register {} overflows", s.name);
        }
    }

    #[test]
    fn breg_round_trips_over_the_whole_alphabet() {
        for v in register_alphabet() {
            assert_eq!(BReg::unpack(v.pack()), v, "value {v:?}");
        }
    }

    #[test]
    fn breg_packings_are_distinct_and_small() {
        use std::collections::HashSet;
        let words: HashSet<u64> = register_alphabet().iter().map(Packable::pack).collect();
        assert_eq!(words.len(), 75);
        assert!(words.iter().all(|&w| w < 128), "alphabet fits in 7 bits");
    }
}
