//! A bounded-horizon optimal adversary for protocols whose full state space
//! is too large to enumerate (the §5/§6 three-processor protocols).
//!
//! The MDP ([`crate::CompactMdp`]) computes the *globally* optimal adversary
//! but needs the closed configuration space. [`LookaheadAdversary`] instead
//! solves, at every scheduling point, the exact `h`-step game rooted at the
//! current configuration: it picks the processor minimizing the probability
//! that **any** processor decides within the next `h` steps (adversary moves
//! minimize; coin branches average). With `h` around 4–6 this is a far
//! stronger opponent than any heuristic in `cil-sim`, while staying
//! protocol-agnostic — a practical stand-in for the paper's "worst possible
//! sequencing of events".

use crate::config::{successors, Config};
use cil_sim::{Adversary, Protocol, View};
use std::collections::HashMap;

/// Exact `h`-step minimizing adversary.
pub struct LookaheadAdversary<P: Protocol> {
    horizon: u32,
    memo: HashMap<(Config<P>, u32), f64>,
}

impl<P: Protocol> LookaheadAdversary<P> {
    /// Creates the adversary with the given horizon (steps of lookahead).
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0`.
    pub fn new(horizon: u32) -> Self {
        assert!(horizon > 0, "lookahead needs at least one step");
        LookaheadAdversary {
            horizon,
            memo: HashMap::new(),
        }
    }

    /// Minimal probability (over adversary moves) that any processor has
    /// decided within `h` further steps, starting from `cfg`.
    fn decide_prob(&mut self, protocol: &P, cfg: &Config<P>, h: u32) -> f64 {
        if cfg.any_decided(protocol) {
            return 1.0;
        }
        if h == 0 {
            return 0.0;
        }
        if let Some(&v) = self.memo.get(&(cfg.clone(), h)) {
            return v;
        }
        let eligible = cfg.eligible(protocol);
        let mut best = 1.0f64;
        for pid in eligible {
            let mut p_decide = 0.0;
            for (p, succ) in successors(protocol, cfg, pid) {
                p_decide += p * self.decide_prob(protocol, &succ, h - 1);
            }
            best = best.min(p_decide);
        }
        self.memo.insert((cfg.clone(), h), best);
        best
    }
}

impl<P: Protocol> Adversary<P> for LookaheadAdversary<P> {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        // Memoized values are rooted in absolute configurations, so they
        // stay valid across calls; cap the table to bound memory on long
        // runs.
        if self.memo.len() > 2_000_000 {
            self.memo.clear();
        }
        let cfg = Config::<P> {
            states: view.states.to_vec(),
            regs: view.regs.to_vec(),
            active: 0, // irrelevant for dynamics
        };
        let mut best_pid = view.eligible().next().expect("no eligible processor");
        let mut best = f64::INFINITY;
        for pid in view.eligible() {
            let mut p_decide = 0.0;
            for (p, succ) in successors(view.protocol, &cfg, pid) {
                p_decide += p * self.decide_prob(view.protocol, &succ, self.horizon - 1);
            }
            if p_decide < best {
                best = p_decide;
                best_pid = pid;
            }
        }
        best_pid
    }

    fn name(&self) -> String {
        format!("lookahead({})", self.horizon)
    }
}

impl<P: Protocol> std::fmt::Debug for LookaheadAdversary<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LookaheadAdversary(h = {}, memo = {})",
            self.horizon,
            self.memo.len()
        )
    }
}

impl<P: Protocol> Adversary<P> for &mut LookaheadAdversary<P> {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        (**self).pick(view)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

/// The exact minimal probability, over all adaptive adversaries, that
/// **any** processor decides within `horizon` steps from the initial
/// configuration — the game-theoretic "how long can the adversary certainly
/// stall" curve. Deterministic protocols yield 0/1 values (Theorem 4: a
/// deterministic victim can be stalled forever, so the value is 0 for every
/// horizon); randomized protocols yield the paper's vanishing-probability
/// guarantee made exact.
pub fn min_decide_prob<P: Protocol>(protocol: &P, inputs: &[cil_sim::Val], horizon: u32) -> f64 {
    let mut la = LookaheadAdversary::new(horizon.max(1));
    let cfg = Config::initial(protocol, inputs);
    la.decide_prob(protocol, &cfg, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_core::n_unbounded::NUnbounded;
    use cil_core::three_bounded::ThreeBounded;
    use cil_core::two::TwoProcessor;
    use cil_sim::{Halt, RandomScheduler, Runner, StopWhen, Val};

    #[test]
    fn cannot_block_the_two_processor_protocol() {
        let p = TwoProcessor::new();
        let runs = 300u64;
        let mut total = 0u64;
        for seed in 0..runs {
            let out = Runner::new(&p, &[Val::A, Val::B], LookaheadAdversary::new(4))
                .seed(seed)
                .stop_when(StopWhen::PidDecided(0))
                .max_steps(100_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed}");
            assert!(out.consistent());
            total += out.steps[0];
        }
        // Lookahead is strong but bounded by the exact optimum of 10.
        let mean = total as f64 / runs as f64;
        assert!(mean <= 11.0, "mean {mean} exceeds the exact optimum");
        assert!(mean > 3.0, "mean {mean}: lookahead suspiciously weak");
    }

    #[test]
    fn slows_down_but_cannot_block_fig2() {
        let p = NUnbounded::three();
        for seed in 0..30 {
            let out = Runner::new(&p, &[Val::A, Val::B, Val::A], LookaheadAdversary::new(3))
                .seed(seed)
                .max_steps(1_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed}");
            assert!(out.consistent() && out.nontrivial());
        }
    }

    #[test]
    fn slows_down_but_cannot_block_the_bounded_protocol() {
        let p = ThreeBounded::new();
        for seed in 0..20 {
            let out = Runner::new(&p, &[Val::B, Val::A, Val::B], LookaheadAdversary::new(3))
                .seed(seed)
                .max_steps(2_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed}");
            assert!(out.consistent() && out.nontrivial());
        }
    }

    #[test]
    fn min_decide_prob_is_zero_for_deterministic_victims() {
        use cil_core::deterministic::{DetRule, DetTwo};
        for rule in DetRule::ALL {
            let p = DetTwo::new(rule);
            let v = min_decide_prob(&p, &[Val::A, Val::B], 12);
            assert_eq!(v, 0.0, "{rule}: adversary can always stall");
        }
    }

    #[test]
    fn min_decide_prob_grows_for_the_randomized_protocol() {
        let p = TwoProcessor::new();
        let inputs = [Val::A, Val::B];
        // Monotone nondecreasing in the horizon, 0 at small horizons (the
        // adversary can certainly stall a few steps), positive later.
        let mut prev = 0.0;
        let mut positive_seen = false;
        for h in 1..=12 {
            let v = min_decide_prob(&p, &inputs, h);
            assert!(v >= prev - 1e-12, "horizon {h}: {v} < {prev}");
            assert!((0.0..=1.0).contains(&v));
            positive_seen |= v > 0.0;
            prev = v;
        }
        assert!(
            positive_seen,
            "randomized protocol must force positive decision probability"
        );
    }

    #[test]
    fn lookahead_is_stronger_than_random() {
        // Mean steps under lookahead(4) must exceed mean under random.
        let p = TwoProcessor::new();
        let runs = 500u64;
        let mean = |mk: &dyn Fn(u64) -> Box<dyn Adversary<TwoProcessor>>| {
            let mut total = 0u64;
            for seed in 0..runs {
                let out = Runner::new(&p, &[Val::A, Val::B], mk(seed))
                    .seed(seed)
                    .stop_when(StopWhen::PidDecided(0))
                    .max_steps(100_000)
                    .run();
                total += out.steps[0];
            }
            total as f64 / runs as f64
        };
        let random = mean(&|s| Box::new(RandomScheduler::new(s)));
        let strong = mean(&|_| Box::new(LookaheadAdversary::new(4)));
        assert!(
            strong > random + 1.0,
            "lookahead {strong} vs random {random}"
        );
    }
}
