//! Cross-validation of the exact engine (`cil_mc::compact`) against an
//! independent dense enumeration, the [`oracle`] module below.
//!
//! The hash-consed, symmetry-reduced engine must be an
//! *observation-preserving* quotient of the raw configuration space: same
//! worst-case expected steps for every objective, same survival curves,
//! and a policy that is still optimal when scored against the dense value
//! function. Protocols with infinite reachable spaces (the paper's §5/§6
//! families) are compared under the same BFS depth bound on both sides —
//! the truncation disciplines are defined to match exactly.

use cil_core::deterministic::{DetRule, DetTwo};
use cil_core::kvalued::KValued;
use cil_core::n_unbounded::NUnbounded;
use cil_core::n_unbounded_1w1r::NUnbounded1W1R;
use cil_core::naive::Naive;
use cil_core::three_bounded::ThreeBounded;
use cil_core::two::TwoProcessor;
use cil_mc::config::{successors, Config};
use cil_mc::{CompactExplorer, CompactMdp, CompactOptions, Objective, Symmetric};
use cil_sim::{Runner, StopWhen, Val};
use std::collections::HashSet;

const VAL_TOL: f64 = 1e-9;
const CURVE_TOL: f64 = 1e-12;
const KMAX: usize = 12;

/// The reference the engine is checked against: a dense breadth-first
/// enumeration of raw [`Config`]s through [`successors`], an in-place
/// Gauss–Seidel value iteration and a layered survival fixpoint. It shares
/// only the successor relation with `cil_mc::compact` — no interning,
/// canonicalization, merging, CSR layout or Jacobi sweep.
mod oracle {
    use cil_mc::config::{successors, Config};
    use cil_mc::Objective;
    use cil_sim::{Protocol, Val};
    use std::collections::HashMap;

    /// Sweep cap for both fixpoints; every converging solve here stops far
    /// below it.
    const MAX_SWEEPS: usize = 1_000_000;

    /// The enumerated space. Index 0 is the initial configuration.
    pub struct Dense<P: Protocol> {
        configs: Vec<Config<P>>,
        index: HashMap<Config<P>, usize>,
        /// Per configuration: `(pid, [(probability, successor index)])` for
        /// every eligible processor.
        #[allow(clippy::type_complexity)]
        moves: Vec<Vec<(usize, Vec<(f64, usize)>)>>,
    }

    impl<P: Protocol> Dense<P> {
        /// Enumerates every configuration reachable from `inputs`;
        /// configurations first reached at depth `max_depth` keep no moves.
        pub fn build(p: &P, inputs: &[Val], max_depth: Option<usize>) -> Self {
            let init = Config::initial(p, inputs);
            let mut configs = vec![init.clone()];
            let mut depths = vec![0usize];
            let mut index = HashMap::from([(init, 0usize)]);
            let mut moves = Vec::new();
            let mut next = 0;
            while next < configs.len() {
                let cfg = configs[next].clone();
                let depth = depths[next];
                let mut cfg_moves = Vec::new();
                if max_depth.is_none_or(|d| depth < d) {
                    for pid in cfg.eligible(p) {
                        let mut branches = Vec::new();
                        for (pr, succ) in successors(p, &cfg, pid) {
                            let j = *index.entry(succ.clone()).or_insert_with(|| {
                                configs.push(succ);
                                depths.push(depth + 1);
                                configs.len() - 1
                            });
                            branches.push((pr, j));
                        }
                        cfg_moves.push((pid, branches));
                    }
                }
                moves.push(cfg_moves);
                next += 1;
            }
            Dense {
                configs,
                index,
                moves,
            }
        }

        pub fn size(&self) -> usize {
            self.configs.len()
        }

        pub fn find(&self, cfg: &Config<P>) -> Option<usize> {
            self.index.get(cfg).copied()
        }

        /// Worst-case expected cost of every configuration, by in-place
        /// Gauss–Seidel value iteration from 0.
        pub fn expected_steps(&self, p: &P, objective: Objective, tol: f64) -> Vec<f64> {
            let absorbing: Vec<bool> = self
                .configs
                .iter()
                .map(|cfg| match objective {
                    Objective::StepsOf(t) => p.decision(&cfg.states[t]).is_some(),
                    Objective::TotalSteps => cfg.eligible(p).is_empty(),
                })
                .collect();
            let cost = |pid: usize| match objective {
                Objective::StepsOf(t) => f64::from(u8::from(pid == t)),
                Objective::TotalSteps => 1.0,
            };
            let mut v = vec![0.0f64; self.size()];
            for _ in 0..MAX_SWEEPS {
                let mut delta = 0.0f64;
                for i in 0..self.size() {
                    if absorbing[i] || self.moves[i].is_empty() {
                        continue;
                    }
                    let best = self.moves[i]
                        .iter()
                        .map(|(pid, branches)| {
                            cost(*pid) + branches.iter().map(|&(pr, j)| pr * v[j]).sum::<f64>()
                        })
                        .fold(f64::NEG_INFINITY, f64::max);
                    delta = delta.max((best - v[i]).abs());
                    v[i] = best;
                }
                if delta < tol {
                    break;
                }
            }
            v
        }

        /// Worst-case `P[target undecided after k of its own steps]` from
        /// the initial configuration, `k = 0..=k_max`: one least fixpoint
        /// per layer, where a target step consumes one unit of `k` and any
        /// other step stays in the layer.
        pub fn survival(&self, p: &P, target: usize, k_max: usize, tol: f64) -> Vec<f64> {
            let undecided: Vec<bool> = self
                .configs
                .iter()
                .map(|cfg| p.decision(&cfg.states[target]).is_none())
                .collect();
            let mut prev: Vec<f64> = undecided.iter().map(|&u| f64::from(u8::from(u))).collect();
            let mut curve = vec![prev[0]];
            for _ in 0..k_max {
                let mut g = vec![0.0f64; self.size()];
                for _ in 0..MAX_SWEEPS {
                    let mut delta = 0.0f64;
                    for i in 0..self.size() {
                        if !undecided[i] {
                            continue;
                        }
                        let best = self.moves[i]
                            .iter()
                            .map(|(pid, branches)| {
                                let layer = if *pid == target { &prev } else { &g };
                                branches.iter().map(|&(pr, j)| pr * layer[j]).sum::<f64>()
                            })
                            .fold(0.0f64, f64::max);
                        delta = delta.max((best - g[i]).abs());
                        g[i] = best;
                    }
                    if delta < tol {
                        break;
                    }
                }
                curve.push(g[0]);
                prev = g;
            }
            curve
        }
    }
}

fn opts(depth: Option<usize>, target: Option<usize>) -> CompactOptions {
    CompactOptions {
        max_depth: depth,
        target,
        ..CompactOptions::default()
    }
}

/// Builds both backends (optionally depth-bounded) and compares expected
/// steps under every objective and the survival curve of every processor.
///
/// `compare_steps: false` skips the expected-steps comparisons for
/// protocols whose truncated graph still contains undecided cycles (the
/// naive protocol): there the fixpoint diverges, and the dense
/// Gauss–Seidel and compact Jacobi sweeps blow up at different rates.
/// Survival curves are bounded in [0, 1] and stay well-defined.
fn assert_backends_agree<P: Symmetric>(
    name: &str,
    p: &P,
    inputs: &[Val],
    depth: Option<usize>,
    compare_steps: bool,
) {
    let dense = oracle::Dense::build(p, inputs, depth);
    let compact_any = CompactMdp::build(p, inputs, &opts(depth, None)).unwrap();
    assert!(
        compact_any.size() <= dense.size(),
        "{name}: quotient larger than the dense space"
    );
    if compare_steps {
        let dt = dense.expected_steps(p, Objective::TotalSteps, 1e-13)[0];
        let ct = compact_any.expected_steps(Objective::TotalSteps, 1e-13, 1_000_000, 1);
        assert!(
            (dt - ct.value).abs() <= VAL_TOL,
            "{name} TotalSteps: dense {dt} vs compact {}",
            ct.value
        );
    }
    for t in 0..p.processes() {
        let compact_t = CompactMdp::build(p, inputs, &opts(depth, Some(t))).unwrap();
        if compare_steps {
            let ds = dense.expected_steps(p, Objective::StepsOf(t), 1e-13)[0];
            let cs = compact_t.expected_steps(Objective::StepsOf(t), 1e-13, 1_000_000, 1);
            assert!(
                (ds - cs.value).abs() <= VAL_TOL,
                "{name} StepsOf({t}): dense {ds} vs compact {}",
                cs.value
            );
        }
        let dcurve = dense.survival(p, t, KMAX, 1e-14);
        let ccurve = compact_t.survival(t, KMAX, 1e-14, 1_000_000, 1);
        assert_eq!(dcurve.len(), ccurve.len(), "{name}: curve lengths");
        for (k, (a, b)) in dcurve.iter().zip(&ccurve).enumerate() {
            assert!(
                (a - b).abs() <= CURVE_TOL,
                "{name} survival[{k}] of P{t}: dense {a} vs compact {b}"
            );
        }
    }
}

#[test]
fn finite_space_protocols_agree_between_backends() {
    assert_backends_agree(
        "two(a,b)",
        &TwoProcessor::new(),
        &[Val::A, Val::B],
        None,
        true,
    );
    assert_backends_agree(
        "two(a,a)",
        &TwoProcessor::new(),
        &[Val::A, Val::A],
        None,
        true,
    );
    assert_backends_agree(
        "kvalued:4",
        &KValued::new(TwoProcessor::new(), 4),
        &[Val(0), Val(3)],
        None,
        true,
    );
}

#[test]
fn deterministic_victim_agrees_under_a_depth_bound() {
    // Theorem 4 keeps deterministic victims undecided forever, so the
    // unbounded expected-steps fixpoint diverges; a depth bound makes the
    // comparison well-defined on both sides.
    assert_backends_agree(
        "det:always-adopt",
        &DetTwo::new(DetRule::AlwaysAdopt),
        &[Val::A, Val::B],
        Some(8),
        true,
    );
}

#[test]
fn infinite_space_protocols_agree_under_a_depth_bound() {
    assert_backends_agree(
        "fig2",
        &NUnbounded::three(),
        &[Val::A, Val::B, Val::A],
        Some(6),
        true,
    );
    assert_backends_agree(
        "fig2-literal",
        &NUnbounded::literal_fig2(3),
        &[Val::A, Val::B, Val::A],
        Some(6),
        true,
    );
    assert_backends_agree(
        "fig2-1w1r",
        &NUnbounded1W1R::three(),
        &[Val::A, Val::B, Val::A],
        Some(6),
        true,
    );
    assert_backends_agree(
        "fig3",
        &ThreeBounded::new(),
        &[Val::A, Val::B, Val::A],
        Some(6),
        true,
    );
    assert_backends_agree(
        "naive",
        &Naive::new(3),
        &[Val::A, Val::B, Val::A],
        Some(7),
        false,
    );
    assert_backends_agree(
        "n:4",
        &NUnbounded::new(4),
        &[Val::A, Val::B, Val::A, Val::B],
        Some(5),
        true,
    );
}

#[test]
fn value_iteration_is_jobs_invariant_to_the_bit() {
    let p = KValued::new(TwoProcessor::new(), 4);
    let inputs = [Val(0), Val(3)];
    let mdp = CompactMdp::build(&p, &inputs, &opts(None, None)).unwrap();
    let s1 = mdp.expected_steps(Objective::TotalSteps, 1e-13, 1_000_000, 1);
    let s8 = mdp.expected_steps(Objective::TotalSteps, 1e-13, 1_000_000, 8);
    assert_eq!(s1.iterations, s8.iterations);
    assert_eq!(s1.policy, s8.policy);
    for (i, (a, b)) in s1.values.iter().zip(&s8.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "value of class {i}");
    }
    let t = CompactMdp::build(&p, &inputs, &opts(None, Some(0))).unwrap();
    let c1 = t.survival(0, KMAX, 1e-13, 1_000_000, 1);
    let c8 = t.survival(0, KMAX, 1e-13, 1_000_000, 8);
    for (k, (a, b)) in c1.iter().zip(&c8).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "survival[{k}]");
    }
}

#[test]
fn compact_policy_is_optimal_under_dense_values() {
    // Gap-aware policy check: at every dense-reachable configuration the
    // compact policy's scheduling choice must achieve (within 1e-9) the
    // best one-step lookahead value computed from the *dense* solution.
    // This is stronger than comparing policies pointwise — distinct optimal
    // moves are fine, suboptimal ones are not.
    let p = KValued::new(TwoProcessor::new(), 4);
    let inputs = [Val(0), Val(3)];
    let dense = oracle::Dense::build(&p, &inputs, None);
    let dvalues = dense.expected_steps(&p, Objective::TotalSteps, 1e-13);
    let compact = CompactMdp::build(&p, &inputs, &opts(None, None)).unwrap();
    let csolve = compact.expected_steps(Objective::TotalSteps, 1e-13, 1_000_000, 1);

    let mut seen: HashSet<Config<KValued<TwoProcessor>>> = HashSet::new();
    let mut queue = vec![Config::initial(&p, &inputs)];
    let mut checked = 0usize;
    while let Some(cfg) = queue.pop() {
        if !seen.insert(cfg.clone()) {
            continue;
        }
        let eligible = cfg.eligible(&p);
        if !eligible.is_empty() {
            let q = |pid: usize| -> f64 {
                1.0 + successors(&p, &cfg, pid)
                    .into_iter()
                    .map(|(pr, succ)| pr * dvalues[dense.find(&succ).unwrap()])
                    .sum::<f64>()
            };
            let best = eligible
                .iter()
                .map(|&pid| q(pid))
                .fold(f64::NEG_INFINITY, f64::max);
            let chosen = compact
                .decide_config(&p, &cfg, &csolve.policy)
                .expect("reachable, non-absorbing configuration has a policy move");
            assert!(
                eligible.contains(&chosen),
                "policy schedules ineligible P{chosen}"
            );
            assert!(
                q(chosen) >= best - VAL_TOL,
                "suboptimal move P{chosen}: Q {} vs best {best}",
                q(chosen)
            );
            checked += 1;
        }
        for pid in eligible {
            for (_, succ) in successors(&p, &cfg, pid) {
                if !seen.contains(&succ) {
                    queue.push(succ);
                }
            }
        }
    }
    assert!(checked > 50, "walked only {checked} configurations");
}

#[test]
fn compact_policy_adversary_reproduces_the_exact_optimum_in_monte_carlo() {
    let p = TwoProcessor::new();
    let inputs = [Val::A, Val::B];
    let mdp = CompactMdp::build(&p, &inputs, &opts(None, Some(1))).unwrap();
    let solve = mdp.expected_steps(Objective::StepsOf(1), 1e-12, 100_000, 0);
    let runs = 30_000u64;
    let mut total = 0u64;
    for seed in 0..runs {
        let out = Runner::new(&p, &inputs, mdp.policy_adversary(&p, &solve))
            .seed(seed)
            .stop_when(StopWhen::PidDecided(1))
            .max_steps(100_000)
            .run();
        total += out.steps[1];
    }
    let mean = total as f64 / runs as f64;
    assert!(
        (mean - solve.value).abs() < 0.3,
        "MC mean {mean} vs exact optimum {}",
        solve.value
    );
}

#[test]
fn two_survival_curve_is_exactly_the_corollary_geometric_decay() {
    // P0 cannot decide before its fourth own step; from there the
    // worst-case survival decays by a factor 3/4 every second step:
    // curve[k] = (3/4)^⌊(k-2)/2⌋ for k >= 2 (Corollary of Theorem 7).
    let p = TwoProcessor::new();
    let mdp = CompactMdp::build(&p, &[Val::A, Val::B], &opts(None, Some(0))).unwrap();
    let curve = mdp.survival(0, 16, 1e-14, 1_000_000, 1);
    assert_eq!(curve[0], 1.0);
    assert_eq!(curve[1], 1.0);
    for (k, v) in curve.iter().enumerate().skip(2) {
        let expect = 0.75f64.powi(((k - 2) / 2) as i32);
        assert!(
            (v - expect).abs() <= CURVE_TOL,
            "survival[{k}] = {v}, expected {expect}"
        );
    }
}

#[test]
fn golden_configuration_counts() {
    // Without symmetry every class is one raw configuration. Nothing else
    // pins these counts, which EXPERIMENTS.md and BENCH_mdp.json print.
    fn assert_count<P: Symmetric>(
        name: &str,
        p: &P,
        inputs: &[Val],
        depth: Option<usize>,
        n: usize,
    ) {
        let mut explorer = CompactExplorer::new(p, inputs).use_symmetry(false);
        if let Some(d) = depth {
            explorer = explorer.max_depth(d);
        }
        let report = explorer.run();
        assert_eq!(report.explored, n, "{name}");
        assert_eq!(report.complete, depth.is_none(), "{name}");
        assert_eq!(
            oracle::Dense::build(p, inputs, depth).size(),
            n,
            "{name}: oracle"
        );
    }
    let two = TwoProcessor::new();
    assert_count("two(a,b)", &two, &[Val::A, Val::B], None, 37);
    assert_count(
        "kvalued:4",
        &KValued::new(TwoProcessor::new(), 4),
        &[Val(0), Val(3)],
        None,
        128,
    );
    assert_count(
        "kvalued:8",
        &KValued::new(TwoProcessor::new(), 8),
        &[Val(0), Val(7)],
        None,
        208,
    );
    assert_count(
        "fig2",
        &NUnbounded::three(),
        &[Val::A, Val::B, Val::A],
        Some(11),
        1013,
    );
    assert_count(
        "fig3",
        &ThreeBounded::new(),
        &[Val::A, Val::B, Val::A],
        Some(11),
        1077,
    );
    // Two independent enumerations of each closed Fig. 1 space coincide.
    for inputs in [[Val::A, Val::A], [Val::B, Val::A]] {
        let report = CompactExplorer::new(&two, &inputs)
            .use_symmetry(false)
            .run();
        assert!(report.complete);
        let dense = oracle::Dense::build(&two, &inputs, None);
        assert_eq!(report.explored, dense.size(), "{inputs:?}");
    }
}
