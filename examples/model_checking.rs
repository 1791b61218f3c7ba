//! The paper's proofs, executed: exhaustive consistency checking, exact
//! valence analysis, the constructive Theorem 4 adversary, and the exact
//! worst-case adversary of Theorem 7 — all from the public API.
//!
//! Run with: `cargo run -p cil-core --example model_checking --release`

use cil_core::deterministic::{DetRule, DetTwo};
use cil_core::two::TwoProcessor;
use cil_mc::{
    construct_infinite_schedule, min_decide_prob, CompactExplorer, CompactMdp, CompactOptions,
    Objective, Valence, ValenceMap,
};
use cil_sim::Val;

fn main() {
    let inputs = [Val::A, Val::B];

    // ------------------------------------------------------------------
    println!("== Theorem 6, mechanized: exhaustive consistency of Fig. 1 ==");
    let p = TwoProcessor::new();
    let report = CompactExplorer::new(&p, &inputs).run();
    println!(
        "explored the COMPLETE space: {} symmetry classes, complete = {}, violations = {}\n",
        report.explored,
        report.complete,
        report.violations.len()
    );

    // ------------------------------------------------------------------
    println!("== Corollary of Theorem 7, made exact: the worst adaptive adversary ==");
    let opts = CompactOptions {
        target: Some(0),
        ..CompactOptions::default()
    };
    let mdp = CompactMdp::build(&p, &inputs, &opts).expect("Fig. 1's space is finite");
    let steps = mdp.expected_steps(Objective::StepsOf(0), 1e-12, 100_000, 0);
    println!(
        "E[steps of P0 | optimal adversary] = {:.6}   (paper bound: 10 — tight!)",
        steps.value
    );
    let survival = mdp.survival(0, 10, 1e-13, 100_000, 0);
    print!("worst-case survival:");
    for (k, s) in survival.iter().enumerate().step_by(2) {
        print!("  P[undecided after {k}] = {s:.4}");
    }
    println!("\n");

    println!("exact stall resistance (min forced decision probability):");
    for h in [4u32, 8, 12] {
        println!(
            "  within {h:>2} steps: {:.4}",
            min_decide_prob(&p, &inputs, h)
        );
    }
    println!();

    // ------------------------------------------------------------------
    println!("== Theorem 4, constructed: infinite schedules against deterministic victims ==");
    for rule in DetRule::ALL {
        let victim = DetTwo::new(rule);
        let map = ValenceMap::build(&victim, &inputs, 1_000_000);
        let initial = match map.valence(map.initial()) {
            Valence::Bivalent(..) => "bivalent",
            Valence::Univalent(_) => "univalent",
            Valence::Blocked => "blocked",
        };
        let demo = construct_infinite_schedule(&victim, &inputs, 100_000, 1_000_000)
            .expect("Theorem 4 construction never gets stuck on a victim");
        println!(
            "  {rule:<18} initial {initial}; drove {} steps, decisions: {}",
            demo.schedule.len(),
            if demo.anyone_decided {
                "SOME (bug!)"
            } else {
                "none"
            }
        );
    }
    println!("\nevery victim stalled forever — deterministic coordination is impossible ✓");
}
