//! Deeper bounded-exhaustive model checking of the three-processor
//! protocols (all schedules × all coin outcomes), at depths beyond what the
//! experiment harness uses. Depth is reduced in debug builds to keep
//! `cargo test` fast; release test runs (`cargo test --release`) verify the
//! deeper bounds.

use cil_core::n_unbounded::NUnbounded;
use cil_core::n_unbounded_1w1r::NUnbounded1W1R;
use cil_core::three_bounded::{register_alphabet, BReg, ThreeBounded};
use cil_mc::{successors_indexed, CompactExplorer, Config};
use cil_sim::{Protocol, Val};
use std::collections::HashSet;

fn depth(release: usize) -> usize {
    if cfg!(debug_assertions) {
        release.saturating_sub(5)
    } else {
        release
    }
}

#[test]
fn fig2_corrected_is_safe_to_depth() {
    let p = NUnbounded::three();
    for inputs in [[Val::A, Val::B, Val::A], [Val::B, Val::B, Val::A]] {
        let report = CompactExplorer::new(&p, &inputs)
            .max_depth(depth(14))
            .max_configs(6_000_000)
            .run();
        assert!(report.safe(), "{:?}", report.violations);
        assert!(report.explored > 100);
    }
}

#[test]
fn fig3_bounded_is_safe_to_depth() {
    let p = ThreeBounded::new();
    for inputs in [[Val::A, Val::B, Val::A], [Val::A, Val::A, Val::B]] {
        let report = CompactExplorer::new(&p, &inputs)
            .max_depth(depth(14))
            .max_configs(6_000_000)
            .run();
        assert!(report.safe(), "{:?}", report.violations);
    }
}

/// ROADMAP item 1, pinned: Fig. 3 as reconstructed here breaks
/// consistency. From inputs a,a,b, the 39-step schedule below, with every
/// coin on its first branch, makes P1 decide b and then P2 decide a. The
/// test steps the current rules unchanged; a repair of Fig. 3 must carry
/// it over to the old rules under their new name.
#[test]
fn fig3_roadmap_counterexample_decides_both_values() {
    const SCHEDULE: [usize; 39] = [
        0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2, 0, 0, 0, 0, 1,
        2, 1, 1, 1, 1, 1, 1, 1, 2,
    ];
    let p = ThreeBounded::new();
    let mut cfg = Config::initial(&p, &[Val::A, Val::A, Val::B]);
    let mut branching = 0;
    for (i, &pid) in SCHEDULE.iter().enumerate() {
        let outcomes = successors_indexed(&p, &cfg, pid);
        branching += usize::from(outcomes.len() > 1);
        let first = outcomes.into_iter().next().expect("an eligible step");
        assert_eq!((first.choose_idx, first.transit_idx), (0, 0));
        cfg = first.config;
        let step = i + 1;
        let p1 = p.decision(&cfg.states[1]);
        let p2 = p.decision(&cfg.states[2]);
        assert_eq!(p1, (step >= 38).then_some(Val::B), "P1 after step {step}");
        assert_eq!(p2, (step >= 39).then_some(Val::A), "P2 after step {step}");
    }
    assert_eq!(branching, 10);
    assert_eq!(cfg.decision_values(&p), vec![Val::A, Val::B]);
}

#[test]
fn fig3_registers_stay_in_alphabet_exhaustively() {
    // Stronger than the Monte-Carlo census: over ALL executions to the
    // depth bound, every register value is in the declared alphabet.
    let alphabet: HashSet<BReg> = register_alphabet().into_iter().collect();
    let p = ThreeBounded::new();
    let report = CompactExplorer::new(&p, &[Val::A, Val::B, Val::B])
        .max_depth(depth(13))
        .max_configs(6_000_000)
        .check_invariant(move |cfg| {
            for r in &cfg.regs {
                if !alphabet.contains(r) {
                    return Err(format!("register value outside alphabet: {r:?}"));
                }
            }
            Ok(())
        })
        .run();
    assert!(report.safe(), "{:?}", report.violations);
}

#[test]
fn one_writer_one_reader_variant_is_safe_to_depth() {
    let p = NUnbounded1W1R::three();
    let report = CompactExplorer::new(&p, &[Val::A, Val::B, Val::A])
        .max_depth(depth(14))
        .max_configs(6_000_000)
        .run();
    assert!(report.safe(), "{:?}", report.violations);
}

#[test]
fn literal_fig2_is_safe_at_shallow_depth_only() {
    // The pinned counterexample to the literal rule lives at depth ~19+
    // (several full phases), beyond exhaustive reach — this is exactly why
    // bounded model checking alone missed it and randomized search was
    // needed. Document the boundary: shallow exhaustion stays clean.
    let p = NUnbounded::literal_fig2(3);
    let report = CompactExplorer::new(&p, &[Val::A, Val::B, Val::A])
        .max_depth(depth(12))
        .max_configs(6_000_000)
        .run();
    assert!(
        report.safe(),
        "literal rule violated earlier than expected: {:?}",
        report.violations
    );
}
