//! Cross-validation of the state explorer against the valence analysis:
//! two independent enumerations of a deterministic victim's space must
//! coincide, and the explorer's invariant hook must see every
//! configuration exactly once.

use cil_core::deterministic::{DetRule, DetTwo};
use cil_mc::valence::ValenceMap;
use cil_mc::CompactExplorer;
use cil_sim::Val;
use std::cell::Cell;

#[test]
fn bivalent_census_matches_the_valence_map() {
    // Count bivalent configurations among the explored set via an invariant
    // hook, cross-checked against the exact valence analysis. The valence
    // map requires a deterministic protocol, so use the Theorem 4 victim.
    // Without symmetry each class is one raw configuration.
    let p = DetTwo::new(DetRule::AlwaysAdopt);
    let inputs = [Val::A, Val::B];
    let map = ValenceMap::build(&p, &inputs, 1_000_000);
    let bivalent = Cell::new(0usize);
    let total = Cell::new(0usize);
    let report = CompactExplorer::new(&p, &inputs)
        .use_symmetry(false)
        .check_invariant(|cfg| {
            total.set(total.get() + 1);
            if map.is_bivalent(cfg) {
                bivalent.set(bivalent.get() + 1);
            }
            Ok(())
        })
        .run();
    assert!(report.safe(), "{:?}", report.violations);
    assert!(report.complete);
    assert_eq!(report.explored, map.explored());
    // Evaluated exactly once per distinct configuration.
    assert_eq!(total.get(), report.explored);
    // The initial configuration with split inputs is bivalent (the paper's
    // Lemma 2 situation), so the census is non-trivial.
    assert!(bivalent.get() > 0, "expected bivalent configs");
    assert!(bivalent.get() < total.get(), "every config bivalent?");
}
