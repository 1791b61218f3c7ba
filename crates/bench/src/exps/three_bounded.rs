//! EXP-6 — §6: the bounded-register three-processor protocol.
//!
//! * register-alphabet census: every value ever written comes from the
//!   fixed 75-value alphabet — the paper's boundedness claim;
//! * bounded-exhaustive consistency check over all schedules × coins;
//! * termination statistics across the adversary suite.

use crate::adversary_suite;
use cil_analysis::{fnum, OnlineStats, Table};
use cil_core::three_bounded::{register_alphabet, BReg, ThreeBounded};
use cil_mc::CompactExplorer;
use cil_sim::{Op, Runner, Val};
use std::collections::HashSet;

/// Runs the experiment and returns its markdown report.
pub fn run() -> String {
    let p = ThreeBounded::new();
    let inputs = [Val::A, Val::B, Val::A];
    let mut out = String::from("## EXP-6 — §6: bounded registers\n");

    // Alphabet census.
    out.push_str("\n### Boundedness: register alphabet census\n\n");
    let alphabet: HashSet<BReg> = register_alphabet().into_iter().collect();
    let mut observed: HashSet<BReg> = HashSet::new();
    let mut outside = 0u64;
    let census_runs = crate::sample(20_000);
    for seed in 0..census_runs {
        let o = Runner::new(&p, &inputs, cil_sim::RandomScheduler::new(seed))
            .seed(seed)
            .record_trace(true)
            .max_steps(1_000_000)
            .run();
        for e in o.trace.expect("trace recorded").events() {
            if let Op::Write(_, v) = &e.op {
                if alphabet.contains(v) {
                    observed.insert(*v);
                } else {
                    outside += 1;
                }
            }
        }
    }
    out.push_str(&format!(
        "Alphabet size: {} values (1 ⊥ + 2 dec + 54 value states + 18 pref states). \
         Across {census_runs} adversarial runs: {} distinct values observed, \
         **{} writes outside the alphabet** (must be 0 — the §6 claim that bounded \
         registers suffice).\n",
        alphabet.len(),
        observed.len(),
        outside
    ));

    // Bounded-exhaustive safety.
    out.push_str("\n### Bounded-exhaustive consistency\n\n");
    let depth = if cfg!(debug_assertions) { 8 } else { 11 };
    let report = CompactExplorer::new(&p, &inputs)
        .max_depth(depth)
        .max_configs(3_000_000)
        .run();
    out.push_str(&format!(
        "All schedules × all coin outcomes to depth {}: {} configurations, \
         {} violations.\n",
        report.max_depth,
        report.explored,
        report.violations.len()
    ));

    // Termination statistics.
    out.push_str("\n### Termination across the adversary suite\n\n");
    let runs = crate::sample(20_000);
    let mut t = Table::new([
        "adversary",
        "mean total steps",
        "95% CI",
        "max total steps",
        "undecided runs",
        "inconsistent runs",
    ]);
    for (name, mk) in adversary_suite::<ThreeBounded>() {
        let mut stats = OnlineStats::new();
        let mut undecided = 0u64;
        let mut bad = 0u64;
        for seed in 0..runs {
            let o = Runner::new(&p, &inputs, mk(seed))
                .seed(seed ^ 0xB0B)
                .max_steps(2_000_000)
                .run();
            if o.halt == cil_sim::Halt::MaxSteps {
                undecided += 1;
            }
            if !o.consistent() || !o.nontrivial() {
                bad += 1;
            }
            stats.push(o.total_steps as f64);
        }
        let (lo, hi) = stats.ci95();
        t.row([
            name.to_string(),
            fnum(stats.mean()),
            format!("[{}, {}]", fnum(lo), fnum(hi)),
            fnum(stats.max()),
            undecided.to_string(),
            bad.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nReading: the §6 protocol keeps every register inside a 75-value (7-bit) \
         alphabet — 'bounded size … implementable in existing technology' — while \
         retaining consistency and fast randomized termination. It pays a constant \
         factor over §5's unbounded protocol (the circular-counter bookkeeping and \
         boundary A₂ embeddings).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn boundedness_and_safety_hold() {
        let r = super::run();
        assert!(r.contains("**0 writes outside the alphabet**"), "{r}");
        assert!(r.contains("0 violations"), "{r}");
    }
}
