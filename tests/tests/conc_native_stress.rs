//! Tier-1 native stress: every built-in protocol family stays consistent
//! and nontrivial under the seeded random-walk controlled scheduler, and
//! every captured controlled trace passes the happens-before audit — i.e.
//! the real-atomics executions serialize as atomic register operations,
//! the paper's model realized "in existing technology".
//!
//! The seed matrix and budgets are fixed, so these runs are byte-for-byte
//! reproducible; the termination-free families (`naive`, the Theorem 4
//! deterministic victim) are covered too — they lose only termination,
//! never safety, so the violation count must still be zero.

use cil_audit::TraceAuditor;
use cil_conc::{rerun_trial_with_codec, stress_with_codec, StrategySpec, StressConfig};
use cil_core::deterministic::{DetRule, DetTwo};
use cil_core::kvalued::KValued;
use cil_core::n_unbounded::NUnbounded;
use cil_core::n_unbounded_1w1r::NUnbounded1W1R;
use cil_core::naive::Naive;
use cil_core::three_bounded::ThreeBounded;
use cil_core::two::TwoProcessor;
use cil_core::KRegCodec;
use cil_obs::RunEvent;
use cil_sim::{PackCodec, Protocol, Val, WordCodec};

/// The fixed seed matrix: three root seeds per protocol, each fanning out
/// into per-trial seeds via the sweep's `SplitMix64` jump.
const SEEDS: [u64; 3] = [1, 42, 0xC1A0];

/// Runs the seeded stress batches for one protocol and audits a captured
/// trace per root seed.
fn stress_and_audit<P, C>(protocol: &P, inputs: &[Val], codec: &C, trials: u64, budget: u64)
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    for &root_seed in &SEEDS {
        let cfg = StressConfig {
            trials,
            root_seed,
            budget,
            jobs: 0,
            strategy: StrategySpec::Random,
            max_failure_samples: 3,
        };
        let stats = stress_with_codec(protocol, inputs, codec, &cfg, None);
        assert_eq!(
            stats.violations(),
            0,
            "{} seed {root_seed}: {:?}",
            protocol.name(),
            stats.failures
        );
        assert_eq!(stats.trials, trials);

        // The captured controlled trace must serialize as atomic register
        // operations under the protocol's declared access sets.
        let (_, outcome) = rerun_trial_with_codec(protocol, inputs, codec, &cfg, 0);
        assert!(!outcome.events.is_empty(), "capture requested");
        for event in &outcome.events {
            let line = event.to_json();
            assert_eq!(RunEvent::from_json(&line).as_ref(), Ok(event), "{line}");
        }
        let report = TraceAuditor::for_protocol(protocol).audit(&outcome.events);
        assert!(
            report.ok(),
            "{} seed {root_seed}:\n{}",
            protocol.name(),
            report.render()
        );
    }
}

const AB: [Val; 2] = [Val::A, Val::B];
const ABA: [Val; 3] = [Val::A, Val::B, Val::A];

#[test]
fn two_processor_native_stress_is_clean() {
    stress_and_audit(&TwoProcessor::new(), &AB, &PackCodec, 12, 2048);
}

#[test]
fn fig2_native_stress_is_clean() {
    stress_and_audit(&NUnbounded::three(), &ABA, &PackCodec, 12, 2048);
}

#[test]
fn fig2_literal_native_stress_is_clean() {
    stress_and_audit(&NUnbounded::literal_fig2(3), &ABA, &PackCodec, 12, 2048);
}

#[test]
fn fig2_1w1r_native_stress_is_clean() {
    stress_and_audit(&NUnbounded1W1R::three(), &ABA, &PackCodec, 12, 2048);
}

#[test]
fn fig3_native_stress_is_clean() {
    stress_and_audit(&ThreeBounded::new(), &ABA, &PackCodec, 12, 2048);
}

#[test]
fn naive_native_stress_is_safe_despite_livelock() {
    // Naive may never terminate; runs cut off at the budget must still be
    // consistent and nontrivial on whatever was decided.
    stress_and_audit(&Naive::new(3), &ABA, &PackCodec, 8, 1024);
}

#[test]
fn theorem4_victim_native_stress_is_safe() {
    // The deterministic victim loses only termination (Theorem 4), never
    // safety.
    stress_and_audit(&DetTwo::new(DetRule::AlwaysAdopt), &AB, &PackCodec, 8, 1024);
}

#[test]
fn n4_native_stress_is_clean() {
    stress_and_audit(
        &NUnbounded::new(4),
        &[Val::A, Val::B, Val::A, Val::B],
        &PackCodec,
        12,
        2048,
    );
}

#[test]
fn kvalued_native_stress_is_clean() {
    let p = KValued::new(TwoProcessor::new(), 4);
    let codec = KRegCodec::for_protocol(&p);
    stress_and_audit(&p, &[Val(0), Val(3)], &codec, 12, 2048);
}
