//! The correctness gate: after a run's timed phase, its outputs are checked
//! against the repository's own oracles. The checks are not timed. Every
//! unit that fails a check or did not complete counts toward
//! `failed_ratio`.

use cil_audit::{CertCheck, ProveReport};
use cil_sim::SweepStats;

/// Fig. 3 canonical classes a `CompactExplorer` check reaches by depth 30.
pub const FIG3_CHECK_CLASSES: usize = 123_525;

/// Fig. 3 canonical classes of the depth-18 `CompactMdp` (target P0).
pub const FIG3_MDP_CLASSES: usize = 9_609;

/// Fig. 3's exact worst-case survival curve, P[P0 undecided after k of its
/// steps] for k = 0..=20 on the depth-18 model (`cil survival --protocol
/// fig3 --inputs a,b,a --depth 18`).
pub const FIG3_SURVIVAL: [f64; 21] = [
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.875, 0.875,
    0.875, 0.8125, 0.6875,
];

/// Largest distance from [`FIG3_SURVIVAL`] an analysis may show.
pub const CURVE_TOLERANCE: f64 = 1e-12;

/// Reachable configurations `cil prove kvalued:8` closes over domain 0..7.
pub const KVALUED8_CONFIGS: u64 = 10_560;

/// FNV-1a hash of the `SweepStats::digest` of sweep-fig2's first batch at
/// the default seed (20,000 trials).
pub const FIG2_GOLDEN_DIGEST: u64 = 0xf455_8f62_e327_9674;

/// FNV-1a, 64-bit: a short fingerprint of a digest for printing and for
/// golden values.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Folds `bytes` into the FNV-1a hash `hash`: hashing the pieces of a
/// sequence one after another gives [`fnv1a`] of their concatenation.
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Failures in one batch of `expected` instances or trials: each unit that
/// ended undecided or violated safety, plus each unit that never ran. A
/// batch whose digest disagrees with its reference fails as a whole, since
/// the digest cannot say which of its units differ.
pub fn batch_failures(stats: &SweepStats, expected: u64, digest_matches: bool) -> u64 {
    if !digest_matches {
        return expected;
    }
    let missing = expected.saturating_sub(stats.trials);
    (stats.undecided + stats.violations() + missing).min(expected)
}

/// What one exact-fig3 analysis produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactOutput {
    /// Classes the bounded check explored.
    pub explored: usize,
    /// Safety violations the check found.
    pub violations: usize,
    /// Classes of the survival model.
    pub classes: usize,
    /// The survival curve, k = 0..=20.
    pub curve: Vec<f64>,
}

/// 1 if the analysis disagrees with the golden counts, found a violation,
/// or produced a curve off the golden one by more than [`CURVE_TOLERANCE`];
/// else 0.
pub fn exact_failures(out: &ExactOutput) -> u64 {
    let curve_ok = out.curve.len() == FIG3_SURVIVAL.len()
        && out
            .curve
            .iter()
            .zip(FIG3_SURVIVAL)
            .all(|(v, g)| (v - g).abs() <= CURVE_TOLERANCE);
    let ok = out.explored == FIG3_CHECK_CLASSES
        && out.violations == 0
        && out.classes == FIG3_MDP_CLASSES
        && curve_ok;
    u64::from(!ok)
}

/// 1 unless the proof is PROVED over `expected_configs` configurations and
/// `check_certificate` accepted its certificate with the same count; else 0.
pub fn prove_failures(
    report: &ProveReport,
    check: &Result<CertCheck, String>,
    expected_configs: u64,
) -> u64 {
    let ok = report.proved()
        && report.configs == expected_configs
        && matches!(check, Ok(c) if c.configs == report.configs);
    u64::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_audit::{check_certificate, Prover};
    use cil_core::two::TwoProcessor;
    use cil_sim::{TrialOutcome, TrialResult};

    fn batch(outcomes: &[TrialOutcome]) -> SweepStats {
        let mut stats = SweepStats::new(8);
        for (i, &outcome) in outcomes.iter().enumerate() {
            stats.absorb(
                i as u64,
                TrialResult {
                    metric: 12,
                    outcome,
                    flagged: false,
                    schedule: None,
                },
            );
        }
        stats
    }

    #[test]
    fn an_undecided_instance_is_one_failure() {
        use TrialOutcome::*;
        assert_eq!(batch_failures(&batch(&[Decided; 4]), 4, true), 0);
        assert_eq!(
            batch_failures(&batch(&[Decided, Undecided, Decided, Decided]), 4, true),
            1
        );
        assert_eq!(
            batch_failures(&batch(&[Inconsistent, Trivial, Decided, Decided]), 4, true),
            2
        );
        // A unit that never ran did not complete.
        assert_eq!(batch_failures(&batch(&[Decided; 3]), 4, true), 1);
        // A digest mismatch fails the whole batch.
        assert_eq!(batch_failures(&batch(&[Decided; 4]), 4, false), 4);
    }

    fn golden() -> ExactOutput {
        ExactOutput {
            explored: FIG3_CHECK_CLASSES,
            violations: 0,
            classes: FIG3_MDP_CLASSES,
            curve: FIG3_SURVIVAL.to_vec(),
        }
    }

    #[test]
    fn a_wrong_curve_is_one_failure() {
        assert_eq!(exact_failures(&golden()), 0);
        let mut off = golden();
        off.curve[20] += 1e-9;
        assert_eq!(exact_failures(&off), 1);
        let mut short = golden();
        short.curve.pop();
        assert_eq!(exact_failures(&short), 1);
        let mut unsafe_run = golden();
        unsafe_run.violations = 1;
        assert_eq!(exact_failures(&unsafe_run), 1);
        let mut fewer = golden();
        fewer.classes -= 1;
        assert_eq!(exact_failures(&fewer), 1);
    }

    #[test]
    fn a_rejected_certificate_is_one_failure() {
        let p = TwoProcessor::new();
        let report = Prover::new(&p).run();
        let cert = report
            .certificate()
            .expect("the two-processor protocol is proved");
        let configs = report.configs;
        assert_eq!(
            prove_failures(&report, &check_certificate(&p, &cert), configs),
            0
        );
        // Flip one fingerprint digit: the checker must reject it.
        let at = cert.find("\"fp\":").expect("certificate has fingerprints") + 5;
        let mut tampered = cert.into_bytes();
        tampered[at] = if tampered[at] == b'1' { b'2' } else { b'1' };
        let tampered = String::from_utf8(tampered).expect("ASCII edit");
        let check = check_certificate(&p, &tampered);
        assert!(check.is_err());
        assert_eq!(prove_failures(&report, &check, configs), 1);
        // A proof over a different state count fails too.
        assert_eq!(
            prove_failures(&report, &check_certificate(&p, &tampered), configs + 1),
            1
        );
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_extend(fnv1a(b"ab"), b"c"), fnv1a(b"abc"));
    }
}
