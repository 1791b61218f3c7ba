//! The static analysis / proof layer, end to end: every lint pass fires on
//! at least one seeded mutant and stays silent on every built-in protocol;
//! the footprint table over-approximates dynamically observed register
//! accesses on random product walks; the DPOR explorer strengthened with
//! static independence is byte-identical at any `--jobs` and never runs
//! more executions than the dynamic baseline; and `cil prove` certificates
//! round-trip through the independent checker (tampering rejected).

use cil_audit::{
    footprints, lint, Auditor, FootprintTable, LintCode, LintMutant, LintMutantTwo, RegAccess,
};
use cil_cli::CliFailure;
use cil_conc::{Access, StaticIndep};
use cil_core::deterministic::{DetRule, DetTwo};
use cil_core::kvalued::KValued;
use cil_core::n_unbounded::NUnbounded;
use cil_core::n_unbounded_1w1r::NUnbounded1W1R;
use cil_core::naive::Naive;
use cil_core::three_bounded::ThreeBounded;
use cil_core::two::TwoProcessor;
use cil_core::KRegCodec;
use cil_sim::{Op, Protocol, Val};
use proptest::prelude::*;

fn dispatch(tokens: &[&str]) -> Result<String, CliFailure> {
    cil_cli::dispatch_full(tokens.iter().map(|s| s.to_string()))
}

/// A scratch-file path in the target temp dir, unique per test name.
fn scratch(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cil-static-analysis-{name}-{}", std::process::id()));
    p
}

// ---------------------------------------------------------------------------
// Lint matrix: mutants fire exactly, built-ins stay silent
// ---------------------------------------------------------------------------

/// Every lint pass fires on at least one seeded mutant, and each mutant
/// fires *exactly* its expected set — no cross-talk between passes.
#[test]
fn every_lint_pass_fires_on_exactly_one_mutant_family_member() {
    let mut covered = std::collections::BTreeSet::new();
    for kind in LintMutant::all() {
        let mutant = LintMutantTwo::new(kind);
        let report = lint(&Auditor::new(&mutant).with_packable());
        let fired: Vec<LintCode> = report.fired().into_iter().collect();
        let mut expected = kind.expected_lints();
        expected.sort();
        assert_eq!(
            fired,
            expected,
            "mutant:{} fired {fired:?}, expected {expected:?}\n{}",
            kind.key(),
            report.render()
        );
        covered.extend(fired);
    }
    for code in LintCode::all() {
        assert!(
            covered.contains(&code),
            "lint pass {code} is not exercised by any seeded mutant"
        );
    }
}

/// The lint mutants are model-compliant: `cil audit` accepts them (the
/// planted defects are inefficiencies, not §2 violations).
#[test]
fn lint_mutants_pass_the_model_audit_via_the_cli() {
    for kind in LintMutant::all() {
        let spec = format!("mutant:{}", kind.key());
        let out = dispatch(&["audit", &spec]).unwrap_or_else(|e| {
            panic!("audit {spec} must pass: {}", e.message());
        });
        assert!(out.contains("result: PASS"), "{out}");
    }
}

/// All nine built-in protocols are lint-clean, and the CLI exit codes are
/// exact: findings exit 1, unknown specs exit 2.
#[test]
fn cli_lint_all_is_clean_and_exit_codes_are_exact() {
    let out = dispatch(&["lint", "all"]).expect("built-ins are lint-clean");
    assert!(out.contains("9/9 protocols are lint-clean"), "{out}");

    for kind in LintMutant::all() {
        let spec = format!("mutant:{}", kind.key());
        let err = dispatch(&["lint", &spec]).expect_err("mutant lints must fire");
        assert_eq!(err.exit_code(), 1, "{}", err.message());
        assert!(
            err.message().contains("result: FINDINGS"),
            "{}",
            err.message()
        );
    }

    let err = dispatch(&["lint", "mutant:bogus"]).expect_err("unknown mutant");
    assert_eq!(err.exit_code(), 2, "{}", err.message());
    let err = dispatch(&["lint", "nonsense"]).expect_err("unknown spec");
    assert_eq!(err.exit_code(), 2, "{}", err.message());
}

/// `--json` renders are valid flat JSON with the expected verdict fields,
/// and `--footprints` appends the footprint table as a second JSONL line.
#[test]
fn cli_json_renders_parse() {
    let out = dispatch(&["audit", "two", "--json"]).unwrap();
    let node = cil_obs::json::parse_value(out.trim()).expect("audit --json parses");
    let obj = node.as_obj().expect("object");
    assert_eq!(obj["result"].as_str(), Some("pass"));
    assert_eq!(obj["audit"].as_str(), Some("two-processor (Fig. 1)"));

    let out = dispatch(&["lint", "two", "--json", "--footprints"]).unwrap();
    let mut lines = out.lines();
    let lint_line = lines.next().expect("lint line");
    let fp_line = lines.next().expect("footprint line");
    let lint_node = cil_obs::json::parse_value(lint_line).expect("lint --json parses");
    assert_eq!(
        lint_node.as_obj().expect("object")["findings"]
            .as_arr()
            .map(<[_]>::len),
        Some(0)
    );
    let fp_node = cil_obs::json::parse_value(fp_line).expect("footprints parse");
    assert_eq!(
        fp_node.as_obj().expect("object")["complete"].as_num(),
        Some(1)
    );

    let out = dispatch(&["prove", "two", "--json"]).unwrap();
    let node = cil_obs::json::parse_value(out.trim()).expect("prove --json parses");
    assert_eq!(
        node.as_obj().expect("object")["result"].as_str(),
        Some("proved")
    );
}

// ---------------------------------------------------------------------------
// Footprints over-approximate dynamic executions
// ---------------------------------------------------------------------------

/// Tiny deterministic RNG (splitmix64) for the random product walks.
struct Sm64(u64);
impl Sm64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random product walk of `steps` scheduler decisions, checking every
/// access the walk performs against the static footprint table and its
/// [`StaticIndep`] conversion:
///
/// - with a **complete** table, every access must be inside the owning
///   processor's access universe (`covers`), and every walked state must be
///   in the table with the branch's access among its first accesses;
/// - with a bounded table the universe may be truncated, so only the
///   per-state claim is checked (branch first-accesses are exact for any
///   state the walk did reach).
fn walk_and_check<P: Protocol>(
    p: &P,
    inputs: &[Val],
    table: &FootprintTable,
    statics: &StaticIndep,
    seed: u64,
    steps: usize,
) {
    let name = p.name();
    let mut rng = Sm64(seed);
    let specs = p.registers();
    let mut regs: Vec<P::Reg> = specs.iter().map(|s| s.init.clone()).collect();
    let mut states: Vec<P::State> = inputs
        .iter()
        .enumerate()
        .map(|(pid, &v)| p.init(pid, v))
        .collect();
    for _ in 0..steps {
        let eligible: Vec<usize> = (0..p.processes())
            .filter(|&pid| p.decision(&states[pid]).is_none())
            .collect();
        if eligible.is_empty() {
            break;
        }
        let pid = eligible[rng.pick(eligible.len())];
        let key = format!("{:?}", states[pid]);
        let choice = p.choose(pid, &states[pid]);
        let branches = choice.branches();
        let bi = rng.pick(branches.len());
        let op = &branches[bi].1;
        let access = RegAccess {
            reg: op.reg().0,
            write: op.is_write(),
        };
        if table.complete {
            assert!(
                table.covers(pid, access),
                "{name}: P{pid} performs {access} at {key}, outside the static universe"
            );
            assert!(
                statics.covers(
                    pid,
                    Access {
                        reg: access.reg,
                        write: access.write
                    }
                ),
                "{name}: StaticIndep conversion lost P{pid} {access}"
            );
            assert!(
                table.state(pid, &key).is_some(),
                "{name}: complete table misses walked state {key} of P{pid}"
            );
        }
        // Bounded walks leave unexpanded frontier nodes with empty branch
        // lists; only expanded states carry exact first-access sets.
        if let Some(sf) = table.state(pid, &key) {
            if !sf.branches.is_empty() {
                assert!(
                    sf.first_accesses().contains(&access),
                    "{name}: {access} of P{pid} at {key} missing from first accesses {:?}",
                    sf.first_accesses()
                );
            }
        }
        // Execute the step on the product state.
        let read = match op {
            Op::Read(r) => Some(regs[r.0].clone()),
            Op::Write(r, v) => {
                regs[r.0] = v.clone();
                None
            }
        };
        let tr = p.transit(pid, &states[pid], op, read.as_ref());
        let ti = rng.pick(tr.branches().len());
        states[pid] = tr.branches()[ti].1.clone();
    }
}

/// Builds the footprint table and its [`StaticIndep`] conversion the same
/// way the CLI does.
fn tables_for<P: Protocol>(auditor: &Auditor<'_, P>) -> (FootprintTable, StaticIndep) {
    let table = footprints(auditor);
    let mut statics = StaticIndep::new(table.processes);
    for (pid, state, first, reachable) in table.flat_states() {
        statics.insert_state(pid, state, first, reachable);
    }
    (table, statics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeded random product walks over all nine built-in protocol specs
    /// never perform an access the footprint table fails to predict.
    #[test]
    fn footprints_over_approximate_random_walks(seed in any::<u64>()) {
        let ab = [Val::A, Val::B];
        let aba = [Val::A, Val::B, Val::A];

        let p = TwoProcessor::new();
        let (t, s) = tables_for(&Auditor::new(&p));
        walk_and_check(&p, &ab, &t, &s, seed, 64);

        let p = NUnbounded::three();
        let (t, s) = tables_for(&Auditor::new(&p).with_max_states(400));
        walk_and_check(&p, &aba, &t, &s, seed, 48);

        let p = NUnbounded::literal_fig2(3);
        let (t, s) = tables_for(&Auditor::new(&p).with_max_states(400));
        walk_and_check(&p, &aba, &t, &s, seed, 48);

        let p = NUnbounded1W1R::three();
        let (t, s) = tables_for(&Auditor::new(&p).with_max_states(400));
        walk_and_check(&p, &aba, &t, &s, seed, 48);

        let p = ThreeBounded::new();
        let (t, s) = tables_for(&Auditor::new(&p).with_max_states(2048));
        walk_and_check(&p, &aba, &t, &s, seed, 48);

        let p = Naive::new(3);
        let (t, s) = tables_for(&Auditor::new(&p));
        walk_and_check(&p, &aba, &t, &s, seed, 64);

        let p = DetTwo::new(DetRule::AlwaysAdopt);
        let (t, s) = tables_for(&Auditor::new(&p));
        walk_and_check(&p, &ab, &t, &s, seed, 64);

        let p = NUnbounded::new(4);
        let (t, s) = tables_for(&Auditor::new(&p).with_max_states(400));
        walk_and_check(&p, &[Val::A, Val::B, Val::A, Val::B], &t, &s, seed, 48);

        let p = KValued::new(TwoProcessor::new(), 4);
        let codec = KRegCodec::for_protocol(&p);
        let auditor = Auditor::new(&p)
            .with_inputs((0..4).map(Val))
            .with_codec(&codec);
        let (t, s) = tables_for(&auditor);
        prop_assert!(t.complete, "kvalued walk must converge");
        walk_and_check(&p, &[Val(0), Val(3)], &t, &s, seed, 64);
    }
}

// ---------------------------------------------------------------------------
// DPOR with static independence, CLI level
// ---------------------------------------------------------------------------

/// `cil conc explore --static-indep` is byte-identical at any `--jobs`,
/// reports zero footprint misses, and keeps the execution digest of the
/// dynamic baseline.
#[test]
fn cli_static_indep_explore_is_jobs_invariant_with_zero_misses() {
    let run = |jobs: &str, extra: &[&str]| {
        let mut toks = vec![
            "conc",
            "explore",
            "two",
            "--inputs",
            "a,b",
            "--depth-bound",
            "9",
            "--no-hunt",
            "--jobs",
            jobs,
        ];
        toks.extend_from_slice(extra);
        dispatch(&toks).expect("clean certificate")
    };
    let serial = run("1", &["--static-indep"]);
    assert!(serial.contains("sleep-set + static footprints"), "{serial}");
    assert!(serial.contains("static footprints: 0 misses"), "{serial}");
    let par = run("4", &["--static-indep"]);
    // The jobs count is echoed on the "depth bound:" line; everything else
    // must be byte-identical.
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with("depth bound:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&serial), strip(&par), "jobs-invariance broke");

    // Identical digest with and without the static table.
    let baseline = run("1", &[]);
    let digest = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("execution digest:"))
            .expect("digest line")
            .to_string()
    };
    assert_eq!(digest(&serial), digest(&baseline));
}

/// `--static-indep` on a protocol whose footprint walk cannot converge is a
/// usage error (exit 2), not a silently unsound reduction.
#[test]
fn cli_static_indep_rejects_bounded_footprint_walks() {
    let err = dispatch(&[
        "conc",
        "explore",
        "fig2",
        "--inputs",
        "a,b,a",
        "--depth-bound",
        "6",
        "--static-indep",
    ])
    .expect_err("fig2 footprints cannot converge");
    assert_eq!(err.exit_code(), 2, "{}", err.message());
    assert!(
        err.message().contains("did not converge"),
        "{}",
        err.message()
    );
}

// ---------------------------------------------------------------------------
// Safety proofs and certificates, CLI level
// ---------------------------------------------------------------------------

/// `cil prove` proves the Fig. 1 protocol, writes a certificate, and the
/// independent checker accepts it — including with the protocol inferred
/// from the certificate itself. A tampered certificate is rejected (exit 1).
#[test]
fn cli_prove_certificate_roundtrip_and_tamper_rejection() {
    let path = scratch("two-cert");
    let path_str = path.to_string_lossy().to_string();
    let out = dispatch(&["prove", "two", "--cert", &path_str]).expect("two proves");
    assert!(out.contains("result: PROVED"), "{out}");

    // Explicit spec and inferred-from-certificate spec both verify.
    let ok = dispatch(&["prove", "two", "--check-cert", &path_str]).unwrap();
    assert!(ok.contains("certificate OK"), "{ok}");
    let ok = dispatch(&["prove", "--check-cert", &path_str]).unwrap();
    assert!(ok.contains("certificate OK"), "{ok}");

    // Tamper with one fingerprint: the checker must reject with exit 1.
    let cert = std::fs::read_to_string(&path).unwrap();
    let pos = cert.find("\"fp\":").expect("fp field") + "\"fp\":".len();
    let digit = cert[pos..].chars().next().unwrap();
    let flipped = if digit == '1' { '2' } else { '1' };
    let mut tampered = cert.clone();
    tampered.replace_range(pos..pos + 1, &flipped.to_string());
    std::fs::write(&path, &tampered).unwrap();
    let err =
        dispatch(&["prove", "two", "--check-cert", &path_str]).expect_err("tampered certificate");
    assert_eq!(err.exit_code(), 1, "{}", err.message());
    assert!(
        err.message().contains("certificate check FAILED"),
        "{}",
        err.message()
    );
    let _ = std::fs::remove_file(&path);
}

/// The k-valued composite proves and round-trips too (the CI pair).
#[test]
fn cli_prove_kvalued_certificate_roundtrip() {
    let path = scratch("kv2-cert");
    let path_str = path.to_string_lossy().to_string();
    let out = dispatch(&["prove", "kvalued:2", "--cert", &path_str]).expect("kvalued:2 proves");
    assert!(out.contains("result: PROVED"), "{out}");
    let ok = dispatch(&["prove", "--check-cert", &path_str]).unwrap();
    assert!(ok.contains("certificate OK"), "{ok}");
    let _ = std::fs::remove_file(&path);
}

/// A refutable protocol (the planted racy mutant) is REFUTED with a
/// replayable counterexample schedule, exit 1; `--cert` on an unbounded
/// protocol whose frontier cannot close is a usage error.
#[test]
fn cli_prove_refutes_the_racy_mutant_and_guards_cert_writes() {
    let err = dispatch(&["prove", "mutant:racy"]).expect_err("racy mutant refuted");
    assert_eq!(err.exit_code(), 1, "{}", err.message());
    let msg = err.message();
    assert!(msg.contains("result: REFUTED (agreement)"), "{msg}");
    assert!(msg.contains("schedule:"), "{msg}");

    let bounded = dispatch(&["prove", "fig2", "--max-configs", "2000"]).unwrap();
    assert!(bounded.contains("result: BOUNDED"), "{bounded}");
    let err = dispatch(&[
        "prove",
        "fig2",
        "--max-configs",
        "2000",
        "--cert",
        "/tmp/never-written.json",
    ])
    .expect_err("--cert needs PROVED");
    assert_eq!(err.exit_code(), 2, "{}", err.message());
}
