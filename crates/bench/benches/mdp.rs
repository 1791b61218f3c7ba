//! Benches for the model-checking machinery: exhaustive space
//! enumeration, MDP solving, and valence analysis.
//!
//! Hand-written harness (not `criterion_group!`): the first thing every
//! invocation does — including `cargo bench -p cil-bench --bench mdp --
//! --test`, the CI smoke mode — is count the raw configurations next to
//! the symmetry-reduced classes, check the quotient actually pays (the
//! k-valued class space must be at least halved), and write the counts to
//! `BENCH_mdp.json` at the repository root. Timed loops only run without
//! `--test`.

use cil_core::deterministic::{DetRule, DetTwo};
use cil_core::kvalued::KValued;
use cil_core::two::TwoProcessor;
use cil_mc::valence::ValenceMap;
use cil_mc::{CompactExplorer, CompactMdp, CompactOptions, Objective, Symmetric};
use cil_obs::json::ObjWriter;
use cil_sim::Val;
use criterion::{black_box, Criterion};

/// Raw-vs-reduced comparison row for one protocol instance.
struct SpaceRow {
    name: &'static str,
    /// Raw configurations (the `dense_configs` key of BENCH_mdp.json).
    raw: usize,
    compact: usize,
    transitions: usize,
    sym_hits: u64,
    expected_total: f64,
}

impl SpaceRow {
    fn ratio(&self) -> f64 {
        self.raw as f64 / self.compact as f64
    }
}

/// Counts the raw configurations of one protocol, builds the quotient and
/// the unreduced MDP, and cross-checks their total-steps values before
/// recording the counts.
fn row<P: Symmetric>(name: &'static str, p: &P, inputs: &[Val]) -> SpaceRow {
    let raw = CompactExplorer::new(p, inputs).use_symmetry(false).run();
    assert!(raw.complete, "{name}: the raw space is not closed");
    let unreduced = CompactOptions {
        use_symmetry: false,
        merge_decided: false,
        ..CompactOptions::default()
    };
    let uv = CompactMdp::build(p, inputs, &unreduced)
        .expect("finite protocol fits the default class budget")
        .expected_steps(Objective::TotalSteps, 1e-12, 1_000_000, 0);
    let compact = CompactMdp::build(p, inputs, &CompactOptions::default())
        .expect("finite protocol fits the default class budget");
    let cv = compact.expected_steps(Objective::TotalSteps, 1e-12, 1_000_000, 0);
    assert!(
        (uv.value - cv.value).abs() <= 1e-9,
        "{name}: unreduced E={} vs quotient E={}",
        uv.value,
        cv.value
    );
    let stats = compact.stats();
    SpaceRow {
        name,
        raw: raw.explored,
        compact: compact.size(),
        transitions: stats.transitions,
        sym_hits: stats.sym_hits,
        expected_total: cv.value,
    }
}

/// Serializes the comparison rows to `BENCH_mdp.json` at the repo root.
fn write_report(rows: &[SpaceRow]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mdp.json");
    let mut protocols = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            protocols.push(',');
        }
        let obj = ObjWriter::new()
            .str("protocol", r.name)
            .num("dense_configs", r.raw as u64)
            .num("compact_classes", r.compact as u64)
            .num("transitions", r.transitions as u64)
            .num("sym_hits", r.sym_hits)
            .raw("reduction", &format!("{:.3}", r.ratio()))
            .raw("expected_total_steps", &format!("{:.6}", r.expected_total))
            .finish();
        protocols.push_str(&obj);
    }
    protocols.push(']');
    let report = ObjWriter::new()
        .str("bench", "mdp")
        .raw("protocols", &protocols)
        .finish();
    std::fs::write(path, format!("{report}\n")).expect("write BENCH_mdp.json");
    println!("wrote {path}");
}

/// Space comparison + invariants; runs in both smoke and bench mode.
fn check_spaces() {
    let rows = [
        row("two", &TwoProcessor::new(), &[Val::A, Val::B]),
        row(
            "kvalued:4",
            &KValued::new(TwoProcessor::new(), 4),
            &[Val(0), Val(3)],
        ),
        row(
            "kvalued:8",
            &KValued::new(TwoProcessor::new(), 8),
            &[Val(0), Val(7)],
        ),
    ];
    for r in &rows {
        println!(
            "mdp/space {:<10} dense={:>4} compact={:>4} reduction={:.3}x E[total]={:.4}",
            r.name,
            r.raw,
            r.compact,
            r.ratio(),
            r.expected_total
        );
    }
    // The acceptance bar for the symmetry quotient: the k-valued class
    // space must be at least halved relative to the raw configurations.
    let kv = &rows[1];
    assert!(
        kv.ratio() >= 2.0,
        "kvalued:4 reduction {:.3}x fell below the 2x bar",
        kv.ratio()
    );
    write_report(&rows);
}

fn bench_mc(c: &mut Criterion) {
    let p = TwoProcessor::new();
    c.bench_function("mc/explore_compact_two_proc", |b| {
        b.iter(|| {
            let (r, _) = CompactExplorer::new(&p, &[Val::A, Val::B]).run_with_stats();
            black_box(r.explored)
        })
    });
    c.bench_function("mc/compact_build_and_solve", |b| {
        b.iter(|| {
            let opts = CompactOptions {
                target: Some(0),
                ..CompactOptions::default()
            };
            let m = CompactMdp::build(&p, &[Val::A, Val::B], &opts).unwrap();
            let s = m.expected_steps(Objective::StepsOf(0), 1e-10, 100_000, 0);
            black_box(s.value)
        })
    });
    let kv = KValued::new(TwoProcessor::new(), 8);
    c.bench_function("mc/compact_kvalued8_parallel_solve", |b| {
        let m = CompactMdp::build(&kv, &[Val(0), Val(7)], &CompactOptions::default()).unwrap();
        b.iter(|| {
            let s = m.expected_steps(Objective::TotalSteps, 1e-10, 100_000, 0);
            black_box(s.value)
        })
    });
    let victim = DetTwo::new(DetRule::AlwaysAdopt);
    c.bench_function("mc/valence_map_victim", |b| {
        b.iter(|| {
            let m = ValenceMap::build(&victim, &[Val::A, Val::B], 1_000_000);
            black_box(m.explored())
        })
    });
}

fn main() {
    check_spaces();
    // `cargo bench ... -- --test` smoke mode: cross-checks and the JSON
    // report only; skip the timed loops.
    if std::env::args().any(|a| a == "--test") {
        println!("mdp bench smoke mode: space checks passed");
        return;
    }
    let mut c = Criterion::default();
    bench_mc(&mut c);
}
