//! Integration tests for the telemetry export surface and the `cil
//! report` offline analyzer: default `--metrics-out` exports (JSON and
//! OpenMetrics) and `cil report` output must be byte-identical at any
//! `--jobs` for a fixed root seed; `--timings` is an explicit opt-in that
//! requires `--metrics-out`; capture-mode reports are deterministic; and a
//! merge shape mismatch is a usage failure (exit 2) naming the metric.

use cil_cli::CliFailure;
use std::path::PathBuf;

fn dispatch(line: &str) -> Result<String, String> {
    cil_cli::dispatch(line.split_whitespace().map(String::from))
}

fn dispatch_full(line: &str) -> Result<String, CliFailure> {
    cil_cli::dispatch_full(line.split_whitespace().map(String::from))
}

/// A per-process temp path; tests clean up behind themselves.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cil_report_{}_{name}", std::process::id()))
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Jobs-invariance of the default exports
// ---------------------------------------------------------------------------

/// The acceptance bar: for a fixed root seed, the default (no `--timings`)
/// metrics export is byte-identical at any `--jobs`, in both formats, for
/// a sweep and for DPOR exploration — and `cil report` over those
/// snapshots renders identically too.
#[test]
fn metrics_exports_are_byte_identical_across_jobs() {
    for (tag, cmd) in [
        (
            "sweep",
            "sweep --protocol two --inputs a,b --trials 60 --seed 9",
        ),
        (
            "explore",
            "conc explore --protocol two --inputs a,b --depth-bound 8",
        ),
    ] {
        let mut exports = Vec::new();
        for jobs in [1usize, 4] {
            let json = tmp(&format!("{tag}_{jobs}.json"));
            let om = tmp(&format!("{tag}_{jobs}.om"));
            dispatch(&format!(
                "{cmd} --jobs {jobs} --metrics-out {}",
                json.display()
            ))
            .unwrap();
            dispatch(&format!(
                "{cmd} --jobs {jobs} --metrics-out {} --metrics-format openmetrics",
                om.display()
            ))
            .unwrap();
            // The report echoes the snapshot path in its header line; strip
            // it so the comparison covers only the analyzed content.
            let report = dispatch(&format!("report {}", json.display())).unwrap();
            let body = report.split_once('\n').map(|(_, b)| b.to_string()).unwrap();
            exports.push((read(&json), read(&om), body));
            std::fs::remove_file(&json).ok();
            std::fs::remove_file(&om).ok();
        }
        assert_eq!(exports[0].0, exports[1].0, "{tag}: JSON differs by --jobs");
        assert_eq!(
            exports[0].1, exports[1].1,
            "{tag}: OpenMetrics differs by --jobs"
        );
        assert_eq!(
            exports[0].2, exports[1].2,
            "{tag}: report differs by --jobs"
        );
    }
}

/// Golden pin of the OpenMetrics rendering for a small fixed sweep: the
/// deterministic counters and the decided-by-k histogram must appear with
/// the documented `_total` / `le` conventions and the `# EOF` trailer.
#[test]
fn openmetrics_export_has_the_documented_shape() {
    let om = tmp("golden.om");
    dispatch(&format!(
        "sweep --protocol two --inputs a,b --trials 25 --seed 3 --metrics-out {} --metrics-format openmetrics",
        om.display()
    ))
    .unwrap();
    let text = read(&om);
    std::fs::remove_file(&om).ok();
    assert!(
        text.contains("# TYPE sweep_decided counter"),
        "missing counter TYPE line:\n{text}"
    );
    assert!(
        text.contains("sweep_decided_total 25"),
        "missing decided total:\n{text}"
    );
    assert!(
        text.contains("# TYPE sweep_decided_by_k histogram"),
        "missing histogram TYPE line:\n{text}"
    );
    assert!(text.contains("le=\"+Inf\""), "missing +Inf bucket:\n{text}");
    assert!(text.ends_with("# EOF\n"), "missing EOF trailer:\n{text}");
}

// ---------------------------------------------------------------------------
// Capture-mode report
// ---------------------------------------------------------------------------

/// `cil report` over a `--trace-json` capture is a pure function of the
/// capture: per-processor tables, decided-by-k, and the event-weighted
/// span tree all render deterministically, and `--flame` emits folded
/// stacks.
#[test]
fn capture_report_is_deterministic_and_flames() {
    let cap = tmp("capture.jsonl");
    dispatch(&format!(
        "run --protocol two --inputs a,b --seed 5 --trace-json {}",
        cap.display()
    ))
    .unwrap();
    let a = dispatch(&format!("report {}", cap.display())).unwrap();
    let b = dispatch(&format!("report {}", cap.display())).unwrap();
    assert_eq!(a, b);
    assert!(
        a.contains("processor  reads  writes"),
        "missing op tables:\n{a}"
    );
    assert!(a.contains("decided"), "missing decision section:\n{a}");
    let flame = dispatch(&format!("report {} --flame", cap.display())).unwrap();
    for line in flame.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("folded line");
        assert!(!stack.is_empty());
        weight.parse::<u64>().expect("numeric weight");
    }
    // Captures are not mergeable snapshots.
    let err = dispatch_full(&format!(
        "report {} --merge {}",
        cap.display(),
        cap.display()
    ))
    .unwrap_err();
    assert_eq!(err.exit_code(), 2);
    std::fs::remove_file(&cap).ok();
}

// ---------------------------------------------------------------------------
// Merge semantics and failure modes
// ---------------------------------------------------------------------------

/// Merging two shards of the same sweep doubles the counters; merging
/// shape-incompatible snapshots is a usage failure (exit 2) whose message
/// names the offending metric and file.
#[test]
fn report_merge_adds_and_mismatch_exits_2() {
    let a = tmp("shard_a.json");
    let b = tmp("shard_b.json");
    dispatch(&format!(
        "sweep --protocol two --inputs a,b --trials 30 --seed 4 --metrics-out {}",
        a.display()
    ))
    .unwrap();
    dispatch(&format!(
        "sweep --protocol two --inputs a,b --trials 30 --seed 4 --metrics-out {}",
        b.display()
    ))
    .unwrap();
    let merged = dispatch(&format!("report {} --merge {}", a.display(), b.display())).unwrap();
    assert!(
        merged.contains("sweep.decided = 60"),
        "counters did not add:\n{merged}"
    );

    // A shape-incompatible snapshot: same metric name, different width.
    let bad = tmp("shard_bad.json");
    let mangled = read(&a).replace("\"width\":1", "\"width\":2");
    assert_ne!(mangled, read(&a), "fixture must actually change the width");
    std::fs::write(&bad, mangled).unwrap();
    let err =
        dispatch_full(&format!("report {} --merge {}", a.display(), bad.display())).unwrap_err();
    assert_eq!(err.exit_code(), 2, "shape mismatch must be a usage failure");
    assert!(
        err.message().contains("sweep.decided_by_k") && err.message().contains("width"),
        "error must name the metric: {}",
        err.message()
    );
    for f in [&a, &b, &bad] {
        std::fs::remove_file(f).ok();
    }
}

// ---------------------------------------------------------------------------
// --timings opt-in
// ---------------------------------------------------------------------------

/// `--timings` without `--metrics-out` is rejected (wall-clock data has
/// nowhere to go), and with it the export gains span and latency sections
/// while the run's stdout stays unchanged.
#[test]
fn timings_is_an_explicit_opt_in() {
    let err = dispatch("sweep --protocol two --inputs a,b --trials 5 --timings").unwrap_err();
    assert!(err.contains("--metrics-out"), "{err}");

    let out = tmp("timed.json");
    let plain = dispatch("sweep --protocol two --inputs a,b --trials 20 --seed 2").unwrap();
    let timed = dispatch(&format!(
        "sweep --protocol two --inputs a,b --trials 20 --seed 2 --metrics-out {} --timings",
        out.display()
    ))
    .unwrap();
    assert_eq!(plain, timed, "--timings must not perturb the run output");
    let text = read(&out);
    assert!(
        text.contains("\"sweep.trial_ns\""),
        "missing trial latency histogram:\n{text}"
    );
    assert!(
        text.contains("\"sweep/trial\""),
        "missing span tree:\n{text}"
    );
    std::fs::remove_file(&out).ok();
}

/// The `--timings` span tree of a parallel run nests: every `a/b` span's
/// total is at most its parent's, and every parent's self time is its
/// total minus its direct children's totals. Parallel sweeps book their
/// root as worker time, so the trials nest under it at two workers too.
#[test]
fn parallel_timings_span_trees_nest() {
    for (root, cmd) in [
        (
            "sweep",
            "sweep --protocol fig2 --inputs a,b,a --trials 4000 --seed 3 --jobs 2",
        ),
        (
            "stress",
            "conc stress --protocol two --inputs a,b --trials 64 --seed 3 --jobs 2",
        ),
        ("serve", "serve two --instances 20000 --seed 3 --shards 2"),
    ] {
        let out = tmp(&format!("nest_{root}.json"));
        dispatch(&format!("{cmd} --timings --metrics-out {}", out.display()))
            .unwrap_or_else(|e| panic!("{root}: {e}"));
        let snap = cil_obs::MetricsSnapshot::from_json(&read(&out))
            .unwrap_or_else(|e| panic!("{root}: {e}"));
        std::fs::remove_file(&out).ok();
        let spans = &snap.spans;
        let top = spans
            .get(root)
            .unwrap_or_else(|| panic!("{root}: no '{root}' span in {spans:?}"));
        assert_eq!(top.count, 2, "{root}: the root counts one span per worker");
        for (path, stat) in spans {
            if let Some((parent, _)) = path.rsplit_once('/') {
                let up = spans
                    .get(parent)
                    .unwrap_or_else(|| panic!("{root}: '{path}' has no parent span"));
                assert!(
                    stat.total_ns <= up.total_ns,
                    "{root}: '{path}' total {} exceeds '{parent}' total {}",
                    stat.total_ns,
                    up.total_ns
                );
            }
            let children: u64 = spans
                .iter()
                .filter(|(child, _)| {
                    child
                        .rsplit_once('/')
                        .is_some_and(|(parent, _)| parent == path.as_str())
                })
                .map(|(_, s)| s.total_ns)
                .sum();
            assert_eq!(
                stat.self_ns,
                stat.total_ns - children,
                "{root}: '{path}' self time is not its total minus its children's"
            );
        }
    }
}
