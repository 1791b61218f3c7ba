//! Metric output: the human-readable lines, the final JSON line, the result
//! file, and the provenance every result records.

use crate::args::Args;
use cil_obs::json::ObjWriter;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// How the value was obtained (sample count, percentile used, …).
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    /// Adds a note printed beside the value.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The end-to-end metrics, with units, in print order. Every workload
/// reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ns", "ns"),
    ("latency_p99_ns", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Units attempted in the measured phase.
    pub attempted: u64,
    /// Units that failed the correctness gate or did not complete.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Extra lines describing the run (configuration, gate results).
    pub details: Vec<String>,
}

impl Outcome {
    /// Failed units ÷ attempted units.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every unit passed the correctness gate.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Human-readable report: details, then one line per metric with its
    /// unit, then `failed_ratio`.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for d in &self.details {
            let _ = writeln!(s, "{d}");
        }
        for m in &self.metrics {
            let _ = write!(s, "{:<28} {:>16.4} {:<5}", m.name, m.value, m.unit);
            if !m.note.is_empty() {
                let _ = write!(s, "  {}", m.note);
            }
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "{:<28} {:>16.4} {:<5}  {} of {} units failed the gate or did not complete",
            "failed_ratio",
            self.failed_ratio(),
            "1",
            self.failed,
            self.attempted
        );
        s
    }

    /// The final JSON line: `correct`, `attempted`, `failed` and every
    /// metric as `{"value", "unit"}`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value, which JSON cannot carry.
    pub fn json_line(&self) -> String {
        let mut metrics = ObjWriter::new();
        for m in &self.metrics {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            let value = ObjWriter::new()
                .raw("value", &format!("{}", m.value))
                .str("unit", m.unit)
                .finish();
            metrics = metrics.raw(&m.name, &value);
        }
        ObjWriter::new()
            .raw("correct", if self.correct() { "true" } else { "false" })
            .num("attempted", self.attempted)
            .num("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Git commit of the measured tree, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a over the measured crates' sources and lock file, so a result
    /// names its code even where no commit is known.
    pub source_fnv: u64,
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Kernel clock source behind `Instant::now`.
    pub clocksource: String,
    /// Cost of one `Instant::now` + `elapsed` pair on this host.
    pub clock_pair_ns: f64,
}

impl Provenance {
    /// Collects the provenance of a run started from the repository root.
    pub fn collect() -> Provenance {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let clocksource = std::fs::read_to_string(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource",
        )
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
        Provenance {
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            source_fnv: source_fnv(Path::new(".")),
            nproc: cil_sim::resolve_jobs(0),
            cpu,
            clocksource,
            clock_pair_ns: clock_pair_ns(),
        }
    }

    /// One-line summary.
    pub fn line(&self) -> String {
        format!(
            "provenance: commit {} source {:016x} nproc {} cpu \"{}\" clocksource {} \
             obs.clock_pair_ns {:.1}",
            self.commit,
            self.source_fnv,
            self.nproc,
            self.cpu,
            self.clocksource,
            self.clock_pair_ns
        )
    }

    /// JSON object.
    pub fn json(&self) -> String {
        ObjWriter::new()
            .str("commit", &self.commit)
            .str("source_fnv", &format!("{:016x}", self.source_fnv))
            .num("nproc", self.nproc as u64)
            .str("cpu", &self.cpu)
            .str("clocksource", &self.clocksource)
            .raw("clock_pair_ns", &format!("{}", self.clock_pair_ns))
            .finish()
    }
}

/// The commit `.git/HEAD` names, read without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over `Cargo.lock` and every `.rs` file under `crates/`, in path
/// order. Each file is folded in as it is read, so no buffer holds the
/// sources together.
fn source_fnv(root: &Path) -> u64 {
    fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    files[1..].sort();
    files.iter().fold(crate::gate::fnv1a(b""), |hash, f| {
        let hash = crate::gate::fnv1a_extend(hash, f.to_string_lossy().as_bytes());
        crate::gate::fnv1a_extend(hash, &std::fs::read(f).unwrap_or_default())
    })
}

/// Median cost of one `Instant::now` + `elapsed` pair, over five batches.
pub fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut sink = 0u128;
            for _ in 0..PAIRS {
                let t = std::hint::black_box(Instant::now());
                sink = sink.wrapping_add(t.elapsed().as_nanos());
            }
            std::hint::black_box(sink);
            started.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    crate::stats::median(&mut batches)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints a run's result: the details and metric lines, the provenance
/// line, and the JSON line last. With `--results`, first writes the result
/// file `<prefix><workload>-seed<n>.json`, holding `extra` fields (already
/// serialized) beside the result.
///
/// # Errors
///
/// The I/O error, with the path; nothing is printed then.
pub fn emit(
    args: &Args,
    provenance: &Provenance,
    outcome: &Outcome,
    prefix: &str,
    extra: &[(&str, String)],
) -> Result<(), String> {
    if let Some(dir) = &args.results {
        let mut body = ObjWriter::new()
            .str("workload", args.workload.name())
            .num("seed", args.seed)
            .raw("seconds", &format!("{}", args.seconds))
            .raw("provenance", &provenance.json())
            .raw("result", &outcome.json_line());
        for (key, json) in extra {
            body = body.raw(key, json);
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!(
            "{prefix}{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&path, format!("{}\n", body.finish()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    print!("{}", outcome.text());
    println!("{}", provenance.line());
    println!("{}", outcome.json_line());
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            attempted: 4,
            failed: 1,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, (name, unit))| Metric::new(*name, 1.5 + i as f64, unit))
                .collect(),
            details: vec!["workload: test".into()],
        }
    }

    #[test]
    fn every_end_to_end_metric_is_printed_by_name_with_its_unit() {
        let o = outcome();
        let text = o.text();
        let json = o.json_line();
        for (name, unit) in END_TO_END {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("{name} missing from\n{text}"));
            assert_eq!(line.split_whitespace().nth(2), Some(unit), "{line}");
            assert!(
                json.contains(&format!("\"{name}\":{{\"value\":")),
                "{name} missing from {json}"
            );
            assert!(json.contains(&format!("\"unit\":\"{unit}\"")), "{json}");
        }
        assert!(text.contains("failed_ratio"));
        assert!(json.starts_with("{\"correct\":false,\"attempted\":4,\"failed\":1,"));
    }

    /// `(name, unit)` of each metric in one section of `BENCHMARK.json`,
    /// in file order. (The manifest holds float bounds, which the
    /// `cil-obs` JSON reader does not take, so the section is scanned.)
    pub(crate) fn manifest_metrics(section: &str) -> Vec<(String, String)> {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let start = manifest
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"));
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("the list closes")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            obj[at..obj[at..].find('"').expect("string closes") + at].to_string()
        };
        body.split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn end_to_end_metrics_match_the_benchmark_manifest() {
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(manifest_metrics("end_to_end"), ours);
    }

    #[test]
    fn failed_ratio_counts_against_attempts() {
        assert_eq!(outcome().failed_ratio(), 0.25);
        assert!(!outcome().correct());
        let clean = Outcome {
            failed: 0,
            ..outcome()
        };
        assert_eq!(clean.failed_ratio(), 0.0);
        assert!(clean.correct());
        assert!(!Outcome::default().correct());
    }
}
