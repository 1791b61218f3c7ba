//! Golden fingerprints of the deterministic metric exports of `cil sweep`
//! and `cil serve`.
//!
//! The other export tests compare exports across `--jobs` or `--shards`,
//! so a publish that went wrong the same way at every worker count would
//! pass them. These pin the bytes themselves: the FNV-1a of the JSON and of
//! the OpenMetrics text that `--metrics-out` writes without `--timings`
//! (so the export holds no wall-clock metric), recorded when the sweep
//! observer still recorded every trial as it finished.

use cil_cli::dispatch_full;

/// The 64-bit FNV-1a hash of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `cil <line> --metrics-out <file> --metrics-format <format>` and
/// returns the FNV-1a of the file it wrote.
fn export_fingerprint(line: &str, format: &str) -> u64 {
    let path = std::env::temp_dir().join(format!(
        "cil-export-golden-{}-{:016x}.{format}",
        std::process::id(),
        fnv1a(line.as_bytes())
    ));
    let path_arg = path.to_str().expect("a UTF-8 temp path");
    let tokens = format!("{line} --metrics-out {path_arg} --metrics-format {format}");
    if let Err(failure) = dispatch_full(tokens.split_whitespace().map(String::from)) {
        panic!("cil {tokens}: {}", failure.message());
    }
    let bytes = std::fs::read(&path).expect("--metrics-out wrote its file");
    let _ = std::fs::remove_file(&path);
    fnv1a(&bytes)
}

/// `(command, export format, FNV-1a of the export)`.
const GOLDEN: &[(&str, &str, u64)] = &[
    (
        "sweep --protocol fig2 --inputs a,b,a --trials 20000 --seed 7",
        "json",
        0x370e_122e_6921_c496,
    ),
    (
        "sweep --protocol fig2 --inputs a,b,a --trials 20000 --seed 7",
        "openmetrics",
        0x3053_cc05_43e7_7db8,
    ),
    (
        "serve two --instances 20000 --seed 7",
        "json",
        0x0731_23ee_ff95_77da,
    ),
    (
        "serve two --instances 20000 --seed 7",
        "openmetrics",
        0x5d29_5408_dd69_7f6f,
    ),
];

#[test]
fn metric_exports_match_their_golden_fingerprints() {
    let wrong: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(line, format, golden)| {
            let got = export_fingerprint(line, format);
            (got != golden)
                .then(|| format!("cil {line} ({format}): {got:#018x}, want {golden:#018x}"))
        })
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
