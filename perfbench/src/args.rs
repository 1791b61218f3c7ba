//! Command-line arguments shared by both benchmark binaries.

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 1 instances in `cil serve`'s arena engine.
    ServeTwo,
    /// Fig. 2 trials under the random adversary in `cil sweep`'s harness.
    SweepFig2,
    /// One exact analysis of Fig. 3: bounded check, then survival curve.
    ExactFig3,
    /// One certified safety proof of `kvalued:8` over its full domain.
    ProveKvalued8,
}

impl Workload {
    /// Every workload, in the order the traced run visits them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeTwo,
        Workload::SweepFig2,
        Workload::ExactFig3,
        Workload::ProveKvalued8,
    ];

    /// The name used on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeTwo => "serve-two",
            Workload::SweepFig2 => "sweep-fig2",
            Workload::ExactFig3 => "exact-fig3",
            Workload::ProveKvalued8 => "prove-kvalued8",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The root seed when `--seed` is not given (the CLI's default seed).
pub const DEFAULT_SEED: u64 = 0;

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Root seed every workload input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether the traced run was asked for (`--trace 1`).
    pub trace: bool,
    /// Directory the result files go to (`None`: write none).
    pub results: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <serve-two|sweep-fig2|exact-fig3|prove-kvalued8> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--results <dir>]";

impl Args {
    /// Parses `--flag value` pairs (the program name already stripped).
    ///
    /// # Errors
    ///
    /// A message naming the bad flag or value, followed by the usage line.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut results = None;
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value '{value}' for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--results" => results = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed,
            seconds,
            trace,
            results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload exact-fig3 --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ExactFig3);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert!(a.results.is_none());
    }

    #[test]
    fn rejects_unknown_workloads_flags_and_values() {
        assert!(parse("--workload dpor-two").is_err());
        assert!(parse("--workload serve-two --jobs 4").is_err());
        assert!(parse("--workload serve-two --trace 2").is_err());
        assert!(parse("--workload serve-two --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
