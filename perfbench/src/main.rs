//! The end-to-end run: one workload, tracing off, every end-to-end metric
//! printed by name with its unit, outputs checked by the gate. The last
//! line of standard output is the result as one JSON object.

use cil_perfbench::args::Args;
use cil_perfbench::report::{self, Provenance};
use cil_perfbench::workloads;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        eprintln!("the traced run is the perfbench-trace binary (perfbench/run.py picks it)");
        return ExitCode::from(2);
    }
    let outcome = workloads::run(&args);
    // Collected after the run, which has already read its peak RSS.
    let provenance = Provenance::collect();
    match report::emit(&args, &provenance, &outcome, "", &[]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}
