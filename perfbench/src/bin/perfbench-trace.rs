//! The traced run: per-layer numbers for all four workloads, timed from
//! outside each crate, with a counting global allocator installed. The
//! spans, histograms and counts are kept in memory and written to the
//! result file at the end; the last line of standard output is the result
//! as one JSON object.

use cil_perfbench::alloc_count::CountingAlloc;
use cil_perfbench::args::Args;
use cil_perfbench::report::{self, Provenance};
use cil_perfbench::trace;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        eprintln!("the end-to-end run is the perfbench binary (perfbench/run.py picks it)");
        return ExitCode::from(2);
    }
    let provenance = Provenance::collect();
    let (outcome, spans) = trace::run(&args, provenance.clock_pair_ns);
    let extra = [("trace", spans.to_json())];
    match report::emit(&args, &provenance, &outcome, "trace-", &extra) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}
