//! The `cil` subcommands.

use crate::args::{parse_inputs, Args};
use crate::spec::{
    cert_candidates, fits_active_mask, parse_rule, with_audit_spec, with_spec, AuditSpec,
    ProtocolSpec, AUDIT_ALL,
};
use crate::CliFailure;
use cil_analysis::fnum;
use cil_audit::{
    check_certificate, lint_with_footprints, Auditor, ProveOutcome, Prover, TraceAuditor,
};
use cil_conc::{
    classify, cross_validate, rerun_trial_with_codec, stress_timed_with_codec, ConcOutcome,
    ControlledRun, DporConfig, DporReport, DporTiming, GateTimingAgg, NativeShrink, ReplaySchedule,
    StaticIndep, StrategySpec, StressConfig,
};
use cil_core::apps::{elect_leader, MutexLog};
use cil_core::deterministic::DetTwo;
use cil_core::n_unbounded::NUnbounded;
use cil_core::two::TwoProcessor;
use cil_mc::{
    construct_infinite_schedule, CompactExplorer, CompactMdp, CompactOptions, LookaheadAdversary,
    Objective, Symmetric, Violation,
};
use cil_obs::json;
use cil_obs::{
    Capture, CaptureMode, LevelReporter, MemorySink, MetricsSnapshot, ProgressMeter, Registry,
    RunEvent, SpanStat, SpanTimer, SpanTree,
};
use cil_serve::{ServeEngine, ServeLimit, ServeReport};
use cil_sim::{
    parse_schedule, run_on_threads_gated, Adversary, Alternator, BoxedAdversary, FixedSchedule,
    FreeGate, LaggardFirst, LeaderFirst, Protocol, RandomScheduler, Rng as _, RoundRobin, Runner,
    SplitKeeper, SweepObserver, SweepStats, TrialOutcome, TrialResult, TrialSweep, Val, WordCodec,
};
use std::fmt::Write as _;

/// Usage text.
pub fn help() -> String {
    "cil — Chor–Israeli–Li (PODC 1987) coordination protocols

USAGE:
  cil run       --protocol <P> --inputs a,b[,..] [--adversary <A>] [--seed N]
                [--max-steps N] [--trace] [--trace-json <file>]
  cil replay    <file> [--audit]                   re-execute a --trace-json
                capture of either engine (cil run, cil conc stress|shrink)
                and verify the regenerated event stream byte-for-byte;
                --audit additionally verifies the capture is a serialization
                of atomic register operations (happens-before audit); a
                truncated or corrupt capture, or one whose steps name a
                processor the protocol lacks, exits 2
  cil audit     [<P>|all|mutant:<M>] [--json]      static model-compliance
                analysis: walk the per-processor transition graph and check
                access sets, width bounds, coin measures, decision stability
                and purity against the paper's §2 / Theorem 6 clauses
  cil lint      [<P>|all|mutant:<M>] [--json] [--footprints]   dataflow lints
                over the same transition graph: dead writes, never-read
                registers, statically stuck states, wasted register width,
                fictitious coins; --footprints also prints the per-state
                static access-footprint table; any finding exits 1
  cil prove     [<P>] [--cert <file>] [--json] [--domain 0,1,..]
                [--max-configs N]                  prove agreement + validity
                over the exact product configuration graph (BFS reach-set as
                a 1-inductive invariant); PROVED emits a cil-cert-v1
                certificate via --cert; REFUTED exits 1 with a replayable
                counterexample schedule (ddmin-shrunk on native threads);
                BOUNDED lists each input block's configurations and the
                deepest BFS level it expanded in full
  cil prove     --check-cert <file> [<P>]          re-verify a certificate
                with the independent checker (protocol inferred from the
                certificate when <P> is omitted)
  cil sweep     --protocol <P> --inputs a,b[,..] [--adversary <A>] [--trials N]
                [--seed N] [--max-steps N] [--jobs N] [--progress]
                [--metrics-out <file>] [--metrics-format json|openmetrics]
                [--timings]                        parallel Monte-Carlo sweep
  cil check     --protocol <P> --inputs a,b[,..] [--depth N] [--max-configs N]
                [--stats] [--progress] [--metrics-out <file>]
                [--metrics-format F] [--timings]   exhaustive bounded check
  cil mdp       --inputs a,b [--kmax N] [--jobs N] [--metrics-out <file>]
                [--metrics-format F] [--timings]   exact Theorem 7 analysis
  cil survival  --protocol <P> --inputs a,b[,..] [--target N] [--kmax N]
                [--depth N] [--max-configs N] [--jobs N] [--metrics-out <file>]
                [--metrics-format F] [--timings]   exact worst-case survival
                curve P[target undecided after k of its steps]; --depth is
                required for the infinite-space protocols (fig2, fig3, n:<c>)
  cil report    <file> [--merge <f2,f3,..>] [--flame]   offline analyzer for
                --trace-json captures (per-processor op/coin tables, span
                tree, decided-by-k, violations) and --metrics-out snapshots
                (all sections, log-histogram quantiles with error bounds);
                --merge folds further snapshots in (a shape mismatch exits 2
                naming the metric); --flame emits folded-stack lines
  cil theorem4  --rule <R> [--steps N]             construct the infinite schedule
  cil elect     [--n N] [--rounds N]               leader election / mutual exclusion
  cil threads   --protocol <P> --inputs ... [--seed N]   real OS threads
  cil conc stress  --protocol <P> --inputs a,b[,..] [--strategy <S>]
                [--trials N] [--seed N] [--budget N] [--jobs N] [--progress]
                [--metrics-out <file>] [--metrics-format F] [--timings]
                [--trace-json <file>] [--trace-trial N]
                controlled native threads: every register operation is a
                yield point scheduled by a seeded strategy; a whole batch is
                a pure function of (--seed, --strategy) at any --jobs
  cil conc replay  <file> [--audit]        the same command as cil replay:
                either kind of capture, the same checks and exit codes
  cil conc shrink  --protocol <P> --inputs a,b[,..] --trial N
                [--strategy <S>] [--seed N] [--budget N]   delta-debug a
                failing stress trial's schedule to a 1-minimal repro
  cil conc explore --protocol <P> --inputs a,b[,..] [--depth-bound D]
                [--jobs N] [--naive] [--no-hunt] [--static-indep]
                [--cross-check] [--progress]
                [--metrics-out <file>] [--metrics-format F] [--timings]
                exhaustive DPOR: enumerate every
                interleaving and coin outcome to depth D on real threads,
                with sleep-set partial-order reduction (--naive disables it)
                after a bounded-preemption hunt pass (--no-hunt skips it);
                --cross-check verifies the enumerated outcome sets
                config-for-config against the simulator's configuration
                graph; --static-indep precomputes `cil lint`'s access
                footprints so threads slept before their first access was
                observed wake only on statically dependent steps (identical
                digest, never more executions). A violation exits 1 with a
                ddmin 1-minimal repro; a clean pass prints an
                exhaustive-to-depth-D certificate with a jobs-invariant
                execution digest
  cil serve     <P> [--instances N | --duration MS | --target-decisions N]
                [--shards J] [--slots N] [--batch N] [--inputs a,b[,..]]
                [--seed N] [--max-steps N] [--out <file>] [--progress]
                [--metrics-out <file>] [--metrics-format F] [--timings]
                coordination as a service: run N consensus instances to
                decision over the hardware atomic-register backend on J
                sharded arenas (allocation-free steady state), then report
                decisions/sec and service-latency percentiles; --out writes
                them to <file> in the BENCH_serve.json schema. Latency is
                sampled: instance i is timed iff i % 8 == 0 (so is the
                --timings serve.trial_ns histogram); every count covers
                every instance. --inputs defaults to alternating a,b. With
                --instances, stats and serve.* metric exports are a pure
                function of (--seed, --instances) — byte-identical at any
                --shards; --duration / --target-decisions are load-generator
                modes; --target-decisions N stops admitting once N instances
                decided or N ended undecided (the report then says the
                target was not reached); --slots takes at most 65536
  cil help

PROTOCOLS <P>: one grammar for every subcommand that takes <P>:
      two | fig2 | fig2-literal | fig2-1w1r | fig3 | naive | n:<count>
      | kvalued:<k> | det:<R> | mutant:<M>
      n:<count> and naive need at least 2 processors; naive takes its count
      from --inputs (default 3). kvalued:<k> needs k >= 2 and runs over two,
      or over n:<count> when --inputs has more than two values.
      Value domains (--inputs, prove --domain): kvalued:<k> takes 0..k;
      fig2, fig2-literal, fig2-1w1r and n:<count> take values below 2^15;
      every other family takes a and b only. check, survival, prove and
      conc explore --cross-check take at most 64 processors; mdp analyses
      two only.
ADVERSARIES <A>: round-robin | random | split-keeper | laggard | leader
               | alternator | lookahead:<h> | \"(2,3,3,2,1)\" (paper notation)
STRATEGIES <S> (conc): random | pct | pct:<d> — pct randomizes thread
      priorities with d-1 change points (detection probability >= 1/(n*k^(d-1)))
RULES <R>: always-adopt | always-keep | adopt-if-greater | alternate
JOBS: --jobs 0 (default) = all cores, 1 = serial, at most 1024 (serve's
      --shards alike); results are identical at every setting — only wall
      time changes.
EXACT ENGINE: check, mdp and survival enumerate one hash-consed state
      space with one representative per symmetry orbit.
OBSERVABILITY: --progress renders a live rate/ETA (sweep) or per-level BFS
      line (check) on stderr; --metrics-out writes a metrics snapshot in
      canonical JSON or OpenMetrics text (--metrics-format); --trace-json
      captures a structured JSONL event stream that `cil replay` re-executes
      and verifies; `cil report` analyzes both offline. Default exports are
      deterministic (byte-identical at any --jobs); --timings additionally
      records wall-clock telemetry — hierarchical spans, log-scale latency
      histograms (trial, gate-wait/run, per-sweep), reproducible in shape
      but never in value. Spans nest: a child's total never exceeds its
      parent's, and a parent's self time is its total minus its children's.
      The sweep, stress and serve root spans count worker time (one span
      per worker over the run's wall clock), so sweep/trial and
      stress/trial nest at any --jobs; serve books the root alone, since a
      sampled service latency overlaps the other resident instances' steps.
      None of these change results.
MUTANTS <M>: racy — the planted interleaving-sensitive consistency bug;
      dead-write | width-waste — model-compliant (audit passes) but each
      fires its `cil lint` pass. Model mutants, accepted by audit and lint
      only: width-overflow | unauthorized-reader | unstable-decision
      | non-normalized-coin — the two-processor protocol with one planted
      model violation each; `cil audit mutant:<M>` must reject all four.
EXIT CODES: 0 = success; 1 = verification failed (`cil audit` found model
      violations, `cil lint` found findings, `cil prove` refuted a property
      or rejected a certificate, `cil replay` found trace anomalies or
      divergence, `cil check`, `cil sweep`, `cil serve` or `cil conc
      stress`/`explore` found a consistency or nontriviality violation —
      the report is printed on stdout); 2 = usage or I/O error, or a
      malformed input file (stderr).
"
    .to_string()
}

/// Builds the `--adversary` scheduler for a protocol of `processes`
/// processors. A schedule that names a processor the protocol does not
/// have, and a lookahead horizon of 0, are usage errors.
fn make_adversary<P: Protocol + 'static>(
    spec: &str,
    seed: u64,
    processes: usize,
) -> Result<BoxedAdversary<P>, String>
where
    P::State: 'static,
    P::Reg: 'static,
{
    Ok(match spec {
        "round-robin" => Box::new(RoundRobin::new()),
        "random" => Box::new(RandomScheduler::new(seed)),
        "split-keeper" => Box::new(SplitKeeper::new()),
        "laggard" => Box::new(LaggardFirst::new()),
        "leader" => Box::new(LeaderFirst::new()),
        "alternator" => Box::new(Alternator::new()),
        s if s.starts_with("lookahead:") => {
            let h: u32 = s["lookahead:".len()..]
                .parse()
                .map_err(|_| format!("bad lookahead horizon in adversary '{s}'"))?;
            if h == 0 {
                return Err(format!(
                    "--adversary {s}: the lookahead horizon must be at least 1"
                ));
            }
            Box::new(LookaheadAdversary::new(h))
        }
        s if s.starts_with('(') || s.chars().next().is_some_and(|c| c.is_ascii_digit()) => {
            let sched =
                parse_schedule(s, true).map_err(|e| format!("bad adversary schedule: {e}"))?;
            if let Some(pid) = sched.iter().find(|&&pid| pid >= processes) {
                return Err(format!(
                    "--adversary schedule names processor {} but the protocol has {processes}",
                    pid + 1
                ));
            }
            Box::new(FixedSchedule::new(sched))
        }
        other => return Err(format!("unknown adversary '{other}' (see cil help)")),
    })
}

/// Writes the registry's snapshot to `--metrics-out` in the selected
/// `--metrics-format`: canonical JSON (default) or OpenMetrics text.
/// A no-op when `--metrics-out` was not given, but `--metrics-format`
/// without a destination is rejected as a usage error.
fn write_metrics_out(args: &Args, registry: &Registry) -> Result<(), String> {
    let format = args.get("metrics-format");
    let Some(path) = args.get("metrics-out") else {
        if format.is_some() {
            return Err("--metrics-format needs --metrics-out <file>".into());
        }
        return Ok(());
    };
    let snap = registry.snapshot();
    let body = match format.unwrap_or("json") {
        "json" => snap.to_json(),
        "openmetrics" => cil_obs::export::to_openmetrics(&snap),
        other => {
            return Err(format!(
                "unknown --metrics-format '{other}' (json | openmetrics)"
            ))
        }
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write --metrics-out file '{path}': {e}"))
}

/// Whether `--timings` was requested. Wall-clock telemetry only surfaces
/// through the metrics export, so the flag requires `--metrics-out`.
fn timings_flag(args: &Args) -> Result<bool, String> {
    let on = args.flag("timings");
    if on && args.get("metrics-out").is_none() {
        return Err(
            "--timings records wall-clock telemetry into the metrics export; \
             add --metrics-out <file>"
                .into(),
        );
    }
    Ok(on)
}

/// Elapsed nanoseconds since `started`, saturating at `u64::MAX`.
fn elapsed_ns(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Books a parallel run's `--timings` span tree from its wall-clock
/// duration. The `<root>` span is worker time, `workers` spans of `wall_ns`
/// each, as merging one tree per worker would give. With `trials` (the
/// per-trial timing histogram already in the registry, and the trial
/// count), `<root>/trial` holds the trials' summed time and the root keeps
/// the rest as self time: each worker runs its trials one after another
/// inside the wall, so the child never outgrows its root.
fn merge_run_spans(
    registry: &Registry,
    root: &str,
    workers: usize,
    wall_ns: u64,
    trials: Option<(&str, u64)>,
) {
    let root_ns = wall_ns.saturating_mul(workers as u64);
    let mut tree = SpanTree::new();
    let mut root_self_ns = root_ns;
    if let Some((hist, count)) = trials {
        let trials_ns = registry
            .snapshot()
            .log_histogram(hist)
            .map(|h| h.sum)
            .unwrap_or(0);
        root_self_ns = root_ns.saturating_sub(trials_ns);
        tree.add(
            &format!("{root}/trial"),
            SpanStat {
                count,
                total_ns: trials_ns,
                self_ns: trials_ns,
            },
        );
    }
    tree.add(
        root,
        SpanStat {
            count: workers as u64,
            total_ns: root_ns,
            self_ns: root_self_ns,
        },
    );
    registry.merge_spans(&tree);
}

/// Parses an input list (`--inputs`, a capture's inputs) and checks it
/// gives one value per processor.
fn inputs_for<P: Protocol>(protocol: &P, text: &str) -> Result<Vec<Val>, String> {
    let inputs = parse_inputs(text)?;
    if inputs.len() != protocol.processes() {
        return Err(format!(
            "--inputs: expected {} values for {}, got {}",
            protocol.processes(),
            protocol.name(),
            inputs.len()
        ));
    }
    Ok(inputs)
}

/// The `--protocol <P>` spec of run, sweep, check, survival and threads.
fn protocol_arg(args: &Args) -> Result<ProtocolSpec, String> {
    ProtocolSpec::from_args(args.get_or("protocol", "two"), args)
}

fn run_one<P: Protocol + 'static, C>(
    protocol: &P,
    _codec: &C,
    args: &Args,
) -> Result<String, String> {
    let inputs = inputs_for(protocol, args.get_or("inputs", ""))?;
    let seed = args.get_u64("seed", 0)?;
    let spec = args.get_or("adversary", "random");
    let adversary = make_adversary::<P>(spec, seed, protocol.processes())?;
    let adv_name = adversary.name();
    let max_steps = args.get_u64("max-steps", 1_000_000)?;
    let runner = Runner::new(protocol, &inputs, adversary)
        .seed(seed)
        .max_steps(max_steps)
        .record_trace(args.flag("trace"));
    let mut sink = MemorySink::new();
    let out = if args.get("trace-json").is_some() {
        runner.events(&mut sink).run()
    } else {
        runner.run()
    };
    let mut s = String::new();
    let _ = writeln!(s, "protocol : {}", protocol.name());
    let _ = writeln!(s, "adversary: {adv_name}   seed: {seed}");
    if let Some(t) = &out.trace {
        let _ = writeln!(s, "\ntrace ({} steps):", t.len());
        let _ = write!(s, "{t}");
    }
    let _ = writeln!(
        s,
        "\ndecisions: {:?}   steps: {:?}   total: {}",
        out.decisions
            .iter()
            .map(|d| d.map(|v| v.to_string()).unwrap_or_else(|| "—".into()))
            .collect::<Vec<_>>(),
        out.steps,
        out.total_steps
    );
    let _ = writeln!(
        s,
        "consistent: {}   nontrivial: {}   halt: {:?}",
        out.consistent(),
        out.nontrivial(),
        out.halt
    );
    if let Some(path) = args.get("trace-json") {
        let capture = Capture {
            protocol: args.get_or("protocol", "two").into(),
            inputs: args.get_or("inputs", "").into(),
            seed,
            mode: CaptureMode::Sim {
                max_steps,
                adversary: spec.into(),
            },
            events: sink.events,
        };
        let records = write_capture(path, &capture)?;
        let _ = writeln!(
            s,
            "events: {records} JSONL records -> {path}   (verify: cil replay {path})"
        );
    }
    Ok(s)
}

/// Writes a capture to its `--trace-json` file; returns how many events
/// it holds.
fn write_capture(path: &str, capture: &Capture) -> Result<usize, String> {
    std::fs::write(path, capture.render())
        .map_err(|e| format!("cannot write --trace-json file '{path}': {e}"))?;
    Ok(capture.events.len())
}

/// `cil run` — execute one run.
pub fn run(args: &Args) -> Result<String, String> {
    with_spec!(protocol_arg(args)?, run_one(args))
}

/// `cil replay <file> [--audit]`, alias `cil conc replay <file> [--audit]`
/// — re-execute a `--trace-json` capture of either engine and verify that
/// the regenerated event stream matches the captured one byte-for-byte.
/// With `--audit`, first verify the capture is a valid serialization of
/// atomic register operations (happens-before audit: no stale/phantom
/// reads, declared access sets respected, decisions irrevocable).
///
/// A run is a pure function of its coin seed and its schedule (the pids of
/// the step events): the simulator's coins are independent of the
/// adversary's randomness, and the controlled scheduler serializes native
/// threads deterministically. So a `cil run` capture re-executes under a
/// [`FixedSchedule`] and a conc capture under a strict [`ReplaySchedule`].
///
/// # Errors
///
/// [`CliFailure::Audit`] (exit 1) on trace anomalies or divergence;
/// [`CliFailure::Usage`] (exit 2) on unreadable, truncated or corrupt
/// captures, and on schedules naming a processor the protocol lacks.
pub fn replay(args: &Args) -> Result<String, CliFailure> {
    let path = args
        .pos(usize::from(args.command == "conc"))
        .or_else(|| args.get("file"))
        .ok_or_else(|| "replay needs a capture file: cil replay <out.jsonl>".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    // A damaged file is a malformed input — a usage error, exit 2 — not a
    // verification verdict, so it is rejected before the audit and replay
    // stages can mistake it for a divergent or non-serializable execution.
    let capture = Capture::parse(&text)
        .map_err(|e| format!("'{path}' is truncated or corrupt: {e}"))?
        .ok_or_else(|| format!("'{path}' is not a --trace-json capture: it has no meta record"))?;
    if !capture.is_complete() {
        let why = "the capture does not end with the span_end that closes its run";
        return Err(format!("'{path}' is truncated or corrupt: {why}").into());
    }
    let spec = parse_inputs(&capture.inputs)
        .and_then(|inputs| ProtocolSpec::parse(&capture.protocol, Some(&inputs)))
        .map_err(|e| format!("cannot replay '{path}': {e}"))?;
    with_spec!(spec, replay_one(&capture, path, args.flag("audit")))
}

/// [`replay`] for the protocol the capture names.
fn replay_one<P, C>(
    protocol: &P,
    codec: &C,
    capture: &Capture,
    path: &str,
    audit: bool,
) -> Result<String, CliFailure>
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    let (inputs, schedule) = inputs_for(protocol, &capture.inputs)
        .and_then(|inputs| Ok((inputs, capture.schedule(protocol.processes())?)))
        .map_err(|e| format!("cannot replay '{path}': {e}"))?;
    let steps = schedule.len();

    // Happens-before audit of the captured stream, before re-execution: the
    // capture's own claim — "I am a serialization of atomic register
    // operations" — is checked against the protocol's declared registers.
    let audited = audit.then(|| TraceAuditor::for_protocol(protocol).audit(&capture.events));
    if let Some(report) = audited.as_ref().filter(|report| !report.ok()) {
        return Err(CliFailure::Audit(format!(
            "trace '{path}' FAILED the happens-before audit:\n{}",
            report.render()
        )));
    }

    let (replayed, engine, label) = match &capture.mode {
        CaptureMode::Sim { max_steps, .. } => {
            // One step past the captured ones already diverges, so a raised
            // step limit cannot make the replay run on unbounded.
            let limit = (*max_steps).min(steps as u64 + 1);
            let mut sink = MemorySink::new();
            Runner::new(protocol, &inputs, FixedSchedule::new(schedule))
                .seed(capture.seed)
                .max_steps(limit)
                .events(&mut sink)
                .run();
            (sink.events, "", "replay")
        }
        CaptureMode::Conc { budget, .. } => {
            let outcome = ControlledRun::new(protocol, &inputs)
                .seed(capture.seed)
                .budget(*budget)
                .capture(true)
                .run_with_codec(codec, Box::new(ReplaySchedule::strict(schedule)));
            (
                outcome.events,
                " under the controlled scheduler",
                "conc replay",
            )
        }
    };
    let captured = &capture.events;
    let divergence = match captured.iter().zip(&replayed).position(|(a, b)| a != b) {
        Some(i) => format!(
            " at event {i}:\n  captured: {}\n  replayed: {}",
            captured[i].to_json(),
            replayed[i].to_json()
        ),
        None if captured.len() != replayed.len() => format!(
            ": {} captured events vs {} replayed",
            captured.len(),
            replayed.len()
        ),
        None => String::new(),
    };
    if !divergence.is_empty() {
        return Err(CliFailure::Audit(format!("{label} DIVERGED{divergence}\n")));
    }
    let mut s = format!(
        "replayed {}{engine} from '{path}' (seed {}, {steps} steps)\n\
         {} events re-executed — trace matches byte-for-byte ✓\n",
        capture.protocol,
        capture.seed,
        captured.len()
    );
    if let Some(report) = audited {
        let _ = writeln!(s, "\nhappens-before audit of the capture:");
        s.push_str(&report.render());
    }
    Ok(s)
}

/// Audits one protocol, or lints it when the subcommand is `lint`. The walk
/// takes its budget and inputs from the spec and checks register widths
/// against the codec the hardware backends store words with, so the lint
/// verdicts describe exactly the graph the audit walked. Returns the
/// verdict and the rendered report.
fn static_one<P, C>(protocol: &P, codec: &C, spec: AuditSpec, args: &Args) -> (bool, String)
where
    P: Protocol,
    C: WordCodec<P::Reg>,
{
    let mut auditor = Auditor::new(protocol).with_codec(codec);
    if let Some(states) = spec.walk_budget() {
        auditor = auditor.with_max_states(states);
    }
    if let Some(inputs) = spec.audit_inputs() {
        auditor = auditor.with_inputs(inputs);
    }
    let json = args.flag("json");
    if args.command != "lint" {
        let report = auditor.run();
        let text = if json {
            format!("{}\n", report.to_json())
        } else {
            report.render()
        };
        return (report.ok(), text);
    }
    let (report, table) = lint_with_footprints(&auditor);
    let mut text = if json {
        format!("{}\n", report.to_json())
    } else {
        report.render()
    };
    if args.flag("footprints") {
        if json {
            text.push_str(&table.to_json());
            text.push('\n');
        } else {
            text.push('\n');
            text.push_str(&table.render());
        }
    }
    (report.ok(), text)
}

/// `cil audit [<P>|all|mutant:<M>] [--json]` — static model-compliance
/// analysis; `cil lint [<P>|all|mutant:<M>] [--json] [--footprints]` —
/// dataflow lints over the same symbolic transition graph.
///
/// # Errors
///
/// [`CliFailure::Audit`] (exit 1) when any audited protocol violates a
/// model clause, or any linted protocol has findings;
/// [`CliFailure::Usage`] (exit 2) for unknown specs.
pub fn audit(args: &Args) -> Result<String, CliFailure> {
    let spec = args
        .pos(0)
        .or_else(|| args.get("protocol"))
        .unwrap_or("all");
    let specs = if spec == "all" {
        AUDIT_ALL
    } else {
        std::slice::from_ref(&spec)
    };
    let json = args.flag("json");
    let mut out = String::new();
    let mut failed = 0usize;
    for (i, s) in specs.iter().enumerate() {
        if i > 0 && !json {
            out.push('\n');
        }
        let spec = AuditSpec::parse(s)?;
        let (ok, text) = with_audit_spec!(spec, static_one(spec, args));
        failed += usize::from(!ok);
        out.push_str(&text);
    }
    if specs.len() > 1 && !json {
        let verdict = if args.command == "lint" {
            "are lint-clean"
        } else {
            "pass the model-compliance audit"
        };
        let _ = writeln!(
            out,
            "\n{}/{} protocols {verdict}",
            specs.len() - failed,
            specs.len()
        );
    }
    if failed > 0 {
        Err(CliFailure::Audit(out))
    } else {
        Ok(out)
    }
}

/// `Protocol::name()` of the protocol a spec builds.
fn protocol_name<P: Protocol, C>(protocol: &P, _codec: &C) -> String {
    protocol.name()
}

/// Runs [`check_certificate`] for one protocol instance against the
/// certificate text read from `--check-cert`.
fn prove_check_one<P: Protocol, C>(
    protocol: &P,
    _codec: &C,
    text: &str,
) -> Result<String, CliFailure> {
    fits_active_mask(protocol)?;
    match check_certificate(protocol, text) {
        Ok(check) => Ok(format!("{check}\n")),
        Err(e) => Err(CliFailure::Audit(format!(
            "certificate check FAILED: {e}\n"
        ))),
    }
}

/// Runs the prover for one protocol instance: BFS reach-set closure per
/// input assignment, safety checked at every insertion. On REFUTED the
/// counterexample schedule is replayed on native threads (best-effort) and
/// ddmin-shrunk when it reproduces.
fn prove_run<P, C>(
    protocol: &P,
    codec: &C,
    domain: Vec<Val>,
    args: &Args,
) -> Result<String, CliFailure>
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    fits_active_mask(protocol)?;
    let max_configs = args.get_u64("max-configs", 262_144)? as usize;
    let report = Prover::new(protocol)
        .with_domain(domain)
        .with_max_configs(max_configs)
        .run();
    let json = args.flag("json");
    let mut out = if json {
        let mut s = report.to_json();
        s.push('\n');
        s
    } else {
        report.render()
    };
    if let ProveOutcome::Refuted(cex) = &report.outcome {
        if !json {
            let schedule = cex.schedule();
            let budget = (schedule.len() as u64).max(4) * 2;
            let fails = |run: &ConcOutcome| match cex.property {
                "agreement" => !run.consistent(),
                _ => !run.nontrivial(),
            };
            let shrunk = ControlledRun::new(protocol, &cex.inputs)
                .budget(budget)
                .shrink_with_codec(codec, &schedule, fails);
            if let Some(shrunk) = shrunk {
                let _ = writeln!(
                    out,
                    "  native replay (best-effort schedule): reproduces the violation"
                );
                let _ = writeln!(
                    out,
                    "  1-minimal repro (ddmin): {} steps — {:?}",
                    shrunk.minimal.len(),
                    shrunk.minimal
                );
            } else {
                let _ = writeln!(
                    out,
                    "  (schedule-only native replay does not reproduce this \
                     counterexample — it depends on forced coin branches)"
                );
            }
        }
        return Err(CliFailure::Audit(out));
    }
    if let Some(path) = args.get("cert") {
        let Some(cert) = report.certificate() else {
            return Err(CliFailure::Usage(
                "--cert: no certificate — the result was BOUNDED, not PROVED \
                 (raise --max-configs)"
                    .into(),
            ));
        };
        std::fs::write(path, &cert)
            .map_err(|e| format!("cannot write --cert file '{path}': {e}"))?;
        if !json {
            let _ = writeln!(out, "certificate: {path} ({} bytes)", cert.len());
        }
    }
    Ok(out)
}

/// `cil prove [<P>] [--cert <file>] [--json] [--domain ..] [--max-configs N]`
/// / `cil prove --check-cert <file> [<P>]` — safety proofs with
/// certificates.
///
/// # Errors
///
/// [`CliFailure::Audit`] (exit 1) when a property is refuted or a
/// certificate fails to verify; [`CliFailure::Usage`] (exit 2) for unknown
/// specs, unreadable files, or `--cert` without a PROVED result.
pub fn prove(args: &Args) -> Result<String, CliFailure> {
    let explicit = args.pos(0).or_else(|| args.get("protocol"));
    let Some(path) = args.get("check-cert") else {
        let spec = ProtocolSpec::parse(explicit.unwrap_or("two"), None)?;
        let domain = match args.get("domain") {
            Some(d) => parse_inputs(d)?,
            None => vec![Val::A, Val::B],
        };
        if domain.is_empty() {
            return Err(CliFailure::Usage(
                "--domain needs at least one value".into(),
            ));
        }
        spec.check_values("--domain", &domain)?;
        return with_spec!(spec, prove_run(domain, args));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let spec = match explicit {
        Some(s) => ProtocolSpec::parse(s, None)?,
        None => {
            // Infer the protocol from the certificate's embedded name.
            let node =
                json::parse_value(&text).map_err(|e| format!("malformed certificate JSON: {e}"))?;
            let name = node
                .as_obj()
                .and_then(|o| o.get("protocol"))
                .and_then(json::Node::as_str)
                .ok_or_else(|| "certificate has no protocol field".to_string())?;
            cert_candidates()
                .iter()
                .filter_map(|s| ProtocolSpec::parse(s, None).ok())
                .find(|spec| with_spec!(*spec, protocol_name()) == name)
                .ok_or_else(|| {
                    format!(
                        "cannot map certificate protocol '{name}' to a spec; pass it \
                         explicitly: cil prove --check-cert {path} <P>"
                    )
                })?
        }
    };
    with_spec!(spec, prove_check_one(&text))
}

/// The observer of a `sweep`, `serve` or `conc stress` run, with metrics
/// under `<prefix>.*`, when `--progress` or `--metrics-out` asks for one.
fn run_observer(
    args: &Args,
    registry: &Registry,
    prefix: &str,
    total: Option<u64>,
    timings: bool,
) -> Option<SweepObserver> {
    let progress = args.flag("progress");
    (progress || args.get("metrics-out").is_some()).then(|| {
        let mut obs = SweepObserver::with_prefix(registry, prefix);
        if progress {
            obs = obs.with_progress(ProgressMeter::new(prefix, total));
        }
        if timings {
            obs = obs.with_timing(registry, prefix);
        }
        obs
    })
}

/// The trial counts, step statistics and safety line that `cil sweep` and
/// `cil conc stress` report.
fn write_trial_stats(s: &mut String, stats: &SweepStats) {
    let _ = writeln!(
        s,
        "\ntrials: {}   decided: {}   undecided: {}   violations: {}",
        stats.trials,
        stats.decided,
        stats.undecided,
        stats.violations()
    );
    let _ = writeln!(
        s,
        "steps: mean {}   min {}   max {}",
        stats.mean().map(fnum).unwrap_or_else(|| "—".into()),
        stats.metric_min().unwrap_or(0),
        stats.metric_max().unwrap_or(0)
    );
    if let (Some(lo), Some(hi)) = (
        stats.decided_by_k.keys().next(),
        stats.decided_by_k.keys().next_back(),
    ) {
        let _ = writeln!(s, "decided-by-k support: {lo}..={hi} steps");
    }
    if stats.failures.is_empty() {
        let _ = writeln!(s, "\nno safety violations in {} trials ✓", stats.trials);
    }
}

fn sweep_one<P: Protocol + Sync + 'static, C>(
    protocol: &P,
    _codec: &C,
    args: &Args,
) -> Result<String, CliFailure> {
    let inputs = inputs_for(protocol, args.get_or("inputs", ""))?;
    let trials = args.get_u64("trials", 1_000)?;
    let root_seed = args.get_u64("seed", 0)?;
    let max_steps = args.get_u64("max-steps", 1_000_000)?;
    let jobs = args.get_workers("jobs")?;
    let spec = args.get_or("adversary", "random");
    // Validate the adversary spec once, up front, so a typo fails fast
    // instead of panicking inside a worker.
    make_adversary::<P>(spec, 0, protocol.processes())?;
    let sweep = TrialSweep::new(trials).root_seed(root_seed).jobs(jobs);
    let effective = sweep.effective_jobs();
    let timings = timings_flag(args)?;
    let registry = Registry::new();
    let observer = run_observer(args, &registry, "sweep", Some(trials), timings);
    let sweep_started = timings.then(std::time::Instant::now);
    let stats = sweep.run_observed(observer.as_ref(), |trial| {
        let adversary = make_adversary::<P>(spec, trial.seed, protocol.processes())
            .expect("adversary spec validated above");
        let out = Runner::new(protocol, &inputs, adversary)
            .seed(trial.seed)
            .max_steps(max_steps)
            .run();
        TrialResult::from_run(&out)
    });
    if let Some(obs) = &observer {
        obs.finish();
    }
    if let Some(started) = sweep_started {
        merge_run_spans(
            &registry,
            "sweep",
            effective,
            elapsed_ns(started),
            Some(("sweep.trial_ns", stats.trials)),
        );
    }
    write_metrics_out(args, &registry)?;
    let mut s = String::new();
    let _ = writeln!(s, "protocol : {}", protocol.name());
    let _ = writeln!(
        s,
        "adversary: {spec}   root seed: {root_seed}   jobs: {effective}"
    );
    write_trial_stats(&mut s, &stats);
    if !stats.failures.is_empty() {
        let _ = writeln!(s, "\nfailing trials (replay with `cil run ... --trace`):");
        for f in &stats.failures {
            let seed = cil_sim::SplitMix64::jump(root_seed, f.trial).next_u64();
            let _ = writeln!(
                s,
                "  trial {:>6}  {:?}  replay: cil run --protocol {} --inputs {} \
                 --adversary {spec} --seed {seed} --max-steps {max_steps} --trace",
                f.trial,
                f.kind,
                args.get_or("protocol", "two"),
                args.get_or("inputs", ""),
            );
        }
    }
    search_result(s, stats.violations())
}

/// `cil sweep` — parallel Monte-Carlo trial sweep; results are a pure
/// function of `(--seed, --trials)`, independent of `--jobs`.
pub fn sweep(args: &Args) -> Result<String, CliFailure> {
    with_spec!(protocol_arg(args)?, sweep_one(args))
}

/// A search's report as its result: exit 1, with the report on stdout, if
/// it found a safety violation.
fn search_result(report: String, violations: u64) -> Result<String, CliFailure> {
    match violations {
        0 => Ok(report),
        _ => Err(CliFailure::Audit(report)),
    }
}

/// How many violations `cil check` lists before summing up the rest.
const LISTED_VIOLATIONS: usize = 10;

/// One line of `cil check`'s violation list: kind, values and depth.
fn violation_line(violation: &Violation) -> String {
    match violation {
        Violation::Inconsistent { values, depth } => {
            let vals: Vec<String> = values.iter().map(Val::to_string).collect();
            format!("inconsistent: decided {} at depth {depth}", vals.join(", "))
        }
        Violation::Trivial { value, depth } => format!("trivial: decided {value} at depth {depth}"),
        Violation::Invariant { message, depth } => format!("invariant: {message} at depth {depth}"),
    }
}

fn check_one<P: Symmetric, C>(protocol: &P, _codec: &C, args: &Args) -> Result<String, CliFailure> {
    fits_active_mask(protocol)?;
    let inputs = inputs_for(protocol, args.get_or("inputs", ""))?;
    let depth = args.get_u64("depth", 10)? as usize;
    let max_configs = args.get_u64("max-configs", 3_000_000)? as usize;
    let timings = timings_flag(args)?;
    let registry = Registry::new();
    let reporter = args.flag("progress").then(|| LevelReporter::new("check"));
    // Per-level wall clock (only with --timings): each BFS level pushes the
    // time since the previous one into the `check.level_ns` series.
    let level_clock = timings.then(|| {
        (
            registry.series("check.level_ns"),
            std::cell::Cell::new(std::time::Instant::now()),
        )
    });
    let (report, stats) = CompactExplorer::new(protocol, &inputs)
        .max_depth(depth)
        .max_configs(max_configs)
        .on_level(|l| {
            if let Some(rep) = &reporter {
                rep.level(l.depth, l.frontier, l.generated, l.fresh);
            }
            if let Some((series, last)) = &level_clock {
                series.push(elapsed_ns(last.replace(std::time::Instant::now())));
            }
        })
        .run_with_stats();
    registry
        .counter("check.configs")
        .add(report.explored as u64);
    registry
        .counter("check.violations")
        .add(report.violations.len() as u64);
    registry.gauge("check.depth").set(depth as u64);
    registry
        .gauge("check.complete")
        .set(u64::from(report.complete));
    let fresh_series = registry.series("check.level_fresh");
    let generated_series = registry.series("check.level_generated");
    for l in &report.levels {
        fresh_series.push(l.fresh as u64);
        generated_series.push(l.generated as u64);
    }
    registry.gauge("check.classes").set(stats.classes as u64);
    registry.counter("check.sym_hits").add(stats.sym_hits);
    write_metrics_out(args, &registry)?;
    let mut s = format!(
        "exhaustive check of {} to depth {}\n{} configurations explored \
         (complete: {})\nviolations: {}\n",
        protocol.name(),
        depth,
        report.explored,
        report.complete,
        report.violations.len(),
    );
    for violation in report.violations.iter().take(LISTED_VIOLATIONS) {
        let _ = writeln!(s, "  {}", violation_line(violation));
    }
    let unlisted = report.violations.len().saturating_sub(LISTED_VIOLATIONS);
    if unlisted > 0 {
        let _ = writeln!(s, "  … and {unlisted} more");
    }
    s.push_str(if report.safe() {
        "consistency and nontriviality hold on every explored run ✓\n"
    } else {
        "VIOLATIONS FOUND — see above\n"
    });
    let _ = writeln!(
        s,
        "symmetry-reduced: {} canonical classes ({} orbit hits; \
         {} state / {} register words interned)",
        stats.classes, stats.sym_hits, stats.interned_states, stats.interned_regs
    );
    if args.flag("stats") {
        let _ = writeln!(s, "\nlevel  frontier  generated  fresh  dedup-hit");
        for l in &report.levels {
            let hit = if l.generated == 0 {
                "    —".to_string()
            } else {
                format!(
                    "{:4.1}%",
                    100.0 * (1.0 - l.fresh as f64 / l.generated as f64)
                )
            };
            let _ = writeln!(
                s,
                "{:>5}  {:>8}  {:>9}  {:>5}  {:>9}",
                l.depth, l.frontier, l.generated, l.fresh, hit
            );
        }
    }
    search_result(s, report.violations.len() as u64)
}

/// `cil check` — exhaustive bounded safety check.
pub fn check(args: &Args) -> Result<String, CliFailure> {
    with_spec!(protocol_arg(args)?, check_one(args))
}

/// `cil mdp` — exact Theorem 7 analysis of the two-processor protocol.
pub fn mdp(args: &Args) -> Result<String, String> {
    if let Some(other) = args.get("protocol").filter(|p| *p != "two") {
        return Err(format!(
            "--protocol {other}: the mdp command analyses Fig. 1 (two) only; \
             use cil survival --protocol {other} for other protocols"
        ));
    }
    let inputs = parse_inputs(args.get_or("inputs", "a,b"))?;
    ProtocolSpec::Two.check_values("--inputs", &inputs)?;
    if inputs.len() != 2 {
        return Err("--inputs: the mdp command analyses the 2-processor protocol".into());
    }
    let kmax = args.get_u64("kmax", 20)? as usize;
    let jobs = args.get_workers("jobs")?;
    let timings = timings_flag(args)?;
    let timer = if timings {
        SpanTimer::monotonic()
    } else {
        SpanTimer::disabled()
    };
    let p = TwoProcessor::new();
    let root = timer.enter("mdp");
    // The per-processor objective constrains which symmetries apply, so
    // the P0 analysis and the total-steps analysis quotient differently.
    let (p0, any) = {
        let _g = timer.enter("build");
        let p0 = CompactMdp::build(
            &p,
            &inputs,
            &CompactOptions {
                target: Some(0),
                ..CompactOptions::default()
            },
        )?;
        let any = CompactMdp::build(&p, &inputs, &CompactOptions::default())?;
        (p0, any)
    };
    let (steps, total) = {
        let _g = timer.enter("solve");
        (
            p0.expected_steps(Objective::StepsOf(0), 1e-12, 100_000, jobs),
            any.expected_steps(Objective::TotalSteps, 1e-12, 100_000, jobs),
        )
    };
    let curve = {
        let _g = timer.enter("survival");
        p0.survival(0, kmax, 1e-13, 200_000, jobs)
    };
    drop(root);
    let registry = Registry::new();
    registry.merge_spans(&timer.finish());
    p0.export_metrics(&registry);
    registry
        .gauge("mdp.iterations")
        .set(steps.iterations as u64);
    // Per-sweep VI residuals, in femto-units (1e-15). Deterministic and
    // jobs-invariant, so they ride in the default export.
    let residual_fe = |r: f64| (r * 1e15).round() as u64;
    let p0_res = registry.series("mdp.vi.p0.residual_fe");
    for r in &steps.residuals {
        p0_res.push(residual_fe(*r));
    }
    let total_res = registry.series("mdp.vi.total.residual_fe");
    for r in &total.residuals {
        total_res.push(residual_fe(*r));
    }
    if timings {
        // Wall clock per VI sweep — opt-in, never byte-reproducible.
        let p0_ns = registry.series("mdp.vi.p0.sweep_ns");
        for v in &steps.sweep_ns {
            p0_ns.push(*v);
        }
        let total_ns = registry.series("mdp.vi.total.sweep_ns");
        for v in &total.sweep_ns {
            total_ns.push(*v);
        }
    }
    write_metrics_out(args, &registry)?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "configuration space: {} canonical classes (P0 objective), \
         {} (any-processor objective)",
        p0.size(),
        any.size()
    );
    let _ = writeln!(
        s,
        "E[steps of P0 | optimal adaptive adversary] = {}  (paper Corollary: <= 10)",
        fnum(steps.value)
    );
    let _ = writeln!(
        s,
        "E[total steps | optimal adaptive adversary] = {}",
        fnum(total.value)
    );
    let _ = writeln!(
        s,
        "\nexact worst-case survival P[P0 undecided after k steps]:"
    );
    for (k, v) in curve.iter().enumerate().step_by(2) {
        let _ = writeln!(s, "  k = {k:>2}: {}", fnum(*v));
    }
    Ok(s)
}

fn survival_one<P: Symmetric, C>(protocol: &P, _codec: &C, args: &Args) -> Result<String, String> {
    fits_active_mask(protocol)?;
    let inputs = inputs_for(protocol, args.get_or("inputs", ""))?;
    let target = args.get_u64("target", 0)? as usize;
    if target >= protocol.processes() {
        return Err(format!(
            "--target: processor {target} does not exist in {}",
            protocol.name()
        ));
    }
    let kmax = args.get_u64("kmax", 20)? as usize;
    let jobs = args.get_workers("jobs")?;
    let max_configs = args.get_u64("max-configs", 2_000_000)? as usize;
    let depth = match args.get("depth") {
        Some(_) => Some(args.get_u64("depth", 0)? as usize),
        None => None,
    };
    let timings = timings_flag(args)?;
    let timer = if timings {
        SpanTimer::monotonic()
    } else {
        SpanTimer::disabled()
    };
    let registry = Registry::new();
    let mut s = String::new();
    let root = timer.enter("survival");
    let opts = CompactOptions {
        max_configs,
        max_depth: depth,
        target: Some(target),
        ..CompactOptions::default()
    };
    let mdp = {
        let _g = timer.enter("build");
        CompactMdp::build(protocol, &inputs, &opts)
            .map_err(|e| format!("{e} — unbounded protocols need --depth (see cil help)"))?
    };
    let _ = writeln!(
        s,
        "{}: {} canonical classes ({} orbit hits), target P{target}",
        protocol.name(),
        mdp.size(),
        mdp.stats().sym_hits
    );
    mdp.export_metrics(&registry);
    let curve = {
        let _g = timer.enter("curve");
        mdp.survival(target, kmax, 1e-13, 200_000, jobs)
    };
    drop(root);
    registry.merge_spans(&timer.finish());
    write_metrics_out(args, &registry)?;
    if let Some(d) = depth {
        let _ = writeln!(
            s,
            "(depth-bounded at {d}: survival values are lower bounds on the \
             full space)"
        );
    }
    let _ = writeln!(
        s,
        "\nexact worst-case survival P[P{target} undecided after k of its steps]:"
    );
    for (k, v) in curve.iter().enumerate() {
        let _ = writeln!(s, "  k = {k:>2}: {}", fnum(*v));
    }
    Ok(s)
}

/// `cil survival` — exact worst-case survival curve for any protocol.
/// Protocols with infinite reachable spaces (`fig2`, `fig3`, `n:<count>`)
/// need `--depth`.
pub fn survival(args: &Args) -> Result<String, String> {
    with_spec!(protocol_arg(args)?, survival_one(args))
}

/// `cil theorem4` — run the impossibility construction.
pub fn theorem4(args: &Args) -> Result<String, String> {
    let rule = parse_rule(args.get_or("rule", "always-adopt"))?;
    let steps = args.get_u64("steps", 100_000)? as usize;
    let p = DetTwo::new(rule);
    match construct_infinite_schedule(&p, &[Val::A, Val::B], steps, 1_000_000) {
        Ok(demo) => Ok(format!(
            "victim: {}\nconstructed a {}-step schedule; decisions made: {}\n\
             first 30 schedule entries: {:?}\n\
             Theorem 4 in action: no decision is ever forced ✓",
            p.name(),
            demo.schedule.len(),
            if demo.anyone_decided {
                "SOME (bug!)"
            } else {
                "no decision"
            },
            &demo.schedule[..demo.schedule.len().min(30)]
        )),
        Err(partial) => Ok(format!(
            "construction got stuck after {} steps (protocol not a coordination \
             protocol from these inputs?)",
            partial.schedule.len()
        )),
    }
}

/// `cil elect` — leader-election rounds with the mutual-exclusion check.
pub fn elect(args: &Args) -> Result<String, String> {
    let n = args.get_u64("n", 3)? as usize;
    let rounds = args.get_u64("rounds", 10)?;
    if n < 2 {
        return Err("--n must be at least 2".into());
    }
    let p = NUnbounded::new(n);
    let mut log = MutexLog::new();
    let mut s = String::new();
    for round in 0..rounds {
        let (winner, out) = elect_leader(&p, RandomScheduler::new(round), round, 5_000_000);
        log.enter(round, winner);
        let _ = writeln!(
            s,
            "round {round:>3}: P{winner} enters the critical section ({} total steps)",
            out.total_steps
        );
    }
    let _ = writeln!(
        s,
        "\nmutual exclusion held across all {} rounds: {}",
        rounds,
        log.mutual_exclusion_holds()
    );
    Ok(s)
}

fn threads_one<P, C>(protocol: &P, codec: &C, args: &Args) -> Result<String, String>
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    let inputs = inputs_for(protocol, args.get_or("inputs", ""))?;
    let seed = args.get_u64("seed", 0)?;
    let out = run_on_threads_gated(protocol, &inputs, seed, 5_000_000, codec, &FreeGate);
    Ok(format!(
        "{} on {} OS threads over AtomicU64 registers\n\
         decisions: {:?}   steps: {:?}   coin flips: {:?}\nagreed: {:?}\n",
        protocol.name(),
        protocol.processes(),
        out.decisions,
        out.steps,
        out.flips,
        out.agreed()
    ))
}

/// `cil threads` — run on real OS threads over `AtomicU64` registers.
pub fn threads(args: &Args) -> Result<String, String> {
    with_spec!(protocol_arg(args)?, threads_one(args))
}

/// `cil conc stress|replay|shrink|explore` — controlled native-thread
/// concurrency testing: every register operation is a yield point,
/// scheduled by a seeded [`StrategySpec`] (or enumerated exhaustively by
/// the DPOR explorer).
///
/// # Errors
///
/// [`CliFailure::Audit`] (exit 1) when `conc replay` finds divergence or
/// trace anomalies, when `conc stress` or `conc explore` finds a safety
/// violation, or when `conc explore` finds a cross-check divergence;
/// [`CliFailure::Usage`] (exit 2) otherwise.
pub fn conc(args: &Args) -> Result<String, CliFailure> {
    let spec = || ProtocolSpec::from_args(conc_protocol_spec(args), args);
    match args.pos(0) {
        Some("stress") => with_spec!(spec()?, conc_stress_one(args)),
        Some("replay") => replay(args),
        Some("shrink") => with_spec!(spec()?, conc_shrink_one(args)),
        Some("explore") => with_spec!(spec()?, conc_explore_one(args)),
        Some(other) => Err(CliFailure::Usage(format!(
            "unknown conc subcommand '{other}' (one of: stress | replay | shrink | explore)"
        ))),
        None => Err(CliFailure::Usage(
            "conc needs a subcommand: cil conc stress|replay|shrink|explore (see cil help)".into(),
        )),
    }
}

/// The conc protocol spec: `--protocol <P>` everywhere, with the
/// positional after the subcommand (`cil conc explore <P>`) as fallback.
fn conc_protocol_spec(args: &Args) -> &str {
    args.get("protocol")
        .or_else(|| args.pos(1))
        .unwrap_or("two")
}

/// The serve protocol spec: the positional right after the subcommand
/// (`cil serve fig2`), with `--protocol <P>` as the explicit form.
fn serve_protocol_spec(args: &Args) -> &str {
    args.get("protocol")
        .or_else(|| args.pos(0))
        .unwrap_or("two")
}

/// `cil serve` — run consensus instances to decision at scale over the
/// hardware register backend and report throughput + latency percentiles.
pub fn serve(args: &Args) -> Result<String, CliFailure> {
    with_spec!(
        ProtocolSpec::from_args(serve_protocol_spec(args), args)?,
        serve_one(args)
    )
}

/// The most arena slots `--slots` may give one serve shard; each slot holds
/// a register frame and per-processor state.
const MAX_SLOTS: usize = 65_536;

/// Picks the admission limit from `--instances` / `--duration` /
/// `--target-decisions` (mutually exclusive, at least 1; default 100 000
/// instances).
fn serve_limit(args: &Args) -> Result<ServeLimit, String> {
    let given: Vec<&str> = ["instances", "duration", "target-decisions"]
        .into_iter()
        .filter(|k| args.get(k).is_some())
        .collect();
    if given.len() > 1 {
        return Err(
            "pick one of --instances, --duration, --target-decisions (they are \
             mutually exclusive admission limits)"
                .into(),
        );
    }
    let key = given.first().copied().unwrap_or("instances");
    let limit = args.get_u64(key, 100_000)?;
    if limit == 0 {
        return Err(format!("--{key} must be at least 1"));
    }
    Ok(match key {
        "duration" => ServeLimit::Duration(std::time::Duration::from_millis(limit)),
        "target-decisions" => ServeLimit::Decisions(limit),
        _ => ServeLimit::Instances(limit),
    })
}

fn serve_one<P, C>(protocol: &P, codec: &C, args: &Args) -> Result<String, CliFailure>
where
    P: Protocol + Sync,
    P::State: Send,
    C: WordCodec<P::Reg>,
{
    let inputs = match args.get("inputs") {
        Some(_) => inputs_for(protocol, args.get_or("inputs", ""))?,
        // Default load: alternating inputs, so both decision values show up.
        None => (0..protocol.processes())
            .map(|i| if i % 2 == 0 { Val::A } else { Val::B })
            .collect(),
    };
    let limit = serve_limit(args)?;
    let root_seed = args.get_u64("seed", 0)?;
    let shards = args.get_workers("shards")?;
    let slots = args.get_u64("slots", cil_serve::DEFAULT_SLOTS as u64)? as usize;
    let batch = args.get_u64("batch", cil_serve::DEFAULT_BATCH)?;
    let max_steps = args.get_u64("max-steps", cil_serve::DEFAULT_MAX_STEPS)?;
    if slots == 0 || batch == 0 {
        return Err(String::from("--slots and --batch must be at least 1").into());
    }
    if slots > MAX_SLOTS {
        return Err(CliFailure::Usage(format!(
            "--slots takes at most {MAX_SLOTS} resident instances per shard, got {slots}"
        )));
    }
    let timings = timings_flag(args)?;
    let registry = Registry::new();
    let total = match limit {
        ServeLimit::Instances(n) => Some(n),
        _ => None,
    };
    let observer = run_observer(args, &registry, "serve", total, timings);
    let engine = ServeEngine::new(protocol, codec, &inputs, limit)
        .root_seed(root_seed)
        .shards(shards)
        .slots(slots)
        .batch(batch)
        .max_steps(max_steps);
    let report = engine.run_observed(observer.as_ref());
    report.export_decided_values(&registry);
    if timings {
        // No `serve/trial` child: a sampled latency also covers the steps
        // of the other slots resident in its shard, so it nests under
        // nothing. The sample stays in the `serve.trial_ns` histogram.
        merge_run_spans(&registry, "serve", report.shards, report.elapsed_ns, None);
    }
    write_metrics_out(args, &registry)?;
    let out_path = args.get("out");
    if let Some(path) = out_path {
        write_bench_serve(path, &protocol.name(), &report)?;
    }

    let q = |q: f64| report.latency.quantile(q).map(|b| b.mid()).unwrap_or(0);
    let mut s = String::new();
    let _ = writeln!(s, "protocol : {}", protocol.name());
    let _ = writeln!(
        s,
        "limit    : {:?}   root seed: {root_seed}   shards: {}   slots/shard: {slots}   batch: {batch}",
        limit, report.shards
    );
    let _ = writeln!(
        s,
        "\ninstances: {}   decided: {}   undecided: {}   violations: {}",
        report.instances,
        report.stats.decided,
        report.stats.undecided,
        report.stats.violations()
    );
    if let ServeLimit::Decisions(target) = limit {
        if report.stats.decided < target {
            let _ = writeln!(
                s,
                "target   : {target} decisions not reached — admission closed once \
                 {target} instances ended without a decision ({} in all)",
                report.instances - report.stats.decided
            );
        }
    }
    let _ = writeln!(
        s,
        "throughput: {} decisions/sec over {} ms",
        fnum(report.decisions_per_sec()),
        report.elapsed_ns / 1_000_000
    );
    let _ = writeln!(
        s,
        "latency  : p50 {} ns   p90 {} ns   p99 {} ns   (service: admission to decision; \
         1 in {} instances timed, n = {})",
        q(0.5),
        q(0.9),
        q(0.99),
        cil_serve::LATENCY_SAMPLE_EVERY,
        report.latency.count()
    );
    if !report.decided_values.is_empty() {
        let _ = write!(s, "decided  :");
        for (value, count) in &report.decided_values {
            let _ = write!(s, "  v{value}={count}");
        }
        let _ = writeln!(s);
    }
    if let Some(path) = out_path {
        let _ = writeln!(s, "\nwrote {path}");
    }
    search_result(s, report.stats.violations())
}

/// Serializes a [`ServeReport`] to the `BENCH_serve.json` schema the CI
/// `serve-bench` job uploads and gates on.
fn write_bench_serve(path: &str, protocol: &str, report: &ServeReport) -> Result<(), String> {
    let q = |q: f64| report.latency.quantile(q).map(|b| b.mid()).unwrap_or(0);
    let mut values = String::from("{");
    for (i, (value, count)) in report.decided_values.iter().enumerate() {
        if i > 0 {
            values.push(',');
        }
        let _ = write!(values, "\"v{value}\":{count}");
    }
    values.push('}');
    let body = json::ObjWriter::new()
        .str("bench", "serve")
        .str("protocol", protocol)
        .num("instances", report.instances)
        .num("shards", report.shards as u64)
        .num("decided", report.stats.decided)
        .num("undecided", report.stats.undecided)
        .num("violations", report.stats.violations())
        .num("elapsed_ns", report.elapsed_ns)
        .raw(
            "decisions_per_sec",
            &format!("{:.1}", report.decisions_per_sec()),
        )
        .num("latency_p50_ns", q(0.5))
        .num("latency_p90_ns", q(0.9))
        .num("latency_p99_ns", q(0.99))
        .raw("decided_values", &values)
        .finish();
    std::fs::write(path, format!("{body}\n"))
        .map_err(|e| format!("cannot write --out file '{path}': {e}"))
}

/// Parses the shared knobs of `conc stress` and `conc shrink`.
fn conc_config(args: &Args) -> Result<StressConfig, CliFailure> {
    Ok(StressConfig {
        trials: args.get_u64("trials", 256)?,
        root_seed: args.get_u64("seed", 0)?,
        budget: args.get_u64("budget", 4096)?,
        jobs: args.get_workers("jobs")?,
        strategy: StrategySpec::parse(args.get_or("strategy", "random"))?,
        max_failure_samples: 5,
    })
}

fn conc_stress_one<P, C>(protocol: &P, codec: &C, args: &Args) -> Result<String, CliFailure>
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    let inputs = inputs_for(protocol, args.get_or("inputs", ""))?;
    let cfg = conc_config(args)?;
    let timings = timings_flag(args)?;
    let registry = Registry::new();
    let observer = run_observer(args, &registry, "conc", Some(cfg.trials), timings);
    let gate_timing = timings.then(|| GateTimingAgg::new(&registry, "conc.gate"));
    let stress_started = timings.then(std::time::Instant::now);
    let stats = stress_timed_with_codec(
        protocol,
        &inputs,
        codec,
        &cfg,
        observer.as_ref(),
        gate_timing.as_ref(),
    );
    if let Some(obs) = &observer {
        obs.finish();
    }
    if let Some(started) = stress_started {
        merge_run_spans(
            &registry,
            "stress",
            cil_sim::resolve_jobs(cfg.jobs),
            elapsed_ns(started),
            Some(("conc.trial_ns", stats.trials)),
        );
    }
    write_metrics_out(args, &registry)?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "protocol : {}   (controlled native threads)",
        protocol.name()
    );
    let _ = writeln!(
        s,
        "strategy : {}   root seed: {}   budget: {}",
        cfg.strategy.label(),
        cfg.root_seed,
        cfg.budget
    );
    write_trial_stats(&mut s, &stats);
    if !stats.failures.is_empty() {
        let _ = writeln!(s, "\nfailing trials (shrink with `cil conc shrink ...`):");
        for f in &stats.failures {
            let _ = writeln!(
                s,
                "  trial {:>6}  {:?}  shrink: cil conc shrink --protocol {} --inputs {} \
                 --strategy {} --seed {} --budget {} --trial {}",
                f.trial,
                f.kind,
                conc_protocol_spec(args),
                args.get_or("inputs", ""),
                cfg.strategy.label(),
                cfg.root_seed,
                cfg.budget,
                f.trial,
            );
        }
    }
    if let Some(path) = args.get("trace-json") {
        let trial = args.get_u64("trace-trial", 0)?;
        if trial >= cfg.trials {
            return Err(CliFailure::Usage(format!(
                "--trace-trial {trial} is out of range (the batch has {} trials)",
                cfg.trials
            )));
        }
        let (seed, outcome) = rerun_trial_with_codec(protocol, &inputs, codec, &cfg, trial);
        let records = write_capture(path, &conc_capture(args, &cfg, trial, seed, outcome.events))?;
        let _ = writeln!(
            s,
            "trial {trial} captured: {records} JSONL records -> {path}   \
             (verify: cil conc replay {path})"
        );
    }
    search_result(s, stats.violations())
}

/// The capture of stress trial `trial`, run from coin seed `seed`.
fn conc_capture(
    args: &Args,
    cfg: &StressConfig,
    trial: u64,
    seed: u64,
    events: Vec<RunEvent>,
) -> Capture {
    Capture {
        protocol: conc_protocol_spec(args).into(),
        inputs: args.get_or("inputs", "").into(),
        seed,
        mode: CaptureMode::Conc {
            budget: cfg.budget,
            strategy: cfg.strategy.label(),
            trial,
            root_seed: cfg.root_seed,
        },
        events,
    }
}

/// `cil conc shrink` — re-derive one failing stress trial and delta-debug
/// its schedule to a 1-minimal repro that still fails. Candidate schedules
/// are re-executed with best-effort replay, whose deterministic fallback
/// keeps truncated schedules runnable.
fn conc_shrink_one<P, C>(protocol: &P, codec: &C, args: &Args) -> Result<String, CliFailure>
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    let inputs = inputs_for(protocol, args.get_or("inputs", ""))?;
    let cfg = conc_config(args)?;
    let trial = args.get_u64("trial", 0)?;
    let (trial_seed, outcome) = rerun_trial_with_codec(protocol, &inputs, codec, &cfg, trial);
    let kind = classify(&outcome).outcome;
    if !matches!(kind, TrialOutcome::Inconsistent | TrialOutcome::Trivial) {
        return Err(CliFailure::Usage(format!(
            "trial {trial} of {} under {} (root seed {}) did not violate safety \
             ({kind:?}) — nothing to shrink",
            protocol.name(),
            cfg.strategy.label(),
            cfg.root_seed
        )));
    }
    let fails = |out: &ConcOutcome| classify(out).outcome == kind;
    let Some(NativeShrink {
        minimal,
        repro,
        revalidated,
    }) = ControlledRun::new(protocol, &inputs)
        .seed(trial_seed)
        .budget(cfg.budget)
        .shrink_with_codec(codec, &outcome.schedule, fails)
    else {
        return Err(CliFailure::Audit(format!(
            "trial {trial} did not fail again under best-effort replay of its \
             own schedule — the controlled run is not deterministic\n"
        )));
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "protocol : {}   strategy: {}   trial: {trial}   trial seed: {trial_seed}",
        protocol.name(),
        cfg.strategy.label()
    );
    let _ = writeln!(
        s,
        "failure  : {kind:?} after {} scheduled steps",
        outcome.schedule.len()
    );
    let _ = writeln!(
        s,
        "\n1-minimal repro: {} preemption points (removing any single entry \
         makes the failure vanish)",
        minimal.len()
    );
    let _ = writeln!(s, "  schedule: {minimal:?}");
    let _ = writeln!(
        s,
        "  re-validated under best-effort replay: still fails — {revalidated}"
    );
    if let Some(path) = args.get("trace-json") {
        write_capture(
            path,
            &conc_capture(args, &cfg, trial, trial_seed, repro.events),
        )?;
        let _ = writeln!(
            s,
            "  minimal repro captured -> {path}   (verify: cil conc replay {path})"
        );
    }
    Ok(s)
}

/// Publishes a DPOR report's tallies under the `conc.dpor.*` metric names.
fn dpor_metrics(registry: &Registry, report: &DporReport) {
    registry
        .counter("conc.dpor.executions")
        .add(report.executions);
    registry.counter("conc.dpor.complete").add(report.complete);
    registry
        .counter("conc.dpor.truncated")
        .add(report.truncated);
    registry
        .counter("conc.dpor.sleep_blocked")
        .add(report.sleep_blocked);
    registry.counter("conc.dpor.steps").add(report.steps_total);
    registry
        .counter("conc.dpor.violations")
        .add(report.violations);
    registry
        .counter("conc.dpor.frontier_roots")
        .add(report.frontier_roots);
    if let Some(h) = &report.hunt {
        registry.counter("conc.dpor.hunt_runs").add(h.runs);
        registry.counter("conc.dpor.hunt_cut").add(h.cut);
    }
    registry
        .gauge("conc.dpor.depth_bound")
        .set(report.depth_bound);
    // Deliberately no `jobs` gauge: exports must be byte-identical at any
    // `--jobs`, so the worker count never enters the snapshot.
    registry
        .gauge("conc.dpor.decision_vectors")
        .set(report.decision_vectors.len() as u64);
    registry
        .gauge("conc.dpor.terminal_configs")
        .set(report.terminal_configs.len() as u64);
}

/// Renders a decision vector, `—` for an undecided processor.
fn fmt_decisions(decisions: &[Option<Val>]) -> String {
    let inner: Vec<String> = decisions
        .iter()
        .map(|d| match d {
            Some(v) => v.to_string(),
            None => "—".into(),
        })
        .collect();
    format!("[{}]", inner.join(", "))
}

/// `cil conc explore` — exhaustive DPOR exploration: enumerate every
/// interleaving and coin outcome up to `--depth-bound` on real threads,
/// with sleep-set partial-order reduction and a bounded-preemption hunt
/// prelude. A violation is delta-debugged to a 1-minimal repro and reported
/// via exit 1; a clean pass prints an exhaustive-to-depth certificate whose
/// execution digest is invariant at any `--jobs`.
fn conc_explore_one<P, C>(protocol: &P, codec: &C, args: &Args) -> Result<String, CliFailure>
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    let inputs = inputs_for(protocol, args.get_or("inputs", ""))?;
    if args.flag("cross-check") {
        fits_active_mask(protocol)?;
    }
    let static_indep = if args.flag("static-indep") {
        // The lint layer's footprint table, walked with this run's inputs,
        // converted to the explorer's dependency-free table. Only a
        // complete (fully converged) walk over-approximates every native
        // execution, so a bounded walk is a usage error, not a silent
        // soundness hole.
        let auditor = Auditor::new(protocol).with_inputs(inputs.iter().copied());
        let table = cil_audit::footprints(&auditor);
        if !table.complete {
            return Err(CliFailure::Usage(format!(
                "--static-indep: the footprint walk of {} did not converge \
                 (coverage bounded); static independence needs a complete table",
                protocol.name()
            )));
        }
        let mut statics = StaticIndep::new(table.processes);
        for (pid, state, first, reachable) in table.flat_states() {
            statics.insert_state(pid, state, first, reachable);
        }
        Some(std::sync::Arc::new(statics))
    } else {
        None
    };
    let defaults = DporConfig::default();
    let cfg = DporConfig {
        depth_bound: args.get_u64("depth-bound", defaults.depth_bound)?,
        jobs: args.get_workers("jobs")?,
        naive: args.flag("naive"),
        hunt_preemptions: if args.flag("no-hunt") {
            None
        } else {
            defaults.hunt_preemptions
        },
        static_indep,
        ..defaults
    };
    let meter = args
        .flag("progress")
        .then(|| ProgressMeter::new("explore", None));
    let tick = |n: u64| {
        if let Some(m) = &meter {
            m.tick(n);
        }
    };
    let timings = timings_flag(args)?;
    let registry = Registry::new();
    let timing = timings.then(|| DporTiming::new(&registry, "conc.dpor"));
    let report = cil_conc::explore_timed_with_codec(
        protocol,
        &inputs,
        codec,
        &cfg,
        Some(&tick),
        timing.as_ref(),
    );
    if let Some(m) = &meter {
        m.finish();
    }
    dpor_metrics(&registry, &report);
    write_metrics_out(args, &registry)?;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "protocol : {}   (exhaustive native exploration)",
        report.protocol
    );
    let _ = writeln!(
        s,
        "depth bound: {}   jobs: {}   reduction: {}",
        report.depth_bound,
        if report.jobs == 0 {
            "auto".to_string()
        } else {
            report.jobs.to_string()
        },
        if report.naive {
            "none (naive enumeration)"
        } else if report.static_indep {
            "sleep-set + static footprints"
        } else {
            "sleep-set"
        }
    );
    if let Some(h) = &report.hunt {
        let _ = writeln!(
            s,
            "hunt (≤{} preemptions): {} runs, {} cut by the bound — {}",
            h.preemption_bound,
            h.runs,
            h.cut,
            if h.found { "VIOLATION FOUND" } else { "clean" }
        );
    }
    if report.exhaustive {
        let _ = writeln!(
            s,
            "\nexecutions: {} ({} complete, {} truncated at the bound)   sleep-blocked: {}",
            report.executions, report.complete, report.truncated, report.sleep_blocked
        );
        let _ = writeln!(
            s,
            "frontier subtrees: {}   total steps: {}",
            report.frontier_roots, report.steps_total
        );
        if report.static_indep {
            let _ = writeln!(
                s,
                "static footprints: {} misses{}",
                report.footprint_misses,
                if report.footprint_misses == 0 {
                    " (every observed access inside the static table) ✓"
                } else {
                    " — the table FAILED to over-approximate the execution ✗"
                }
            );
        }
        let depths = match (
            report.depth_histogram.keys().next(),
            report.depth_histogram.keys().next_back(),
        ) {
            (Some(lo), Some(hi)) => format!("{lo}..={hi}"),
            _ => "—".into(),
        };
        let _ = writeln!(
            s,
            "decision vectors: {}   terminal configs: {}   complete depths: {depths}",
            report.decision_vectors.len(),
            report.terminal_configs.len()
        );
        let _ = writeln!(
            s,
            "execution digest: {:016x}   (invariant at any --jobs)",
            report.digest
        );
    }
    if args.flag("cross-check") {
        if report.exhaustive {
            match cross_validate(protocol, &inputs, codec, &report) {
                Ok(check) => {
                    let paths = check
                        .sim_executions
                        .map(|n| format!(", {n} paths counted exactly"))
                        .unwrap_or_default();
                    let _ = writeln!(
                        s,
                        "cross-check vs the simulator configuration graph: OK — \
                         {} terminal configs, {} decision vectors{paths} ✓",
                        check.terminal_configs, check.decision_vectors
                    );
                }
                Err(e) => {
                    let _ = writeln!(s, "\ncross-check vs the simulator DIVERGED: {e}");
                    return Err(CliFailure::Audit(s));
                }
            }
        } else {
            let _ = writeln!(
                s,
                "cross-check skipped: the hunt found a violation before the \
                 exhaustive pass ran"
            );
        }
    }
    if report.certified() {
        let _ = writeln!(
            s,
            "\nexhaustive to depth {} — 0 violations ✓ (certificate)",
            report.depth_bound
        );
        return Ok(s);
    }
    let _ = writeln!(s, "\nviolations: {}", report.violations);
    if let Some(v) = report.violation_samples.first() {
        let _ = writeln!(
            s,
            "VIOLATION ({:?}): decisions {} after {} steps",
            v.kind,
            fmt_decisions(&v.decisions),
            v.total_steps
        );
        let _ = writeln!(s, "  schedule: {:?}", v.schedule);
        // Delta-debug the counterexample: best-effort replay of a candidate
        // schedule, same classification ⇒ still failing. The explorer found
        // the violation with forced coins, so for coin-flipping protocols a
        // schedule-only replay may not reproduce it — guarded below.
        let fails = |out: &ConcOutcome| classify(out).outcome == v.kind;
        let shrunk = ControlledRun::new(protocol, &inputs)
            .budget(cfg.depth_bound)
            .shrink_with_codec(codec, &v.schedule, fails);
        if let Some(shrunk) = shrunk {
            let _ = writeln!(
                s,
                "  1-minimal repro (ddmin): {} preemption points (removing any \
                 single entry makes the failure vanish)",
                shrunk.minimal.len()
            );
            let _ = writeln!(s, "  schedule: {:?}", shrunk.minimal);
            let _ = writeln!(
                s,
                "  re-validated under best-effort replay: still fails — {}",
                shrunk.revalidated
            );
        } else {
            let _ = writeln!(
                s,
                "  (schedule-only replay does not reproduce this counterexample — \
                 it depends on forced coin outcomes; sample kept unshrunk)"
            );
        }
    }
    Err(CliFailure::Audit(s))
}

/// `cil report <file>` — offline analyzer for the artifacts the other
/// commands write: a `--trace-json` JSONL capture (simulator or conc) or a
/// `--metrics-out` canonical-JSON metrics snapshot.
///
/// Capture mode prints per-processor operation/coin tables, per-register
/// traffic, decision points, the span tree of the event stream (weighted by
/// contained events), and recorded violations — all derived from the
/// deterministic event stream, so the report is byte-reproducible. Metrics
/// mode renders every snapshot section, estimating log-histogram quantiles
/// with their bucket error bounds; `--merge <f2,f3,..>` folds further
/// snapshots in first (commutative). `--flame` switches the output to
/// folded-stack lines for flamegraph tooling (event counts in capture mode,
/// self-nanoseconds in metrics mode).
///
/// # Errors
///
/// [`CliFailure::Usage`] (exit 2) for unreadable or unrecognizable files
/// and for `--merge` shape mismatches (the error names the offending
/// metric).
pub fn report(args: &Args) -> Result<String, CliFailure> {
    let path = args.pos(0).or_else(|| args.get("file")).ok_or_else(|| {
        CliFailure::Usage(
            "report needs a file: cil report <capture.jsonl | metrics.json> \
             [--merge <f2,f3>] [--flame]"
                .into(),
        )
    })?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    match Capture::parse(&text).map_err(|e| format!("'{path}' is truncated or corrupt: {e}"))? {
        Some(_) if args.get("merge").is_some() => Err(CliFailure::Usage(
            "--merge applies to metrics snapshots; captures cannot be merged".into(),
        )),
        Some(capture) => Ok(report_capture(path, &capture, args)),
        None => report_metrics(path, &text, args),
    }
}

/// Per-processor tallies of a capture's event stream.
#[derive(Default, Clone)]
struct PidTally {
    /// Reads and writes.
    ops: [u64; 2],
    /// `choose` and `transit` coin flips.
    coins: [u64; 2],
    /// `(value, own-step count when deciding, global step index)`.
    decided: Option<(u64, u64, u64)>,
}

/// Capture mode of [`report`]: tables over the event stream. A capture
/// cut short is reported as far as it goes.
fn report_capture(path: &str, capture: &Capture, args: &Args) -> String {
    let events = &capture.events;
    let mut pids: std::collections::BTreeMap<usize, PidTally> = Default::default();
    // Reads and writes per register.
    let mut regs: std::collections::BTreeMap<usize, [u64; 2]> = Default::default();
    let mut violations: Vec<String> = Vec::new();
    // Open spans, innermost last, weighted by the events they contain —
    // deterministic, unlike wall time.
    let mut stack: Vec<(String, SpanStat)> = Vec::new();
    let mut spans = SpanTree::new();
    let mut total_steps = 0u64;
    for ev in events {
        match ev {
            RunEvent::SpanBegin { name, .. } => {
                let span_path = match stack.last() {
                    Some((parent, _)) => format!("{parent}/{name}"),
                    None => name.clone(),
                };
                stack.push((span_path, SpanStat::default()));
                continue;
            }
            RunEvent::SpanEnd { .. } => {
                if let Some((span_path, stat)) = stack.pop() {
                    spans.add(&span_path, SpanStat { count: 1, ..stat });
                    if let Some((_, parent)) = stack.last_mut() {
                        parent.total_ns += stat.total_ns;
                    }
                }
                continue;
            }
            RunEvent::Step { pid, op, reg, .. } => {
                let write = usize::from(*op == cil_obs::OpKind::Write);
                pids.entry(*pid).or_default().ops[write] += 1;
                regs.entry(*reg).or_default()[write] += 1;
                total_steps += 1;
            }
            RunEvent::CoinFlip { pid, stage, .. } => {
                let transit = usize::from(*stage == cil_obs::CoinStage::Transit);
                pids.entry(*pid).or_default().coins[transit] += 1;
            }
            RunEvent::Decision { index, pid, value } => {
                let t = pids.entry(*pid).or_default();
                let own = t.ops[0] + t.ops[1];
                t.decided.get_or_insert((*value, own, *index));
            }
            RunEvent::Violation {
                index,
                kind,
                detail,
            } => violations.push(format!("step {index}: {kind} — {detail}")),
            RunEvent::Grant { .. } => {}
        }
        if let Some((_, stat)) = stack.last_mut() {
            stat.self_ns += 1;
            stat.total_ns += 1;
        }
    }

    if args.flag("flame") {
        return spans.folded();
    }

    let mut s = String::new();
    let _ = writeln!(s, "capture : {path}");
    let _ = writeln!(
        s,
        "mode    : {}   protocol: {}   inputs: {}   seed: {}",
        match capture.mode {
            CaptureMode::Sim { .. } => "sim",
            CaptureMode::Conc { .. } => "conc",
        },
        capture.protocol,
        capture.inputs,
        capture.seed,
    );
    let _ = writeln!(s, "events  : {}   steps: {total_steps}", events.len());

    let _ = writeln!(
        s,
        "\nprocessor  reads  writes  coins(choose)  coins(transit)  decided"
    );
    for (pid, t) in &pids {
        let decided = match t.decided {
            Some((v, own, global)) => format!(
                "{} (after {own} of its steps, global step {global})",
                Val(v)
            ),
            None => "—".into(),
        };
        let _ = writeln!(
            s,
            "{:>9}  {:>5}  {:>6}  {:>13}  {:>14}  {decided}",
            format!("P{pid}"),
            t.ops[0],
            t.ops[1],
            t.coins[0],
            t.coins[1]
        );
    }

    let _ = writeln!(s, "\nregister  reads  writes");
    for (reg, [r, w]) in &regs {
        let _ = writeln!(s, "{:>8}  {r:>5}  {w:>6}", format!("r{reg}"));
    }

    if !spans.is_empty() {
        let _ = writeln!(s, "\nspans (weights = contained events):");
        let _ = writeln!(s, "  count  total   self  path");
        for (span_path, stat) in spans.iter() {
            let _ = writeln!(
                s,
                "  {:>5}  {:>5}  {:>5}  {span_path}",
                stat.count, stat.total_ns, stat.self_ns
            );
        }
    }

    // Decided-by-k decay over this capture's processors: how many were
    // still undecided after k of their own steps, for each decision point.
    let mut decision_ks: Vec<u64> = pids
        .values()
        .filter_map(|t| t.decided.map(|(_, own, _)| own))
        .collect();
    decision_ks.sort_unstable();
    if !decision_ks.is_empty() {
        let n = pids.len() as u64;
        let _ = writeln!(s, "\ndecided-by-k (own steps):");
        for (done, k) in (1..).zip(&decision_ks) {
            let _ = writeln!(
                s,
                "  k = {k:>3}: {done}/{n} decided, {} undecided",
                n - done
            );
        }
    }

    let decided_vals: Vec<u64> = pids
        .values()
        .filter_map(|t| t.decided.map(|(v, _, _)| v))
        .collect();
    let consistent = decided_vals.windows(2).all(|w| w[0] == w[1]);
    if violations.is_empty() {
        let _ = writeln!(
            s,
            "\nviolations: none recorded   consistent: {consistent} ✓"
        );
    } else {
        let _ = writeln!(s, "\nviolations: {}", violations.len());
        for v in &violations {
            let _ = writeln!(s, "  {v}");
        }
    }
    s
}

/// Metrics mode of [`report`]: renders (optionally merged) snapshots.
fn report_metrics(path: &str, text: &str, args: &Args) -> Result<String, CliFailure> {
    let mut snap = MetricsSnapshot::from_json(text).map_err(|e| {
        CliFailure::Usage(format!(
            "'{path}' is neither a JSONL capture (no meta line) nor a \
             metrics snapshot: {e}"
        ))
    })?;
    let mut merged = 0usize;
    if let Some(list) = args.get("merge") {
        for f in list.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            let t = std::fs::read_to_string(f).map_err(|e| format!("cannot read '{f}': {e}"))?;
            let other = MetricsSnapshot::from_json(&t)
                .map_err(|e| format!("'{f}' is not a metrics snapshot: {e}"))?;
            snap.merge(&other)
                .map_err(|e| format!("cannot merge '{f}': {e}"))?;
            merged += 1;
        }
    }
    if args.flag("flame") {
        let mut tree = SpanTree::new();
        for (p, stat) in &snap.spans {
            tree.add(p, *stat);
        }
        return Ok(tree.folded());
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "metrics snapshot: {path}{}",
        if merged > 0 {
            format!(" (+{merged} merged)")
        } else {
            String::new()
        }
    );
    if !snap.counters.is_empty() {
        let _ = writeln!(s, "\ncounters:");
        for (k, v) in &snap.counters {
            let _ = writeln!(s, "  {k} = {v}");
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(s, "\ngauges:");
        for (k, v) in &snap.gauges {
            let _ = writeln!(s, "  {k} = {v}");
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(s, "\nhistograms:");
        for (k, h) in &snap.histograms {
            let _ = writeln!(
                s,
                "  {k}: count {}  sum {}  bucket width {}  overflow {}",
                h.count(),
                h.sum,
                h.width,
                h.overflow
            );
        }
    }
    if !snap.log_histograms.is_empty() {
        let _ = writeln!(s, "\nlog histograms (quantile ± bucket error bound):");
        for (k, h) in &snap.log_histograms {
            let _ = writeln!(s, "  {k}: count {}  sum {}", h.count(), h.sum);
            for (label, q) in [
                ("p50", 0.50),
                ("p90", 0.90),
                ("p99", 0.99),
                ("p99.9", 0.999),
            ] {
                if let Some(b) = h.quantile(q) {
                    let _ = writeln!(s, "    {label:>5} = {} ±{}", b.mid(), b.err());
                }
            }
        }
    }
    if !snap.series.is_empty() {
        let _ = writeln!(s, "\nseries:");
        for (k, v) in &snap.series {
            let _ = writeln!(
                s,
                "  {k}: len {}  last {}",
                v.len(),
                v.last().copied().unwrap_or(0)
            );
        }
    }
    if !snap.spans.is_empty() {
        let _ = writeln!(s, "\nspans:");
        let _ = writeln!(s, "  count      total_ns       self_ns  path");
        for (p, stat) in &snap.spans {
            let _ = writeln!(
                s,
                "  {:>5}  {:>12}  {:>12}  {p}",
                stat.count, stat.total_ns, stat.self_ns
            );
        }
    }
    Ok(s)
}
