//! The traced run: per-layer numbers, timed from outside each crate.
//!
//! One traced run covers all four workloads, because every per-layer metric
//! belongs to one of them and each traced result carries all of them. For
//! each workload it first runs the workload's units untraced, then the same
//! units again with timing around the calls into each crate, so the
//! per-layer numbers measure the same work as the end-to-end run and
//! `trace_overhead.<workload>` is the ratio of the two wall times.
//!
//! Calls far below a microsecond (choose, sample, a register operation,
//! pick, observe, absorb) cost less than the clock pair that would time
//! them, so they are replayed in batches over inputs recorded from the
//! workload's own instances and trials: each replay pass makes exactly as
//! many calls as the recorded units made. Longer calls (admission, a step
//! batch, a trial, an exact-engine phase, a proof phase) are timed one by
//! one, less the timer's own floor.
//!
//! Spans and histograms go into a `cil-obs` [`MetricsSnapshot`] kept in
//! memory and written at the end. Span paths start with the unit's (or
//! round's) index, so the spans of one unit share it.

use crate::alloc_count;
use crate::args::{Args, Workload};
use crate::gate::{self, ExactOutput};
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::workloads::{
    closed_loop, elapsed_ns, exact_unit, fig3_model, fig3_survival, kvalued8, prove_unit,
    round_root, serve_round, sweep_round, LATENCY_SUB_BITS, MAX_STEPS, SERVE_ROUND, SWEEP_ROUND,
    THREADS, THREE_INPUTS, TWO_INPUTS,
};
use cil_core::n_unbounded::NUnbounded;
use cil_core::three_bounded::ThreeBounded;
use cil_core::two::TwoProcessor;
use cil_obs::{LogHistogram, LogHistogramSnapshot, MetricsSnapshot, SpanTimer, SpanTree};
use cil_registers::{HwRegisterFile, Pid, SharedMemory};
use cil_serve::{InstanceSlot, DEFAULT_BATCH, DEFAULT_SLOTS};
use cil_sim::{
    Adversary, BoxedAdversary, Choice, Op, PackCodec, Protocol, RandomScheduler, Rng as _,
    RoundRobin, Runner, SplitMix64, SweepStats, Trial, TrialResult, TrialSweep, Val, View,
    WordCodec, Xoshiro256StarStar,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The per-layer metrics, with units, in print order. Every traced run
/// reports all of them.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("serve.admit_ns", "ns"),
    ("serve.batch_ns", "ns"),
    ("serve.compute_ns_p50", "ns"),
    ("serve.compute_ns_p99", "ns"),
    ("serve.queue_ns_p50", "ns"),
    ("serve.queue_ns_p99", "ns"),
    ("serve.rotation_share", "1"),
    ("serve.steps_per_decision", "count"),
    ("serve.slot_self_ns", "ns"),
    ("serve.shard_speedup", "1"),
    ("serve.allocs_per_instance", "count"),
    ("sim.allocs_per_step", "count"),
    ("sim.sample_ns", "ns"),
    ("sim.pick_ns", "ns"),
    ("sim.trial_ns_p50", "ns"),
    ("sim.trial_ns_p99", "ns"),
    ("sim.runner_self_ns", "ns"),
    ("sim.steps_per_trial", "count"),
    ("sim.absorb_ns", "ns"),
    ("sim.jobs_speedup", "1"),
    ("sim.worker_idle_share", "1"),
    ("core.choose_ns.two", "ns"),
    ("core.choose_ns.fig2", "ns"),
    ("core.transit_ns.two", "ns"),
    ("core.transit_ns.fig2", "ns"),
    ("registers.hw_op_ns", "ns"),
    ("registers.mem_op_ns", "ns"),
    ("obs.observe_ns", "ns"),
    ("obs.clock_pair_ns", "ns"),
    ("mc.explore_ns", "ns"),
    ("mc.build_ns", "ns"),
    ("mc.solve_ns", "ns"),
    ("mc.solve_speedup", "1"),
    ("mc.classes_explored", "count"),
    ("mc.classes_solved", "count"),
    ("mc.transitions", "count"),
    ("mc.dedup_ratio", "1"),
    ("audit.prove_ns", "ns"),
    ("audit.cert_render_ns", "ns"),
    ("audit.check_ns", "ns"),
    ("audit.configs", "count"),
    ("audit.edges", "count"),
    ("audit.cert_bytes", "count"),
    ("trace_overhead.serve-two", "1"),
    ("trace_overhead.sweep-fig2", "1"),
    ("trace_overhead.exact-fig3", "1"),
    ("trace_overhead.prove-kvalued8", "1"),
];

/// Fig. 1 instances of the first serve round recorded for the replays.
const RECORD_INSTANCES: u64 = 10_000;

/// Fig. 2 trials of the first sweep round recorded for the replays.
const RECORD_TRIALS: u64 = 2_000;

/// Passes per batched replay; each replay reports its median pass.
const REPLAY_PASSES: usize = 5;

/// Alternating 1-thread / 2-thread pairs behind each speedup.
const SPEEDUP_PAIRS: u64 = 3;

/// The engine's claim chunk: instance indices a shard takes per fetch.
const CLAIM_CHUNK: u64 = 64;

/// Everything the traced run accumulates.
struct Trace {
    args: Args,
    floor: u64,
    metrics: BTreeMap<&'static str, (f64, String)>,
    snap: MetricsSnapshot,
    details: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Trace {
    fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.metrics.insert(name, (value, note.into()));
    }

    fn hist(&mut self, name: &str, snap: LogHistogramSnapshot) {
        self.snap.log_histograms.insert(name.to_string(), snap);
    }

    fn spans(&mut self, tree: &SpanTree) {
        for (path, stat) in tree.iter() {
            self.snap
                .spans
                .entry(path.to_string())
                .or_default()
                .merge(stat);
        }
    }

    fn count(&mut self, name: &str, v: u64) {
        self.snap.counters.insert(name.to_string(), v);
    }
}

/// `--seconds` split evenly over each workload's untraced and traced phase.
fn phase_seconds(args: &Args) -> f64 {
    args.seconds / (2 * Workload::ALL.len()) as f64
}

/// Runs the traced suite. Returns the per-layer outcome and the in-memory
/// trace (spans, histograms, counts) to write out.
///
/// # Panics
///
/// Panics if the counting allocator is not installed: the allocation
/// metrics would silently read 0.
pub fn run(args: &Args, clock_pair_ns: f64) -> (Outcome, MetricsSnapshot) {
    assert!(
        alloc_count::installed(),
        "the traced run needs the counting global allocator (perfbench-trace installs it)"
    );
    let mut t = Trace {
        args: args.clone(),
        floor: timer_floor_ns().round() as u64,
        metrics: BTreeMap::new(),
        snap: MetricsSnapshot::default(),
        details: vec![format!(
            "traced run   seed {}   all four workloads, {:.2} s untraced, then the same units traced",
            args.seed,
            phase_seconds(args)
        )],
        attempted: 0,
        failed: 0,
    };
    t.details.push(format!(
        "timer floor {} ns: the median empty Instant::now..elapsed interval, subtracted from \
         each call timed alone",
        t.floor
    ));
    t.set(
        "obs.clock_pair_ns",
        clock_pair_ns,
        "one Instant::now + elapsed, the pair serve pays per instance",
    );
    let two = serve_section(&mut t);
    let fig2 = sweep_section(&mut t);
    let calls = two.samples + fig2.samples;
    t.set(
        "sim.sample_ns",
        (two.sample_ns * two.samples as f64 + fig2.sample_ns * fig2.samples as f64) / calls as f64,
        format!(
            "{calls} Choice::sample calls replayed: serve-two {:.2} ns, sweep-fig2 {:.2} ns",
            two.sample_ns, fig2.sample_ns
        ),
    );
    let mut results = two.results;
    results.extend(fig2.results);
    let absorb = replay_ns(results.len() as u64, || {
        let mut stats = SweepStats::new(8);
        for (i, r) in results.iter().enumerate() {
            stats.absorb(i as u64, r.clone());
        }
        black_box(stats);
    });
    t.set(
        "sim.absorb_ns",
        absorb,
        format!(
            "{} SweepStats::absorb calls over recorded serve-two and sweep-fig2 results",
            results.len()
        ),
    );
    exact_section(&mut t);
    prove_section(&mut t);

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let (value, note) = t
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            Metric::new(*name, *value, unit).note(note.clone())
        })
        .collect();
    let outcome = Outcome {
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        details: t.details,
    };
    (outcome, t.snap)
}

/// Median cost of an empty timed interval (`Instant::now` then `elapsed`
/// with nothing between), over five batches.
fn timer_floor_ns() -> f64 {
    const N: u64 = 100_000;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let total: u64 = (0..N).map(|_| elapsed_ns(Instant::now())).sum();
            total as f64 / N as f64
        })
        .collect();
    stats::median(&mut batches)
}

/// Nanoseconds per call of a replay pass making `calls` calls: the median
/// over [`REPLAY_PASSES`] passes.
fn replay_ns(calls: u64, mut pass: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..REPLAY_PASSES)
        .map(|_| {
            let started = Instant::now();
            pass();
            elapsed_ns(started) as f64 / calls.max(1) as f64
        })
        .collect();
    stats::median(&mut per_call)
}

/// Seconds `f` took, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// One adversary view as `Runner` showed it, and the pick made from it.
struct ViewRecord<P: Protocol> {
    states: Vec<P::State>,
    regs: Vec<P::Reg>,
    steps: Vec<u64>,
    total: u64,
    pick: usize,
}

/// The run's real adversary, wrapped to keep a copy of every view it is
/// shown and of its pick.
struct Recorder<'r, P: Protocol, A> {
    inner: A,
    views: &'r mut Vec<ViewRecord<P>>,
}

impl<P: Protocol, A: Adversary<P>> Adversary<P> for Recorder<'_, P, A> {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        let pick = self.inner.pick(view);
        self.views.push(ViewRecord {
            states: view.states.to_vec(),
            regs: view.regs.to_vec(),
            steps: view.steps.to_vec(),
            total: view.total_steps,
            pick,
        });
        pick
    }
}

/// `(pid, state, op, value read)`: the inputs of one `transit` call.
type TransitInput<P> = (
    usize,
    <P as Protocol>::State,
    Op<<P as Protocol>::Reg>,
    Option<<P as Protocol>::Reg>,
);

/// The inputs of every kernel call the recorded units made, in call order.
struct Recording<P: Protocol> {
    /// `(pid, state)` of each `choose`.
    chooses: Vec<(usize, P::State)>,
    /// The inputs of each `transit`; the register operations are the ops
    /// here.
    transits: Vec<TransitInput<P>>,
    /// Every `Choice::sample` input: each step samples its op, then its
    /// transition.
    samples: Vec<SampleInput<P>>,
    /// The view of every step, with the adversary's pick.
    views: Vec<ViewRecord<P>>,
    /// `(seed, steps)` of each recorded unit.
    units: Vec<(u64, u64)>,
    /// Each unit's result.
    results: Vec<TrialResult>,
}

enum SampleInput<P: Protocol> {
    Op(Choice<Op<P::Reg>>),
    State(Choice<P::State>),
}

impl<P: Protocol> Recording<P> {
    fn new() -> Self {
        Recording {
            chooses: Vec::new(),
            transits: Vec::new(),
            samples: Vec::new(),
            views: Vec::new(),
            units: Vec::new(),
            results: Vec::new(),
        }
    }

    fn steps(&self) -> u64 {
        self.chooses.len() as u64
    }

    /// Runs one unit through `Runner` with its trace on and `adversary`
    /// wrapped in a [`Recorder`], then rebuilds each step's kernel inputs
    /// from its view (the stepping processor's state) and its trace event
    /// (the op and the value read).
    fn record<A: Adversary<P>>(&mut self, p: &P, inputs: &[Val], seed: u64, adversary: A) {
        let first = self.views.len();
        let recorder = Recorder {
            inner: adversary,
            views: &mut self.views,
        };
        let out = Runner::new(p, inputs, recorder)
            .seed(seed)
            .max_steps(MAX_STEPS)
            .record_trace(true)
            .run();
        let events = out
            .trace
            .as_ref()
            .expect("the trace was asked for")
            .events();
        let views = &self.views[first..];
        assert_eq!(views.len(), events.len(), "one view per step");
        for (view, event) in views.iter().zip(events) {
            let (pid, state) = (event.pid, &view.states[event.pid]);
            assert_eq!(view.pick, pid, "the trace steps the picked processor");
            self.samples.push(SampleInput::Op(p.choose(pid, state)));
            self.samples.push(SampleInput::State(p.transit(
                pid,
                state,
                &event.op,
                event.read.as_ref(),
            )));
            self.chooses.push((pid, state.clone()));
            self.transits
                .push((pid, state.clone(), event.op.clone(), event.read.clone()));
        }
        self.units.push((seed, out.total_steps));
        self.results.push(TrialResult::from_run(&out));
    }

    /// Nanoseconds per `choose`, over every recorded step.
    fn choose_ns(&self, p: &P) -> f64 {
        replay_ns(self.steps(), || {
            for (pid, state) in &self.chooses {
                black_box(p.choose(*pid, black_box(state)));
            }
        })
    }

    /// Nanoseconds per `transit`, over every recorded step.
    fn transit_ns(&self, p: &P) -> f64 {
        replay_ns(self.steps(), || {
            for (pid, state, op, read) in &self.transits {
                black_box(p.transit(*pid, black_box(state), op, read.as_ref()));
            }
        })
    }

    /// Nanoseconds per `Choice::sample` with a Xoshiro draw, over every
    /// recorded sample (two per step).
    fn sample_ns(&self) -> f64 {
        replay_ns(self.samples.len() as u64, || {
            let mut rng = Xoshiro256StarStar::new(0x5eed);
            for s in &self.samples {
                match s {
                    SampleInput::Op(c) => {
                        black_box(c.sample(&mut rng));
                    }
                    SampleInput::State(c) => {
                        black_box(c.sample(&mut rng));
                    }
                }
            }
        })
    }

    /// Nanoseconds per register operation on a hardware register file,
    /// through `PackCodec` as the serve engine calls it.
    fn hw_op_ns(&self, p: &P) -> f64
    where
        PackCodec: WordCodec<P::Reg>,
    {
        let file = HwRegisterFile::with_packer(p.registers(), |reg, v| PackCodec.pack(reg, v))
            .expect("protocol register specs are valid");
        replay_ns(self.steps(), || {
            for (pid, _, op, _) in &self.transits {
                match op {
                    Op::Read(r) => {
                        let word = file
                            .read_word(Pid(*pid), *r)
                            .expect("protocol read within its reader set");
                        let value: P::Reg = PackCodec.unpack(*r, word);
                        black_box(value);
                    }
                    Op::Write(r, v) => file
                        .write_word(Pid(*pid), *r, PackCodec.pack(*r, v))
                        .expect("protocol write to its own register"),
                }
            }
        })
    }

    /// Nanoseconds per register operation on the simulator's
    /// `SharedMemory`, with the clones `Runner` makes.
    fn mem_op_ns(&self, p: &P) -> f64 {
        let mut memory =
            SharedMemory::new(p.registers()).expect("protocol register specs are valid");
        replay_ns(self.steps(), || {
            for (pid, _, op, _) in &self.transits {
                match op {
                    Op::Read(r) => {
                        black_box(
                            memory
                                .read(Pid(*pid), *r)
                                .expect("protocol read within its reader set")
                                .clone(),
                        );
                    }
                    Op::Write(r, v) => {
                        black_box(
                            memory
                                .write(Pid(*pid), *r, v.clone())
                                .expect("protocol write to its own register"),
                        );
                    }
                }
            }
        })
    }
}

/// Per-call costs the serve and sweep sections hand to the pooled metrics.
struct KernelShare {
    sample_ns: f64,
    samples: u64,
    results: Vec<TrialResult>,
}

/// What one traced replica round measured.
struct ReplicaRound {
    stats: SweepStats,
    admit_ns: u64,
    admits: u64,
    batch_ns: u64,
    batches: u64,
    multi_batch: u64,
    compute: LogHistogramSnapshot,
    queue: LogHistogramSnapshot,
    latencies: Vec<u64>,
}

/// A traced copy of `ServeEngine::run`'s `Instances` mode: the same
/// `InstanceSlot`s at the engine's arena geometry, the same admission and
/// round-robin arena sweep, the same per-instance bookkeeping (shared
/// decided counter and latency histogram, decided-value counts, stats),
/// plus a clock pair around each `begin` and each `step_batch`.
fn replica_round(p: &TwoProcessor, root: u64, floor: u64, keep_latencies: bool) -> ReplicaRound {
    let cursor = AtomicU64::new(0);
    let decided_total = AtomicU64::new(0);
    let latency = LogHistogram::new(LATENCY_SUB_BITS);
    let shard = || {
        let mut slots: Vec<InstanceSlot<'_, TwoProcessor, PackCodec>> = (0..DEFAULT_SLOTS)
            .map(|_| InstanceSlot::new(p, &PackCodec, &TWO_INPUTS, MAX_STEPS))
            .collect();
        let mut compute_of = vec![0u64; DEFAULT_SLOTS];
        let mut batches_of = vec![0u32; DEFAULT_SLOTS];
        let mut values: BTreeMap<u64, u64> = BTreeMap::new();
        let compute = LogHistogram::new(LATENCY_SUB_BITS);
        let queue = LogHistogram::new(LATENCY_SUB_BITS);
        let mut out = ReplicaRound {
            stats: SweepStats::new(8),
            admit_ns: 0,
            admits: 0,
            batch_ns: 0,
            batches: 0,
            multi_batch: 0,
            compute: LogHistogram::new(LATENCY_SUB_BITS).snapshot(),
            queue: LogHistogram::new(LATENCY_SUB_BITS).snapshot(),
            latencies: Vec::new(),
        };
        let mut pending = 0u64..0u64;
        let mut active = 0usize;
        loop {
            for (s, slot) in slots.iter_mut().enumerate() {
                if !slot.busy() {
                    if pending.is_empty() {
                        let start = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                        if start < SERVE_ROUND {
                            pending = start..(start + CLAIM_CHUNK).min(SERVE_ROUND);
                        }
                    }
                    let Some(index) = pending.next() else {
                        continue;
                    };
                    let trial = Trial {
                        index,
                        seed: SplitMix64::jump(root, index).next_u64(),
                    };
                    let started = Instant::now();
                    slot.begin(trial);
                    out.admit_ns += elapsed_ns(started).saturating_sub(floor);
                    out.admits += 1;
                    compute_of[s] = 0;
                    batches_of[s] = 0;
                    active += 1;
                }
                let started = Instant::now();
                let done = slot.step_batch(DEFAULT_BATCH);
                let dt = elapsed_ns(started).saturating_sub(floor);
                out.batch_ns += dt;
                out.batches += 1;
                compute_of[s] += dt;
                batches_of[s] += 1;
                if let Some(done) = done {
                    active -= 1;
                    if let Some(v) = done.value {
                        *values.entry(v.0).or_insert(0) += 1;
                        decided_total.fetch_add(1, Ordering::Relaxed);
                    }
                    latency.observe(done.latency_ns);
                    compute.observe(compute_of[s]);
                    queue.observe(done.latency_ns.saturating_sub(compute_of[s]));
                    out.multi_batch += u64::from(batches_of[s] > 1);
                    if keep_latencies {
                        out.latencies.push(done.latency_ns);
                    }
                    out.stats.absorb(done.index, done.result);
                }
            }
            if active == 0 && pending.is_empty() && cursor.load(Ordering::Relaxed) >= SERVE_ROUND {
                break;
            }
        }
        out.compute = compute.snapshot();
        out.queue = queue.snapshot();
        black_box(values);
        out
    };
    let parts: Vec<ReplicaRound> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS).map(|_| scope.spawn(shard)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replica shard panicked"))
            .collect()
    });
    black_box(latency.snapshot());
    let mut parts = parts.into_iter();
    let mut round = parts.next().expect("at least one shard");
    for part in parts {
        round.stats.merge(part.stats);
        round.admit_ns += part.admit_ns;
        round.admits += part.admits;
        round.batch_ns += part.batch_ns;
        round.batches += part.batches;
        round.multi_batch += part.multi_batch;
        round.compute.merge(&part.compute).expect("one resolution");
        round.queue.merge(&part.queue).expect("one resolution");
        round.latencies.extend(part.latencies);
    }
    round
}

fn serve_section(t: &mut Trace) -> KernelShare {
    let p = TwoProcessor::new();
    let seed = t.args.seed;
    let (mut rounds, mut wall_untraced) = (Vec::new(), 0.0);
    closed_loop(
        phase_seconds(&t.args),
        1,
        |r| serve_round(&p, round_root(seed, r), THREADS),
        |report, secs| {
            rounds.push(report);
            wall_untraced += secs;
        },
    );
    let timer = SpanTimer::monotonic();
    let mut replicas = Vec::with_capacity(rounds.len());
    let (_, wall_traced) = timed(|| {
        for r in 0..rounds.len() {
            let _span = timer.enter(&format!("serve-two.round.{r}"));
            replicas.push(replica_round(
                &p,
                round_root(seed, r as u64),
                t.floor,
                r == 0,
            ));
        }
    });
    t.spans(&timer.finish());

    let mut compute = LogHistogram::new(LATENCY_SUB_BITS).snapshot();
    let mut queue = LogHistogram::new(LATENCY_SUB_BITS).snapshot();
    let (mut admit, mut admits, mut batch, mut batches, mut multi) = (0, 0, 0, 0, 0);
    let (mut decided, mut steps) = (0u64, 0u128);
    let mut mismatched = 0;
    for (engine, replica) in rounds.iter().zip(&replicas) {
        let same = engine.stats.digest() == replica.stats.digest();
        mismatched += u64::from(!same);
        t.failed += gate::batch_failures(&engine.stats, SERVE_ROUND, true)
            + gate::batch_failures(&replica.stats, SERVE_ROUND, same);
        t.attempted += 2 * SERVE_ROUND;
        compute.merge(&replica.compute).expect("one resolution");
        queue.merge(&replica.queue).expect("one resolution");
        admit += replica.admit_ns;
        admits += replica.admits;
        batch += replica.batch_ns;
        batches += replica.batches;
        multi += replica.multi_batch;
        decided += replica.stats.decided;
        steps += replica.stats.metric_sum;
    }
    let instances = replicas.len() as u64 * SERVE_ROUND;
    t.details.push(format!(
        "serve-two: {} rounds of {SERVE_ROUND} instances untraced, then the same rounds through \
         the traced replica ({THREADS} shards x {DEFAULT_SLOTS} InstanceSlots, batch \
         {DEFAULT_BATCH}); replica digest equals ServeEngine's in {} of {} rounds",
        rounds.len(),
        rounds.len() as u64 - mismatched,
        rounds.len()
    ));
    let steps = steps as u64;
    t.count("serve.instances", instances);
    t.count("serve.steps", steps);
    t.count("serve.batches", batches);
    t.hist("serve.compute_ns", compute.clone());
    t.hist("serve.queue_ns", queue.clone());
    t.set(
        "trace_overhead.serve-two",
        wall_traced / wall_untraced,
        format!("replica {wall_traced:.3} s / ServeEngine {wall_untraced:.3} s"),
    );
    t.set(
        "serve.admit_ns",
        admit as f64 / admits as f64,
        format!("{admits} InstanceSlot::begin calls"),
    );
    t.set(
        "serve.batch_ns",
        batch as f64 / batches as f64,
        format!("{batches} step_batch calls"),
    );
    let pct = |h: &LogHistogramSnapshot, p| {
        stats::histogram_percentile(h, p).expect("every instance completed")
    };
    t.set(
        "serve.compute_ns_p50",
        pct(&compute, 50),
        format!("n={instances}"),
    );
    t.set(
        "serve.compute_ns_p99",
        pct(&compute, stats::tail_percentile(instances)),
        format!("n={instances}"),
    );
    t.set(
        "serve.queue_ns_p50",
        pct(&queue, 50),
        format!("n={instances}"),
    );
    t.set(
        "serve.queue_ns_p99",
        pct(&queue, stats::tail_percentile(instances)),
        format!("n={instances}"),
    );
    t.set(
        "serve.rotation_share",
        multi as f64 / instances as f64,
        format!("{multi} of {instances} instances needed more than one batch"),
    );
    t.set(
        "serve.steps_per_decision",
        steps as f64 / decided as f64,
        format!("{steps} steps, {decided} decisions"),
    );

    // Shards: alternate 1-shard and 2-shard runs of the same rounds.
    let (mut one, mut both) = (0.0, 0.0);
    for i in 0..SPEEDUP_PAIRS {
        let root = round_root(seed, rounds.len() as u64 + i);
        one += timed(|| serve_round(&p, root, 1)).1;
        both += timed(|| serve_round(&p, root, THREADS)).1;
    }
    t.set(
        "serve.shard_speedup",
        one / both,
        format!("{SPEEDUP_PAIRS} rounds at 1 shard {one:.3} s vs {THREADS} shards {both:.3} s"),
    );

    let (counted, allocs) = alloc_count::counted(|| serve_round(&p, round_root(seed, 0), THREADS));
    t.set(
        "serve.allocs_per_instance",
        allocs as f64 / counted.instances as f64,
        format!("{allocs} allocations in one ServeEngine run, set-up included"),
    );

    // Record the first instances of round 0 through Runner/RoundRobin, the
    // oracle the engine's digest equals.
    let root = round_root(seed, 0);
    let mut rec = Recording::new();
    for i in 0..RECORD_INSTANCES {
        let trial_seed = SplitMix64::jump(root, i).next_u64();
        rec.record(&p, &TWO_INPUTS, trial_seed, RoundRobin::new());
    }
    let choose = rec.choose_ns(&p);
    let transit = rec.transit_ns(&p);
    let sample = rec.sample_ns();
    let hw = rec.hw_op_ns(&p);
    let rs = rec.steps();
    t.count("serve.recorded_steps", rs);
    t.set(
        "core.choose_ns.two",
        choose,
        format!("{rs} calls: every step of {RECORD_INSTANCES} recorded instances"),
    );
    t.set("core.transit_ns.two", transit, format!("{rs} calls"));
    t.set(
        "registers.hw_op_ns",
        hw,
        format!("{rs} read_word/write_word calls with PackCodec"),
    );
    let kernel = choose + transit + 2.0 * sample + hw;
    t.set(
        "serve.slot_self_ns",
        batch as f64 / steps as f64 - kernel,
        format!(
            "{:.1} ns of step_batch per step less {kernel:.1} ns of replayed kernel calls",
            batch as f64 / steps as f64
        ),
    );

    let latencies = &replicas[0].latencies;
    let h = LogHistogram::new(LATENCY_SUB_BITS);
    let observe = replay_ns(latencies.len() as u64, || {
        for &v in latencies {
            h.observe(black_box(v));
        }
    });
    t.set(
        "obs.observe_ns",
        observe,
        format!(
            "{} LogHistogram::observe calls over round 0's latencies",
            latencies.len()
        ),
    );
    KernelShare {
        sample_ns: sample,
        samples: rec.samples.len() as u64,
        results: rec.results,
    }
}

/// One traced sweep round: the end-to-end round's trials, with
/// `Runner::run` timed alone into `trial_ns`.
fn traced_sweep_round(
    p: &NUnbounded,
    root: u64,
    floor: u64,
    trial_ns: &LogHistogram,
) -> SweepStats {
    TrialSweep::new(SWEEP_ROUND)
        .root_seed(root)
        .jobs(THREADS)
        .run(|trial| {
            let adversary: BoxedAdversary<NUnbounded> = Box::new(RandomScheduler::new(trial.seed));
            let runner = Runner::new(p, &THREE_INPUTS, adversary)
                .seed(trial.seed)
                .max_steps(MAX_STEPS);
            let started = Instant::now();
            let out = runner.run();
            trial_ns.observe(elapsed_ns(started).saturating_sub(floor));
            TrialResult::from_run(&out)
        })
}

fn sweep_section(t: &mut Trace) -> KernelShare {
    let p = NUnbounded::three();
    let seed = t.args.seed;
    let scratch = LogHistogram::new(LATENCY_SUB_BITS);
    let (mut rounds, mut wall_untraced) = (Vec::new(), 0.0);
    closed_loop(
        phase_seconds(&t.args),
        1,
        |r| sweep_round(&p, round_root(seed, r), THREADS, &scratch),
        |stats, secs| {
            rounds.push(stats);
            wall_untraced += secs;
        },
    );
    let trial_ns = LogHistogram::new(LATENCY_SUB_BITS);
    let timer = SpanTimer::monotonic();
    let mut traced = Vec::with_capacity(rounds.len());
    let (_, wall_traced) = timed(|| {
        for r in 0..rounds.len() {
            let _span = timer.enter(&format!("sweep-fig2.round.{r}"));
            traced.push(traced_sweep_round(
                &p,
                round_root(seed, r as u64),
                t.floor,
                &trial_ns,
            ));
        }
    });
    t.spans(&timer.finish());
    let mut mismatched = 0;
    let (mut trials, mut steps) = (0u64, 0u128);
    for (untraced, traced) in rounds.iter().zip(&traced) {
        let same = untraced.digest() == traced.digest();
        mismatched += u64::from(!same);
        t.failed += gate::batch_failures(untraced, SWEEP_ROUND, true)
            + gate::batch_failures(traced, SWEEP_ROUND, same);
        t.attempted += 2 * SWEEP_ROUND;
        trials += traced.trials;
        steps += traced.metric_sum;
    }
    let steps = steps as u64;
    t.details.push(format!(
        "sweep-fig2: {} rounds of {SWEEP_ROUND} trials untraced, then the same rounds with \
         Runner::run timed; traced digests equal untraced in {} of {} rounds",
        rounds.len(),
        rounds.len() as u64 - mismatched,
        rounds.len()
    ));
    let trial_snap = trial_ns.snapshot();
    t.hist("sim.trial_ns", trial_snap.clone());
    t.count("sim.trials", trials);
    t.count("sim.steps", steps);
    t.set(
        "trace_overhead.sweep-fig2",
        wall_traced / wall_untraced,
        format!("traced {wall_traced:.3} s / untraced {wall_untraced:.3} s"),
    );
    let pct = |p| stats::histogram_percentile(&trial_snap, p).expect("trials ran");
    t.set("sim.trial_ns_p50", pct(50), format!("n={trials}"));
    t.set(
        "sim.trial_ns_p99",
        pct(stats::tail_percentile(trials)),
        format!("n={trials}"),
    );
    t.set(
        "sim.steps_per_trial",
        steps as f64 / trials as f64,
        format!("{steps} steps"),
    );
    let busy = trial_snap.sum as f64 / 1e9;
    t.set(
        "sim.worker_idle_share",
        1.0 - busy / (THREADS as f64 * wall_traced),
        format!("{busy:.3} s in Runner::run over {THREADS} jobs x {wall_traced:.3} s"),
    );

    let (mut one, mut both) = (0.0, 0.0);
    for i in 0..SPEEDUP_PAIRS {
        let root = round_root(seed, rounds.len() as u64 + i);
        one += timed(|| sweep_round(&p, root, 1, &scratch)).1;
        both += timed(|| sweep_round(&p, root, THREADS, &scratch)).1;
    }
    t.set(
        "sim.jobs_speedup",
        one / both,
        format!("{SPEEDUP_PAIRS} rounds at 1 job {one:.3} s vs {THREADS} jobs {both:.3} s"),
    );

    let (counted, allocs) =
        alloc_count::counted(|| sweep_round(&p, round_root(seed, 0), THREADS, &scratch));
    t.set(
        "sim.allocs_per_step",
        allocs as f64 / counted.metric_sum as f64,
        format!(
            "{allocs} allocations over {} steps of one TrialSweep round",
            counted.metric_sum
        ),
    );

    let root = round_root(seed, 0);
    let mut rec = Recording::new();
    for i in 0..RECORD_TRIALS {
        let trial_seed = SplitMix64::jump(root, i).next_u64();
        let adversary: BoxedAdversary<NUnbounded> = Box::new(RandomScheduler::new(trial_seed));
        rec.record(&p, &THREE_INPUTS, trial_seed, adversary);
    }
    let rs = rec.steps();
    t.count("sim.recorded_steps", rs);
    let crashed = vec![false; p.processes()];
    let pick_pass = |check: bool| {
        let mut views = rec.views.iter();
        let mut wrong = 0u64;
        for &(trial_seed, steps) in &rec.units {
            let mut adversary: BoxedAdversary<NUnbounded> =
                Box::new(RandomScheduler::new(trial_seed));
            for v in views.by_ref().take(steps as usize) {
                let pid = adversary.pick(&View {
                    protocol: &p,
                    states: &v.states,
                    regs: &v.regs,
                    steps: &v.steps,
                    crashed: &crashed,
                    total_steps: v.total,
                });
                if check {
                    wrong += u64::from(pid != v.pick);
                }
                black_box(pid);
            }
        }
        wrong
    };
    t.failed += pick_pass(true);
    let pick = replay_ns(rs, || {
        pick_pass(false);
    });
    let choose = rec.choose_ns(&p);
    let transit = rec.transit_ns(&p);
    let sample = rec.sample_ns();
    let mem = rec.mem_op_ns(&p);
    t.set(
        "sim.pick_ns",
        pick,
        format!("{rs} RandomScheduler picks over recorded Views of {RECORD_TRIALS} trials"),
    );
    t.set("core.choose_ns.fig2", choose, format!("{rs} calls"));
    t.set(
        "core.transit_ns.fig2",
        transit,
        format!("{rs} calls, PhaseScan read phase included"),
    );
    t.set(
        "registers.mem_op_ns",
        mem,
        format!("{rs} SharedMemory read/write calls"),
    );
    let kernel = pick + choose + transit + 2.0 * sample + mem;
    let per_step = trial_snap.sum as f64 / steps as f64;
    t.set(
        "sim.runner_self_ns",
        per_step - kernel,
        format!(
            "{per_step:.1} ns of Runner::run per step less {kernel:.1} ns of replayed kernel calls"
        ),
    );
    KernelShare {
        sample_ns: sample,
        samples: rec.samples.len() as u64,
        results: rec.results,
    }
}

/// Median `total_ns` of `span` under each unit's root span.
fn span_median(trees: &[SpanTree], prefix: &str, span: &str) -> f64 {
    let mut v: Vec<f64> = trees
        .iter()
        .enumerate()
        .map(|(i, tree)| {
            tree.get(&format!("{prefix}.unit.{i}/{span}"))
                .map_or(0.0, |s| s.total_ns as f64)
        })
        .collect();
    stats::median(&mut v)
}

/// Untraced then traced units of an exact workload. Returns the untraced
/// and traced unit times, the per-unit span trees and the traced outputs.
fn unit_pair<T>(
    t: &mut Trace,
    name: &str,
    mut unit: impl FnMut(&SpanTimer) -> T,
) -> (Vec<f64>, Vec<f64>, Vec<SpanTree>, Vec<T>) {
    let off = SpanTimer::disabled();
    let (mut untraced_ns, mut outs) = (Vec::new(), Vec::new());
    closed_loop(
        phase_seconds(&t.args),
        2,
        |_| unit(&off),
        |out, secs| {
            untraced_ns.push(secs * 1e9);
            outs.push(out);
        },
    );
    let mut traced_ns = Vec::new();
    let mut trees = Vec::new();
    for i in 0..untraced_ns.len() {
        let timer = SpanTimer::monotonic();
        let started = Instant::now();
        {
            let _span = timer.enter(&format!("{name}.unit.{i}"));
            outs.push(unit(&timer));
        }
        traced_ns.push(elapsed_ns(started) as f64);
        let tree = timer.finish();
        t.spans(&tree);
        trees.push(tree);
    }
    (untraced_ns, traced_ns, trees, outs)
}

fn overhead(t: &mut Trace, metric: &'static str, untraced: &[f64], traced: &[f64]) {
    let (mut u, mut v) = (untraced.to_vec(), traced.to_vec());
    let (u, v) = (stats::median(&mut u), stats::median(&mut v));
    t.set(
        metric,
        v / u,
        format!(
            "median traced unit {:.1} ms / untraced {:.1} ms, {} units each",
            v / 1e6,
            u / 1e6,
            untraced.len()
        ),
    );
}

fn exact_section(t: &mut Trace) {
    let p = ThreeBounded::new();
    let (untraced, traced, trees, runs) =
        unit_pair(t, "exact-fig3", |timer| exact_unit(&p, THREADS, timer));
    for run in &runs {
        t.failed += gate::exact_failures(&run.output);
    }
    t.attempted += runs.len() as u64;
    overhead(t, "trace_overhead.exact-fig3", &untraced, &traced);
    let n = trees.len();
    for (metric, span) in [
        ("mc.explore_ns", "mc.explore"),
        ("mc.build_ns", "mc.build"),
        ("mc.solve_ns", "mc.solve"),
    ] {
        t.set(
            metric,
            span_median(&trees, "exact-fig3", span),
            format!("median of {n} traced analyses"),
        );
    }

    let mdp = fig3_model(&p);
    let (mut one, mut both) = (0.0, 0.0);
    for _ in 0..SPEEDUP_PAIRS {
        let (curve, s) = timed(|| fig3_survival(&mdp, 1));
        one += s;
        let (curve2, s) = timed(|| fig3_survival(&mdp, THREADS));
        both += s;
        for c in [curve, curve2] {
            t.failed += gate::exact_failures(&ExactOutput {
                curve: c,
                ..runs[0].output.clone()
            });
        }
    }
    t.set(
        "mc.solve_speedup",
        one / both,
        format!("{SPEEDUP_PAIRS} solves at 1 job {one:.3} s vs {THREADS} jobs {both:.3} s"),
    );
    let last = runs.last().expect("at least one analysis");
    t.set(
        "mc.classes_explored",
        last.explore.classes as f64,
        "classes of the depth-30 check",
    );
    t.set(
        "mc.classes_solved",
        last.output.classes as f64,
        "classes of the depth-18 model",
    );
    t.set(
        "mc.transitions",
        last.solve.transitions as f64,
        "probabilistic branches of the depth-18 model",
    );
    t.set(
        "mc.dedup_ratio",
        last.explore.dedup_hits as f64 / last.encodings as f64,
        format!(
            "{} dedup hits of {} successor encodings",
            last.explore.dedup_hits, last.encodings
        ),
    );
    t.details.push(format!(
        "exact-fig3: {} analyses untraced, then {} traced with one span per engine phase",
        untraced.len(),
        traced.len()
    ));
}

fn prove_section(t: &mut Trace) {
    let p = kvalued8();
    let (untraced, traced, trees, runs) =
        unit_pair(t, "prove-kvalued8", |timer| prove_unit(&p, timer));
    for run in &runs {
        t.failed += gate::prove_failures(&run.report, &run.check, gate::KVALUED8_CONFIGS);
    }
    t.attempted += runs.len() as u64;
    overhead(t, "trace_overhead.prove-kvalued8", &untraced, &traced);
    let n = trees.len();
    for (metric, span) in [
        ("audit.prove_ns", "audit.prove"),
        ("audit.cert_render_ns", "audit.cert_render"),
        ("audit.check_ns", "audit.check"),
    ] {
        t.set(
            metric,
            span_median(&trees, "prove-kvalued8", span),
            format!("median of {n} traced proofs"),
        );
    }
    let last = runs.last().expect("at least one proof");
    t.set(
        "audit.configs",
        last.report.configs as f64,
        "reachable configurations",
    );
    t.set("audit.edges", last.report.edges as f64, "transition edges");
    t.set(
        "audit.cert_bytes",
        last.cert_bytes as f64,
        "bytes of the rendered certificate",
    );
    t.details.push(format!(
        "prove-kvalued8: {} proofs untraced, then {} traced with one span per phase",
        untraced.len(),
        traced.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_metrics_match_the_benchmark_manifest() {
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(crate::report::tests::manifest_metrics("per_layer"), ours);
    }

    #[test]
    fn the_replica_reproduces_the_engine_digest() {
        let p = TwoProcessor::new();
        let root = round_root(3, 0);
        let engine = serve_round(&p, root, THREADS);
        let replica = replica_round(&p, root, 0, true);
        assert_eq!(engine.stats.digest(), replica.stats.digest());
        assert_eq!(replica.admits, SERVE_ROUND);
        assert_eq!(replica.latencies.len() as u64, SERVE_ROUND);
        assert_eq!(replica.compute.count(), SERVE_ROUND);
    }
}
