//! The run executor: protocol × adversary × inputs × seed → outcome.
//!
//! [`Runner`] executes the paper's step semantics exactly: the adversary
//! picks an eligible processor from its omniscient [`View`], and the
//! processor takes one [`step`] over the [`SharedMemory`] (coin flips are
//! invisible to the adversary until taken). A processor that reaches a
//! decision state "quits" — it is never scheduled again, matching the
//! paper's protocols which all end with "decide … and quit".
//!
//! The outcome judges the two safety clauses of the coordination problem
//! ([`RunOutcome::verdict`]), and the runner supports fail-stop fault
//! injection via [`CrashPlan`].

use crate::adversary::{Adversary, View};
use crate::faults::CrashPlan;
use crate::kernel::{step, Verdict};
use crate::protocol::{Protocol, Val};
use crate::rng::Xoshiro256StarStar;
use crate::trace::{Event, Trace};
use cil_obs::{EventSink, RunEvent};
use cil_registers::SharedMemory;

/// When the run loop halts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// Every non-crashed processor has decided (default).
    AllDecided,
    /// A specific processor has decided (others may keep running before it).
    PidDecided(usize),
    /// Any processor has decided.
    FirstDecision,
}

/// Why the run loop halted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// The configured [`StopWhen`] condition was met.
    Done,
    /// The step budget ran out first.
    MaxSteps,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunOutcome<P: Protocol> {
    /// Inputs the run started from.
    pub inputs: Vec<Val>,
    /// Decision of each processor (`None` = still undecided).
    pub decisions: Vec<Option<Val>>,
    /// Activations of each processor.
    pub steps: Vec<u64>,
    /// Total steps taken.
    pub total_steps: u64,
    /// Which processors were crashed.
    pub crashed: Vec<bool>,
    /// Final register contents.
    pub final_regs: Vec<P::Reg>,
    /// Final processor states.
    pub final_states: Vec<P::State>,
    /// Why the loop stopped.
    pub halt: Halt,
    /// Recorded trace, if requested.
    pub trace: Option<Trace<P::Reg>>,
}

impl<P: Protocol> RunOutcome<P> {
    /// The [`Verdict`] on the run's decisions.
    pub fn verdict(&self) -> Verdict {
        Verdict::judge(self.decisions.iter().copied(), &self.inputs, &self.steps)
    }

    /// The agreed value, if all decided processors agree (and at least one
    /// decided). `None` means no decisions at all **or** disagreement; use
    /// [`RunOutcome::consistent`] to distinguish.
    pub fn agreement(&self) -> Option<Val> {
        self.verdict().agreed
    }

    /// Consistency (paper requirement 1): no two processors decided
    /// different values.
    pub fn consistent(&self) -> bool {
        self.verdict().consistent
    }

    /// Nontriviality (paper requirement 2): every decision value is the
    /// input of some processor that was activated in the run.
    pub fn nontrivial(&self) -> bool {
        self.verdict().nontrivial
    }

    /// Whether every non-crashed processor decided.
    pub fn all_alive_decided(&self) -> bool {
        self.decisions
            .iter()
            .zip(&self.crashed)
            .all(|(d, &c)| c || d.is_some())
    }
}

/// Builder/executor for a single run. Reusable protocols: the runner borrows
/// the protocol, so sweeps construct one protocol and many runners.
pub struct Runner<'p, P: Protocol, A: Adversary<P>> {
    protocol: &'p P,
    adversary: A,
    inputs: Vec<Val>,
    seed: u64,
    max_steps: u64,
    stop: StopWhen,
    crash_plan: CrashPlan,
    record_trace: bool,
    sink: Option<&'p mut dyn EventSink>,
}

impl<'p, P: Protocol, A: Adversary<P>> Runner<'p, P, A> {
    /// Creates a runner with everything defaulted except protocol, inputs
    /// and adversary.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != protocol.processes()`.
    pub fn new(protocol: &'p P, inputs: &[Val], adversary: A) -> Self {
        assert_eq!(
            inputs.len(),
            protocol.processes(),
            "one input per processor"
        );
        Runner {
            protocol,
            adversary,
            inputs: inputs.to_vec(),
            seed: 0,
            max_steps: 1_000_000,
            stop: StopWhen::AllDecided,
            crash_plan: CrashPlan::none(),
            record_trace: false,
            sink: None,
        }
    }

    /// Sets the seed of the processors' coin flips.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the step budget (default 1,000,000).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the halt condition (default [`StopWhen::AllDecided`]).
    pub fn stop_when(mut self, stop: StopWhen) -> Self {
        self.stop = stop;
        self
    }

    /// Injects fail-stop crashes.
    pub fn crashes(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Records a full trace in the outcome.
    pub fn record_trace(mut self, yes: bool) -> Self {
        self.record_trace = yes;
        self
    }

    /// Streams structured [`RunEvent`]s (span begin/end, every step with
    /// its register operation and value, coin flips, decisions) into the
    /// given sink as the run executes. Without a sink the run loop pays
    /// one branch per step and formats nothing.
    pub fn events(mut self, sink: &'p mut dyn EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Executes the run.
    ///
    /// The stop checks read a live counter instead of the processors'
    /// states: the number of processors that are neither crashed nor
    /// decided, which a step landing in a decision state or a crash of a
    /// live processor lowers by one, next to a count of decided
    /// processors for [`StopWhen::FirstDecision`]. No check scans all n
    /// states per step.
    ///
    /// # Panics
    ///
    /// Panics if the protocol violates its declared access structure (a
    /// protocol bug), or if the adversary picks an ineligible processor (an
    /// adversary bug).
    pub fn run(mut self) -> RunOutcome<P> {
        let protocol = self.protocol;
        let n = protocol.processes();
        let mut memory =
            SharedMemory::new(protocol.registers()).expect("protocol register specs are valid");
        let mut rng = Xoshiro256StarStar::new(self.seed);
        let mut states: Vec<P::State> = (0..n)
            .map(|pid| protocol.init(pid, self.inputs[pid]))
            .collect();
        let mut steps = vec![0u64; n];
        let mut crashed = vec![false; n];
        // `live`: neither crashed nor decided; `decided`: crashed or not.
        let mut decided = states
            .iter()
            .filter(|s| protocol.decision(s).is_some())
            .count();
        let mut live = n - decided;
        let mut total: u64 = 0;
        let mut trace = self.record_trace.then(Trace::new);
        let mut sink = self.sink.take();
        if let Some(s) = sink.as_deref_mut() {
            s.emit(&RunEvent::SpanBegin {
                name: "run".into(),
                detail: protocol.name(),
            });
        }
        let halt;
        // Crashes not yet delivered: the plan is consulted only while some
        // remain, so a run without crashes never calls into it.
        let mut crashes_left = self.crash_plan.len();

        loop {
            if crashes_left > 0 {
                for pid in self.crash_plan.due(total) {
                    crashes_left -= 1;
                    if !crashed[pid] && protocol.decision(&states[pid]).is_none() {
                        live -= 1;
                    }
                    crashed[pid] = true;
                }
            }
            // Stop conditions.
            let stop_met = match self.stop {
                StopWhen::AllDecided => live == 0,
                StopWhen::PidDecided(t) => protocol.decision(&states[t]).is_some() || crashed[t],
                StopWhen::FirstDecision => decided > 0,
            };
            if stop_met {
                halt = Halt::Done;
                break;
            }
            if total >= self.max_steps {
                halt = Halt::MaxSteps;
                break;
            }
            // If nobody is eligible but the stop condition is unmet (e.g.
            // every processor crashed before any decided), the run cannot
            // proceed.
            if live == 0 {
                halt = Halt::Done;
                break;
            }

            // Adversary picks; snapshot view.
            let pid = {
                let view = View {
                    protocol,
                    states: &states,
                    regs: memory.snapshot(),
                    steps: &steps,
                    crashed: &crashed,
                    total_steps: total,
                };
                self.adversary.pick(&view)
            };
            assert!(
                !crashed[pid] && protocol.decision(&states[pid]).is_none(),
                "adversary picked ineligible processor P{pid}"
            );

            let record = step(
                protocol,
                pid,
                &mut states[pid],
                &mut memory,
                &mut rng,
                |_, _| None,
            );
            steps[pid] += 1;
            total += 1;
            if record.decision.is_some() {
                live -= 1;
                decided += 1;
            }
            if let Some(s) = sink.as_deref_mut() {
                record.events(total - 1, |e| s.emit(&e));
            }
            if let Some(t) = &mut trace {
                t.push(Event {
                    index: total - 1,
                    pid,
                    op: record.op,
                    read: record.read,
                });
            }
        }
        if let Some(s) = sink {
            s.emit(&RunEvent::SpanEnd {
                name: "run".into(),
                detail: format!("{halt:?}"),
            });
        }

        let decisions = states.iter().map(|s| protocol.decision(s)).collect();
        RunOutcome {
            inputs: self.inputs,
            decisions,
            steps,
            total_steps: total,
            crashed,
            final_regs: memory.snapshot().to_vec(),
            final_states: states,
            halt,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RandomScheduler, RoundRobin, Solo};
    use crate::protocol::{Choice, Op};
    use cil_registers::{ReaderSet, RegId, RegisterSpec};

    /// A toy protocol: each processor writes its input to its register,
    /// reads its left neighbour's register, then decides its own input.
    /// (Not a coordination protocol — just exercises the executor.)
    #[derive(Debug, Clone)]
    struct WriteReadDecide {
        n: usize,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum S {
        Start(Val),
        AfterWrite(Val),
        Done(Val),
    }

    impl Protocol for WriteReadDecide {
        type State = S;
        type Reg = Option<Val>;

        fn processes(&self) -> usize {
            self.n
        }

        fn registers(&self) -> Vec<RegisterSpec<Self::Reg>> {
            cil_registers::access::per_process_registers(self.n, None, |_| ReaderSet::All)
        }

        fn init(&self, _pid: usize, input: Val) -> S {
            S::Start(input)
        }

        fn choose(&self, pid: usize, state: &S) -> Choice<Op<Self::Reg>> {
            match state {
                S::Start(v) => Choice::det(Op::Write(RegId(pid), Some(*v))),
                S::AfterWrite(_) => Choice::det(Op::Read(RegId((pid + self.n - 1) % self.n))),
                S::Done(_) => unreachable!("decided processors are not scheduled"),
            }
        }

        fn transit(
            &self,
            _pid: usize,
            state: &S,
            _op: &Op<Self::Reg>,
            read: Option<&Self::Reg>,
        ) -> Choice<S> {
            match state {
                S::Start(v) => Choice::det(S::AfterWrite(*v)),
                S::AfterWrite(v) => {
                    assert!(read.is_some(), "second step is a read");
                    Choice::det(S::Done(*v))
                }
                S::Done(_) => unreachable!(),
            }
        }

        fn decision(&self, state: &S) -> Option<Val> {
            match state {
                S::Done(v) => Some(*v),
                _ => None,
            }
        }
    }

    #[test]
    fn all_processors_decide_under_round_robin() {
        let p = WriteReadDecide { n: 3 };
        let out = Runner::new(&p, &[Val(0), Val(1), Val(2)], RoundRobin::new()).run();
        assert_eq!(out.halt, Halt::Done);
        assert_eq!(
            out.decisions,
            vec![Some(Val(0)), Some(Val(1)), Some(Val(2))]
        );
        assert_eq!(out.steps, vec![2, 2, 2]);
        assert_eq!(out.total_steps, 6);
        assert!(out.all_alive_decided());
    }

    #[test]
    fn trace_records_every_step() {
        let p = WriteReadDecide { n: 2 };
        let out = Runner::new(&p, &[Val(0), Val(1)], RoundRobin::new())
            .record_trace(true)
            .run();
        let t = out.trace.unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.schedule(), vec![0, 1, 0, 1]);
        assert!(t.events()[0].op.is_write());
        assert_eq!(t.events()[2].read, Some(Some(Val(1))));
    }

    #[test]
    fn solo_runs_target_first() {
        let p = WriteReadDecide { n: 3 };
        let out = Runner::new(&p, &[Val(0), Val(1), Val(2)], Solo::new(2))
            .record_trace(true)
            .run();
        let sched = out.trace.unwrap().schedule();
        assert_eq!(&sched[..2], &[2, 2]);
    }

    #[test]
    fn stop_at_first_decision() {
        let p = WriteReadDecide { n: 3 };
        let out = Runner::new(&p, &[Val(0), Val(1), Val(2)], RoundRobin::new())
            .stop_when(StopWhen::FirstDecision)
            .run();
        assert_eq!(out.decisions.iter().flatten().count(), 1);
    }

    #[test]
    fn max_steps_halts_infinite_waits() {
        let p = WriteReadDecide { n: 2 };
        // Crash P1 immediately; P0 still decides (wait-freedom of the toy),
        // so force a wait by stopping on P1's decision instead.
        let out = Runner::new(&p, &[Val(0), Val(1)], RoundRobin::new())
            .crashes(CrashPlan::none().crash(1, 0))
            .stop_when(StopWhen::PidDecided(1))
            .max_steps(100)
            .run();
        // P1 crashed before deciding; stop condition treats that as done.
        assert_eq!(out.halt, Halt::Done);
        assert_eq!(out.decisions[1], None);
        assert!(out.crashed[1]);
    }

    #[test]
    fn crashed_processor_takes_no_steps() {
        let p = WriteReadDecide { n: 3 };
        let out = Runner::new(&p, &[Val(0), Val(1), Val(2)], RandomScheduler::new(1))
            .crashes(CrashPlan::none().crash(0, 0))
            .run();
        assert_eq!(out.steps[0], 0);
        assert_eq!(out.decisions[0], None);
        assert!(out.decisions[1].is_some() && out.decisions[2].is_some());
    }

    #[test]
    fn outcome_invariant_helpers() {
        let p = WriteReadDecide { n: 2 };
        let out = Runner::new(&p, &[Val(0), Val(0)], RoundRobin::new()).run();
        assert!(out.consistent());
        assert_eq!(out.agreement(), Some(Val(0)));
        assert!(out.nontrivial());

        let out2 = Runner::new(&p, &[Val(0), Val(1)], RoundRobin::new()).run();
        // The toy protocol is NOT consistent — each decides its own input.
        assert!(!out2.consistent());
        assert_eq!(out2.agreement(), None);
    }

    #[test]
    fn event_stream_mirrors_the_trace() {
        use cil_obs::{MemorySink, OpKind, RunEvent};
        let p = WriteReadDecide { n: 2 };
        let mut sink = MemorySink::new();
        let out = Runner::new(&p, &[Val(0), Val(1)], RoundRobin::new())
            .record_trace(true)
            .events(&mut sink)
            .run();
        let trace = out.trace.unwrap();
        let steps: Vec<&RunEvent> = sink
            .events
            .iter()
            .filter(|e| matches!(e, RunEvent::Step { .. }))
            .collect();
        assert_eq!(steps.len(), trace.len());
        for (event, recorded) in steps.iter().zip(trace.events()) {
            let RunEvent::Step {
                index,
                pid,
                op,
                reg,
                ..
            } = event
            else {
                unreachable!()
            };
            assert_eq!(*index, recorded.index);
            assert_eq!(*pid, recorded.pid);
            assert_eq!(*reg, recorded.op.reg().0);
            assert_eq!(*op == OpKind::Write, recorded.op.is_write());
        }
        // Spans bracket the stream; both processors decide.
        assert!(matches!(
            sink.events.first(),
            Some(RunEvent::SpanBegin { .. })
        ));
        assert!(matches!(sink.events.last(), Some(RunEvent::SpanEnd { .. })));
        let decisions = sink
            .events
            .iter()
            .filter(|e| matches!(e, RunEvent::Decision { .. }))
            .count();
        assert_eq!(decisions, 2);
        // The toy protocol is deterministic: no coin flips.
        assert!(!sink
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::CoinFlip { .. })));
    }

    #[test]
    fn event_stream_does_not_perturb_the_run() {
        let p = WriteReadDecide { n: 3 };
        let plain = Runner::new(&p, &[Val(0), Val(1), Val(2)], RandomScheduler::new(5))
            .seed(9)
            .record_trace(true)
            .run();
        let mut sink = cil_obs::MemorySink::new();
        let observed = Runner::new(&p, &[Val(0), Val(1), Val(2)], RandomScheduler::new(5))
            .seed(9)
            .record_trace(true)
            .events(&mut sink)
            .run();
        assert_eq!(plain.trace.unwrap(), observed.trace.unwrap());
        assert_eq!(plain.decisions, observed.decisions);
    }

    #[test]
    fn same_seed_reproduces_run_exactly() {
        let p = WriteReadDecide { n: 3 };
        let a = Runner::new(&p, &[Val(0), Val(1), Val(2)], RandomScheduler::new(5))
            .seed(9)
            .record_trace(true)
            .run();
        let b = Runner::new(&p, &[Val(0), Val(1), Val(2)], RandomScheduler::new(5))
            .seed(9)
            .record_trace(true)
            .run();
        assert_eq!(a.trace.unwrap().schedule(), b.trace.unwrap().schedule());
    }
}
