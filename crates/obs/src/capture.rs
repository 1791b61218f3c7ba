//! The `--trace-json` capture format: one meta record, then one
//! [`RunEvent`] per line.
//!
//! A capture is the deterministic record of one run — the simulator's
//! (`cil run`) or a controlled native one (`cil conc stress`/`shrink`).
//! The meta record names the protocol, its inputs, the coin seed and the
//! engine that ran it with its knobs; the events carry the schedule, every
//! coin flip and every decision. That is enough to re-execute the run and
//! compare the regenerated events with the captured ones (`cil replay`),
//! and to tabulate it offline (`cil report`).
//!
//! Every line is written by [`Capture::render`] and read by
//! [`Capture::parse`], which accepts only the writer's canonical bytes, so
//! two captures hold equal events exactly when their event lines are
//! byte-identical.

use crate::event::RunEvent;
use crate::json::{parse_value, Node, ObjWriter};

/// The engine a capture's run executed on, with the knobs its replay needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureMode {
    /// The serialized simulator (`cil run`).
    Sim {
        /// The run's step limit.
        max_steps: u64,
        /// The `--adversary` the run was captured under.
        adversary: String,
    },
    /// Controlled native threads (`cil conc stress`, `cil conc shrink`).
    Conc {
        /// Global step budget.
        budget: u64,
        /// The stress strategy's label.
        strategy: String,
        /// The stress trial the run re-derives.
        trial: u64,
        /// The stress batch's root seed.
        root_seed: u64,
    },
}

/// A `--trace-json` capture: the meta record's fields, then the events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capture {
    /// The protocol spec (`<P>`), as given on the command line.
    pub protocol: String,
    /// The inputs, as given on the command line.
    pub inputs: String,
    /// The seed of the processors' coin flips.
    pub seed: u64,
    /// The engine and its knobs.
    pub mode: CaptureMode,
    /// The event stream, in emission order.
    pub events: Vec<RunEvent>,
}

impl Capture {
    /// Renders the capture: the meta line, then one line per event, every
    /// line ending in `\n`.
    pub fn render(&self) -> String {
        let mut meta = ObjWriter::new().str("type", "meta");
        if let CaptureMode::Conc { .. } = self.mode {
            meta = meta.str("mode", "conc");
        }
        meta = meta
            .str("protocol", &self.protocol)
            .str("inputs", &self.inputs)
            .num("seed", self.seed);
        meta = match &self.mode {
            CaptureMode::Sim {
                max_steps,
                adversary,
            } => meta
                .num("max_steps", *max_steps)
                .str("adversary", adversary),
            CaptureMode::Conc {
                budget,
                strategy,
                trial,
                root_seed,
            } => meta
                .num("budget", *budget)
                .str("strategy", strategy)
                .num("trial", *trial)
                .num("root_seed", *root_seed),
        };
        let events = self.events.iter().map(RunEvent::to_json);
        std::iter::once(meta.finish())
            .chain(events)
            .map(|line| line + "\n")
            .collect()
    }

    /// Parses a capture. `Ok(None)` means the text does not start with a
    /// meta record, so it is some other artifact.
    ///
    /// # Errors
    ///
    /// Returns a message for a meta record missing a field, and for the
    /// first event line that does not parse or is not in the writer's
    /// canonical form (a blank line, text after the closing brace, a line
    /// cut short).
    pub fn parse(text: &str) -> Result<Option<Capture>, String> {
        let mut lines = text.lines();
        let meta = match lines.next().map(parse_value) {
            Some(Ok(Node::Obj(meta)))
                if meta.get("type").and_then(Node::as_str) == Some("meta") =>
            {
                meta
            }
            _ => return Ok(None),
        };
        let str_of = |key: &str| {
            meta.get(key)
                .and_then(Node::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("meta record missing '{key}'"))
        };
        let num_of = |key: &str| {
            meta.get(key)
                .and_then(Node::as_num)
                .ok_or_else(|| format!("meta record missing '{key}'"))
        };
        let mode = match meta.get("mode").map(Node::as_str) {
            None => CaptureMode::Sim {
                max_steps: num_of("max_steps")?,
                adversary: str_of("adversary")?,
            },
            Some(Some("conc")) => CaptureMode::Conc {
                budget: num_of("budget")?,
                strategy: str_of("strategy")?,
                trial: num_of("trial")?,
                root_seed: num_of("root_seed")?,
            },
            Some(_) => return Err("meta record has an unknown 'mode'".into()),
        };
        let events = lines
            .zip(2..)
            .map(|(line, n)| match RunEvent::from_json(line) {
                Ok(event) if event.to_json() == line => Ok(event),
                Ok(_) => Err(format!("bad event on line {n}: not in canonical form")),
                Err(e) => Err(format!("bad event on line {n}: {e}")),
            })
            .collect::<Result<_, _>>()?;
        Ok(Some(Capture {
            protocol: str_of("protocol")?,
            inputs: str_of("inputs")?,
            seed: num_of("seed")?,
            mode,
            events,
        }))
    }

    /// Whether the capture is whole: its events open a span and end with
    /// the `span_end` that closes it. Every writer closes the run's span
    /// last, so a capture cut short at a line boundary — where every
    /// remaining line still parses — fails this.
    pub fn is_complete(&self) -> bool {
        let mut depth = 0i64;
        let closed = self.events.iter().position(|event| {
            depth += match event {
                RunEvent::SpanBegin { .. } => 1,
                RunEvent::SpanEnd { .. } => -1,
                _ => 0,
            };
            depth <= 0
        });
        matches!(self.events.first(), Some(RunEvent::SpanBegin { .. }))
            && closed == self.events.len().checked_sub(1)
    }

    /// The captured schedule: the pid of each step event, in order.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first step whose processor a protocol
    /// of `processes` processors lacks (one-based, as `cil` names them).
    pub fn schedule(&self, processes: usize) -> Result<Vec<usize>, String> {
        self.events
            .iter()
            .filter_map(|event| match event {
                RunEvent::Step { index, pid, .. } if *pid >= processes => Some(Err(format!(
                    "step {index} names processor {} but the protocol has {processes}",
                    pid + 1
                ))),
                RunEvent::Step { pid, .. } => Some(Ok(*pid)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpKind;

    fn sample(mode: CaptureMode) -> Capture {
        Capture {
            protocol: "two".into(),
            inputs: "a,b".into(),
            seed: 7,
            mode,
            events: vec![
                RunEvent::SpanBegin {
                    name: "run".into(),
                    detail: "TwoProcessor".into(),
                },
                RunEvent::Step {
                    index: 0,
                    pid: 1,
                    op: OpKind::Write,
                    reg: 1,
                    value: "Some(Val(1))".into(),
                },
                RunEvent::SpanEnd {
                    name: "run".into(),
                    detail: "Done".into(),
                },
            ],
        }
    }

    fn modes() -> [CaptureMode; 2] {
        [
            CaptureMode::Sim {
                max_steps: 100,
                adversary: "(1,2)".into(),
            },
            CaptureMode::Conc {
                budget: 64,
                strategy: "random".into(),
                trial: 3,
                root_seed: 1,
            },
        ]
    }

    #[test]
    fn captures_round_trip_through_render_and_parse() {
        for mode in modes() {
            let capture = sample(mode);
            let text = capture.render();
            assert_eq!(text.lines().count(), 1 + capture.events.len());
            assert!(text.ends_with("}\n"));
            assert_eq!(Capture::parse(&text).unwrap(), Some(capture.clone()));
            assert!(capture.is_complete());
            assert_eq!(capture.schedule(2).unwrap(), vec![1]);
        }
        let conc = sample(modes()[1].clone()).render();
        assert!(conc.starts_with(r#"{"type":"meta","mode":"conc","protocol":"two","#));
    }

    #[test]
    fn other_artifacts_are_not_captures() {
        assert_eq!(Capture::parse(""), Ok(None));
        assert_eq!(Capture::parse("{\"counters\":{}}"), Ok(None));
        assert_eq!(Capture::parse("# TYPE x counter"), Ok(None));
    }

    #[test]
    fn damaged_captures_are_rejected_or_incomplete() {
        let text = sample(modes()[0].clone()).render();
        let meta_end = text.find('\n').unwrap() + 1;
        // Every cut at a line boundary parses but is incomplete; every
        // cut inside a line fails to parse.
        for cut in meta_end..text.len() - 1 {
            let cut_text = &text[..cut];
            match Capture::parse(cut_text) {
                Ok(Some(capture)) => assert!(!capture.is_complete(), "{cut_text}"),
                Ok(None) => panic!("the meta record is intact: {cut_text}"),
                Err(e) => assert!(e.contains("bad event on line"), "{e}"),
            }
        }
        let spaced = text.replacen("\"index\":0", "\"index\": 0", 1);
        assert!(Capture::parse(&spaced).unwrap_err().contains("canonical"));
        let blank = text.replacen('\n', "\n\n", 1);
        assert!(Capture::parse(&blank).is_err());
        let unknown = text.replacen("\"max_steps\"", "\"mode\":\"x\",\"max_steps\"", 1);
        assert!(Capture::parse(&unknown).is_err());
        let short = text.replacen(",\"seed\":7", "", 1);
        assert_eq!(
            Capture::parse(&short),
            Err("meta record missing 'seed'".into())
        );
    }

    #[test]
    fn nested_spans_close_before_the_first() {
        let mut capture = sample(modes()[0].clone());
        let inner = [
            RunEvent::SpanBegin {
                name: "inner".into(),
                detail: String::new(),
            },
            RunEvent::SpanEnd {
                name: "inner".into(),
                detail: String::new(),
            },
        ];
        capture.events.splice(1..1, inner.clone());
        assert!(capture.is_complete());
        // Dropping the outer span_end leaves the inner one last.
        capture.events.pop();
        assert!(!capture.is_complete());
        capture.events.splice(0..0, inner);
        assert!(!capture.is_complete(), "events after the first span closed");
    }

    #[test]
    fn schedules_name_missing_processors_one_based() {
        let capture = sample(modes()[1].clone());
        assert_eq!(
            capture.schedule(1),
            Err("step 0 names processor 2 but the protocol has 1".into())
        );
    }
}
