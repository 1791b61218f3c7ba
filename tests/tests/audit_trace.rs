//! Tier-1: the happens-before trace auditor verifies captured event
//! streams are serializations of atomic register operations, and flags
//! tampered streams — both through the library API and `cil replay --audit`.

use cil_audit::TraceAuditor;
use cil_core::two::TwoProcessor;
use cil_obs::{MemorySink, OpKind, RunEvent};
use cil_sim::{RandomScheduler, Runner, Val};

fn captured_events(seed: u64) -> Vec<RunEvent> {
    let p = TwoProcessor::new();
    let mut sink = MemorySink::new();
    Runner::new(&p, &[Val::A, Val::B], RandomScheduler::new(seed))
        .seed(seed)
        .events(&mut sink)
        .run();
    sink.events
}

/// Every genuine capture passes: reads always return the serialized
/// contents, access sets hold, decisions agree and are final.
#[test]
fn genuine_captures_pass_the_happens_before_audit() {
    let auditor = TraceAuditor::for_protocol(&TwoProcessor::new());
    for seed in 0..50 {
        let events = captured_events(seed);
        let report = auditor.audit(&events);
        assert!(report.ok(), "seed {seed}:\n{report}");
        assert!(report.steps > 0);
        // Every read in a valid serialization is clean.
        let reads = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    RunEvent::Step {
                        op: OpKind::Read,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(report.clean_reads, reads, "seed {seed}");
    }
}

/// Vector clocks witness happens-before: a processor's own component
/// counts its steps, and a read of another's write joins that writer's
/// clock entry (making it nonzero).
#[test]
fn vector_clocks_count_steps_and_join_on_reads() {
    let auditor = TraceAuditor::for_protocol(&TwoProcessor::new());
    let events = captured_events(7);
    let report = auditor.audit(&events);
    assert!(report.ok(), "{report}");
    for pid in 0..2 {
        let own_steps = events
            .iter()
            .filter(|e| matches!(e, RunEvent::Step { pid: p, .. } if *p == pid))
            .count() as u64;
        assert_eq!(report.clocks[pid][pid], own_steps, "P{pid}\n{report}");
    }
    // Both processors decided, so each must have observed the other's
    // initial write: the cross components cannot both be zero.
    assert!(
        report.clocks[0][1] > 0 || report.clocks[1][0] > 0,
        "no communication observed:\n{report}"
    );
}

/// Tampering with a read value is detected as a phantom or stale read.
#[test]
fn tampered_read_value_is_flagged() {
    let auditor = TraceAuditor::for_protocol(&TwoProcessor::new());
    let mut events = captured_events(3);
    let read_at = events
        .iter()
        .position(|e| {
            matches!(
                e,
                RunEvent::Step {
                    op: OpKind::Read,
                    ..
                }
            )
        })
        .expect("capture contains a read");
    if let RunEvent::Step { value, .. } = &mut events[read_at] {
        *value = "Some(Val(41))".to_string(); // never written by anyone
    }
    let report = auditor.audit(&events);
    assert!(!report.ok());
    assert!(
        report.anomalies.iter().any(|a| a.kind == "phantom-read"),
        "{report}"
    );
}

/// A read returning an *older* value of the register is a stale read —
/// the stream is no longer a serialization of an atomic register.
#[test]
fn stale_read_is_distinguished_from_phantom() {
    let auditor = TraceAuditor::for_protocol(&TwoProcessor::new());
    // Hand-built stream: P0 writes a then b; P1 reads the overwritten a.
    let events = vec![
        RunEvent::Step {
            index: 0,
            pid: 0,
            op: OpKind::Write,
            reg: 0,
            value: "Some(Val(0))".into(),
        },
        RunEvent::Step {
            index: 1,
            pid: 0,
            op: OpKind::Write,
            reg: 0,
            value: "Some(Val(1))".into(),
        },
        RunEvent::Step {
            index: 2,
            pid: 1,
            op: OpKind::Read,
            reg: 0,
            value: "Some(Val(0))".into(),
        },
    ];
    let report = auditor.audit(&events);
    assert_eq!(
        report.anomalies.iter().map(|a| a.kind).collect::<Vec<_>>(),
        vec!["stale-read"],
        "{report}"
    );
}

/// Access-set anomalies: a write by a non-owner and a read outside the
/// declared reader set (TwoProcessor registers are 1W1R).
#[test]
fn unauthorized_operations_are_flagged() {
    let auditor = TraceAuditor::for_protocol(&TwoProcessor::new());
    let events = vec![
        RunEvent::Step {
            index: 0,
            pid: 1,
            op: OpKind::Write,
            reg: 0,
            value: "Some(Val(0))".into(),
        },
        RunEvent::Step {
            index: 1,
            pid: 0,
            op: OpKind::Read,
            reg: 0,
            value: "Some(Val(0))".into(),
        },
    ];
    let report = auditor.audit(&events);
    let kinds: Vec<_> = report.anomalies.iter().map(|a| a.kind).collect();
    assert!(kinds.contains(&"unauthorized-write"), "{report}");
    assert!(kinds.contains(&"unauthorized-read"), "{report}");
}

/// Decision anomalies: contradicting an earlier decision, stepping after
/// deciding, and cross-processor disagreement.
#[test]
fn decision_anomalies_are_flagged() {
    let auditor = TraceAuditor::for_protocol(&TwoProcessor::new());
    let flip = vec![
        RunEvent::Decision {
            index: 0,
            pid: 0,
            value: 0,
        },
        RunEvent::Decision {
            index: 1,
            pid: 0,
            value: 1,
        },
    ];
    let report = auditor.audit(&flip);
    assert!(
        report.anomalies.iter().any(|a| a.kind == "decision-change"),
        "{report}"
    );

    let step_after = vec![
        RunEvent::Decision {
            index: 0,
            pid: 0,
            value: 0,
        },
        RunEvent::Step {
            index: 1,
            pid: 0,
            op: OpKind::Write,
            reg: 0,
            value: "Some(Val(0))".into(),
        },
    ];
    let report = auditor.audit(&step_after);
    assert!(
        report
            .anomalies
            .iter()
            .any(|a| a.kind == "step-after-decision"),
        "{report}"
    );

    let disagree = vec![
        RunEvent::Decision {
            index: 0,
            pid: 0,
            value: 0,
        },
        RunEvent::Decision {
            index: 1,
            pid: 1,
            value: 1,
        },
    ];
    let report = auditor.audit(&disagree);
    assert!(
        report.anomalies.iter().any(|a| a.kind == "decision-change"),
        "{report}"
    );
}

/// JSONL round trip: a sink-serialized stream parses and audits clean.
#[test]
fn jsonl_captures_audit_clean() {
    let text = captured_events(11)
        .iter()
        .map(RunEvent::to_json)
        .collect::<Vec<_>>()
        .join("\n");
    let auditor = TraceAuditor::for_protocol(&TwoProcessor::new());
    let events: Vec<RunEvent> = text
        .lines()
        .map(|line| RunEvent::from_json(line).unwrap())
        .collect();
    let report = auditor.audit(&events);
    assert!(report.ok(), "{report}");
    assert!(RunEvent::from_json("not json").is_err());
}

/// End-to-end through the CLI: `cil run --trace-json` then
/// `cil replay --audit` passes on the genuine capture and fails with the
/// audit exit code on a tampered one.
#[test]
fn cli_replay_audit_end_to_end() {
    use cil_cli::CliFailure;
    let dir = std::env::temp_dir();
    let path = dir.join(format!("cil-audit-e2e-{}.jsonl", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();

    let out = cil_cli::dispatch(
        [
            "run",
            "--protocol",
            "two",
            "--inputs",
            "a,b",
            "--seed",
            "3",
            "--trace-json",
            &path_str,
        ]
        .map(String::from),
    )
    .unwrap();
    assert!(out.contains("JSONL records"), "{out}");

    let ok =
        cil_cli::dispatch_full(["replay".to_string(), path_str.clone(), "--audit".into()]).unwrap();
    assert!(ok.contains("byte-for-byte"), "{ok}");
    assert!(
        ok.contains("serializable as atomic register operations"),
        "{ok}"
    );

    // Tamper: rewrite the first read's value to one never written.
    let text = std::fs::read_to_string(&path).unwrap();
    let tampered: Vec<String> = text
        .lines()
        .map(|l| {
            if l.contains("\"op\":\"read\"") && l.contains("Some(Val(") {
                l.replace("Some(Val(0))", "Some(Val(9))")
                    .replace("Some(Val(1))", "Some(Val(9))")
            } else {
                l.to_string()
            }
        })
        .collect();
    std::fs::write(&path, tampered.join("\n")).unwrap();

    let err =
        cil_cli::dispatch_full(["replay".to_string(), path_str, "--audit".into()]).unwrap_err();
    assert!(matches!(err, CliFailure::Audit(_)), "{err:?}");
    assert_eq!(err.exit_code(), 1);
    assert!(
        err.message().contains("phantom-read") || err.message().contains("stale-read"),
        "{}",
        err.message()
    );
    let _ = std::fs::remove_file(&path);
}
