//! Delta-debugging of failing schedules (Zeller–Hildebrandt `ddmin`).
//!
//! A failing controlled run is identified by its schedule — the list of
//! preemption points (which thread ran at each step). [`ddmin_schedule`]
//! reduces that list to a *1-minimal* failing subsequence: removing any
//! single remaining entry makes the failure disappear. Candidates are
//! re-executed with [`crate::ReplaySchedule::best_effort`], whose
//! deterministic fallback keeps truncated schedules runnable, so the
//! predicate is a pure function of the candidate.
//! [`ControlledRun::shrink_with_codec`] wires the two together for a
//! native run.

use crate::run::{ConcOutcome, ControlledRun};
use crate::strategy::ReplaySchedule;
use cil_sim::{Protocol, WordCodec};

/// A failing schedule reduced on native threads by
/// [`ControlledRun::shrink_with_codec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeShrink {
    /// The 1-minimal failing subsequence of the schedule.
    pub minimal: Vec<usize>,
    /// A fresh best-effort replay of `minimal`, with its events captured.
    pub repro: ConcOutcome,
    /// Whether `repro` still fails — a determinism check on the shrink.
    pub revalidated: bool,
}

impl<P> ControlledRun<'_, P>
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
{
    /// Best-effort-replays `schedule` with this run's seed and budget and,
    /// when the run `fails`, ddmin-shrinks the schedule for as long as the
    /// candidate runs still fail, then replays the 1-minimal schedule once
    /// more with its events captured.
    ///
    /// Returns `None` when the schedule alone does not reproduce the
    /// failure — a counterexample that needs forced coin outcomes.
    pub fn shrink_with_codec<C: WordCodec<P::Reg>>(
        &self,
        codec: &C,
        schedule: &[usize],
        fails: impl Fn(&ConcOutcome) -> bool,
    ) -> Option<NativeShrink> {
        let replay = |candidate: &[usize], capture: bool| {
            let strategy = Box::new(ReplaySchedule::best_effort(candidate.to_vec()));
            ControlledRun { capture, ..*self }.run_with_codec(codec, strategy)
        };
        let replay_fails = |candidate: &[usize]| fails(&replay(candidate, false));
        if !replay_fails(schedule) {
            return None;
        }
        let minimal = ddmin_schedule(schedule, replay_fails);
        let repro = replay(&minimal, true);
        Some(NativeShrink {
            revalidated: fails(&repro),
            minimal,
            repro,
        })
    }
}

/// Reduces `schedule` to a 1-minimal subsequence for which `still_fails`
/// holds, by complement-removal delta debugging.
///
/// `still_fails` must hold for `schedule` itself (checked). The result is
/// an order-preserving subsequence of `schedule`; the number of predicate
/// evaluations is O(n²) worst case, O(n·log n) typical.
///
/// # Panics
///
/// Panics if `still_fails(schedule)` is false — shrinking needs a failing
/// input to start from.
pub fn ddmin_schedule<F>(schedule: &[usize], mut still_fails: F) -> Vec<usize>
where
    F: FnMut(&[usize]) -> bool,
{
    assert!(
        still_fails(schedule),
        "ddmin needs a failing schedule to start from"
    );
    if still_fails(&[]) {
        return Vec::new();
    }
    let mut current = schedule.to_vec();
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<usize> = current[..start]
                .iter()
                .chain(&current[end..])
                .copied()
                .collect();
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk <= 1 {
                // Every single-entry removal passes: 1-minimal.
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinks_to_the_failing_core() {
        // Failure = "contains at least three 1s".
        let schedule = vec![0, 1, 0, 1, 0, 0, 1, 1, 0];
        let count = |s: &[usize]| s.iter().filter(|&&p| p == 1).count();
        let min = ddmin_schedule(&schedule, |s| count(s) >= 3);
        assert_eq!(min, vec![1, 1, 1]);
    }

    #[test]
    fn result_is_one_minimal() {
        // Failure = "contains the subsequence 1,0,1".
        let has = |s: &[usize]| {
            let mut want = [1usize, 0, 1].iter();
            let mut next = want.next();
            for &p in s {
                if Some(&p) == next {
                    next = want.next();
                }
            }
            next.is_none()
        };
        let schedule = vec![0, 0, 1, 1, 0, 0, 1, 0];
        let min = ddmin_schedule(&schedule, has);
        assert!(has(&min));
        for i in 0..min.len() {
            let mut smaller = min.clone();
            smaller.remove(i);
            assert!(!has(&smaller), "removing entry {i} should break failure");
        }
    }

    #[test]
    #[should_panic(expected = "failing schedule")]
    fn rejects_passing_input() {
        ddmin_schedule(&[0, 1], |_| false);
    }
}
