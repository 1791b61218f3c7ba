//! Fail-stop fault injection.
//!
//! The paper's fault model: "we account to fail/stop type errors of up to
//! all but one of the system processors" — no Byzantine behaviour. A crash
//! is modelled exactly as the adversary never scheduling the processor
//! again; [`CrashPlan`] lets experiments pin crashes to adversarially chosen
//! global step numbers (e.g. "right after its initial write").

use std::collections::BTreeMap;

/// A schedule of crashes: processor → global step at which it crashes.
///
/// A processor crashed at step `t` takes no step at time `t` or later.
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    by_step: BTreeMap<u64, Vec<usize>>,
    count: usize,
}

impl CrashPlan {
    /// No crashes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a crash of `pid` at global step `step`.
    ///
    /// A processor can die only once: re-planning an already-planned pid
    /// keeps the *earliest* step and does not grow the plan, so [`len`]
    /// counts distinct crashed processors and [`due`] never reports the
    /// same pid twice.
    ///
    /// [`len`]: CrashPlan::len
    /// [`due`]: CrashPlan::due
    pub fn crash(mut self, pid: usize, step: u64) -> Self {
        let existing = self
            .by_step
            .iter()
            .find(|(_, pids)| pids.contains(&pid))
            .map(|(&s, _)| s);
        match existing {
            Some(s) if s <= step => return self,
            Some(s) => {
                let pids = self.by_step.get_mut(&s).expect("entry just found");
                pids.retain(|&p| p != pid);
                if pids.is_empty() {
                    self.by_step.remove(&s);
                }
            }
            None => self.count += 1,
        }
        self.by_step.entry(step).or_default().push(pid);
        self
    }

    /// Total number of planned crashes.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Processors that crash at or before `step` and have not been reported
    /// by an earlier call (the executor calls this with increasing `step`).
    ///
    /// Reported entries leave the plan, so when nothing is due this reads
    /// only the earliest remaining step and allocates nothing.
    pub fn due(&mut self, step: u64) -> Vec<usize> {
        let mut due = Vec::new();
        while let Some(entry) = self.by_step.first_entry() {
            if *entry.key() > step {
                break;
            }
            due.extend(entry.remove());
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_has_nothing_due() {
        let mut p = CrashPlan::none();
        assert!(p.is_empty());
        assert!(p.due(1_000).is_empty());
    }

    #[test]
    fn crashes_fire_once_at_their_step() {
        let mut p = CrashPlan::none().crash(1, 5).crash(2, 5).crash(0, 9);
        assert_eq!(p.len(), 3);
        assert!(p.due(4).is_empty());
        let at5 = p.due(5);
        assert_eq!(at5, vec![1, 2]);
        assert!(p.due(8).is_empty());
        assert_eq!(p.due(100), vec![0]);
        assert!(p.due(200).is_empty());
    }

    #[test]
    fn skipped_steps_still_deliver_past_crashes() {
        let mut p = CrashPlan::none().crash(3, 2);
        assert_eq!(p.due(50), vec![3]);
    }

    #[test]
    fn duplicate_pid_and_step_is_counted_once() {
        // Regression: a duplicate `(pid, step)` used to bump `count` and
        // make `due` report the pid twice at the same step.
        let mut p = CrashPlan::none().crash(1, 5).crash(1, 5);
        assert_eq!(p.len(), 1);
        assert_eq!(p.due(5), vec![1]);
        assert!(p.due(100).is_empty());
    }

    #[test]
    fn replanning_a_pid_keeps_the_earliest_step() {
        // Regression: the same pid planned at two steps used to be
        // delivered twice — a second crash for an already-dead processor.
        let mut early_then_late = CrashPlan::none().crash(2, 3).crash(2, 9);
        assert_eq!(early_then_late.len(), 1);
        assert_eq!(early_then_late.due(3), vec![2]);
        assert!(early_then_late.due(9).is_empty());
        assert!(early_then_late.due(1_000).is_empty());

        let mut late_then_early = CrashPlan::none().crash(2, 9).crash(2, 3);
        assert_eq!(late_then_early.len(), 1);
        assert_eq!(late_then_early.due(3), vec![2]);
        assert!(late_then_early.due(9).is_empty());
    }

    #[test]
    fn len_counts_distinct_processors() {
        let p = CrashPlan::none()
            .crash(0, 1)
            .crash(1, 1)
            .crash(0, 7)
            .crash(1, 1)
            .crash(2, 4);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }
}
