//! Inter-job temporal constraints — the paper's §VI future work:
//! "we plan to extend our coscheduling mechanism to support more
//! sophisticated inter-job temporal constraints."
//!
//! Besides the exact co-start the paper implements, coupled workflows want:
//!
//! * [`TemporalConstraint::CoStart`] — start simultaneously (the base
//!   mechanism: the pair is a mate pair and runs Algorithm 1);
//! * [`TemporalConstraint::StartWithin`] — a *soft* co-start: the pair
//!   should start within a window of each other. The first-ready job does
//!   not block on the rendezvous — if the mate cannot start now, the job
//!   runs and the mate follows when it can;
//! * [`TemporalConstraint::StartAfter`] — ordered execution: the successor
//!   may start no earlier than `min_delay` after the predecessor starts and
//!   should start within `max_delay` (e.g. an analysis job that must begin
//!   once the simulation has produced its first checkpoint, but soon enough
//!   to co-execute).
//!
//! Constraints run on the one coupled simulator
//! ([`crate::driver::CoupledSimulation::temporal`]) and are *monitored* as
//! well as enforced: the report grades every constraint instance, because
//! `StartWithin`/`StartAfter` upper bounds are best-effort under load (the
//! lower bound of `StartAfter` is hard — the simulator does not submit the
//! successor earlier).

use crate::driver::SimulationReport;
use crate::registry::MateRegistry;
use cosched_metrics::{JobRecord, MachineSummary};
use cosched_sim::{SimDuration, SimTime};
use cosched_workload::{JobId, MateRef, Trace};
use std::collections::{HashMap, HashSet};

/// A temporal relation between two jobs on opposite machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalConstraint {
    /// Start at exactly the same instant.
    CoStart,
    /// Start within `window` of each other (soft co-start).
    StartWithin {
        /// Maximum allowed |start(a) − start(b)|.
        window: SimDuration,
    },
    /// `b` starts within `[start(a) + min_delay, start(a) + max_delay]`.
    /// The lower bound is enforced (the successor is withheld); the upper
    /// bound is monitored.
    StartAfter {
        /// Earliest allowed successor start, relative to the predecessor.
        min_delay: SimDuration,
        /// Latest desired successor start, relative to the predecessor.
        max_delay: SimDuration,
    },
}

/// One constraint instance binding job `a` on machine 0 and job `b` on
/// machine 1 (for `StartAfter`, `a` is the predecessor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintInstance {
    /// Job on machine 0.
    pub a: JobId,
    /// Job on machine 1.
    pub b: JobId,
    /// The relation.
    pub constraint: TemporalConstraint,
}

/// Outcome of one constraint instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintOutcome {
    /// The instance.
    pub instance: ConstraintInstance,
    /// Observed `start(b) − start(a)` (saturating for CoStart/Within where
    /// order is irrelevant, signedness is reported via `b_before_a`).
    pub offset: SimDuration,
    /// Whether `b` started before `a`.
    pub b_before_a: bool,
    /// Whether the constraint held.
    pub satisfied: bool,
}

/// Report of a temporal-constraint run.
#[derive(Debug, Clone)]
pub struct TemporalReport {
    /// Per-machine job records.
    pub records: [Vec<JobRecord>; 2],
    /// Per-machine summaries.
    pub summaries: [MachineSummary; 2],
    /// One outcome per constraint instance (only for instances whose jobs
    /// both completed).
    pub outcomes: Vec<ConstraintOutcome>,
    /// Whether the run wedged.
    pub deadlocked: bool,
    /// Whether the run hit the `max_events` safety valve.
    pub aborted: bool,
    /// How many holds the deadlock breaker force-released.
    pub forced_releases: u64,
    /// Events dispatched.
    pub events: u64,
}

impl TemporalReport {
    /// Grade every constraint instance against a finished run.
    pub(crate) fn grade(run: SimulationReport, constraints: Vec<ConstraintInstance>) -> Self {
        let starts: [HashMap<JobId, SimTime>; 2] = [
            run.records[0].iter().map(|r| (r.id, r.start)).collect(),
            run.records[1].iter().map(|r| (r.id, r.start)).collect(),
        ];
        let mut outcomes = Vec::new();
        for c in constraints {
            let (Some(&sa), Some(&sb)) = (starts[0].get(&c.a), starts[1].get(&c.b)) else {
                continue;
            };
            let offset = sa.abs_diff(sb);
            let b_before_a = sb < sa;
            let satisfied = match c.constraint {
                TemporalConstraint::CoStart => offset.is_zero(),
                TemporalConstraint::StartWithin { window } => offset <= window,
                TemporalConstraint::StartAfter {
                    min_delay,
                    max_delay,
                } => !b_before_a && offset >= min_delay && offset <= max_delay,
            };
            outcomes.push(ConstraintOutcome {
                instance: c,
                offset,
                b_before_a,
                satisfied,
            });
        }
        TemporalReport {
            records: run.records,
            summaries: run.summaries,
            outcomes,
            deadlocked: run.deadlocked,
            aborted: run.aborted,
            forced_releases: run.forced_releases,
            events: run.events,
        }
    }

    /// All constraints satisfied.
    pub fn all_satisfied(&self) -> bool {
        self.outcomes.iter().all(|o| o.satisfied)
    }

    /// Count of violated constraints.
    pub fn violations(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.satisfied).count()
    }
}

/// Validate constraint instances against the traces and register the
/// `CoStart` ones as mate pairs, stamping their mate references.
///
/// # Panics
/// Panics if a constraint references a missing job or a job has two
/// decision-driving roles (`CoStart`/`StartWithin` on either side, or being
/// a `StartAfter` successor; a job may precede several successors).
pub(crate) fn co_start_pairs(
    constraints: &[ConstraintInstance],
    traces: &mut [Trace; 2],
) -> MateRegistry {
    let machines = [traces[0].machine(), traces[1].machine()];
    let mut driving = HashSet::new();
    let mut mates = MateRegistry::new();
    for c in constraints {
        for (m, job) in [(0, c.a), (1, c.b)] {
            assert!(
                traces[m].get(job).is_some(),
                "constraint references missing job {job} on machine {m}"
            );
        }
        let drivers = match c.constraint {
            TemporalConstraint::CoStart | TemporalConstraint::StartWithin { .. } => {
                vec![(0, c.a), (1, c.b)]
            }
            TemporalConstraint::StartAfter { .. } => vec![(1, c.b)],
        };
        for (m, job) in drivers {
            assert!(
                driving.insert((m, job)),
                "job {job} on machine {m} has two decision-driving constraints"
            );
        }
        if c.constraint == TemporalConstraint::CoStart {
            mates.insert_pair((machines[0], c.a), (machines[1], c.b));
            for (m, job, mate) in [(0, c.a, (machines[1], c.b)), (1, c.b, (machines[0], c.a))] {
                if let Some(j) = traces[m].jobs_mut().iter_mut().find(|j| j.id == job) {
                    j.mate = Some(MateRef {
                        machine: mate.0,
                        job: mate.1,
                    });
                }
            }
        }
    }
    mates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoschedConfig, CoupledConfig, Scheme};
    use crate::driver::CoupledSimulation;
    use cosched_sched::MachineConfig;
    use cosched_workload::{Job, MachineId};

    fn job(machine: usize, id: u64, submit: u64, size: u64, runtime: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(machine),
            SimTime::from_secs(submit),
            size,
            SimDuration::from_secs(runtime),
            SimDuration::from_secs(runtime * 2),
        )
    }

    fn machines() -> [MachineConfig; 2] {
        [
            MachineConfig::flat("A", MachineId(0), 100),
            MachineConfig::flat("B", MachineId(1), 100),
        ]
    }

    fn cosched() -> [CoschedConfig; 2] {
        [
            CoschedConfig::paper(Scheme::Hold),
            CoschedConfig::paper(Scheme::Yield),
        ]
    }

    /// The two machines and schemes above with an event cap of `max_events`.
    fn config(max_events: u64) -> CoupledConfig {
        CoupledConfig {
            machines: machines(),
            cosched: cosched(),
            max_events,
        }
    }

    #[test]
    fn costart_constraint_behaves_like_coscheduling() {
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 600)]),
            Trace::from_jobs(
                MachineId(1),
                vec![job(1, 9, 0, 100, 300), job(1, 1, 30, 40, 600)],
            ),
        ];
        let report = CoupledSimulation::temporal(
            config(1_000_000),
            traces,
            vec![ConstraintInstance {
                a: JobId(1),
                b: JobId(1),
                constraint: TemporalConstraint::CoStart,
            }],
        )
        .run_temporal();
        assert!(!report.deadlocked);
        assert!(report.all_satisfied(), "outcomes {:?}", report.outcomes);
        assert_eq!(report.outcomes[0].offset, SimDuration::ZERO);
    }

    #[test]
    fn start_within_lets_first_job_run_and_grades_the_window() {
        // B is blocked for 300 s; A's job starts immediately. Window 600 s
        // covers the gap ⇒ satisfied; window 100 s would not.
        let traces = || {
            [
                Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 600)]),
                Trace::from_jobs(
                    MachineId(1),
                    vec![job(1, 9, 0, 100, 300), job(1, 1, 10, 40, 600)],
                ),
            ]
        };
        let run = |window| {
            CoupledSimulation::temporal(
                config(1_000_000),
                traces(),
                vec![ConstraintInstance {
                    a: JobId(1),
                    b: JobId(1),
                    constraint: TemporalConstraint::StartWithin { window },
                }],
            )
            .run_temporal()
        };
        let wide = run(SimDuration::from_secs(600));
        assert!(!wide.deadlocked);
        assert_eq!(wide.records[0][0].start, SimTime::ZERO, "A does not block");
        assert!(wide.all_satisfied(), "{:?}", wide.outcomes);
        assert_eq!(wide.outcomes[0].offset, SimDuration::from_secs(300));

        let narrow = run(SimDuration::from_secs(100));
        assert_eq!(
            narrow.violations(),
            1,
            "window too small must be graded violated"
        );
    }

    #[test]
    fn start_after_enforces_lower_bound_and_grades_upper() {
        // A starts at 0 (free machine); B submitted immediately but must
        // wait min_delay = 500 s after A's start.
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 2_000)]),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 5, 40, 600)]),
        ];
        let report = CoupledSimulation::temporal(
            config(1_000_000),
            traces,
            vec![ConstraintInstance {
                a: JobId(1),
                b: JobId(1),
                constraint: TemporalConstraint::StartAfter {
                    min_delay: SimDuration::from_secs(500),
                    max_delay: SimDuration::from_secs(1_000),
                },
            }],
        )
        .run_temporal();
        assert!(!report.deadlocked);
        let sb = report.records[1][0].start;
        assert_eq!(
            sb,
            SimTime::from_secs(500),
            "successor gated to start+min_delay"
        );
        assert!(report.all_satisfied(), "{:?}", report.outcomes);
        assert!(!report.outcomes[0].b_before_a);
    }

    #[test]
    fn start_after_with_busy_successor_machine_grades_upper_bound() {
        // Successor machine blocked for 2000 s ⇒ b starts at 2000, beyond
        // max_delay 1000 ⇒ violation (monitored, not fatal).
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 3_000)]),
            Trace::from_jobs(
                MachineId(1),
                vec![job(1, 9, 0, 100, 2_000), job(1, 1, 5, 40, 600)],
            ),
        ];
        let report = CoupledSimulation::temporal(
            config(1_000_000),
            traces,
            vec![ConstraintInstance {
                a: JobId(1),
                b: JobId(1),
                constraint: TemporalConstraint::StartAfter {
                    min_delay: SimDuration::from_secs(100),
                    max_delay: SimDuration::from_secs(1_000),
                },
            }],
        )
        .run_temporal();
        assert!(!report.deadlocked);
        assert_eq!(report.violations(), 1);
        assert_eq!(
            report.records[1]
                .iter()
                .find(|r| r.id == JobId(1))
                .unwrap()
                .start,
            SimTime::from_secs(2_000)
        );
    }

    #[test]
    fn successor_arriving_after_predecessor_started_is_gated_correctly() {
        // A starts at 0; B arrives at t=800 with min_delay 500 — already
        // past the threshold, so B runs immediately.
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 3_000)]),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 800, 40, 600)]),
        ];
        let report = CoupledSimulation::temporal(
            config(1_000_000),
            traces,
            vec![ConstraintInstance {
                a: JobId(1),
                b: JobId(1),
                constraint: TemporalConstraint::StartAfter {
                    min_delay: SimDuration::from_secs(500),
                    max_delay: SimDuration::from_secs(2_000),
                },
            }],
        )
        .run_temporal();
        assert_eq!(report.records[1][0].start, SimTime::from_secs(800));
        assert!(report.all_satisfied());
    }

    #[test]
    #[should_panic(expected = "missing job")]
    fn constraint_on_missing_job_is_rejected() {
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 10, 100)]),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 0, 10, 100)]),
        ];
        CoupledSimulation::temporal(
            config(1_000_000),
            traces,
            vec![ConstraintInstance {
                a: JobId(99),
                b: JobId(1),
                constraint: TemporalConstraint::CoStart,
            }],
        );
    }

    #[test]
    fn event_cap_reports_an_aborted_run() {
        // A hold waiting on a mate that is blocked for ten days re-checks
        // its release sweep every 20 minutes: a cap of 5 events trips long
        // before the run ends, and the report must say so.
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 600)]),
            Trace::from_jobs(
                MachineId(1),
                vec![job(1, 9, 0, 100, 864_000), job(1, 1, 10, 40, 600)],
            ),
        ];
        let run = |max_events| {
            CoupledSimulation::temporal(
                config(max_events),
                traces.clone(),
                vec![ConstraintInstance {
                    a: JobId(1),
                    b: JobId(1),
                    constraint: TemporalConstraint::CoStart,
                }],
            )
            .run_temporal()
        };
        let capped = run(5);
        assert!(capped.aborted, "the event cap must be reported");
        assert!(!capped.deadlocked, "an aborted run is not a deadlock");
        assert_eq!(capped.events, 5);
        assert!(capped.outcomes.is_empty(), "the pair never started");
        let full = run(1_000_000);
        assert!(!full.aborted && !full.deadlocked);
        assert!(full.all_satisfied(), "{:?}", full.outcomes);
    }

    #[test]
    fn unconstrained_jobs_flow_through() {
        let traces = [
            Trace::from_jobs(
                MachineId(0),
                vec![job(0, 1, 0, 10, 100), job(0, 2, 5, 10, 100)],
            ),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 0, 10, 100)]),
        ];
        let report = CoupledSimulation::temporal(config(1_000_000), traces, vec![]).run_temporal();
        assert!(!report.deadlocked);
        assert_eq!(report.records[0].len(), 2);
        assert_eq!(report.records[1].len(), 1);
        assert!(report.outcomes.is_empty());
    }
}
