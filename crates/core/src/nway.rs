//! N-way coscheduling — the paper's §VI future work, realized.
//!
//! "Further, we will examine the possibility of extending our algorithm to
//! support N-way coscheduling on more than two scheduling domains." The
//! motivating NASA hurricane-forecasting workflow runs several coupled
//! models concurrently across heterogeneous machines; a *group* of k jobs
//! on k domains must start simultaneously.
//!
//! Groups run on the one coupled simulator
//! ([`crate::driver::CoupledSimulation::with_groups`]): a two-member group
//! is a mate pair and runs Algorithm 1; a larger group runs the
//! probe-then-commit rule [`crate::algorithm::run_group`], which adds one
//! non-committing `CanStart` probe ([`cosched_proto::Request::CanStart`])
//! to the protocol. This module holds the group registry and the group
//! report.

use crate::driver::RunStats;
use cosched_metrics::{JobRecord, MachineSummary};
use cosched_sim::{SimDuration, SimTime};
use cosched_workload::{JobId, MachineId, MateRef, Trace};
use std::collections::{HashMap, HashSet};

/// Identifies a co-start group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

/// Registry of N-way co-start groups.
#[derive(Debug, Clone, Default)]
pub struct GroupRegistry {
    member_of: HashMap<(MachineId, JobId), GroupId>,
    groups: HashMap<GroupId, Vec<(MachineId, JobId)>>,
}

impl GroupRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a co-start group.
    ///
    /// # Panics
    /// Panics if the group has fewer than two members, two members on the
    /// same machine, or a member already in another group.
    pub fn insert_group(&mut self, id: GroupId, members: Vec<(MachineId, JobId)>) {
        assert!(members.len() >= 2, "a group needs at least two members");
        let mut machines = HashSet::new();
        for &(m, j) in &members {
            assert!(machines.insert(m), "group {id:?} has two members on {m}");
            let prev = self.member_of.insert((m, j), id);
            assert!(prev.is_none(), "{m}/{j} is already in a group");
        }
        self.groups.insert(id, members);
    }

    /// The group a job belongs to, if any.
    pub fn group_of(&self, machine: MachineId, job: JobId) -> Option<GroupId> {
        self.member_of.get(&(machine, job)).copied()
    }

    /// A group's members.
    pub fn members(&self, id: GroupId) -> &[(MachineId, JobId)] {
        self.groups.get(&id).map_or(&[], |v| v.as_slice())
    }

    /// Every group's members, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &[(MachineId, JobId)]> + '_ {
        self.groups.values().map(Vec::as_slice)
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if no groups are registered.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Stamp ring mate references onto the traces so per-job records carry
    /// the `paired` flag (each member points at the next member in the
    /// group, cyclically; a two-member ring is a mate pair).
    ///
    /// # Panics
    /// Panics if a member is missing from its trace.
    pub fn stamp_rings(&self, traces: &mut [Trace]) {
        let index: HashMap<MachineId, usize> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| (t.machine(), i))
            .collect();
        for members in self.groups.values() {
            for (k, &(m, j)) in members.iter().enumerate() {
                let (nm, nj) = members[(k + 1) % members.len()];
                let t = &mut traces[index[&m]];
                let job = t
                    .jobs_mut()
                    .iter_mut()
                    .find(|job| job.id == j)
                    .unwrap_or_else(|| panic!("group member {m}/{j} missing from trace"));
                job.mate = Some(MateRef {
                    machine: nm,
                    job: nj,
                });
            }
        }
    }

    /// Latest minus earliest member start of every group whose members all
    /// completed, sorted; `records[i]` are the records of `machines[i]`.
    pub(crate) fn spreads(
        &self,
        machines: &[MachineId],
        records: &[Vec<JobRecord>],
    ) -> Vec<SimDuration> {
        let starts: HashMap<(MachineId, JobId), SimTime> = machines
            .iter()
            .zip(records)
            .flat_map(|(&m, recs)| recs.iter().map(move |r| ((m, r.id), r.start)))
            .collect();
        let mut spreads: Vec<SimDuration> = self
            .iter()
            .filter_map(|members| {
                let member_starts: Option<Vec<SimTime>> =
                    members.iter().map(|key| starts.get(key).copied()).collect();
                let member_starts = member_starts?;
                Some(*member_starts.iter().max()? - *member_starts.iter().min()?)
            })
            .collect();
        spreads.sort();
        spreads
    }
}

/// Outcome of an N-way run.
#[derive(Debug, Clone, PartialEq)]
pub struct NwayReport {
    /// Per-machine records.
    pub records: Vec<Vec<JobRecord>>,
    /// Per-machine summaries.
    pub summaries: Vec<MachineSummary>,
    /// Per-group spread: latest start − earliest start among members.
    pub group_spreads: Vec<SimDuration>,
    /// True if the queue drained with jobs stuck.
    pub deadlocked: bool,
    /// True if `max_events` tripped.
    pub aborted: bool,
    /// Forced hold releases.
    pub forced_releases: u64,
    /// Events dispatched.
    pub events: u64,
    /// Final instant.
    pub horizon: SimTime,
    /// Protocol and scheme-transition counters.
    pub stats: RunStats,
}

impl NwayReport {
    /// Every group started simultaneously.
    pub fn all_groups_synchronized(&self) -> bool {
        self.group_spreads.iter().all(|d| d.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoschedConfig, NwayConfig, Scheme};
    use crate::driver::CoupledSimulation;
    use cosched_sched::MachineConfig;
    use cosched_workload::{Job, Trace};

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

    fn config(n: usize, scheme: Scheme) -> NwayConfig {
        NwayConfig {
            machines: (0..n)
                .map(|m| MachineConfig::flat(format!("M{m}"), MachineId(m), 100))
                .collect(),
            cosched: (0..n)
                .map(|_| CoschedConfig::paper(scheme).with_max_held_fraction(None))
                .collect(),
            max_events: 1_000_000,
        }
    }

    /// Three machines; a 3-way group plus a filler that delays machine 2.
    fn three_way_traces() -> (Vec<Trace>, GroupRegistry) {
        let mut reg = GroupRegistry::new();
        reg.insert_group(
            GroupId(1),
            vec![
                (MachineId(0), JobId(1)),
                (MachineId(1), JobId(1)),
                (MachineId(2), JobId(1)),
            ],
        );
        let traces = vec![
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 600)]),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 30, 40, 600)]),
            Trace::from_jobs(
                MachineId(2),
                vec![job(2, 9, 0, 100, 300), job(2, 1, 60, 40, 600)],
            ),
        ];
        (traces, reg)
    }

    #[test]
    fn three_way_group_starts_simultaneously_hold() {
        let (traces, reg) = three_way_traces();
        let report = CoupledSimulation::nway(config(3, Scheme::Hold), traces, reg)
            .run_nway()
            .report;
        assert!(!report.deadlocked);
        assert_eq!(report.group_spreads.len(), 1);
        assert!(
            report.all_groups_synchronized(),
            "spread {:?}",
            report.group_spreads
        );
        // Rendezvous gated by machine 2's filler: start at t=300.
        let s0 = report.records[0][0].start;
        assert_eq!(s0, SimTime::from_secs(300));
    }

    #[test]
    fn three_way_group_starts_simultaneously_yield() {
        let (traces, reg) = three_way_traces();
        let report = CoupledSimulation::nway(config(3, Scheme::Yield), traces, reg)
            .run_nway()
            .report;
        assert!(!report.deadlocked);
        assert!(
            report.all_groups_synchronized(),
            "spread {:?}",
            report.group_spreads
        );
        assert_eq!(
            report.summaries.iter().map(|s| s.total_holds).sum::<u64>(),
            0
        );
    }

    #[test]
    fn five_way_rendezvous() {
        let n = 5;
        let mut reg = GroupRegistry::new();
        reg.insert_group(
            GroupId(1),
            (0..n).map(|m| (MachineId(m), JobId(1))).collect(),
        );
        let traces: Vec<Trace> = (0..n)
            .map(|m| {
                let mut jobs = vec![job(m, 1, (m as u64) * 40, 30, 500)];
                if m == n - 1 {
                    // Last machine is blocked the longest.
                    jobs.push(job(m, 9, 0, 100, 777));
                }
                Trace::from_jobs(MachineId(m), jobs)
            })
            .collect();
        let report = CoupledSimulation::nway(config(n, Scheme::Hold), traces, reg)
            .run_nway()
            .report;
        assert!(!report.deadlocked);
        assert!(
            report.all_groups_synchronized(),
            "spread {:?}",
            report.group_spreads
        );
        for recs in &report.records {
            let r = recs.iter().find(|r| r.id == JobId(1)).unwrap();
            assert_eq!(r.start, SimTime::from_secs(777));
            assert!(r.paired, "ring stamping marks members paired");
        }
    }

    #[test]
    fn ungrouped_jobs_run_normally() {
        let mut reg = GroupRegistry::new();
        reg.insert_group(
            GroupId(1),
            vec![(MachineId(0), JobId(1)), (MachineId(1), JobId(1))],
        );
        let traces = vec![
            Trace::from_jobs(
                MachineId(0),
                vec![job(0, 1, 0, 40, 600), job(0, 2, 5, 10, 100)],
            ),
            Trace::from_jobs(
                MachineId(1),
                vec![job(1, 1, 0, 40, 600), job(1, 2, 5, 10, 100)],
            ),
        ];
        let report = CoupledSimulation::nway(config(2, Scheme::Hold), traces, reg)
            .run_nway()
            .report;
        assert!(!report.deadlocked);
        // Ungrouped job 2 on each machine starts at its submit (room free).
        for m in 0..2 {
            let r = report.records[m].iter().find(|r| r.id == JobId(2)).unwrap();
            assert_eq!(r.start, SimTime::from_secs(5));
            assert!(!r.paired);
        }
        assert!(report.all_groups_synchronized());
    }

    #[test]
    fn circular_three_way_deadlock_is_broken_by_sweeps() {
        // Machine i holds for group i whose other member on machine (i+1)%3
        // cannot fit — a 3-cycle of waits.
        let mut reg = GroupRegistry::new();
        for g in 0..3u64 {
            let m0 = g as usize;
            let m1 = (g as usize + 1) % 3;
            reg.insert_group(
                GroupId(g),
                vec![(MachineId(m0), JobId(g)), (MachineId(m1), JobId(g + 10))],
            );
        }
        let traces: Vec<Trace> = (0..3)
            .map(|m| {
                let g_here = m as u64; // holder job of group m
                let g_prev = ((m + 2) % 3) as u64; // waiting member of group m-1
                Trace::from_jobs(
                    MachineId(m),
                    vec![job(m, g_here, 0, 60, 500), job(m, g_prev + 10, 10, 60, 500)],
                )
            })
            .collect();
        // Without the breaker: deadlock.
        let mut cfg = config(3, Scheme::Hold);
        for c in &mut cfg.cosched {
            c.release_period = None;
        }
        let report = CoupledSimulation::nway(cfg, traces.clone(), reg.clone())
            .run_nway()
            .report;
        assert!(
            report.deadlocked,
            "3-cycle must deadlock without the breaker"
        );
        // With it: completes and synchronizes.
        let report = CoupledSimulation::nway(config(3, Scheme::Hold), traces, reg)
            .run_nway()
            .report;
        assert!(!report.deadlocked);
        assert!(report.forced_releases > 0);
        assert!(
            report.all_groups_synchronized(),
            "spreads {:?}",
            report.group_spreads
        );
    }

    #[test]
    #[should_panic(expected = "two members on")]
    fn group_rejects_two_members_on_one_machine() {
        let mut reg = GroupRegistry::new();
        reg.insert_group(
            GroupId(1),
            vec![(MachineId(0), JobId(1)), (MachineId(0), JobId(2))],
        );
    }

    #[test]
    #[should_panic(expected = "already in a group")]
    fn group_rejects_double_membership() {
        let mut reg = GroupRegistry::new();
        reg.insert_group(
            GroupId(1),
            vec![(MachineId(0), JobId(1)), (MachineId(1), JobId(1))],
        );
        reg.insert_group(
            GroupId(2),
            vec![(MachineId(0), JobId(1)), (MachineId(2), JobId(1))],
        );
    }

    #[test]
    fn registry_queries() {
        let mut reg = GroupRegistry::new();
        assert!(reg.is_empty());
        reg.insert_group(
            GroupId(7),
            vec![(MachineId(0), JobId(1)), (MachineId(1), JobId(2))],
        );
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.group_of(MachineId(0), JobId(1)), Some(GroupId(7)));
        assert_eq!(reg.group_of(MachineId(1), JobId(2)), Some(GroupId(7)));
        assert_eq!(reg.group_of(MachineId(1), JobId(1)), None);
        assert_eq!(reg.members(GroupId(7)).len(), 2);
        assert!(reg.members(GroupId(99)).is_empty());
    }
}
