//! Model-based property test of `Machine`'s job bookkeeping.
//!
//! Random sequences of submit / pick-and-commit (start, hold, yield) /
//! `try_start_direct` / `start_held` / `release_held` / `finish` drive a
//! real machine and a plain reference model (three id sets and the node
//! sizes) in lockstep. Job ids are drawn from the whole `u64` range, so
//! they are sparse, huge and non-monotonic, as SWF files carry them. After
//! every step the queued, held and running memberships, every job's status
//! and yield count, `held_nodes()` and the free-node count must match the
//! model.

use std::collections::{BTreeMap, BTreeSet};

use cosched_sched::{JobStatus, Machine, MachineConfig};
use cosched_sim::{SimDuration, SimTime};
use cosched_workload::{Job, JobId, MachineId};
use proptest::prelude::*;

const CAPACITY: u64 = 100;

#[derive(Debug, Clone)]
enum Op {
    /// Submit a job with this raw id and size (a repeated id is skipped).
    Submit(u64, u64),
    /// Start a new scheduling iteration.
    Begin,
    /// Pick the next candidate and commit it: 0 start, 1 hold, 2 yield.
    Pick(u8),
    /// `try_start_direct` on the k-th submitted job.
    TryStart(usize),
    /// `start_held` on the k-th submitted job.
    StartHeld(usize),
    /// `release_held` on the k-th submitted job.
    Release(usize),
    /// `finish` the k-th running job.
    Finish(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u64>(), 1u64..60).prop_map(|(id, size)| Op::Submit(id, size)),
            Just(Op::Begin),
            (0u8..3).prop_map(Op::Pick),
            (0usize..64).prop_map(Op::TryStart),
            (0usize..64).prop_map(Op::StartHeld),
            (0usize..64).prop_map(Op::Release),
            (0usize..64).prop_map(Op::Finish),
        ],
        1..300,
    )
}

#[derive(Default)]
struct Model {
    sizes: BTreeMap<u64, u64>,
    yields: BTreeMap<u64, u32>,
    order: Vec<u64>,
    queued: BTreeSet<u64>,
    held: BTreeSet<u64>,
    running: BTreeSet<u64>,
    finished: BTreeSet<u64>,
}

impl Model {
    fn status(&self, id: u64) -> JobStatus {
        if self.queued.contains(&id) {
            JobStatus::Queued
        } else if self.held.contains(&id) {
            JobStatus::Held
        } else if self.running.contains(&id) {
            JobStatus::Running
        } else if self.finished.contains(&id) {
            JobStatus::Finished
        } else {
            JobStatus::Unsubmitted
        }
    }

    fn nodes(&self, set: &BTreeSet<u64>) -> u64 {
        set.iter().map(|id| self.sizes[id]).sum()
    }

    fn nth(&self, k: usize) -> Option<u64> {
        (!self.order.is_empty()).then(|| self.order[k % self.order.len()])
    }
}

fn check(m: &Machine, model: &Model) -> Result<(), TestCaseError> {
    let queued: BTreeSet<u64> = m.queued_jobs().map(|j| j.id.0).collect();
    prop_assert_eq!(&queued, &model.queued);
    prop_assert_eq!(m.queued_jobs().len(), model.queued.len());
    let held: BTreeSet<u64> = m.held_jobs().iter().map(|id| id.0).collect();
    prop_assert_eq!(&held, &model.held);
    let running: BTreeSet<u64> = m.running_jobs().iter().map(|id| id.0).collect();
    prop_assert_eq!(&running, &model.running);
    prop_assert_eq!(m.held_nodes(), model.nodes(&model.held));
    prop_assert_eq!(
        m.free_nodes(),
        CAPACITY - model.nodes(&model.held) - model.nodes(&model.running)
    );
    for &id in &model.order {
        prop_assert_eq!(m.status(JobId(id)), model.status(id));
        prop_assert_eq!(m.yields_of(JobId(id)), model.yields[&id]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn machine_matches_reference_model(ops in ops()) {
        let mut m = Machine::new(MachineConfig::flat("model", MachineId(0), CAPACITY));
        let mut model = Model::default();
        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_secs(step as u64);
            match *op {
                Op::Submit(id, size) => {
                    if model.sizes.contains_key(&id) {
                        continue;
                    }
                    let runtime = SimDuration::from_secs(50 + id % 500);
                    m.submit(
                        Job::new(JobId(id), MachineId(0), now, size, runtime, runtime),
                        now,
                    );
                    model.sizes.insert(id, size);
                    model.yields.insert(id, 0);
                    model.order.push(id);
                    model.queued.insert(id);
                }
                Op::Begin => m.begin_iteration(),
                Op::Pick(action) => {
                    let Some(cand) = m.pick_next(now) else {
                        continue;
                    };
                    let id = cand.job_id.0;
                    prop_assert!(model.queued.remove(&id), "picked a job not queued: {}", id);
                    prop_assert_eq!(cand.size, model.sizes[&id]);
                    prop_assert_eq!(cand.charged, cand.size);
                    prop_assert_eq!(cand.yields, model.yields[&id]);
                    prop_assert_eq!(m.candidate_job(&cand).id, cand.job_id);
                    match action {
                        0 => {
                            let _ = m.start(cand, now);
                            model.running.insert(id);
                        }
                        1 => {
                            m.hold(cand, now);
                            model.held.insert(id);
                        }
                        _ => {
                            m.yield_job(cand, now);
                            *model.yields.get_mut(&id).unwrap() += 1;
                            model.queued.insert(id);
                        }
                    }
                }
                Op::TryStart(k) => {
                    let Some(id) = model.nth(k) else { continue };
                    let was_queued = model.queued.contains(&id);
                    let started = m.try_start_direct(JobId(id), now).is_some();
                    prop_assert!(!started || was_queued, "direct start of non-queued {}", id);
                    if started {
                        model.queued.remove(&id);
                        model.running.insert(id);
                    }
                }
                Op::StartHeld(k) => {
                    let Some(id) = model.nth(k) else { continue };
                    let started = m.start_held(JobId(id), now).is_some();
                    prop_assert_eq!(started, model.held.remove(&id));
                    if started {
                        model.running.insert(id);
                    }
                }
                Op::Release(k) => {
                    let Some(id) = model.nth(k) else { continue };
                    let released = m.release_held(JobId(id), now);
                    prop_assert_eq!(released, model.held.remove(&id));
                    if released {
                        model.queued.insert(id);
                    }
                }
                Op::Finish(k) => {
                    if model.running.is_empty() {
                        continue;
                    }
                    let id = *model.running.iter().nth(k % model.running.len()).unwrap();
                    m.finish(JobId(id), now);
                    model.running.remove(&id);
                    model.finished.insert(id);
                }
            }
            check(&m, &model)?;
        }
        prop_assert_eq!(m.records().len(), model.finished.len());
        prop_assert_eq!(m.drained(), model.queued.is_empty() && model.held.is_empty() && model.running.is_empty());
    }
}
