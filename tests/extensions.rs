//! Integration tests for the §VI future-work extensions (N-way
//! coscheduling, temporal constraints) and the §III co-reservation
//! comparator, exercised through the facade crate at randomized scale.

use coupled_cosched::cosched::config::CoschedConfig;
use coupled_cosched::cosched::nway::{GroupId, GroupRegistry};
use coupled_cosched::cosched::temporal::{ConstraintInstance, TemporalConstraint};
use coupled_cosched::cosched::{CoupledConfig, CoupledSimulation, NwayConfig, Scheme};
use coupled_cosched::prelude::*;
use coupled_cosched::resv::ReservationSimulation;
use coupled_cosched::sim::{SimDuration, SimRng, SimTime};
use coupled_cosched::workload::{pairing, MachineModel, TraceGenerator};

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

#[test]
fn nway_randomized_groups_synchronize_across_four_machines() {
    let n = 4;
    let rng = SimRng::seed_from_u64(77);
    // Background workload per machine plus 20 four-way groups.
    let mut traces: Vec<Trace> = (0..n)
        .map(|m| {
            TraceGenerator::new(
                MachineModel::eureka().with_runtime(1_000.0, 1.0),
                MachineId(m),
            )
            .span(SimDuration::from_days(1))
            .target_utilization(0.4)
            .generate(&mut rng.fork(m as u64))
        })
        .collect();
    let mut registry = GroupRegistry::new();
    for g in 0..20u64 {
        let submit = 1_000 + g * 3_000;
        let members: Vec<(MachineId, JobId)> = (0..n)
            .map(|m| {
                let id = JobId(100_000 + g);
                traces[m].push(job(m, id.0, submit + (m as u64) * 37, 5 + (g % 10), 900));
                (MachineId(m), id)
            })
            .collect();
        for t in &mut traces {
            t.resort();
        }
        registry.insert_group(GroupId(g), members);
    }
    let config = NwayConfig {
        machines: (0..n)
            .map(|m| {
                let mut c = MachineConfig::eureka(MachineId(m));
                c.name = format!("M{m}");
                c
            })
            .collect(),
        cosched: (0..n)
            .map(|m| {
                CoschedConfig::paper(if m % 2 == 0 {
                    Scheme::Hold
                } else {
                    Scheme::Yield
                })
            })
            .collect(),
        max_events: 2_000_000,
    };
    let report = CoupledSimulation::nway(config, traces, registry)
        .run_nway()
        .report;
    assert!(!report.deadlocked);
    assert!(!report.aborted);
    assert_eq!(report.group_spreads.len(), 20, "every group must complete");
    assert!(
        report.all_groups_synchronized(),
        "spreads {:?}",
        report.group_spreads
    );
}

#[test]
fn temporal_mixed_constraints_on_random_background() {
    let rng = SimRng::seed_from_u64(88);
    let mut a = TraceGenerator::new(
        MachineModel::eureka().with_runtime(1_500.0, 1.0),
        MachineId(0),
    )
    .span(SimDuration::from_days(1))
    .target_utilization(0.3)
    .generate(&mut rng.fork(0));
    let mut b = TraceGenerator::new(
        MachineModel::eureka().with_runtime(1_500.0, 1.0),
        MachineId(1),
    )
    .span(SimDuration::from_days(1))
    .target_utilization(0.3)
    .generate(&mut rng.fork(1));

    // Three constrained trios layered onto the background.
    let mut constraints = Vec::new();
    for k in 0..3u64 {
        let base = 5_000 + k * 20_000;
        a.push(job(0, 200_000 + k, base, 10, 3_600));
        b.push(job(1, 200_000 + k, base + 60, 10, 1_800)); // co-start mate
        b.push(job(1, 300_000 + k, base + 120, 5, 900)); // delayed analysis
        constraints.push(ConstraintInstance {
            a: JobId(200_000 + k),
            b: JobId(200_000 + k),
            constraint: TemporalConstraint::CoStart,
        });
        constraints.push(ConstraintInstance {
            a: JobId(200_000 + k),
            b: JobId(300_000 + k),
            constraint: TemporalConstraint::StartAfter {
                min_delay: SimDuration::from_mins(10),
                max_delay: SimDuration::from_hours(12),
            },
        });
    }
    a.resort();
    b.resort();

    let config = CoupledConfig {
        machines: [
            MachineConfig::eureka(MachineId(0)),
            MachineConfig::eureka(MachineId(1)),
        ],
        cosched: [
            CoschedConfig::paper(Scheme::Hold),
            CoschedConfig::paper(Scheme::Yield),
        ],
        max_events: 10_000_000,
    };
    let report = CoupledSimulation::temporal(config, [a, b], constraints).run_temporal();
    assert!(!report.deadlocked);
    assert_eq!(report.outcomes.len(), 6);
    // CoStart constraints are exact; the generous StartAfter windows hold
    // on a 30 %-loaded machine.
    assert!(report.all_satisfied(), "outcomes {:?}", report.outcomes);
    // Verify the hard lower bound directly.
    for o in &report.outcomes {
        if let TemporalConstraint::StartAfter { min_delay, .. } = o.instance.constraint {
            assert!(!o.b_before_a);
            assert!(o.offset >= min_delay);
        }
    }
}

/// DESIGN §7.2's livelock, as a two-machine group run and as the same
/// pairs under `CoStart` constraints. Flat 100/100 machines, hold scheme,
/// no held-fraction cap: on machine 0 three 30-node members arrive at
/// t = 0/300/600 s; their machine-1 mates arrive 10 s later behind a
/// 100-node job that runs ten days. A 90-node regular job arrives on
/// machine 0 at t = 700 s, blocked by the 90 held nodes. The batch release
/// frees all three holds at the first sweep (t = 1,200 s) and the regular
/// job starts then. An age-filtered release livelocks here: each sweep
/// frees only the matured holds, which re-hold with fresh staggered ages,
/// and the regular job waits until the mates start (864,600 s) through
/// 2,157 forced releases.
#[test]
fn staggered_holds_release_as_one_batch_in_every_mode() {
    let traces = || {
        vec![
            Trace::from_jobs(
                MachineId(0),
                vec![
                    job(0, 1, 0, 30, 600),
                    job(0, 2, 300, 30, 600),
                    job(0, 3, 600, 30, 600),
                    job(0, 9, 700, 90, 600),
                ],
            ),
            Trace::from_jobs(
                MachineId(1),
                vec![
                    job(1, 100, 0, 100, 864_000),
                    job(1, 1, 10, 30, 600),
                    job(1, 2, 310, 30, 600),
                    job(1, 3, 610, 30, 600),
                ],
            ),
        ]
    };
    let hold = CoschedConfig::paper(Scheme::Hold).with_max_held_fraction(None);
    let config = CoupledConfig {
        machines: [
            MachineConfig::flat("M0", MachineId(0), 100),
            MachineConfig::flat("M1", MachineId(1), 100),
        ],
        cosched: [hold.clone(), hold],
        max_events: 1_000_000,
    };
    let pairs = 1..=3u64;

    let mut groups = GroupRegistry::new();
    for g in pairs.clone() {
        groups.insert_group(
            GroupId(g),
            vec![(MachineId(0), JobId(g)), (MachineId(1), JobId(g))],
        );
    }
    let nway = CoupledSimulation::nway(config.clone().into(), traces(), groups)
        .run_nway()
        .report;
    assert!(nway.all_groups_synchronized(), "{:?}", nway.group_spreads);
    let as_groups = (&nway.records[0], nway.forced_releases, nway.deadlocked);

    let constraints = pairs
        .map(|g| ConstraintInstance {
            a: JobId(g),
            b: JobId(g),
            constraint: TemporalConstraint::CoStart,
        })
        .collect();
    let [a, b]: [Trace; 2] = traces().try_into().unwrap();
    let temporal = CoupledSimulation::temporal(config, [a, b], constraints).run_temporal();
    assert!(temporal.all_satisfied(), "{:?}", temporal.outcomes);
    let as_constraints = (
        &temporal.records[0],
        temporal.forced_releases,
        temporal.deadlocked,
    );

    for (mode, (records, forced_releases, deadlocked)) in
        [("groups", as_groups), ("constraints", as_constraints)]
    {
        let regular = records.iter().find(|r| r.id == JobId(9)).unwrap();
        assert!(!deadlocked, "{mode}");
        assert_eq!(regular.start, SimTime::from_secs(1_200), "{mode}");
        assert_eq!(forced_releases, 3, "{mode}");
    }
    assert_eq!(nway.records[0], temporal.records[0]);
    assert_eq!(nway.records[1], temporal.records[1]);
}

#[test]
fn reservation_baseline_synchronizes_but_fragments() {
    // Same workload through the protocol coscheduler and the co-reservation
    // desk: both must synchronize pairs; the reservation desk must lose
    // service units to walltime tails (the §III fragmentation argument).
    let rng = SimRng::seed_from_u64(99);
    let model = MachineModel::eureka().with_runtime(1_200.0, 1.0);
    let mut a = TraceGenerator::new(model.clone(), MachineId(0))
        .span(SimDuration::from_days(1))
        .target_utilization(0.4)
        .generate(&mut rng.fork(0));
    let mut b = TraceGenerator::new(model, MachineId(1))
        .span(SimDuration::from_days(1))
        .target_utilization(0.4)
        .generate(&mut rng.fork(1));
    pairing::pair_exact_proportion(
        &mut a,
        &mut b,
        0.15,
        SimDuration::from_mins(2),
        &mut rng.fork(2),
    );

    let resv = ReservationSimulation::new(["A", "B"], [100, 100], [a.clone(), b.clone()]).run();
    assert!(resv.all_pairs_synchronized());
    assert!(
        resv.summaries[0].lost_node_hours > 0.0,
        "walltime tails must register as loss"
    );

    use coupled_cosched::cosched::SchemeCombo;
    let mut cfg = CoupledConfig {
        machines: [
            MachineConfig::eureka(MachineId(0)),
            MachineConfig::eureka(MachineId(1)),
        ],
        cosched: [
            CoschedConfig::paper(SchemeCombo::YY.of(0)),
            CoschedConfig::paper(SchemeCombo::YY.of(1)),
        ],
        max_events: 1_000_000,
    };
    cfg.machines[0].name = "A".into();
    cfg.machines[1].name = "B".into();
    let proto = CoupledSimulation::new(cfg, [a, b]).run();
    assert!(proto.all_pairs_synchronized());
    // The protocol (yield-yield) wastes nothing; the reservation desk does.
    assert_eq!(proto.summaries[0].lost_node_hours, 0.0);
    assert!(
        resv.summaries[0].avg_wait_mins >= proto.summaries[0].avg_wait_mins,
        "reservations must not beat the protocol on regular-job waiting (resv {} vs proto {})",
        resv.summaries[0].avg_wait_mins,
        proto.summaries[0].avg_wait_mins
    );
}
