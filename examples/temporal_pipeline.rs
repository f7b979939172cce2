//! Inter-job temporal constraints demo (§VI future work): a simulation /
//! analysis pipeline where the strict co-start of the base mechanism is
//! relaxed two ways:
//!
//! * the *monitoring* dashboard should come up within 10 minutes of the
//!   simulation (soft co-start, `StartWithin`);
//! * the *checkpoint analysis* must start between 30 and 90 minutes after
//!   the simulation (ordered, `StartAfter` — it needs the first checkpoint
//!   on disk, but late enough data would age out of the burst buffer).
//!
//! ```text
//! cargo run --release --example temporal_pipeline
//! ```

use coupled_cosched::cosched::config::CoschedConfig;
use coupled_cosched::cosched::temporal::{ConstraintInstance, TemporalConstraint};
use coupled_cosched::cosched::{CoupledConfig, CoupledSimulation, Scheme};
use coupled_cosched::prelude::*;
use coupled_cosched::sim::{SimDuration, SimTime};

fn job(machine: usize, id: u64, submit_mins: u64, size: u64, runtime_mins: u64) -> Job {
    Job::new(
        JobId(id),
        MachineId(machine),
        SimTime::from_secs(submit_mins * 60),
        size,
        SimDuration::from_mins(runtime_mins),
        SimDuration::from_mins(runtime_mins * 2),
    )
}

fn main() {
    let config = CoupledConfig {
        machines: [
            MachineConfig::flat("compute", MachineId(0), 256),
            MachineConfig::flat("analysis", MachineId(1), 32),
        ],
        cosched: [
            CoschedConfig::paper(Scheme::Hold),
            CoschedConfig::paper(Scheme::Yield),
        ],
        max_events: 100_000,
    };

    let traces = [
        Trace::from_jobs(
            MachineId(0),
            vec![
                job(0, 1, 0, 192, 240), // the simulation, 4 hours
            ],
        ),
        Trace::from_jobs(
            MachineId(1),
            vec![
                job(1, 9, 0, 32, 8),  // unrelated job briefly hogging the analysis cluster
                job(1, 1, 1, 8, 200), // monitoring dashboard
                job(1, 2, 1, 16, 60), // checkpoint analysis
            ],
        ),
    ];

    let constraints = vec![
        ConstraintInstance {
            a: JobId(1),
            b: JobId(1),
            constraint: TemporalConstraint::StartWithin {
                window: SimDuration::from_mins(10),
            },
        },
        ConstraintInstance {
            a: JobId(1),
            b: JobId(2),
            constraint: TemporalConstraint::StartAfter {
                min_delay: SimDuration::from_mins(30),
                max_delay: SimDuration::from_mins(90),
            },
        },
    ];

    let report = CoupledSimulation::temporal(config, traces, constraints).run_temporal();

    println!(
        "events: {}, deadlocked: {}, aborted: {}",
        report.events, report.deadlocked, report.aborted
    );
    for (m, recs) in report.records.iter().enumerate() {
        for r in recs {
            println!(
                "machine {m} {}: submit {:>5} start {:>6}",
                r.id,
                r.submit.as_secs(),
                r.start
            );
        }
    }
    for o in &report.outcomes {
        println!(
            "constraint {:?} a={} b={}: offset {}{}, satisfied = {}",
            o.instance.constraint,
            o.instance.a,
            o.instance.b,
            o.offset,
            if o.b_before_a { " (b first)" } else { "" },
            o.satisfied
        );
    }
    assert!(report.all_satisfied(), "pipeline constraints must hold");
    println!("all constraints satisfied");
}
