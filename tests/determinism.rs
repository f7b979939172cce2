//! Determinism guarantees: identical inputs produce byte-identical outputs,
//! the foundation of the harness's seed-paired (common-random-numbers)
//! comparisons between baseline and coscheduled runs.

use coupled_cosched::cosched::nway::{GroupId, GroupRegistry};
use coupled_cosched::cosched::{
    CoschedConfig, CoupledConfig, CoupledSimulation, NwayConfig, Scheme, SchemeCombo,
};
use coupled_cosched::obs::read_trace_str;
use coupled_cosched::prelude::*;
use coupled_cosched::sim::{SimDuration, SimRng};
use coupled_cosched::workload::{pairing, MachineModel, TraceGenerator};

fn workload(seed: u64) -> [Trace; 2] {
    let rng = SimRng::seed_from_u64(seed);
    let model = MachineModel::eureka();
    let mut a = TraceGenerator::new(model.clone(), MachineId(0))
        .span(SimDuration::from_days(2))
        .target_utilization(0.6)
        .generate(&mut rng.fork(0));
    let mut b = TraceGenerator::new(model, MachineId(1))
        .span(SimDuration::from_days(2))
        .target_utilization(0.6)
        .generate(&mut rng.fork(1));
    pairing::pair_exact_proportion(
        &mut a,
        &mut b,
        0.15,
        SimDuration::from_mins(2),
        &mut rng.fork(2),
    );
    [a, b]
}

fn config(combo: SchemeCombo) -> CoupledConfig {
    CoupledConfig {
        machines: [
            MachineConfig::eureka(MachineId(0)),
            MachineConfig::eureka(MachineId(1)),
        ],
        cosched: [
            CoschedConfig::paper(combo.of(0)),
            CoschedConfig::paper(combo.of(1)),
        ],
        max_events: 1_000_000,
    }
}

#[test]
fn trace_generation_is_reproducible() {
    assert_eq!(workload(11), workload(11));
    assert_ne!(workload(11), workload(12));
}

#[test]
fn simulation_reports_are_identical_across_runs() {
    for combo in SchemeCombo::ALL {
        let r1 = CoupledSimulation::new(config(combo), workload(13)).run();
        let r2 = CoupledSimulation::new(config(combo), workload(13)).run();
        assert_eq!(r1.records, r2.records, "{}", combo.label());
        assert_eq!(r1.events, r2.events, "{}", combo.label());
        assert_eq!(r1.pair_offsets, r2.pair_offsets, "{}", combo.label());
        assert_eq!(r1.forced_releases, r2.forced_releases, "{}", combo.label());
        assert_eq!(r1.horizon, r2.horizon, "{}", combo.label());
    }
}

#[test]
fn traces_are_byte_identical_across_runs() {
    // The observability tentpole's invariant, end to end: two same-seed runs
    // with a JSONL sink write byte-identical trace streams, and the report
    // matches an untraced (no-op observer) run exactly.
    let traced = || {
        let sink = JsonlSink::new(Vec::new());
        let arts = CoupledSimulation::with_observer(
            config(SchemeCombo::HY),
            workload(13),
            SinkObserver::new(sink),
        )
        .run_traced();
        let bytes = arts.observer.into_sink().into_inner();
        (arts.report, bytes)
    };
    let (r1, bytes1) = traced();
    let (r2, bytes2) = traced();
    assert!(!bytes1.is_empty());
    assert_eq!(
        bytes1, bytes2,
        "same seed must write byte-identical JSONL traces"
    );

    let untraced = CoupledSimulation::new(config(SchemeCombo::HY), workload(13)).run();
    assert_eq!(r1.records, untraced.records);
    assert_eq!(r1.stats, untraced.stats);
    assert_eq!(r1.sched_stats, untraced.sched_stats);
    assert_eq!(r1.metrics, untraced.metrics);
    assert_eq!(r2.events, untraced.events);

    // Every line is a self-describing JSON record with nondecreasing time.
    let text = String::from_utf8(bytes1).unwrap();
    let mut last = 0u64;
    for line in text.lines() {
        let rec: serde_json::Value = serde_json::from_str(line).unwrap();
        let t = rec["time"].as_u64().unwrap();
        assert!(t >= last, "trace times must be nondecreasing");
        last = t;
    }
}

/// Profiling is an observer: teeing a `PhaseClock` behind a JSONL sink
/// leaves the trace bytes and the report exactly as without it, while the
/// clock still sees every profiled phase.
#[test]
fn teed_phase_clock_keeps_trace_and_report_identical() {
    use coupled_cosched::obs::PhaseClock;
    let sink = || SinkObserver::new(JsonlSink::new(Vec::new()));
    let plain = CoupledSimulation::with_observer(config(SchemeCombo::HY), workload(13), sink())
        .run_traced();
    let teed = CoupledSimulation::with_observer(
        config(SchemeCombo::HY),
        workload(13),
        TeeObserver::new(sink(), PhaseClock::new()),
    )
    .run_traced();
    let plain_bytes = plain.observer.into_sink().into_inner();
    assert!(!plain_bytes.is_empty());
    assert_eq!(
        plain_bytes,
        teed.observer.first.into_sink().into_inner(),
        "teeing the phase clock must not perturb the trace"
    );
    assert_eq!(plain.report.records, teed.report.records);
    assert_eq!(plain.report.stats, teed.report.stats);
    assert_eq!(plain.report.sched_stats, teed.report.sched_stats);
    assert_eq!(plain.report.metrics, teed.report.metrics);
    assert_eq!(plain.report.events, teed.report.events);

    let clock = &teed.observer.second;
    let calls = |phase: &str| {
        clock
            .profile()
            .iter()
            .find(|p| p.phase == phase)
            .map_or(0, |p| p.calls)
    };
    assert_eq!(
        calls("scheduler-iteration"),
        teed.report.metrics.counter("sched.iterations")
    );
    assert_eq!(calls("rpc-call"), teed.report.stats.rpc_calls);
    assert_eq!(clock.rpc_latency().count, teed.report.stats.rpc_calls);
}

/// Three machines with background load, ten 3-way co-start groups, and
/// five mate pairs between machines 0 and 2.
fn three_way_workload(seed: u64) -> (Vec<Trace>, GroupRegistry) {
    let rng = SimRng::seed_from_u64(seed);
    let mut traces: Vec<Trace> = (0..3)
        .map(|m| {
            TraceGenerator::new(
                MachineModel::eureka().with_runtime(1_000.0, 1.0),
                MachineId(m),
            )
            .span(SimDuration::from_days(1))
            .target_utilization(0.5)
            .generate(&mut rng.fork(m as u64))
        })
        .collect();
    let mut groups = GroupRegistry::new();
    for g in 0..10u64 {
        let id = JobId(100_000 + g);
        for (m, trace) in traces.iter_mut().enumerate() {
            trace.push(Job::new(
                id,
                MachineId(m),
                SimTime::from_secs(2_000 + g * 5_000 + m as u64 * 90),
                8 + g,
                SimDuration::from_secs(1_200),
                SimDuration::from_secs(2_400),
            ));
            trace.resort();
        }
        groups.insert_group(GroupId(g), (0..3).map(|m| (MachineId(m), id)).collect());
    }
    for g in 0..5u64 {
        let id = JobId(200_000 + g);
        for m in [0, 2] {
            traces[m].push(Job::new(
                id,
                MachineId(m),
                SimTime::from_secs(3_000 + g * 7_000 + m as u64 * 60),
                20,
                SimDuration::from_secs(900),
                SimDuration::from_secs(1_800),
            ));
            traces[m].resort();
        }
        groups.insert_group(
            GroupId(100 + g),
            vec![(MachineId(0), id), (MachineId(2), id)],
        );
    }
    (traces, groups)
}

fn three_way_config() -> NwayConfig {
    NwayConfig {
        machines: (0..3)
            .map(|m| {
                let mut c = MachineConfig::eureka(MachineId(m));
                c.name = format!("M{m}");
                c
            })
            .collect(),
        cosched: [Scheme::Hold, Scheme::Yield, Scheme::Hold]
            .map(CoschedConfig::paper)
            .into(),
        max_events: 1_000_000,
    }
}

/// The 2-way invariants hold for a 3-way group run on the same event loop:
/// same seed ⇒ identical JSONL bytes, traced report == untraced report, and
/// the trace reconstructs every group member's lifecycle and feeds the
/// span and critical-path analyzers.
#[test]
fn three_way_group_traces_are_byte_identical_and_reconstruct() {
    let traced = || {
        let (traces, groups) = three_way_workload(21);
        let sink = SinkObserver::new(JsonlSink::new(Vec::new()));
        CoupledSimulation::with_groups(three_way_config(), traces, groups, sink).run_nway()
    };
    let (first, second) = (traced(), traced());
    let bytes = first.observer.into_sink().into_inner();
    assert!(!bytes.is_empty());
    assert_eq!(
        bytes,
        second.observer.into_sink().into_inner(),
        "same seed must write byte-identical JSONL traces"
    );

    let (traces, groups) = three_way_workload(21);
    let untraced = CoupledSimulation::nway(three_way_config(), traces, groups.clone())
        .run_nway()
        .report;
    assert_eq!(first.report, untraced, "tracing must not change the run");
    assert!(!untraced.deadlocked && !untraced.aborted);
    assert_eq!(untraced.group_spreads.len(), 15, "every group completes");
    assert!(untraced.all_groups_synchronized());
    assert!(
        untraced.stats.rpc_calls > 0,
        "groups rendezvous over the protocol"
    );
    assert!(untraced.stats.holds > 0 && untraced.stats.yields > 0);

    let records = read_trace_str(&String::from_utf8(bytes).unwrap()).unwrap();
    SpanTree::from_records(&records).expect("well-formed spans");
    CriticalPathReport::from_records(&records).expect("pair roots name machines 0 and 1");
    let set = LifecycleSet::from_records(&records).expect("a consistent lifecycle");
    let finished: usize = untraced.records.iter().map(Vec::len).sum();
    assert_eq!(set.jobs.len(), finished, "one lifecycle per job");
    for members in groups.iter() {
        for &(machine, job) in members {
            let lc = &set.jobs[&(machine.0, job.0)];
            let rec = untraced.records[machine.0]
                .iter()
                .find(|r| r.id == job)
                .unwrap();
            assert!(lc.paired, "{machine}/{job}");
            assert_eq!(lc.start, Some(rec.start.as_secs()), "{machine}/{job}");
            assert_eq!(lc.end, Some(rec.end.as_secs()), "{machine}/{job}");
        }
    }
}

#[test]
fn metrics_snapshots_are_identical_across_runs() {
    for combo in SchemeCombo::ALL {
        let r1 = CoupledSimulation::new(config(combo), workload(17)).run();
        let r2 = CoupledSimulation::new(config(combo), workload(17)).run();
        assert_eq!(r1.metrics, r2.metrics, "{}", combo.label());
        assert_eq!(r1.stats, r2.stats, "{}", combo.label());
        assert_eq!(
            r1.queue_high_water,
            r2.queue_high_water,
            "{}",
            combo.label()
        );
    }
}

#[test]
fn seeds_change_outcomes() {
    let r1 = CoupledSimulation::new(config(SchemeCombo::HY), workload(14)).run();
    let r2 = CoupledSimulation::new(config(SchemeCombo::HY), workload(15)).run();
    assert_ne!(r1.records, r2.records);
}

#[test]
fn baseline_is_independent_of_scheme_configuration() {
    // With coscheduling disabled, the configured scheme must not matter.
    let mut cfg_h = config(SchemeCombo::HH);
    cfg_h.cosched = [CoschedConfig::disabled(), CoschedConfig::disabled()];
    let mut cfg_y = config(SchemeCombo::YY);
    cfg_y.cosched = [CoschedConfig::disabled(), CoschedConfig::disabled()];
    let r1 = CoupledSimulation::new(cfg_h, workload(16)).run();
    let r2 = CoupledSimulation::new(cfg_y, workload(16)).run();
    assert_eq!(r1.records, r2.records);
}

#[test]
fn rng_forks_are_stream_independent() {
    // Consuming one substream must not change another — the property that
    // lets the harness add consumers without perturbing existing draws.
    let root = SimRng::seed_from_u64(99);
    let mut probe1 = root.fork(5);
    let first: Vec<u64> = (0..8)
        .map(|_| rand::RngCore::next_u64(&mut probe1))
        .collect();
    // Interleave heavy use of other forks.
    for s in 0..64 {
        let mut other = root.fork(s + 100);
        for _ in 0..100 {
            rand::RngCore::next_u64(&mut other);
        }
    }
    let mut probe2 = root.fork(5);
    let second: Vec<u64> = (0..8)
        .map(|_| rand::RngCore::next_u64(&mut probe2))
        .collect();
    assert_eq!(first, second);
}
