//! Smoke-scale self-test of the benchmark: metric names and units, the
//! layer attribution identity, and digest checking.

use cosched_bench::harness::{anl_load_traces, anl_proportion_traces};
use cosched_perfbench::inputs::{load_sweep_traces, proportion_traces, SetupTimes};
use cosched_perfbench::report::Outcome;
use cosched_perfbench::sims::SimInputs;
use cosched_perfbench::{run, Options, Scale, Workload, END_TO_END, PER_LAYER, SELF_TIMES};

fn smoke(workload: Workload, traced: bool, expect_digest: Option<u64>) -> Outcome {
    run(&Options {
        workload,
        seed: 1,
        seconds: 0.0,
        traced,
        scale: Scale::smoke(),
        expect_digest,
    })
}

fn names(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .names()
        .map(|n| {
            (
                n.to_string(),
                o.metrics.unit(n).unwrap_or_default().to_string(),
            )
        })
        .collect()
}

fn sorted(list: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<_> = list
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    v.sort();
    v
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for w in Workload::ALL {
        let e2e = smoke(w, false, None);
        assert_eq!(
            e2e.tally.failed,
            0,
            "{}: {:?}",
            w.name(),
            e2e.tally.failures
        );
        assert_eq!(names(&e2e), sorted(&END_TO_END), "{}", w.name());
        for (name, _) in END_TO_END {
            assert!(
                e2e.metrics.get(name).unwrap() > 0.0,
                "{}: {name} is zero",
                w.name()
            );
        }
        let traced = smoke(w, true, None);
        assert_eq!(
            traced.tally.failed,
            0,
            "{}: {:?}",
            w.name(),
            traced.tally.failures
        );
        assert_eq!(names(&traced), sorted(&PER_LAYER), "{}", w.name());
    }
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(
            compact.contains(&format!("\"name\":\"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

#[test]
fn self_times_add_up_to_the_traced_wall() {
    for w in Workload::ALL {
        let o = smoke(w, true, None);
        let m = &o.metrics;
        let wall = m.get("layers.wall_s").unwrap();
        let parts: f64 = SELF_TIMES.iter().map(|n| m.get(n).unwrap()).sum();
        let unattributed = m.get("layers.unattributed_s").unwrap();
        assert!(wall > 0.0);
        assert!(
            (parts + unattributed - wall).abs() <= 1e-9 * wall.max(1.0),
            "{}: {parts} + {unattributed} != {wall}",
            w.name()
        );
        let busy = match w {
            Workload::PaperSweep | Workload::SaturatedFlat => {
                vec!["sched.self_s", "core.rpc_self_s", "core.loop_self_s"]
            }
            Workload::TracePipeline => vec![
                "sched.self_s",
                "obs.serialize_s",
                "trace.parse_s",
                "trace.critical_path_s",
            ],
            Workload::LiveTcp => vec!["live.pump_self_s", "proto.wire_s", "proto.handler_s"],
        };
        for name in busy {
            assert!(m.get(name).unwrap() > 0.0, "{}: {name} is zero", w.name());
        }
    }
}

#[test]
fn a_wrong_digest_is_reported_as_a_failure() {
    for w in [Workload::SaturatedFlat, Workload::LiveTcp] {
        let first = smoke(w, false, None);
        assert_eq!(first.tally.failed, 0);
        let same = smoke(w, false, Some(first.digest));
        assert_eq!(same.tally.failed, 0, "{}: the digest repeats", w.name());
        let wrong = smoke(w, false, Some(first.digest ^ 1));
        assert!(wrong.tally.failed > 0, "{}", w.name());
        assert!(
            wrong.tally.failures.iter().all(|f| f.contains("pinned")),
            "{:?}",
            wrong.tally.failures
        );
        assert!(wrong.json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn timed_builders_match_the_harness() {
    let digest = |traces| {
        SimInputs {
            traces: vec![traces],
            ..SimInputs::default()
        }
        .digest()
    };
    let mut t = SetupTimes::default();
    assert_eq!(
        digest(load_sweep_traces(4, 2, 0.5, &mut t)),
        digest(anl_load_traces(4, 2, 0.5))
    );
    assert_eq!(
        digest(proportion_traces(4, 2, 0.1, &mut t)),
        digest(anl_proportion_traces(4, 2, 0.1))
    );
    assert!(t.generate_s > 0.0 && t.pair_s > 0.0);
}
