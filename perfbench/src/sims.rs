//! The three simulator workloads: `paper_sweep`, `saturated_flat` and
//! `trace_pipeline`. Inputs are built once per set-up; a pass runs every
//! cell of the workload once and checks its outputs.

use crate::digest::{report_digest, Digest};
use crate::host::reference_seconds;
use crate::inputs::{
    draw_seed, load_sweep_traces, proportion_traces, saturated_traces, SetupTimes,
};
use crate::layers::{LayerClock, LayerTimes, SerializeClock, TimedObserver};
use crate::report::{secs, Tally};
use cosched_bench::harness::{EUREKA_UTILS, PROPORTIONS};
use cosched_core::{
    CoschedConfig, CoupledConfig, CoupledSimulation, SchemeCombo, SimulationReport,
};
use cosched_obs::{read_trace_str, JsonlSink, SinkObserver, TeeObserver, TraceEvent};
use cosched_sched::MachineConfig;
use cosched_sim::SimDuration;
use cosched_trace::{AttributionReport, CriticalPathReport, LifecycleSet};
use cosched_workload::{MachineId, Trace};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Paired proportion of the `trace_pipeline` traces.
pub const PIPELINE_PROPORTION: f64 = 0.10;

/// Combos `trace_pipeline` runs: the hold–yield mix with the most records
/// and the yield–yield pair, which together cover hold, yield, forced
/// release and anchored/direct rendezvous paths in the trace.
pub const PIPELINE_COMBOS: [SchemeCombo; 2] = [SchemeCombo::HY, SchemeCombo::YY];

/// One simulation of a workload: a configuration over one trace pair.
#[derive(Debug, Clone)]
pub struct SimCell {
    pub label: String,
    pub config: CoupledConfig,
    /// Index into [`SimInputs::traces`].
    pub traces: usize,
    /// The combo, or `None` for the no-coscheduling baseline (whose pairs
    /// are not expected to co-start).
    pub combo: Option<SchemeCombo>,
}

/// Everything a simulator pass needs, built by set-up.
#[derive(Debug, Clone, Default)]
pub struct SimInputs {
    pub traces: Vec<[Trace; 2]>,
    pub cells: Vec<SimCell>,
    pub times: SetupTimes,
}

impl SimInputs {
    /// Jobs and pairs over all distinct trace pairs.
    pub fn sizes(&self) -> (u64, u64) {
        let jobs = self
            .traces
            .iter()
            .map(|t| (t[0].len() + t[1].len()) as u64)
            .sum();
        let pairs = self.traces.iter().map(|t| t[0].paired_count() as u64).sum();
        (jobs, pairs)
    }

    /// Digest of the built inputs (repeated set-ups must agree).
    pub fn digest(&self) -> u64 {
        traces_digest(&self.traces)
    }
}

/// Digest of every job of every trace pair.
pub fn traces_digest(traces: &[[Trace; 2]]) -> u64 {
    let mut d = Digest::default();
    for t in traces.iter().flatten() {
        for j in t.jobs() {
            d.u64(j.id.0)
                .u64(j.submit.as_secs())
                .u64(j.size)
                .u64(j.runtime.as_secs())
                .u64(j.walltime.as_secs())
                .u64(j.mate.map_or(u64::MAX, |m| m.job.0));
        }
    }
    d.finish()
}

/// `paper_sweep`: the load sweep (Eureka utilisation 0.25/0.5/0.75) and
/// the proportion sweep (2.5–33 % pairs) of the paper, each grid point run
/// as the baseline and the four combos — the cells of
/// `cosched_bench::campaign::sweep_cells` — for each of `draws` seeds,
/// except HH at 33 % pairs. That cell livelocks on some seeds — the
/// release-sweep and re-hold cycle never drains: on 30-day traces seeds 2,
/// 9 and 12 of 1–17, on 10-day traces seed 1690 of 1–2000 (300,000 events
/// in 6 s without finishing) — so no run containing it could be relied on
/// to finish. It stays out until the program is fixed.
pub fn paper_inputs(seed: u64, days: u64, draws: u64) -> SimInputs {
    let mut inputs = SimInputs::default();
    for d in 0..draws {
        let sd = draw_seed(seed, d);
        let grid = EUREKA_UTILS
            .iter()
            .map(|&u| ("load", u))
            .chain(PROPORTIONS.iter().map(|&p| ("prop", p)));
        for (sweep, x) in grid {
            let traces = match sweep {
                "load" => load_sweep_traces(sd, days, x, &mut inputs.times),
                _ => proportion_traces(sd, days, x, &mut inputs.times),
            };
            inputs.traces.push(traces);
            let combos = std::iter::once(None).chain(SchemeCombo::ALL.iter().copied().map(Some));
            for combo in combos {
                if x == 0.33 && combo == Some(SchemeCombo::HH) {
                    continue;
                }
                inputs.cells.push(SimCell {
                    label: format!(
                        "d{d}/{sweep}{x}/{}",
                        combo.map_or("base".into(), |c| c.label())
                    ),
                    config: match combo {
                        Some(c) => CoupledConfig::anl(c),
                        None => CoupledConfig::anl_baseline(),
                    },
                    traces: inputs.traces.len() - 1,
                    combo,
                });
            }
        }
    }
    inputs
}

/// `saturated_flat`: the CLI-built yardstick on flat 40,960/100-node
/// machines with a 20-minute release period, all four combos, for each of
/// `draws` seeds.
pub fn saturated_inputs(seed: u64, days: u64, draws: u64) -> Result<SimInputs, String> {
    let mut inputs = SimInputs::default();
    let release = Some(SimDuration::from_mins(20));
    for d in 0..draws {
        inputs.traces.push(saturated_traces(
            draw_seed(seed, d),
            days,
            &mut inputs.times,
        )?);
        for &c in &SchemeCombo::ALL {
            inputs.cells.push(SimCell {
                label: format!("d{d}/{}", c.label()),
                config: CoupledConfig {
                    machines: [
                        MachineConfig::flat("A", MachineId(0), 40_960),
                        MachineConfig::flat("B", MachineId(1), 100),
                    ],
                    cosched: [
                        CoschedConfig::paper(c.of(0)).with_release_period(release),
                        CoschedConfig::paper(c.of(1)).with_release_period(release),
                    ],
                    max_events: 50_000_000,
                },
                traces: inputs.traces.len() - 1,
                combo: Some(c),
            });
        }
    }
    Ok(inputs)
}

/// The ROADMAP yardstick: the `saturated_flat` scenario on 30-day traces,
/// combo HY. Returns its engine events, protocol requests and yields.
pub fn yardstick_hy(seed: u64) -> Result<(u64, u64, u64), String> {
    let inputs = saturated_inputs(seed, 30, 1)?;
    let cell = inputs
        .cells
        .iter()
        .find(|c| c.combo == Some(SchemeCombo::HY))
        .expect("saturated_inputs builds every combo");
    let r = CoupledSimulation::new(cell.config.clone(), inputs.traces[cell.traces].clone()).run();
    Ok((r.events, r.stats.rpc_calls, r.stats.yields))
}

/// `trace_pipeline`: paper-model proportion traces at 10 % pairs, run as
/// [`PIPELINE_COMBOS`], for each of `draws` seeds.
pub fn pipeline_inputs(seed: u64, days: u64, draws: u64) -> SimInputs {
    let mut inputs = SimInputs::default();
    for d in 0..draws {
        let traces = proportion_traces(
            draw_seed(seed, d),
            days,
            PIPELINE_PROPORTION,
            &mut inputs.times,
        );
        inputs.traces.push(traces);
        for &c in &PIPELINE_COMBOS {
            inputs.cells.push(SimCell {
                label: format!("d{d}/{}", c.label()),
                config: CoupledConfig::anl(c),
                traces: inputs.traces.len() - 1,
                combo: Some(c),
            });
        }
    }
    inputs
}

/// Deterministic counters summed over a pass (max for the high-water mark).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    pub jobs: u64,
    pub events: u64,
    pub queue_high_water: u64,
    pub iterations: u64,
    pub picks: u64,
    pub backfill_hits: u64,
    pub alloc_fail_capacity: u64,
    pub alloc_fail_fragmentation: u64,
    pub rpc_calls: u64,
    pub holds: u64,
    pub yields: u64,
    pub degradations: u64,
    pub release_sweeps: u64,
    pub forced_releases: u64,
}

impl SimCounts {
    fn add(&mut self, r: &SimulationReport) {
        self.jobs += (r.records[0].len() + r.records[1].len()) as u64;
        self.events += r.events;
        self.queue_high_water = self.queue_high_water.max(r.queue_high_water as u64);
        for s in &r.sched_stats {
            self.iterations += s.iterations;
            self.picks += s.picks;
            self.backfill_hits += s.backfill_hits;
            self.alloc_fail_capacity += s.alloc_fail_capacity;
            self.alloc_fail_fragmentation += s.alloc_fail_fragmentation;
        }
        self.rpc_calls += r.stats.rpc_calls;
        self.holds += r.stats.holds;
        self.yields += r.stats.yields;
        self.degradations += r.stats.degradations;
        self.release_sweeps += r.stats.release_sweeps;
        self.forced_releases += r.forced_releases;
    }
}

/// Trace volume and analysis times of `trace_pipeline`.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceStats {
    pub records: u64,
    pub bytes: u64,
    /// `SchedAllocFail`, span and `RpcCall` records.
    pub probe_records: u64,
    pub parse_s: f64,
    pub lifecycle_s: f64,
    pub attribution_s: f64,
    pub critical_path_s: f64,
}

/// Wall-clock layer times of one traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimLayerTimes {
    /// `CoupledSimulation::with_observer`.
    pub build_s: f64,
    /// `run_traced`, whole.
    pub run_s: f64,
    pub spans: LayerTimes,
    /// The same cells run untraced (outside the traced wall).
    pub untraced_run_s: f64,
    /// Span nesting errors seen by the clock (must be zero).
    pub mismatches: u64,
}

/// The result of one pass over every cell.
#[derive(Debug, Default)]
pub struct SimPass {
    /// Wall seconds of the measured work (builds, runs and, for
    /// `trace_pipeline`, trace analysis); excludes clones and checks.
    pub wall_s: f64,
    pub counts: SimCounts,
    pub trace: TraceStats,
    pub layers: SimLayerTimes,
    /// Per-cell completed jobs and measured wall seconds, in cell order.
    pub cell_jobs: Vec<u64>,
    pub cell_walls: Vec<f64>,
    /// The reference kernel's time just before each cell.
    pub cell_refs: Vec<f64>,
    pub digest: u64,
    pub tally: Tally,
}

/// Check one cell's report: every job finished, no deadlock or abort, and
/// (when coscheduling is on) every pair co-started.
fn check_report(cell: &SimCell, traces: &[Trace; 2], r: &SimulationReport, tally: &mut Tally) {
    let jobs = (traces[0].len() + traces[1].len()) as u64;
    let done = (r.records[0].len() + r.records[1].len()) as u64;
    tally.count(
        jobs,
        jobs.saturating_sub(done),
        &format!("{} jobs finishing", cell.label),
    );
    tally.check(!r.deadlocked && !r.aborted, || {
        format!(
            "{}: deadlocked={} aborted={}",
            cell.label, r.deadlocked, r.aborted
        )
    });
    if cell.combo.is_some() {
        let pairs = traces[0].paired_count() as u64;
        let synced = r.pair_offsets.iter().filter(|d| d.is_zero()).count() as u64;
        tally.count(
            pairs,
            pairs.saturating_sub(synced),
            &format!("{} pairs co-starting", cell.label),
        );
    }
}

/// Run one pass. With `traced`, each cell runs twice: untraced as the
/// reference, then with the [`LayerClock`]; the reports must agree.
pub fn sim_pass(inputs: &SimInputs, pipeline: bool, traced: bool) -> SimPass {
    let mut pass = SimPass::default();
    let mut digest = Digest::default();
    for cell in &inputs.cells {
        let traces = &inputs.traces[cell.traces];
        pass.cell_refs.push(reference_seconds());
        let wall_before = pass.wall_s;
        let reference = traced.then(|| {
            let (config, tr) = (cell.config.clone(), traces.clone());
            let t0 = Instant::now();
            let report = CoupledSimulation::new(config, tr).run();
            pass.layers.untraced_run_s += secs(t0);
            report_digest(&report)
        });
        let (config, tr) = (cell.config.clone(), traces.clone());
        let report = if pipeline {
            let (report, bytes, analysis) = pipeline_cell(config, tr, traced, &mut pass);
            check_trace(cell, traces, analysis, &mut pass.tally);
            digest.u64(bytes.len() as u64).bytes(&bytes);
            report
        } else if traced {
            let t0 = Instant::now();
            let sim = CoupledSimulation::with_observer(config, tr, LayerClock::new());
            let t1 = Instant::now();
            let art = sim.run_traced();
            pass.layers.build_s += (t1 - t0).as_secs_f64();
            pass.layers.run_s += secs(t1);
            pass.wall_s += secs(t0);
            record_clock(&art.observer, &mut pass.layers);
            art.report
        } else {
            let t0 = Instant::now();
            let report = CoupledSimulation::new(config, tr).run();
            pass.wall_s += secs(t0);
            report
        };
        check_report(cell, traces, &report, &mut pass.tally);
        let d = report_digest(&report);
        if let Some(reference) = reference {
            pass.tally.check(reference == d, || {
                format!(
                    "{}: traced report differs from the untraced one",
                    cell.label
                )
            });
        }
        digest.u64(d);
        pass.counts.add(&report);
        pass.cell_jobs
            .push((report.records[0].len() + report.records[1].len()) as u64);
        pass.cell_walls.push(pass.wall_s - wall_before);
    }
    pass.digest = digest.finish();
    pass
}

fn record_clock(clock: &LayerClock, layers: &mut SimLayerTimes) {
    layers.spans.add(&clock.times());
    layers.mismatches += clock.mismatches + clock.open_spans() as u64;
}

/// `trace_pipeline` cell: run with a JSONL sink writing to memory, then
/// parse the bytes and run the three offline analyses.
fn pipeline_cell(
    config: CoupledConfig,
    traces: [Trace; 2],
    traced: bool,
    pass: &mut SimPass,
) -> (SimulationReport, Vec<u8>, Result<Analysis, String>) {
    let sink = || SinkObserver::new(JsonlSink::new(Vec::new()));
    let t0 = Instant::now();
    let (report, bytes) = if traced {
        let cell: SerializeClock = Rc::new(Cell::new(0));
        let observer = TeeObserver::new(
            TimedObserver::new(sink(), Rc::clone(&cell)),
            LayerClock::with_serialize_clock(cell),
        );
        let t_new = Instant::now();
        let sim = CoupledSimulation::with_observer(config, traces, observer);
        let t_run = Instant::now();
        let art = sim.run_traced();
        pass.layers.build_s += (t_run - t_new).as_secs_f64();
        pass.layers.run_s += secs(t_run);
        record_clock(&art.observer.second, &mut pass.layers);
        (
            art.report,
            art.observer.first.inner.into_sink().into_inner(),
        )
    } else {
        let art = CoupledSimulation::with_observer(config, traces, sink()).run_traced();
        (art.report, art.observer.into_sink().into_inner())
    };
    let ts = &mut pass.trace;
    let t = Instant::now();
    let records = std::str::from_utf8(&bytes)
        .map_err(|e| e.to_string())
        .and_then(|text| read_trace_str(text).map_err(|e| e.to_string()));
    ts.parse_s += secs(t);
    let analysed = records.and_then(|records| {
        let t = Instant::now();
        let set = LifecycleSet::from_records(&records).map_err(|e| e.to_string())?;
        ts.lifecycle_s += secs(t);
        let t = Instant::now();
        let attribution = AttributionReport::from_lifecycles(&set);
        ts.attribution_s += secs(t);
        let t = Instant::now();
        let critical = CriticalPathReport::from_records(&records).map_err(|e| e.to_string())?;
        ts.critical_path_s += secs(t);
        Ok((records, set, attribution, critical))
    });
    pass.wall_s += secs(t0);
    match analysed {
        Ok((records, set, attribution, critical)) => {
            ts.records += records.len() as u64;
            ts.bytes += bytes.len() as u64;
            ts.probe_records += records
                .iter()
                .filter(|r| {
                    matches!(
                        r.event,
                        TraceEvent::SchedAllocFail { .. }
                            | TraceEvent::SpanOpen { .. }
                            | TraceEvent::SpanClose { .. }
                            | TraceEvent::RpcCall { .. }
                    )
                })
                .count() as u64;
            let analysis = Analysis {
                jobs: set.jobs.len() as u64,
                scheme: attribution.scheme_label(),
                paths: critical.pairs.len() as u64,
                unfinished_paths: critical.unfinished as u64,
                bad_paths: critical.pairs.iter().filter(|p| p.check().is_err()).count() as u64,
            };
            (report, bytes, Ok(analysis))
        }
        Err(e) => (report, bytes, Err(e)),
    }
}

/// What the offline analyses found in one cell's trace.
#[derive(Debug)]
struct Analysis {
    /// Jobs with a reconstructed lifecycle.
    jobs: u64,
    /// Scheme combo inferred from holds and yields in the trace.
    scheme: String,
    /// Pairs with a critical path, and pairs whose root span never closed.
    paths: u64,
    unfinished_paths: u64,
    /// Paths whose timed segments do not tile the pair's wait.
    bad_paths: u64,
}

/// Check the analyses of one trace against the cell and its traces.
fn check_trace(
    cell: &SimCell,
    traces: &[Trace; 2],
    analysis: Result<Analysis, String>,
    tally: &mut Tally,
) {
    let a = match analysis {
        Ok(a) => a,
        Err(e) => {
            return tally.check(false, || {
                format!("{}: trace analysis failed: {e}", cell.label)
            })
        }
    };
    let jobs = (traces[0].len() + traces[1].len()) as u64;
    tally.check(a.jobs == jobs, || {
        format!("{}: {} lifecycles for {jobs} jobs", cell.label, a.jobs)
    });
    let combo = cell.combo.map(|c| c.label()).unwrap_or_default();
    tally.check(a.scheme == combo, || {
        format!("{}: trace attributes scheme {}", cell.label, a.scheme)
    });
    let pairs = traces[0].paired_count() as u64;
    tally.check(
        a.paths == pairs && a.unfinished_paths == 0 && a.bad_paths == 0,
        || {
            format!(
                "{}: {} critical paths ({} unfinished, {} not gap-free) for {pairs} pairs",
                cell.label, a.paths, a.unfinished_paths, a.bad_paths
            )
        },
    );
}
