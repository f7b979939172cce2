//! Benchmark of the coupled coscheduling stack: four workloads, end-to-end
//! metrics from untraced runs, and per-layer metrics from a separate traced
//! run. Everything is driven through the repository's public functions;
//! see `README.md` for the workloads, the metrics and the layer map.

pub mod digest;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod live;
pub mod report;
pub mod sims;

use crate::host::{
    peak_rss_mb, pin_to_current_cpu, reference_seconds, single_malloc_arena, LOOPBACK_NOMINAL_S,
    REFERENCE_NOMINAL_S,
};
use crate::live::{live_inputs, live_pass, LiveInputs, LivePass};
use crate::report::{median, quantile, secs, Metrics, Outcome, Tally};
use crate::sims::{
    paper_inputs, pipeline_inputs, saturated_inputs, sim_pass, traces_digest, yardstick_hy,
    SimInputs, SimPass,
};
use std::time::Instant;

/// Seed used when `--seed` is not given; its outputs are pinned below.
pub const DEFAULT_SEED: u64 = 3;

/// Seed kept out of tuning, for claims that must hold on an unseen seed.
pub const HELD_OUT_SEED: u64 = 17;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    SaturatedFlat,
    TracePipeline,
    LiveTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::SaturatedFlat,
        Workload::TracePipeline,
        Workload::LiveTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::SaturatedFlat => "saturated_flat",
            Workload::TracePipeline => "trace_pipeline",
            Workload::LiveTcp => "live_tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Output digest of one pass at [`DEFAULT_SEED`] and [`Scale::standard`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::PaperSweep => 0x1965_0e2d_8c6a_dc1f,
            Workload::SaturatedFlat => 0xaa59_bcc6_cebe_c601,
            Workload::TracePipeline => 0x3747_1c45_c035_4ca0,
            Workload::LiveTcp => 0x4051_64b0_168b_7833,
        }
    }
}

/// The ROADMAP yardstick at the default seed — 30-day traces, HY — as
/// `cosched simulate` reports it: engine events, protocol requests, yields.
pub const YARDSTICK_HY: (u64, u64, u64) = (28_724, 1_917_829, 609_808);

/// Trace span and number of independent draws (trace seeds) of a workload.
/// One pass runs every draw once; its jobs per second is total jobs over
/// total time, so the more draws, the less one seed's inputs weigh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Draws {
    pub days: u64,
    pub count: u64,
}

/// Input sizes and repetition counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub paper: Draws,
    pub saturated: Draws,
    pub pipeline: Draws,
    pub live: Draws,
    /// Passes per untraced run, at least (see `scaled_rate`).
    pub min_passes: usize,
    /// Set-ups before each pass of an untraced run; `setup_s` is their
    /// median. The traced run sets up once.
    pub setups_per_pass: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn standard() -> Self {
        Scale {
            paper: Draws { days: 10, count: 8 },
            saturated: Draws {
                days: 10,
                count: 14,
            },
            pipeline: Draws { days: 7, count: 8 },
            live: Draws {
                days: 10,
                count: 36,
            },
            min_passes: 3,
            setups_per_pass: 3,
        }
    }

    /// A few seconds per workload, for the self-test.
    pub fn smoke() -> Self {
        let d = Draws { days: 2, count: 2 };
        Scale {
            paper: d,
            saturated: d,
            pipeline: d,
            live: d,
            min_passes: 2,
            setups_per_pass: 1,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Minimum measured time; at least one pass always runs.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    pub scale: Scale,
    /// Digest every pass must produce (pinned for the default seed).
    pub expect_digest: Option<u64>,
}

/// End-to-end metric names with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer self times. With `layers.unattributed_s` they add up to
/// `layers.wall_s` on every workload.
pub const SELF_TIMES: [&str; 20] = [
    "workload.generate_s",
    "workload.pair_s",
    "workload.swf_s",
    "core.build_s",
    "core.loop_self_s",
    "sched.self_s",
    "core.rpc_self_s",
    "core.rpc_handler_s",
    "core.release_sweep_s",
    "obs.serialize_s",
    "trace.parse_s",
    "trace.lifecycle_s",
    "trace.attribution_s",
    "trace.critical_path_s",
    "live.setup_s",
    "live.submit_s",
    "live.complete_s",
    "live.pump_self_s",
    "proto.wire_s",
    "proto.handler_s",
];

/// Every per-layer metric with its unit; all are printed for every
/// workload, zero where the workload does not exercise the layer.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("workload.generate_s", "s"),
    ("workload.pair_s", "s"),
    ("workload.swf_s", "s"),
    ("workload.jobs", "count"),
    ("workload.pairs", "count"),
    ("sim.events", "count"),
    ("sim.queue_high_water", "count"),
    ("sched.iterations", "count"),
    ("sched.picks", "count"),
    ("sched.backfill_hits", "count"),
    ("sched.alloc_fail_capacity", "count"),
    ("sched.alloc_fail_fragmentation", "count"),
    ("sched.pick_ratio", "ratio"),
    ("sched.self_s", "s"),
    ("core.build_s", "s"),
    ("core.run_s", "s"),
    ("core.loop_self_s", "s"),
    ("core.rpc_calls", "count"),
    ("core.rpcs_per_pick", "ratio"),
    ("core.holds", "count"),
    ("core.yields", "count"),
    ("core.degradations", "count"),
    ("core.release_sweeps", "count"),
    ("core.forced_releases", "count"),
    ("core.rpc_self_s", "s"),
    ("core.rpc_handler_s", "s"),
    ("core.release_sweep_s", "s"),
    ("live.setup_s", "s"),
    ("live.pump_calls", "count"),
    ("live.pump_self_s", "s"),
    ("live.submit_s", "s"),
    ("live.complete_s", "s"),
    ("proto.rpc_calls", "count"),
    ("proto.rpc_errors", "count"),
    ("proto.rtt_s", "s"),
    ("proto.handler_s", "s"),
    ("proto.wire_s", "s"),
    ("proto.rtt_p50_us", "us"),
    ("proto.rtt_p99_us", "us"),
    ("obs.records", "count"),
    ("obs.bytes", "bytes"),
    ("obs.serialize_s", "s"),
    ("obs.probe_share", "ratio"),
    ("obs.overhead_s", "s"),
    ("trace.parse_s", "s"),
    ("trace.lifecycle_s", "s"),
    ("trace.attribution_s", "s"),
    ("trace.critical_path_s", "s"),
    ("layers.wall_s", "s"),
    ("layers.unattributed_s", "s"),
    ("layers.passes", "count"),
];

enum Inputs {
    Sim(SimInputs),
    Live(LiveInputs),
}

impl Inputs {
    fn build(o: &Options) -> Result<Inputs, String> {
        let (seed, s) = (o.seed, o.scale);
        Ok(match o.workload {
            Workload::PaperSweep => Inputs::Sim(paper_inputs(seed, s.paper.days, s.paper.count)),
            Workload::SaturatedFlat => {
                Inputs::Sim(saturated_inputs(seed, s.saturated.days, s.saturated.count)?)
            }
            Workload::TracePipeline => {
                Inputs::Sim(pipeline_inputs(seed, s.pipeline.days, s.pipeline.count))
            }
            Workload::LiveTcp => Inputs::Live(live_inputs(seed, s.live.days, s.live.count)),
        })
    }

    fn digest(&self) -> u64 {
        match self {
            Inputs::Sim(i) => i.digest(),
            Inputs::Live(i) => traces_digest(&i.traces),
        }
    }
}

enum Pass {
    Sim(SimPass),
    Live(LivePass),
}

impl Pass {
    fn run(inputs: &Inputs, o: &Options) -> Pass {
        match inputs {
            Inputs::Sim(i) => {
                Pass::Sim(sim_pass(i, o.workload == Workload::TracePipeline, o.traced))
            }
            Inputs::Live(i) => Pass::Live(live_pass(i, o.traced)),
        }
    }

    fn digest(&self) -> u64 {
        match self {
            Pass::Sim(p) => p.digest,
            Pass::Live(p) => p.digest,
        }
    }

    /// Jobs, measured wall seconds and the reference kernel's seconds of
    /// each unit of the pass (a simulation or a live draw), in order.
    fn units(&self) -> Vec<(u64, f64, f64)> {
        match self {
            Pass::Sim(p) => p
                .cell_jobs
                .iter()
                .zip(&p.cell_walls)
                .zip(&p.cell_refs)
                .map(|((&j, &w), &r)| (j, w, r))
                .collect(),
            Pass::Live(p) => p.draws.iter().map(|&(w, jobs, r)| (jobs, w, r)).collect(),
        }
    }

    /// Nominal time of the reference the units are divided by: the
    /// loopback echo for `live_tcp`, the memory kernel otherwise.
    fn reference_nominal(&self) -> f64 {
        match self {
            Pass::Sim(_) => REFERENCE_NOMINAL_S,
            Pass::Live(_) => LOOPBACK_NOMINAL_S,
        }
    }

    fn take_tally(&mut self) -> Tally {
        std::mem::take(match self {
            Pass::Sim(p) => &mut p.tally,
            Pass::Live(p) => &mut p.tally,
        })
    }
}

/// Checks every pass shares: the deterministic digest repeats exactly and
/// matches the pinned one, and the layer spans nest.
fn check_pass(o: &Options, pass: &Pass, first: u64, tally: &mut Tally) {
    let d = pass.digest();
    tally.check(d == first, || {
        format!("pass digest {d:016x} differs from the first pass's {first:016x}")
    });
    if let Some(want) = o.expect_digest {
        tally.check(d == want, || format!("digest {d:016x}, pinned {want:016x}"));
    }
    if let Pass::Sim(p) = pass {
        tally.check(p.layers.mismatches == 0, || {
            format!("{} layer spans did not nest", p.layers.mismatches)
        });
    }
}

/// At the default seed, `saturated_flat` also runs the ROADMAP yardstick
/// (its scenario on 30-day traces, combo HY) once, outside the measurement,
/// and checks it against what `cosched simulate` reports for it.
fn check_yardstick(o: &Options, tally: &mut Tally) {
    if o.workload != Workload::SaturatedFlat
        || o.seed != DEFAULT_SEED
        || o.scale != Scale::standard()
    {
        return;
    }
    let hy = yardstick_hy(DEFAULT_SEED);
    tally.check(hy == Ok(YARDSTICK_HY), || {
        format!("yardstick HY (events, RPCs, yields) = {hy:?}, simulate gives {YARDSTICK_HY:?}")
    });
}

/// Jobs per second of a run at the reference speed. Each unit's time in
/// each pass is divided by the reference's time just before it
/// (`host::reference_seconds`, or `host::loopback_reference_seconds` for
/// `live_tcp`), the unit's median over passes is taken, and the sum over
/// units is scaled back to seconds at the reference's nominal time. The
/// host this was built on runs the same work up to 1.8 times slower in
/// spells that can outlast a run; the ratio cancels most of that, and the
/// median over passes the rest.
fn scaled_rate(passes: &[Pass]) -> f64 {
    let per_pass: Vec<Vec<(u64, f64, f64)>> = passes.iter().map(Pass::units).collect();
    let (mut jobs, mut scaled) = (0u64, 0.0);
    for (u, &(j, _, _)) in per_pass[0].iter().enumerate() {
        jobs += j;
        // A pass cut short by a failed check has fewer units.
        let ratios: Vec<f64> = per_pass
            .iter()
            .filter_map(|p| p.get(u))
            .map(|&(_, w, r)| w / r)
            .collect();
        scaled += median(&ratios);
    }
    jobs as f64 / (scaled * passes[0].reference_nominal())
}

/// Run the benchmark once and collect its metrics.
pub fn run(o: &Options) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = pin_to_current_cpu()
        .map(drop)
        .and_then(|()| single_malloc_arena())
    {
        eprintln!("warning: {e}");
    }
    // Set-up is repeated before every pass of an untraced run, so its
    // median samples the whole run rather than one moment of the host.
    let mut setup_s = Vec::new();
    let mut setup_scaled = Vec::new();
    let mut inputs: Option<Inputs> = None;
    let mut input_digest: Option<u64> = None;
    let min_passes = if o.traced { 1 } else { o.scale.min_passes };
    let mut measured = 0.0;
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || measured < o.seconds {
        let setups = match (&inputs, o.traced) {
            (None, true) => 1,
            (Some(_), true) => 0,
            (_, false) => o.scale.setups_per_pass,
        };
        for _ in 0..setups {
            // Drop the previous inputs first: peak memory is one set.
            drop(inputs.take());
            let reference = reference_seconds();
            let t0 = Instant::now();
            let built = match Inputs::build(o) {
                Ok(i) => i,
                Err(e) => {
                    out.tally.check(false, || format!("set-up failed: {e}"));
                    return out;
                }
            };
            setup_s.push(secs(t0));
            setup_scaled.push(setup_s[setup_s.len() - 1] / reference * REFERENCE_NOMINAL_S);
            let d = built.digest();
            let first = *input_digest.get_or_insert(d);
            out.tally.check(d == first, || {
                "repeated set-ups built different inputs".to_string()
            });
            inputs = Some(built);
        }
        let inputs = inputs.as_ref().expect("built above");
        let t0 = Instant::now();
        let mut pass = Pass::run(inputs, o);
        measured += secs(t0);
        out.tally.merge(pass.take_tally());
        let first = passes.first().map_or(pass.digest(), Pass::digest);
        check_pass(o, &pass, first, &mut out.tally);
        passes.push(pass);
    }
    let inputs = inputs.expect("at least one pass");
    // Read before the yardstick check, whose 30-day run is not part of the
    // measured work.
    let peak_rss = peak_rss_mb();
    check_yardstick(o, &mut out.tally);
    out.digest = passes[0].digest();
    let jobs_per_s = scaled_rate(&passes);
    out.tally
        .check(jobs_per_s.is_finite() && jobs_per_s > 0.0, || {
            "the run completed no jobs".into()
        });
    if o.traced {
        layer_metrics(&inputs, &passes, setup_s[0], &mut out.metrics);
    } else {
        let m = &mut out.metrics;
        m.set("jobs_per_s", jobs_per_s, "1/s");
        // `live_tcp` also sets up servers and connections in every pass.
        let live_setup: Vec<f64> = passes
            .iter()
            .filter_map(|p| match p {
                Pass::Live(l) => {
                    let reference = l.draws.iter().map(|d| d.2).sum::<f64>() / l.draws.len() as f64;
                    Some(l.setup_s / reference * LOOPBACK_NOMINAL_S)
                }
                Pass::Sim(_) => None,
            })
            .collect();
        let extra = if live_setup.is_empty() {
            0.0
        } else {
            median(&live_setup)
        };
        m.set("setup_s", median(&setup_scaled) + extra, "s");
    }
    let finite = out
        .metrics
        .names()
        .all(|n| out.metrics.get(n).is_some_and(f64::is_finite));
    out.tally
        .check(finite, || "a metric is not a finite number".into());
    match peak_rss {
        Some(mb) if !o.traced => out.metrics.set("peak_rss_mb", mb, "MB"),
        Some(_) => {}
        None => out
            .tally
            .check(false, || "cannot read VmHWM from /proc/self/status".into()),
    }
    out
}

/// Per-layer metrics of a traced run: set-up once, then the mean over
/// passes of each time and the (identical) per-pass counts.
fn layer_metrics(inputs: &Inputs, passes: &[Pass], setup_wall: f64, m: &mut Metrics) {
    for (name, unit) in PER_LAYER {
        m.set(name, 0.0, unit);
    }
    let n = passes.len() as f64;
    let times = match inputs {
        Inputs::Sim(i) => i.times,
        Inputs::Live(i) => i.times,
    };
    m.set("workload.generate_s", times.generate_s, "s");
    m.set("workload.pair_s", times.pair_s, "s");
    m.set("workload.swf_s", times.swf_s, "s");
    let traces: Vec<_> = match inputs {
        Inputs::Sim(i) => i.traces.iter().collect(),
        Inputs::Live(i) => i.traces.iter().collect(),
    };
    let jobs: usize = traces.iter().map(|t| t[0].len() + t[1].len()).sum();
    let pairs: usize = traces.iter().map(|t| t[0].paired_count()).sum();
    m.set("workload.jobs", jobs as f64, "count");
    m.set("workload.pairs", pairs as f64, "count");
    m.set("layers.passes", n, "count");

    let mut pass_wall = 0.0;
    match passes.first() {
        Some(Pass::Sim(first)) => {
            let c = first.counts;
            m.set("sim.events", c.events as f64, "count");
            m.set("sim.queue_high_water", c.queue_high_water as f64, "count");
            m.set("sched.iterations", c.iterations as f64, "count");
            m.set("sched.picks", c.picks as f64, "count");
            m.set("sched.backfill_hits", c.backfill_hits as f64, "count");
            m.set(
                "sched.alloc_fail_capacity",
                c.alloc_fail_capacity as f64,
                "count",
            );
            m.set(
                "sched.alloc_fail_fragmentation",
                c.alloc_fail_fragmentation as f64,
                "count",
            );
            let attempts = c.picks + c.alloc_fail_capacity + c.alloc_fail_fragmentation;
            m.set("sched.pick_ratio", ratio(c.picks, attempts), "ratio");
            m.set("core.rpc_calls", c.rpc_calls as f64, "count");
            m.set("core.rpcs_per_pick", ratio(c.rpc_calls, c.picks), "ratio");
            m.set("core.holds", c.holds as f64, "count");
            m.set("core.yields", c.yields as f64, "count");
            m.set("core.degradations", c.degradations as f64, "count");
            m.set("core.release_sweeps", c.release_sweeps as f64, "count");
            m.set("core.forced_releases", c.forced_releases as f64, "count");
            let t = first.trace;
            m.set("obs.records", t.records as f64, "count");
            m.set("obs.bytes", t.bytes as f64, "bytes");
            m.set(
                "obs.probe_share",
                ratio(t.probe_records, t.records),
                "ratio",
            );

            let mean = |f: &dyn Fn(&SimPass) -> f64| {
                passes
                    .iter()
                    .map(|p| match p {
                        Pass::Sim(s) => f(s),
                        Pass::Live(_) => 0.0,
                    })
                    .sum::<f64>()
                    / n
            };
            let ns = 1e-9;
            let build = mean(&|p| p.layers.build_s);
            let run = mean(&|p| p.layers.run_s);
            let top = mean(&|p| p.layers.spans.top_covered_ns as f64 * ns);
            m.set("core.build_s", build, "s");
            m.set("core.run_s", run, "s");
            m.set("core.loop_self_s", run - top, "s");
            m.set(
                "sched.self_s",
                mean(&|p| p.layers.spans.sched_ns as f64 * ns),
                "s",
            );
            m.set(
                "core.rpc_self_s",
                mean(&|p| p.layers.spans.rpc_ns as f64 * ns),
                "s",
            );
            m.set(
                "core.rpc_handler_s",
                mean(&|p| p.layers.spans.handler_ns as f64 * ns),
                "s",
            );
            m.set(
                "core.release_sweep_s",
                mean(&|p| p.layers.spans.sweep_ns as f64 * ns),
                "s",
            );
            m.set(
                "obs.serialize_s",
                mean(&|p| p.layers.spans.serialize_ns as f64 * ns),
                "s",
            );
            m.set(
                "obs.overhead_s",
                build + run - mean(&|p| p.layers.untraced_run_s),
                "s",
            );
            m.set("trace.parse_s", mean(&|p| p.trace.parse_s), "s");
            m.set("trace.lifecycle_s", mean(&|p| p.trace.lifecycle_s), "s");
            m.set("trace.attribution_s", mean(&|p| p.trace.attribution_s), "s");
            m.set(
                "trace.critical_path_s",
                mean(&|p| p.trace.critical_path_s),
                "s",
            );
            pass_wall = mean(&|p| p.wall_s);
        }
        Some(Pass::Live(first)) => {
            let mean = |f: &dyn Fn(&LivePass) -> f64| {
                passes
                    .iter()
                    .map(|p| match p {
                        Pass::Live(l) => f(l),
                        Pass::Sim(_) => 0.0,
                    })
                    .sum::<f64>()
                    / n
            };
            let rtt = mean(&|p| p.rtt_ns.iter().sum::<u64>() as f64 * 1e-9);
            let handler = mean(&|p| p.handler_s);
            m.set("live.setup_s", mean(&|p| p.setup_s), "s");
            m.set("live.pump_calls", first.pump_calls as f64, "count");
            m.set("live.pump_self_s", mean(&|p| p.pump_s) - rtt, "s");
            m.set("live.submit_s", mean(&|p| p.submit_s), "s");
            m.set("live.complete_s", mean(&|p| p.complete_s), "s");
            m.set("proto.rpc_calls", first.rpc_calls as f64, "count");
            m.set("proto.rpc_errors", mean(&|p| p.rpc_errors as f64), "count");
            m.set("proto.rtt_s", rtt, "s");
            m.set("proto.handler_s", handler, "s");
            m.set("proto.wire_s", rtt - handler, "s");
            let all: Vec<f64> = passes
                .iter()
                .flat_map(|p| match p {
                    Pass::Live(l) => l.rtt_ns.clone(),
                    Pass::Sim(_) => Vec::new(),
                })
                .map(|ns| ns as f64 * 1e-3)
                .collect();
            if !all.is_empty() {
                m.set("proto.rtt_p50_us", quantile(&all, 0.5), "us");
                m.set("proto.rtt_p99_us", quantile(&all, 0.99), "us");
            }
            pass_wall = mean(&|p| p.setup_s + p.loop_s);
        }
        None => {}
    }
    let wall = setup_wall + pass_wall;
    let attributed: f64 = SELF_TIMES.iter().filter_map(|n| m.get(n)).sum();
    m.set("layers.wall_s", wall, "s");
    m.set("layers.unattributed_s", wall - attributed, "s");
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
