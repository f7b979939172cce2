//! Input builders. Each rebuilds a public scenario of the repository call
//! by call, so the time spent in trace generation, pairing and SWF I/O can
//! be attributed to the `workload` layer.

use crate::report::timed;
use cosched_bench::harness::{INTREPID_UTIL, LOAD_SWEEP_PAIR_SHARE, PAIR_WINDOW};
use cosched_sim::{SimDuration, SimRng};
use cosched_workload::{
    pairing, swf, JobId, MachineId, MachineModel, MateRef, Trace, TraceGenerator,
};

/// Trace seed of draw `i` of a run with seed `seed`. Draw 0 uses the run's
/// seed itself; the others are spread over the seed space so that the draws
/// of two different run seeds practically never coincide.
pub fn draw_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Wall time spent in each `workload` entry point while building inputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `TraceGenerator::generate`.
    pub generate_s: f64,
    /// `pairing::*`.
    pub pair_s: f64,
    /// `swf::write_swf` and `swf::read_swf`.
    pub swf_s: f64,
}

/// `cosched_bench::harness::anl_load_traces`, timed per call.
pub fn load_sweep_traces(seed: u64, days: u64, eureka_util: f64, t: &mut SetupTimes) -> [Trace; 2] {
    let rng = SimRng::seed_from_u64(seed);
    let (mut intrepid, mut eureka) = timed(&mut t.generate_s, || {
        let intrepid = TraceGenerator::new(MachineModel::intrepid(), MachineId(0))
            .span(SimDuration::from_days(days))
            .target_utilization(INTREPID_UTIL)
            .generate(&mut rng.fork(0));
        let eureka = TraceGenerator::new(MachineModel::eureka(), MachineId(1))
            .span(SimDuration::from_days(days))
            .target_utilization(eureka_util)
            .generate(&mut rng.fork(1));
        (intrepid, eureka)
    });
    timed(&mut t.pair_s, || {
        pairing::pair_by_window(&mut intrepid, &mut eureka, PAIR_WINDOW);
        pairing::thin_pairs_to_share(
            &mut intrepid,
            &mut eureka,
            LOAD_SWEEP_PAIR_SHARE,
            &mut rng.fork(2),
        );
    });
    [intrepid, eureka]
}

/// `cosched_bench::harness::anl_proportion_traces`, timed per call.
pub fn proportion_traces(seed: u64, days: u64, proportion: f64, t: &mut SetupTimes) -> [Trace; 2] {
    let rng = SimRng::seed_from_u64(seed);
    let (mut intrepid, mut eureka) = timed(&mut t.generate_s, || {
        let intrepid = TraceGenerator::new(MachineModel::intrepid(), MachineId(0))
            .span(SimDuration::from_days(days))
            .target_utilization(INTREPID_UTIL)
            .generate(&mut rng.fork(0));
        let span_secs = SimDuration::from_days(days).as_secs() as f64;
        let interarrival = span_secs / intrepid.len() as f64;
        let base = MachineModel::eureka();
        let runtime_mean = interarrival * 100.0 * 0.5 / base.mean_size();
        let eureka = TraceGenerator::new(base.with_runtime(runtime_mean, 1.5), MachineId(1))
            .span(SimDuration::from_days(days))
            .job_count(intrepid.len())
            .generate(&mut rng.fork(1));
        (intrepid, eureka)
    });
    timed(&mut t.pair_s, || {
        pairing::pair_exact_proportion(
            &mut intrepid,
            &mut eureka,
            proportion,
            PAIR_WINDOW,
            &mut rng.fork(2),
        );
    });
    [intrepid, eureka]
}

/// The saturated yardstick exactly as the CLI builds it:
///
/// ```text
/// cosched generate --machine intrepid --days D --util 0.7 --seed s
/// cosched generate --machine eureka   --days D --util 0.5 --seed s+1
/// cosched pair --proportion 0.1 --seed s+2
/// ```
///
/// followed by `simulate`, which reads both SWF files back and applies the
/// pairs file (mate ids only: the submit-time shift `pair` makes to its own
/// copy of trace B never reaches the simulated trace).
pub fn saturated_traces(seed: u64, days: u64, t: &mut SetupTimes) -> Result<[Trace; 2], String> {
    let generate = |model: MachineModel, util: f64, seed: u64| {
        TraceGenerator::new(model, MachineId(0))
            .span(SimDuration::from_days(days))
            .target_utilization(util)
            .generate(&mut SimRng::seed_from_u64(seed))
    };
    let (ga, gb) = timed(&mut t.generate_s, || {
        (
            generate(MachineModel::intrepid(), 0.7, seed),
            generate(MachineModel::eureka(), 0.5, seed.wrapping_add(1)),
        )
    });
    let swf_round_trip = |trace: &Trace, machine: MachineId| -> Result<Trace, String> {
        let mut bytes = Vec::new();
        swf::write_swf(&mut bytes, trace).map_err(|e| format!("write SWF: {e}"))?;
        let (back, skipped) =
            swf::read_swf(bytes.as_slice(), machine).map_err(|e| format!("read SWF: {e}"))?;
        if skipped > 0 {
            return Err(format!("SWF read-back skipped {skipped} records"));
        }
        Ok(back)
    };
    let [mut a, mut b] = timed(&mut t.swf_s, || -> Result<_, String> {
        Ok([
            swf_round_trip(&ga, MachineId(0))?,
            swf_round_trip(&gb, MachineId(1))?,
        ])
    })?;
    let pairs: Vec<(JobId, JobId)> = timed(&mut t.pair_s, || {
        let (mut pa, mut pb) = (a.clone(), b.clone());
        let mut rng = SimRng::seed_from_u64(seed.wrapping_add(2));
        pairing::pair_exact_proportion(&mut pa, &mut pb, 0.1, PAIR_WINDOW, &mut rng);
        pa.jobs()
            .iter()
            .filter_map(|j| j.mate.map(|m| (j.id, m.job)))
            .collect()
    });
    set_mates(&mut a, &mut b, &pairs)?;
    Ok([a, b])
}

/// Apply `(a job, b job)` mate pairs, as `cosched simulate --pairs` does.
fn set_mates(a: &mut Trace, b: &mut Trace, pairs: &[(JobId, JobId)]) -> Result<(), String> {
    let (ma, mb) = (a.machine(), b.machine());
    let index = |t: &Trace| -> std::collections::HashMap<JobId, usize> {
        t.jobs()
            .iter()
            .enumerate()
            .map(|(i, j)| (j.id, i))
            .collect()
    };
    let (ia, ib) = (index(a), index(b));
    for &(ja, jb) in pairs {
        let (Some(&xa), Some(&xb)) = (ia.get(&ja), ib.get(&jb)) else {
            return Err(format!("pair ({}, {}) names a missing job", ja.0, jb.0));
        };
        a.jobs_mut()[xa].mate = Some(MateRef {
            machine: mb,
            job: jb,
        });
        b.jobs_mut()[xb].mate = Some(MateRef {
            machine: ma,
            job: ja,
        });
    }
    pairing::validate_pairing(a, b)
}
