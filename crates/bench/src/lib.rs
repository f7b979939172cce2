//! Experiment harnesses reproducing the paper's evaluation (§V).
//!
//! [`harness`] builds each scenario's traces and runs one seed of a case;
//! [`campaign`] enumerates and runs whole sweeps on a worker pool; and
//! [`figures`] turns sweep points into the paper's tables —
//! `cosched figures` prints them all. The remaining binaries in `src/bin/`
//! (`ablate`, `cohorts`, `compare_reservation`) are studies beyond the
//! paper's figures. Criterion benches (in `benches/`) measure the
//! simulator's own performance and the cost of design alternatives.
//!
//! Scale control: the full paper-scale runs (one month, 10 seeds per case)
//! take minutes. The default `quick` scale (10 days, 3 seeds) preserves
//! every qualitative shape the paper reports in seconds; `smoke` (3 days,
//! 1 seed) is for CI. `cosched figures --scale` picks it; the study
//! binaries read `COSCHED_SCALE` and reject unknown values.

pub mod campaign;
pub mod figures;
pub mod harness;

pub use campaign::{
    bench_campaign, check_campaign, sweep, CampaignCell, CampaignReport, CampaignTiming, SweepKind,
};
pub use harness::{CaseResult, Scale, SeedOutcome, SweepPoint};
