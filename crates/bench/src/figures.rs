//! Table builders: turn sweep results into the rows/series each paper
//! figure plots, and [`report`], which runs both sweeps once and renders
//! every table of the evaluation (`cosched figures`).

use crate::campaign::{sweep, SweepKind};
use crate::harness::{anl_load_traces, anl_with, CaseResult, Scale, SweepPoint};
use cosched_core::{CoupledConfig, CoupledSimulation, SchemeCombo};
use cosched_metrics::table::{num, pct, Table};
use cosched_metrics::MachineSummary;
use std::fmt::Write;

/// One sweep grid point as consumed by the table builders: the case label
/// (utilization or proportion), the baseline result, and the per-combination
/// results with their labels.
pub type CasePoint<'a> = (String, &'a CaseResult, Vec<(String, &'a CaseResult)>);

fn machine_of(case: &CaseResult, m: usize) -> &MachineSummary {
    if m == 0 {
        &case.intrepid
    } else {
        &case.eureka
    }
}

/// The x-axis label of one grid point: a utilization or a percentage.
fn case_label(kind: SweepKind, x: f64) -> String {
    match kind {
        SweepKind::Load => format!("{x:.2}"),
        SweepKind::Proportion => format!("{}%", num(x * 100.0, 1)),
    }
}

/// What a sweep's figures are plotted against, as their titles say it.
fn axis(kind: SweepKind) -> &'static str {
    match kind {
        SweepKind::Load => "Eureka sys. util.",
        SweepKind::Proportion => "paired proportion",
    }
}

/// Fig. 3 / Fig. 7: average waiting time (minutes) with baseline and
/// difference, one table per machine.
pub fn fig_wait(points: &[CasePoint<'_>], m: usize, title: &str) -> Table {
    let mut t = Table::new(
        title,
        &["case", "combo", "cosched (min)", "base (min)", "diff (min)"],
    );
    for (label, base, combos) in points {
        for (combo, case) in combos {
            let c = machine_of(case, m).avg_wait_mins;
            let b = machine_of(base, m).avg_wait_mins;
            t.row(&[
                label.clone(),
                combo.clone(),
                num(c, 1),
                num(b, 1),
                num(c - b, 1),
            ]);
        }
    }
    t
}

/// Fig. 4 / Fig. 8: average slowdown with baseline and difference.
pub fn fig_slowdown(points: &[CasePoint<'_>], m: usize, title: &str) -> Table {
    let mut t = Table::new(title, &["case", "combo", "cosched", "base", "diff"]);
    for (label, base, combos) in points {
        for (combo, case) in combos {
            let c = machine_of(case, m).avg_slowdown;
            let b = machine_of(base, m).avg_slowdown;
            t.row(&[
                label.clone(),
                combo.clone(),
                num(c, 2),
                num(b, 2),
                num(c - b, 2),
            ]);
        }
    }
    t
}

/// Fig. 5 / Fig. 9: average paired-job synchronization time (minutes),
/// grouped by case / remote scheme, local hold vs local yield.
///
/// For machine `m`, the remote scheme is the other machine's letter; the
/// local scheme letter selects the bar within the group.
pub fn fig_sync(points: &[CasePoint<'_>], m: usize, title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "case / remote scheme",
            "local hold (min)",
            "local yield (min)",
        ],
    );
    for (label, _base, combos) in points {
        for remote in ["H", "Y"] {
            let mut hold = None;
            let mut yielded = None;
            for (combo, case) in combos {
                let local = &combo[m..=m];
                let rem = &combo[1 - m..=1 - m];
                if rem != remote {
                    continue;
                }
                let v = machine_of(case, m).avg_sync_mins;
                match local {
                    "H" => hold = Some(v),
                    _ => yielded = Some(v),
                }
            }
            t.row(&[
                format!("{label}/{remote}"),
                hold.map_or("-".into(), |v| num(v, 1)),
                yielded.map_or("-".into(), |v| num(v, 1)),
            ]);
        }
    }
    t
}

/// Fig. 6 / Fig. 10: service-unit loss (node-hours and lost utilization
/// rate) for cases where the local machine uses hold.
pub fn fig_loss(points: &[CasePoint<'_>], m: usize, title: &str) -> Table {
    let mut t = Table::new(
        title,
        &["case / remote scheme", "node-hours lost", "lost util rate"],
    );
    for (label, _base, combos) in points {
        for remote in ["H", "Y"] {
            for (combo, case) in combos {
                let local = &combo[m..=m];
                let rem = &combo[1 - m..=1 - m];
                if local != "H" || rem != remote {
                    continue;
                }
                let s = machine_of(case, m);
                t.row(&[
                    format!("{label}/{remote}"),
                    num(s.lost_node_hours, 0),
                    pct(s.lost_util_rate),
                ]);
            }
        }
    }
    t
}

/// Adapt a sweep's points into the generic point shape used by the
/// builders.
pub fn points(kind: SweepKind, sweep: &[SweepPoint]) -> Vec<CasePoint<'_>> {
    sweep
        .iter()
        .map(|(x, base, combos)| {
            (
                case_label(kind, *x),
                base,
                combos.iter().map(|(c, r)| (c.label(), r)).collect(),
            )
        })
        .collect()
}

/// Capability-validation table (§V-B): per case, whether all pairs started
/// simultaneously and whether any deadlock occurred.
pub fn validation_table(points: &[CasePoint<'_>], title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "case",
            "combo",
            "pairs sync'd",
            "deadlock",
            "forced releases",
            "paired share",
            "anchored/direct/indep",
        ],
    );
    for (label, _base, combos) in points {
        for (combo, case) in combos {
            let (a, d, i) = case.rendezvous;
            t.row(&[
                label.clone(),
                combo.clone(),
                if case.sync_ok { "yes" } else { "NO" }.into(),
                if case.deadlocked { "YES" } else { "no" }.into(),
                case.forced_releases.to_string(),
                pct(case.paired_share),
                format!("{a}/{d}/{i}"),
            ]);
        }
    }
    t
}

/// A per-machine figure builder: `(points, machine index, title)`.
type Builder = fn(&[CasePoint<'_>], usize, &str) -> Table;

/// The paper's evaluation figures in print order: figure number, the sweep
/// it plots, its builder, and what it measures.
const FIGURES: [(u32, SweepKind, Builder, &str); 8] = [
    (3, SweepKind::Load, fig_wait, "avg wait"),
    (4, SweepKind::Load, fig_slowdown, "avg slowdown"),
    (5, SweepKind::Load, fig_sync, "avg job sync time"),
    (6, SweepKind::Load, fig_loss, "service-unit loss"),
    (7, SweepKind::Proportion, fig_wait, "avg wait"),
    (8, SweepKind::Proportion, fig_slowdown, "avg slowdown"),
    (9, SweepKind::Proportion, fig_sync, "avg job sync time"),
    (10, SweepKind::Proportion, fig_loss, "service-unit loss"),
];

/// Run the load and proportion sweeps once at `scale` on `threads` workers
/// and render the whole evaluation as Markdown: the §V-B validation
/// tables, both panels of Figs. 3–10, and the §V-B deadlock demonstration.
/// The text is the same at any worker count.
pub fn report(scale: Scale, threads: usize) -> String {
    let load = sweep(SweepKind::Load, scale, threads);
    let prop = sweep(SweepKind::Proportion, scale, threads);
    let load = points(SweepKind::Load, &load);
    let prop = points(SweepKind::Proportion, &prop);
    let mut out = String::new();
    let _ = writeln!(out, "# Reproduction run — all experiments\n");
    let _ = writeln!(
        out,
        "Scale: {} days per trace, {} seeds per case.\n",
        scale.days, scale.seeds
    );
    for (pts, name) in [(&load, "load"), (&prop, "proportion")] {
        let title = format!("Validation — {name} sweep");
        let _ = writeln!(out, "{}", validation_table(pts, &title));
    }
    for (fig, kind, build, noun) in FIGURES {
        let pts = if kind == SweepKind::Load {
            &load
        } else {
            &prop
        };
        for (m, panel, name) in [(0, 'a', "Intrepid"), (1, 'b', "Eureka")] {
            let title = format!("Fig. {fig}({panel}) {name} {noun} by {}", axis(kind));
            let _ = writeln!(out, "{}", build(pts, m, &title));
        }
    }

    // Deadlock demonstration (§V-B): HH with and without the release
    // enhancement on one load-sweep workload.
    let hh = |config| CoupledSimulation::new(config, anl_load_traces(1, scale.days, 0.50)).run();
    let without = hh(anl_with(SchemeCombo::HH, |c| c.release_period = None));
    let with = hh(CoupledConfig::anl(SchemeCombo::HH));
    let _ = writeln!(out, "## Deadlock (§V-B)\n");
    let _ = writeln!(out, "| configuration | deadlocked | unfinished jobs |");
    let _ = writeln!(out, "|---------------|------------|-----------------|");
    let _ = writeln!(
        out,
        "| HH, release enhancement off | {} | {:?} |",
        without.deadlocked, without.unfinished
    );
    let _ = writeln!(
        out,
        "| HH, 20-minute release       | {} | {:?} |",
        with.deadlocked, with.unfinished
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{fold_outcomes, run_seed, SeedOutcome};

    type OwnedPoint = (String, CaseResult, Vec<(String, CaseResult)>);

    fn tiny_points() -> Vec<OwnedPoint> {
        let scale = Scale::smoke();
        let case = |combo| {
            let outcomes: Vec<SeedOutcome> = (1..=scale.seeds)
                .map(|s| run_seed(combo, anl_load_traces(s, scale.days, 0.5)))
                .collect();
            fold_outcomes(&outcomes)
        };
        let base = case(None);
        let hh = case(Some(SchemeCombo::HH));
        let yy = case(Some(SchemeCombo::YY));
        vec![(
            "0.50".to_string(),
            base,
            vec![("HH".to_string(), hh), ("YY".to_string(), yy)],
        )]
    }

    fn as_refs(pts: &[OwnedPoint]) -> Vec<CasePoint<'_>> {
        pts.iter()
            .map(|(l, b, cs)| {
                (
                    l.clone(),
                    b,
                    cs.iter().map(|(c, r)| (c.clone(), r)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn tables_render_with_expected_rows() {
        let pts = tiny_points();
        let refs = as_refs(&pts);
        let wait = fig_wait(&refs, 0, "wait");
        assert_eq!(wait.len(), 2); // 2 combos × 1 point
        let slow = fig_slowdown(&refs, 1, "slowdown");
        assert_eq!(slow.len(), 2);
        let sync = fig_sync(&refs, 0, "sync");
        assert_eq!(sync.len(), 2); // remote H and remote Y rows
        let loss = fig_loss(&refs, 0, "loss");
        assert_eq!(loss.len(), 1); // only HH has local-hold on machine 0 here
        let val = validation_table(&refs, "validation");
        assert!(val.render().contains("yes"));
    }
}
