//! Tier-1 determinism invariant of the campaign runner: a sweep fanned out
//! over N workers produces results **byte-identical** to the one-worker
//! sweep — same `CaseResult`s, same serialized JSON. Each cell owns its RNG
//! seed and simulation state, and the campaign folds outcomes in
//! submission order, so this must stay exactly true; any divergence means
//! shared state or a float-accumulation-order change leaked in.

use cosched_bench::campaign::{sweep, SweepKind};
use cosched_bench::harness::{Scale, SweepPoint};

fn tiny() -> Scale {
    Scale { days: 2, seeds: 2 }
}

fn to_json(points: &[SweepPoint]) -> String {
    serde_json::to_string(&points).expect("sweep points serialize")
}

/// One worker (the reference: no pool) against four, structurally and as
/// serialized bytes.
fn assert_worker_count_invariant(kind: SweepKind) {
    let scale = tiny();
    let one = sweep(kind, scale, 1);
    let four = sweep(kind, scale, 4);
    assert_eq!(one.len(), kind.grid().len());
    // Structural equality…
    assert_eq!(one, four, "4-thread campaign == 1-thread campaign");
    // …and byte identity of the serialized artifact (what lands in
    // report files): equality of f64s implies equal formatting, but pin
    // the bytes too so the invariant survives representation changes.
    assert_eq!(to_json(&one), to_json(&four));
}

#[test]
fn parallel_load_sweep_is_byte_identical_to_serial() {
    assert_worker_count_invariant(SweepKind::Load);
}

#[test]
fn parallel_prop_sweep_is_byte_identical_to_serial() {
    assert_worker_count_invariant(SweepKind::Proportion);
}
