//! Wall-clock phase profiling.
//!
//! Measures where real time goes (scheduler iterations, release sweeps,
//! RPC round-trips) so Criterion regressions can be attributed to a phase.
//! Wall-clock data is inherently nondeterministic, so it is kept strictly
//! out of traces and report metrics: a [`PhaseProfiler`] lives beside the
//! simulation and is reported separately.
//!
//! The simulator itself reads no clock. A [`PhaseClock`] is an ordinary
//! [`Observer`] that stamps the wall clock on boundary events the driver
//! already emits, so an untraced run pays nothing for profiling and a
//! profiled run is attached like any other observer.

use crate::metrics::{Histogram, HistogramSnapshot};
use crate::observe::Observer;
use crate::trace::{SpanKind, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// The profiled phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// One scheduler iteration (pick/start loop) on one machine.
    SchedulerIteration,
    /// One periodic release sweep.
    ReleaseSweep,
    /// One cross-domain RPC round-trip.
    RpcCall,
    /// One event dispatched from the queue.
    EventDispatch,
}

impl Phase {
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::SchedulerIteration => "scheduler-iteration",
            Phase::ReleaseSweep => "release-sweep",
            Phase::RpcCall => "rpc-call",
            Phase::EventDispatch => "event-dispatch",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PhaseStats {
    calls: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// Accumulates wall-clock samples per phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    phases: BTreeMap<Phase, PhaseStats>,
}

impl PhaseProfiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a closure and attribute it to `phase`.
    #[inline]
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.record(phase, start.elapsed().as_nanos() as u64);
        result
    }

    /// Record an externally measured sample (nanoseconds).
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        let stats = self.phases.entry(phase).or_insert(PhaseStats {
            calls: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        stats.calls += 1;
        stats.total_ns = stats.total_ns.saturating_add(nanos);
        stats.min_ns = stats.min_ns.min(nanos);
        stats.max_ns = stats.max_ns.max(nanos);
    }

    /// Merge another profiler's samples into this one.
    pub fn merge(&mut self, other: &PhaseProfiler) {
        for (&phase, stats) in &other.phases {
            let mine = self.phases.entry(phase).or_insert(PhaseStats {
                calls: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            mine.calls += stats.calls;
            mine.total_ns = mine.total_ns.saturating_add(stats.total_ns);
            mine.min_ns = mine.min_ns.min(stats.min_ns);
            mine.max_ns = mine.max_ns.max(stats.max_ns);
        }
    }

    /// Serializable summary, one entry per phase seen.
    pub fn snapshot(&self) -> Vec<PhaseSnapshot> {
        self.phases
            .iter()
            .map(|(&phase, stats)| PhaseSnapshot {
                phase: phase.as_str().to_string(),
                calls: stats.calls,
                total_ns: stats.total_ns,
                mean_ns: stats.total_ns.checked_div(stats.calls).unwrap_or(0),
                min_ns: if stats.calls == 0 { 0 } else { stats.min_ns },
                max_ns: stats.max_ns,
            })
            .collect()
    }
}

/// Wall-clock summary for one phase. Nondeterministic by nature — never
/// embed this in a `SimulationReport`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    pub phase: String,
    pub calls: u64,
    pub total_ns: u64,
    pub mean_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

/// Wall-clock phase profile rebuilt from the driver's event stream.
///
/// * `scheduler-iteration`: `SchedIterationStart` to `SchedIterationEnd`;
/// * `rpc-call`: `SpanOpen` to `SpanClose` of an `Rpc` span (the caller
///   side of one protocol call), also kept as a latency histogram;
/// * `release-sweep`: `SpanOpen` to `SpanClose` of a `ReleaseSweep` span.
///
/// Attach it behind any other observer in a `TeeObserver` (as `second`):
/// it only reads events, so the first observer's output is unchanged.
/// Attaching it turns tracing on, so a profiled run also pays for building
/// the events it reads.
#[derive(Debug, Default)]
pub struct PhaseClock {
    profiler: PhaseProfiler,
    rpc_latency: Histogram,
    /// Start of the open scheduler iteration (iterations do not nest).
    iteration: Option<Instant>,
    /// Open RPC and release-sweep spans: `(span id, phase, start)`.
    open: Vec<(u64, Phase, Instant)>,
}

impl PhaseClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-phase wall-clock summary, as [`PhaseProfiler::snapshot`].
    pub fn profile(&self) -> Vec<PhaseSnapshot> {
        self.profiler.snapshot()
    }

    /// Wall-clock latency distribution of the protocol calls, in
    /// nanoseconds (`rpc.latency_ns`).
    pub fn rpc_latency(&self) -> HistogramSnapshot {
        self.rpc_latency.snapshot("rpc.latency_ns")
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Observer for PhaseClock {
    fn active(&self) -> bool {
        true
    }

    fn record(&mut self, _time: u64, _machine: usize, event: TraceEvent) {
        match event {
            TraceEvent::SchedIterationStart { .. } => self.iteration = Some(Instant::now()),
            TraceEvent::SchedIterationEnd { .. } => {
                if let Some(t0) = self.iteration.take() {
                    self.profiler
                        .record(Phase::SchedulerIteration, elapsed_ns(t0));
                }
            }
            TraceEvent::SpanOpen { span, kind, .. } => {
                let phase = match kind {
                    SpanKind::Rpc(_) => Phase::RpcCall,
                    SpanKind::ReleaseSweep => Phase::ReleaseSweep,
                    _ => return,
                };
                self.open.push((span, phase, Instant::now()));
            }
            TraceEvent::SpanClose { span } => {
                let Some(pos) = self.open.iter().rposition(|o| o.0 == span) else {
                    return;
                };
                let (_, phase, t0) = self.open.swap_remove(pos);
                let ns = elapsed_ns(t0);
                self.profiler.record(phase, ns);
                if phase == Phase::RpcCall {
                    self.rpc_latency.record(ns);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let mut p = PhaseProfiler::new();
        let out = p.time(Phase::SchedulerIteration, || 41 + 1);
        assert_eq!(out, 42);
        p.record(Phase::SchedulerIteration, 100);
        p.record(Phase::ReleaseSweep, 7);
        let snap = p.snapshot();
        assert_eq!(snap.len(), 2);
        let sweep = snap.iter().find(|s| s.phase == "release-sweep").unwrap();
        assert_eq!(sweep.calls, 1);
        assert_eq!(sweep.total_ns, 7);
        let iter = snap
            .iter()
            .find(|s| s.phase == "scheduler-iteration")
            .unwrap();
        assert_eq!(iter.calls, 2);
        assert!(iter.max_ns >= 100);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PhaseProfiler::new();
        a.record(Phase::RpcCall, 10);
        let mut b = PhaseProfiler::new();
        b.record(Phase::RpcCall, 30);
        b.record(Phase::EventDispatch, 5);
        a.merge(&b);
        let snap = a.snapshot();
        let rpc = snap.iter().find(|s| s.phase == "rpc-call").unwrap();
        assert_eq!(rpc.calls, 2);
        assert_eq!(rpc.total_ns, 40);
        assert_eq!(rpc.mean_ns, 20);
    }

    fn open(span: u64, kind: SpanKind) -> TraceEvent {
        TraceEvent::SpanOpen {
            span,
            parent: 0,
            kind,
            job: 0,
            mate: 0,
        }
    }

    #[test]
    fn phase_clock_times_boundary_events() {
        use crate::trace::RpcKind;
        let mut c = PhaseClock::new();
        c.record(
            0,
            0,
            TraceEvent::SchedIterationStart {
                queued: 1,
                running: 0,
                free_nodes: 1,
            },
        );
        c.record(0, 1, open(1, SpanKind::Rpc(RpcKind::GetMateStatus)));
        // A handler span nests inside the RPC but is not a phase.
        c.record(0, 0, open(2, SpanKind::RpcHandler(RpcKind::GetMateStatus)));
        c.record(0, 0, TraceEvent::SpanClose { span: 2 });
        c.record(0, 1, TraceEvent::SpanClose { span: 1 });
        c.record(0, 0, TraceEvent::SchedIterationEnd { started: 0 });
        c.record(5, 0, open(3, SpanKind::ReleaseSweep));
        c.record(5, 0, TraceEvent::SpanClose { span: 3 });
        // A close without a matching open is ignored.
        c.record(5, 0, TraceEvent::SpanClose { span: 9 });
        c.record(5, 0, TraceEvent::SchedIterationEnd { started: 0 });

        let calls: Vec<(String, u64)> = c
            .profile()
            .into_iter()
            .map(|p| (p.phase, p.calls))
            .collect();
        assert_eq!(
            calls,
            [
                ("scheduler-iteration".to_string(), 1),
                ("release-sweep".to_string(), 1),
                ("rpc-call".to_string(), 1),
            ]
        );
        let lat = c.rpc_latency();
        assert_eq!((lat.name.as_str(), lat.count), ("rpc.latency_ns", 1));
        assert!(c.open.is_empty());
    }
}
