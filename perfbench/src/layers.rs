//! Wall-clock layer attribution for the traced run.
//!
//! [`LayerClock`] is an ordinary [`Observer`] attached with
//! `CoupledSimulation::with_observer`. It stamps the wall clock on boundary
//! events the driver already emits — `SchedIterationStart`/`End` and the
//! `SpanOpen`/`SpanClose` of `Rpc`, `RpcHandler` and `ReleaseSweep` spans —
//! keeps the open spans on a stack in memory, and turns them into self
//! times when the run ends: a span's self time is its duration minus the
//! part covered by its child spans. Time spent serialising trace records
//! (reported through [`SerializeClock`] by a [`TimedObserver`] that rides
//! ahead of the clock in a `TeeObserver`) is a child of whatever span is
//! open when the record is written.

use cosched_obs::{Observer, SpanKind, TraceEvent};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// The layers a simulator span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// One scheduler iteration (`sched`, minus the RPCs it issues).
    Sched,
    /// Caller side of one in-process RPC (`core`).
    Rpc,
    /// Remote handler of one RPC (`core`).
    Handler,
    /// One deadlock-breaker release sweep (`core`).
    Sweep,
}

#[derive(Debug)]
struct Frame {
    layer: Layer,
    span: u64,
    start: Instant,
    covered_ns: u64,
}

/// Self times per layer, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub sched_ns: u64,
    pub rpc_ns: u64,
    pub handler_ns: u64,
    pub sweep_ns: u64,
    /// Trace serialisation (only when a [`TimedObserver`] reports).
    pub serialize_ns: u64,
    /// Everything the spans above cover, closed at the top of the stack;
    /// the run's wall time minus this is the event loop's own time.
    pub top_covered_ns: u64,
}

impl LayerTimes {
    pub fn add(&mut self, o: &LayerTimes) {
        self.sched_ns += o.sched_ns;
        self.rpc_ns += o.rpc_ns;
        self.handler_ns += o.handler_ns;
        self.sweep_ns += o.sweep_ns;
        self.serialize_ns += o.serialize_ns;
        self.top_covered_ns += o.top_covered_ns;
    }
}

/// Shared cell through which a [`TimedObserver`] hands the duration of the
/// record it just wrote to the [`LayerClock`] behind it.
pub type SerializeClock = Rc<Cell<u64>>;

/// The benchmark's span clock (see the module docs).
#[derive(Debug, Default)]
pub struct LayerClock {
    stack: Vec<Frame>,
    times: LayerTimes,
    serialize: Option<SerializeClock>,
    /// Boundary events whose nesting did not match (must stay zero).
    pub mismatches: u64,
}

impl LayerClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock that also charges serialisation time reported in `cell`.
    pub fn with_serialize_clock(cell: SerializeClock) -> Self {
        LayerClock {
            serialize: Some(cell),
            ..Self::default()
        }
    }

    /// Self times accumulated so far. Spans still open are a mismatch.
    pub fn times(&self) -> LayerTimes {
        self.times
    }

    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    fn cover(&mut self, ns: u64) {
        match self.stack.last_mut() {
            Some(top) => top.covered_ns += ns,
            None => self.times.top_covered_ns += ns,
        }
    }

    fn push(&mut self, layer: Layer, span: u64) {
        self.stack.push(Frame {
            layer,
            span,
            start: Instant::now(),
            covered_ns: 0,
        });
    }

    /// Close the top frame.
    fn pop(&mut self) {
        let frame = self.stack.pop().expect("caller checked the stack");
        let dur = frame.start.elapsed().as_nanos() as u64;
        let own = dur.saturating_sub(frame.covered_ns);
        match frame.layer {
            Layer::Sched => self.times.sched_ns += own,
            Layer::Rpc => self.times.rpc_ns += own,
            Layer::Handler => self.times.handler_ns += own,
            Layer::Sweep => self.times.sweep_ns += own,
        }
        self.cover(dur);
    }
}

impl Observer for LayerClock {
    fn active(&self) -> bool {
        true
    }

    fn record(&mut self, _time: u64, _machine: usize, event: TraceEvent) {
        if let Some(cell) = &self.serialize {
            let ns = cell.take();
            if ns > 0 {
                self.times.serialize_ns += ns;
                self.cover(ns);
            }
        }
        match event {
            TraceEvent::SchedIterationStart { .. } => self.push(Layer::Sched, 0),
            TraceEvent::SchedIterationEnd { .. } => {
                if self.stack.last().is_some_and(|f| f.layer == Layer::Sched) {
                    self.pop();
                } else {
                    self.mismatches += 1;
                }
            }
            TraceEvent::SpanOpen { span, kind, .. } => match kind {
                SpanKind::Rpc(_) => self.push(Layer::Rpc, span),
                SpanKind::RpcHandler(_) => self.push(Layer::Handler, span),
                SpanKind::ReleaseSweep => self.push(Layer::Sweep, span),
                _ => {}
            },
            // Spans of other kinds (pair, hold, yield) are not on the stack.
            TraceEvent::SpanClose { span } => {
                if self.stack.last().is_some_and(|f| f.span == span) {
                    self.pop();
                } else if self.stack.iter().any(|f| f.span == span) {
                    self.mismatches += 1;
                }
            }
            _ => {}
        }
    }
}

/// Wraps an observer and times each `record` call, handing the duration
/// to the [`LayerClock`] that follows it in a `TeeObserver`.
#[derive(Debug)]
pub struct TimedObserver<O> {
    pub inner: O,
    cell: SerializeClock,
}

impl<O: Observer> TimedObserver<O> {
    pub fn new(inner: O, cell: SerializeClock) -> Self {
        TimedObserver { inner, cell }
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn active(&self) -> bool {
        self.inner.active()
    }

    fn record(&mut self, time: u64, machine: usize, event: TraceEvent) {
        let t0 = Instant::now();
        self.inner.record(time, machine, event);
        self.cell
            .set(self.cell.get() + t0.elapsed().as_nanos() as u64);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_obs::trace::RpcKind;

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
    fn nested_spans_split_into_self_times() {
        let mut c = LayerClock::new();
        c.record(
            0,
            0,
            TraceEvent::SchedIterationStart {
                queued: 1,
                running: 0,
                free_nodes: 1,
            },
        );
        c.record(0, 1, open(1, SpanKind::Rpc(RpcKind::GetMateJob)));
        c.record(0, 0, open(2, SpanKind::RpcHandler(RpcKind::GetMateJob)));
        c.record(0, 0, TraceEvent::SpanClose { span: 2 });
        c.record(0, 1, TraceEvent::SpanClose { span: 1 });
        // A hold span is not a wall-clock layer: ignored.
        c.record(0, 0, open(3, SpanKind::Hold));
        c.record(0, 0, TraceEvent::SchedIterationEnd { started: 0 });
        assert_eq!(c.mismatches, 0);
        assert_eq!(c.open_spans(), 0);
        let t = c.times();
        assert_eq!(t.top_covered_ns, t.sched_ns + t.rpc_ns + t.handler_ns);
    }
}
