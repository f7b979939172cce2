//! `live_tcp`: two `LiveDomain`s (Intrepid and Eureka, both with the hold
//! scheme) serving the protocol to each other over loopback TCP, driven in
//! a closed loop by one thread that steps a virtual clock in 60-second
//! ticks.
//!
//! Both domains hold: with a yielding domain the run is mostly repeated
//! polls by yielding jobs, whose number swings two- to threefold from one
//! trace seed to the next; holding domains make a few round trips per pair,
//! so the work per job, and the measurement, stays steady across seeds.
//! The simulator workloads cover the yield scheme.

use crate::digest::Digest;
use crate::host::loopback_reference_seconds;
use crate::inputs::{draw_seed, proportion_traces, SetupTimes};
use crate::report::{secs, timed, Tally};
use cosched_core::live::LiveDomain;
use cosched_core::{CoschedConfig, MateRegistry, Scheme};
use cosched_metrics::JobRecord;
use cosched_proto::tcp::{self, ServerHandle, TcpTransport};
use cosched_proto::{DomainService, ProtoError, Request, Response, SpanContext, Transport};
use cosched_sched::{Machine, MachineConfig};
use cosched_sim::SimTime;
use cosched_workload::{MachineId, Trace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Paired proportion of the live traces.
pub const LIVE_PROPORTION: f64 = 0.10;

/// Virtual seconds per tick of the driver's clock.
const TICK_SECS: u64 = 60;

/// Both domains run a scheduling iteration (`pump`) at every tick where a
/// job arrived or ended, as an event-driven resource manager does, and
/// otherwise every 20 virtual minutes — the hold-release period, so release
/// timers fire on time. Pumping every idle tick instead would make the run
/// mostly identical polling round trips of yielding jobs, whose number
/// swings several-fold with the seed.
const PERIODIC_PUMP_SECS: u64 = 20 * 60;

/// Per-call deadline of the TCP transports; a reply slower than this is a
/// failed RPC.
const RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// The live workload's inputs: one proportion-sweep trace pair per draw.
#[derive(Debug, Clone)]
pub struct LiveInputs {
    pub traces: Vec<[Trace; 2]>,
    pub times: SetupTimes,
}

pub fn live_inputs(seed: u64, days: u64, draws: u64) -> LiveInputs {
    let mut times = SetupTimes::default();
    let traces = (0..draws)
        .map(|d| proportion_traces(draw_seed(seed, d), days, LIVE_PROPORTION, &mut times))
        .collect();
    LiveInputs { traces, times }
}

/// A transport that counts round trips and, in the traced run, times each
/// one as the client sees it (kept out of the untraced run so the sample
/// buffer does not grow its memory with the request count).
struct TimedTransport {
    inner: TcpTransport,
    traced: bool,
    calls: u64,
    errors: u64,
    rtt_ns: Vec<u64>,
}

impl Transport for TimedTransport {
    fn call(&mut self, req: &Request) -> Result<Response, ProtoError> {
        let t0 = self.traced.then(Instant::now);
        let out = self.inner.call(req);
        if let Some(t0) = t0 {
            self.rtt_ns.push(t0.elapsed().as_nanos() as u64);
        }
        self.calls += 1;
        self.errors += u64::from(out.is_err());
        out
    }
}

/// A service wrapper that adds the time spent answering each request to a
/// shared counter (traced run only).
struct TimedService<S> {
    inner: S,
    ns: Arc<AtomicU64>,
}

impl<S: DomainService> TimedService<S> {
    fn time(&mut self, f: impl FnOnce(&mut S) -> Response) -> Response {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl<S: DomainService> DomainService for TimedService<S> {
    fn handle(&mut self, req: Request) -> Response {
        self.time(|s| s.handle(req))
    }

    fn handle_traced(&mut self, req: Request, ctx: SpanContext) -> Response {
        self.time(|s| s.handle_traced(req, ctx))
    }
}

/// The result of one live pass.
#[derive(Debug, Default)]
pub struct LivePass {
    /// Servers and connections.
    pub setup_s: f64,
    /// The closed loop, from the first tick to both domains drained.
    pub loop_s: f64,
    pub jobs: u64,
    /// Loop seconds, completed jobs and the loopback reference's time just
    /// before the loop, of each draw.
    pub draws: Vec<(f64, u64, f64)>,
    pub rpc_calls: u64,
    pub rpc_errors: u64,
    /// Client-observed round trips (traced run only).
    pub rtt_ns: Vec<u64>,
    pub submit_s: f64,
    pub complete_s: f64,
    /// `pump` calls, whole (round trips included).
    pub pump_s: f64,
    pub pump_calls: u64,
    /// Server-side handler time (traced run only).
    pub handler_s: f64,
    pub digest: u64,
    pub tally: Tally,
}

fn serve(
    domain: &LiveDomain,
    clock: &Arc<AtomicU64>,
    handler_ns: Option<&Arc<AtomicU64>>,
) -> std::io::Result<ServerHandle> {
    let clock = Arc::clone(clock);
    let service = domain.service(move || SimTime::from_secs(clock.load(Ordering::SeqCst)));
    let addr = "127.0.0.1:0".parse().expect("literal socket address");
    match handler_ns {
        Some(ns) => tcp::serve(
            addr,
            TimedService {
                inner: service,
                ns: Arc::clone(ns),
            },
        ),
        None => tcp::serve(addr, service),
    }
}

/// One live pass over every draw.
pub fn live_pass(inputs: &LiveInputs, traced: bool) -> LivePass {
    let mut pass = LivePass::default();
    let mut digest = Digest::default();
    for traces in &inputs.traces {
        live_draw(traces, traced, &mut pass, &mut digest);
    }
    pass.digest = digest.finish();
    pass
}

/// One draw: start both domains and their servers, drive every job through
/// the closed loop, shut down, and check the records.
fn live_draw(traces: &[Trace; 2], traced: bool, pass: &mut LivePass, digest: &mut Digest) {
    let [ta, tb] = traces;
    let clock = Arc::new(AtomicU64::new(0));
    let handler_ns = Arc::new(AtomicU64::new(0));

    let t0 = Instant::now();
    let registry = MateRegistry::from_traces(ta, tb);
    let intrepid = LiveDomain::new(
        Machine::new(MachineConfig::intrepid(MachineId(0))),
        CoschedConfig::paper(Scheme::Hold),
        registry.clone(),
        MachineId(1),
    );
    let eureka = LiveDomain::new(
        Machine::new(MachineConfig::eureka(MachineId(1))),
        CoschedConfig::paper(Scheme::Hold),
        registry,
        MachineId(0),
    );
    let timed_handler = traced.then_some(&handler_ns);
    let servers = serve(&intrepid, &clock, timed_handler).and_then(|si| {
        let se = serve(&eureka, &clock, timed_handler)?;
        Ok((si, se))
    });
    let (srv_i, srv_e) = match servers {
        Ok(s) => s,
        Err(e) => {
            pass.tally
                .check(false, || format!("cannot start servers: {e}"));
            return;
        }
    };
    let connect = |srv: &ServerHandle| {
        TcpTransport::connect(srv.addr(), RPC_TIMEOUT).map(|inner| TimedTransport {
            inner,
            traced,
            calls: 0,
            errors: 0,
            rtt_ns: Vec::new(),
        })
    };
    let (mut to_eureka, mut to_intrepid) =
        match connect(&srv_e).and_then(|a| Ok((a, connect(&srv_i)?))) {
            Ok(t) => t,
            Err(e) => {
                pass.tally.check(false, || format!("cannot connect: {e}"));
                return;
            }
        };
    pass.setup_s += secs(t0);

    // The loop ends when every job is submitted and both domains drained;
    // the horizon bound turns a livelock into a failed check.
    let last_submit = ta
        .jobs()
        .iter()
        .chain(tb.jobs())
        .map(|j| j.submit.as_secs())
        .max()
        .unwrap_or(0);
    let horizon = last_submit + 365 * 86_400;
    let (mut next_a, mut next_b) = (0usize, 0usize);
    let mut now = 0u64;
    let reference = match loopback_reference_seconds() {
        Ok(r) => r,
        Err(e) => {
            pass.tally
                .check(false, || format!("loopback reference failed: {e}"));
            return;
        }
    };
    let t_loop = Instant::now();
    let drained = loop {
        clock.store(now, Ordering::SeqCst);
        let t = SimTime::from_secs(now);
        let ended = timed(&mut pass.complete_s, || {
            intrepid.complete_due(t) + eureka.complete_due(t)
        });
        let submitted = timed(&mut pass.submit_s, || {
            let mut n = 0;
            for (trace, next, domain) in [(ta, &mut next_a, &intrepid), (tb, &mut next_b, &eureka)]
            {
                while let Some(job) = trace.jobs().get(*next).filter(|j| j.submit <= t) {
                    domain.submit(job.clone(), t);
                    *next += 1;
                    n += 1;
                }
            }
            n
        });
        if ended + submitted > 0 || now.is_multiple_of(PERIODIC_PUMP_SECS) {
            timed(&mut pass.pump_s, || {
                intrepid.pump(t, &mut to_eureka);
                eureka.pump(t, &mut to_intrepid);
            });
            pass.pump_calls += 2;
        }
        let all_in = next_a == ta.len() && next_b == tb.len();
        if all_in && intrepid.drained() && eureka.drained() {
            break true;
        }
        if now > horizon {
            break false;
        }
        now += TICK_SECS;
    };
    let loop_s = secs(t_loop);
    pass.loop_s += loop_s;

    let (mut rpcs, mut errors) = (0, 0);
    for t in [to_eureka, to_intrepid] {
        rpcs += t.calls;
        errors += t.errors;
        pass.rtt_ns.extend(t.rtt_ns);
    }
    pass.rpc_calls += rpcs;
    pass.rpc_errors += errors;
    srv_i.shutdown();
    srv_e.shutdown();
    pass.handler_s += handler_ns.load(Ordering::Relaxed) as f64 * 1e-9;

    let records = [intrepid.records(), eureka.records()];
    let done = (records[0].len() + records[1].len()) as u64;
    pass.jobs += done;
    pass.draws.push((loop_s, done, reference));
    check_live(traces, &records, drained, done, &mut pass.tally);
    pass.tally.count(rpcs, errors, "live RPCs");
    digest.u64(rpcs);
    for side in &records {
        for r in side {
            digest
                .u64(r.id.0)
                .u64(r.start.as_secs())
                .u64(r.end.as_secs());
        }
    }
}

/// Every job finished and every pair started at one instant on both
/// domains.
fn check_live(
    traces: &[Trace; 2],
    records: &[Vec<JobRecord>; 2],
    drained: bool,
    done: u64,
    tally: &mut Tally,
) {
    let [ta, tb] = traces;
    tally.check(drained, || "live loop did not drain".to_string());
    let jobs = (ta.len() + tb.len()) as u64;
    tally.count(jobs, jobs.saturating_sub(done), "live jobs finishing");
    let starts = |side: &Vec<JobRecord>| -> HashMap<u64, u64> {
        side.iter().map(|r| (r.id.0, r.start.as_secs())).collect()
    };
    let (sa, sb) = (starts(&records[0]), starts(&records[1]));
    let pairs: Vec<_> = ta
        .jobs()
        .iter()
        .filter_map(|j| j.mate.map(|m| (j.id.0, m.job.0)))
        .collect();
    let synced = pairs
        .iter()
        .filter(|(a, b)| matches!((sa.get(a), sb.get(b)), (Some(x), Some(y)) if x == y))
        .count() as u64;
    tally.count(
        pairs.len() as u64,
        pairs.len() as u64 - synced,
        "live pairs co-starting",
    );
}
