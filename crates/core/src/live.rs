//! Live (wall-clock) deployment wrapper.
//!
//! The simulator validates the mechanism; this module is the shape a real
//! deployment takes — what the paper means by "implemented it in an
//! existing resource manager". A [`LiveDomain`] owns one machine's
//! scheduler, answers the coordination protocol for its peer (plug
//! [`LiveDomain::service`] into [`cosched_proto::tcp::serve`] or an in-proc
//! pair), and drives its own scheduling iterations through the *same*
//! [`run_job`] decision procedure the simulator uses, but across a real
//! [`Transport`].
//!
//! Time is passed in explicitly (any monotonic `SimTime` source), keeping
//! the domain testable and letting examples compress wall-clock time.

use crate::algorithm::{run_job, Decision, LocalContext};
use crate::config::CoschedConfig;
use crate::registry::MateRegistry;
use cosched_metrics::JobRecord;
use cosched_obs::monitor::StreamingMonitor;
use cosched_obs::{Observer, TraceEvent};
use cosched_proto::{DomainService, MateStatus, Request, Response, SpanContext, Transport};
use cosched_sched::{JobStatus, Machine};
use cosched_sim::SimTime;
use cosched_workload::{Job, JobId, MachineId};
use parking_lot::Mutex;
use std::sync::Arc;

struct Inner {
    machine: Machine,
    cfg: CoschedConfig,
    registry: MateRegistry,
    peer: MachineId,
    /// Completion deadlines of started jobs, processed by `complete_due`.
    ends: Vec<(JobId, SimTime)>,
    /// Caller span ids seen on incoming requests (context propagated
    /// through the transport's `TracedRequest` frames) — lets operators
    /// correlate this domain's handler work with the peer's causal spans.
    peer_spans: Vec<u64>,
    /// Attached streaming monitor ([`LiveDomain::attach_telemetry`]); the
    /// daemon reports lifecycle transitions into it so `/metrics`,
    /// `/state`, and alert rules see live domains exactly as they see
    /// simulated ones.
    monitor: Option<StreamingMonitor>,
}

impl Inner {
    /// Report one event into the attached monitor (no-op when detached).
    fn tell(&mut self, now: SimTime, event: TraceEvent) {
        let index = self.machine.config().machine.0;
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.record(now.as_secs(), index, event);
        }
    }
}

/// One scheduling domain of a live coupled system. Cheap to clone (shared
/// state behind a mutex); clones are handles to the same domain.
#[derive(Clone)]
pub struct LiveDomain {
    inner: Arc<Mutex<Inner>>,
}

impl LiveDomain {
    /// Wrap a machine with its local coscheduling config and the pairing
    /// registry. `peer` is the other domain's machine id (used to resolve
    /// incoming `get_mate_job` calls).
    pub fn new(
        machine: Machine,
        cfg: CoschedConfig,
        registry: MateRegistry,
        peer: MachineId,
    ) -> Self {
        LiveDomain {
            inner: Arc::new(Mutex::new(Inner {
                machine,
                cfg,
                registry,
                peer,
                ends: Vec::new(),
                peer_spans: Vec::new(),
                monitor: None,
            })),
        }
    }

    /// Attach a streaming monitor: the domain reports submits, Algorithm 1
    /// transitions (start/hold/yield, forced releases), and completions
    /// into it, and registers its capacity under its machine index. Serve
    /// the same monitor via `cosched_telemetry` to expose the daemon's
    /// `/metrics`, `/healthz`, and `/state`.
    pub fn attach_telemetry(&self, monitor: StreamingMonitor) {
        let mut g = self.inner.lock();
        let config = g.machine.config();
        monitor.set_capacity(config.machine.0, config.capacity);
        g.monitor = Some(monitor);
    }

    /// Submit a job locally.
    pub fn submit(&self, job: Job, now: SimTime) {
        let mut g = self.inner.lock();
        let own = g.machine.config().machine;
        let paired = g.registry.mate_of(own, job.id).is_some();
        let event = TraceEvent::JobSubmitted {
            job: job.id.0,
            size: job.size,
            paired,
        };
        g.machine.submit(job, now);
        g.tell(now, event);
    }

    /// Answer one incoming protocol request at local time `now`.
    pub fn handle(&self, req: Request, now: SimTime) -> Response {
        let mut g = self.inner.lock();
        match req {
            Request::GetMateJob { for_job } => {
                let peer = g.peer;
                Response::MateJob(g.registry.mate_of(peer, for_job))
            }
            Request::GetMateStatus { job } => Response::MateStatus(match g.machine.status(job) {
                JobStatus::Unsubmitted => MateStatus::Unsubmitted,
                JobStatus::Queued => MateStatus::Queuing,
                JobStatus::Held => MateStatus::Holding,
                JobStatus::Running => MateStatus::Running,
                JobStatus::Finished => MateStatus::Finished,
            }),
            Request::TryStartMate { job } => match g.machine.try_start_direct(job, now) {
                Some(end) => {
                    g.ends.push((job, end));
                    g.tell(
                        now,
                        TraceEvent::CoschedStart {
                            job: job.0,
                            with_mate: true,
                        },
                    );
                    Response::Started(true)
                }
                None => Response::Started(false),
            },
            Request::StartJob { job } => {
                let started = g
                    .machine
                    .start_held(job, now)
                    .or_else(|| g.machine.try_start_direct(job, now));
                match started {
                    Some(end) => {
                        g.ends.push((job, end));
                        g.tell(
                            now,
                            TraceEvent::CoschedStart {
                                job: job.0,
                                with_mate: true,
                            },
                        );
                        Response::Started(true)
                    }
                    None => Response::Started(false),
                }
            }
            Request::Ping => Response::Pong,
            Request::CanStart { job } => Response::CanStart(g.machine.can_start_direct(job, now)),
        }
    }

    /// Build a [`DomainService`] for the protocol server, reading time from
    /// `clock` at each request. The service is span-aware: caller span
    /// contexts arriving in request frames are recorded (see
    /// [`LiveDomain::peer_spans`]) before the request is answered.
    pub fn service<C>(&self, clock: C) -> impl DomainService + Send + 'static
    where
        C: Fn() -> SimTime + Send + 'static,
    {
        LiveService {
            domain: self.clone(),
            clock,
        }
    }

    /// Caller span ids observed on incoming requests so far, in arrival
    /// order (non-empty contexts only).
    pub fn peer_spans(&self) -> Vec<u64> {
        self.inner.lock().peer_spans.clone()
    }

    /// Run one local scheduling iteration at `now`, coordinating over
    /// `remote`. Also fires due hold-release timers first.
    ///
    /// The domain lock is **not** held across protocol calls, so two
    /// mutually coupled domains may pump concurrently without deadlocking
    /// the process. A candidate picked but not yet committed reads back as
    /// `Queuing` and rejects `try_start_mate` (fail-closed), so a
    /// simultaneous decision on both sides degrades to a retry — both jobs
    /// hold or yield and re-align at the next iteration — never to a
    /// missed or double start. Call `pump` from one thread per domain.
    pub fn pump<T: Transport>(&self, now: SimTime, remote: &mut T) {
        self.fire_due_releases(now);
        self.inner.lock().machine.begin_iteration();
        loop {
            // Phase 1: pick a candidate and snapshot context under the lock.
            let picked = {
                let mut g = self.inner.lock();
                g.machine.pick_next(now).map(|cand| {
                    let job = g.machine.candidate_job(&cand).clone();
                    let capacity = g.machine.config().capacity;
                    let held = g.machine.held_nodes();
                    let yields = cand.yields;
                    (cand, job, capacity, held, yields, g.cfg.clone())
                })
            };
            let Some((cand, job, capacity, held_nodes, yields_so_far, cfg)) = picked else {
                break;
            };
            // Phase 2: run Algorithm 1 with the lock released.
            let ctx = LocalContext {
                job: &job,
                candidate_charged: cand.charged,
                capacity,
                held_nodes,
                yields_so_far,
            };
            let decision = run_job(&cfg, &ctx, |req| remote.call(req));
            // Phase 3: commit under the lock.
            let mut g = self.inner.lock();
            match decision {
                Decision::Start { mate_started } => {
                    let end = g.machine.start(cand, now);
                    g.ends.push((job.id, end));
                    g.tell(
                        now,
                        TraceEvent::CoschedStart {
                            job: job.id.0,
                            with_mate: mate_started.is_some(),
                        },
                    );
                }
                Decision::Hold => {
                    // A hold keeps the charged partition, not just the
                    // request — the simulator reports the same.
                    let nodes = cand.charged;
                    g.machine.hold(cand, now);
                    g.tell(
                        now,
                        TraceEvent::CoschedHoldPlaced {
                            job: job.id.0,
                            nodes,
                        },
                    );
                }
                Decision::Yield => {
                    g.machine.yield_job(cand, now);
                    g.tell(
                        now,
                        TraceEvent::CoschedYield {
                            job: job.id.0,
                            yields_so_far: yields_so_far + 1,
                        },
                    );
                }
            }
        }
    }

    /// Force-release holds older than the configured release period.
    fn fire_due_releases(&self, now: SimTime) {
        let mut g = self.inner.lock();
        let Some(period) = g.cfg.release_period else {
            return;
        };
        let due: Vec<JobId> = g
            .machine
            .held_jobs()
            .iter()
            .filter(|&&id| match g.machine.hold_since(id) {
                Some(since) => since + period <= now,
                None => false,
            })
            .copied()
            .collect();
        let held_before = g.machine.held_jobs().len();
        let released = due.len();
        for id in due {
            g.machine.release_held(id, now);
            g.tell(now, TraceEvent::CoschedDeadlockDemotion { job: id.0 });
        }
        if released > 0 {
            g.tell(
                now,
                TraceEvent::CoschedReleaseSweep {
                    released,
                    held_before,
                },
            );
        }
    }

    /// Complete all started jobs whose end time has passed. Returns how many
    /// finished.
    pub fn complete_due(&self, now: SimTime) -> usize {
        let mut g = self.inner.lock();
        let mut due: Vec<(JobId, SimTime)> = Vec::new();
        g.ends.retain(|&(id, end)| {
            if end <= now {
                due.push((id, end));
                false
            } else {
                true
            }
        });
        due.sort_by_key(|&(_, end)| end);
        let n = due.len();
        for (id, end) in due {
            g.machine.finish(id, end);
            g.tell(end, TraceEvent::JobEnded { job: id.0 });
        }
        n
    }

    /// Completed-job records so far.
    pub fn records(&self) -> Vec<JobRecord> {
        self.inner.lock().machine.records().to_vec()
    }

    /// True when no queued, held, or running jobs remain.
    pub fn drained(&self) -> bool {
        self.inner.lock().machine.drained()
    }

    /// Jobs currently held (for observability).
    pub fn held(&self) -> Vec<JobId> {
        self.inner.lock().machine.held_jobs().to_vec()
    }
}

/// The [`DomainService`] returned by [`LiveDomain::service`]: records
/// incoming span contexts, then answers at the clock's current time.
struct LiveService<C> {
    domain: LiveDomain,
    clock: C,
}

impl<C> DomainService for LiveService<C>
where
    C: Fn() -> SimTime + Send + 'static,
{
    fn handle(&mut self, req: Request) -> Response {
        self.domain.handle(req, (self.clock)())
    }

    fn handle_traced(&mut self, req: Request, ctx: SpanContext) -> Response {
        if !ctx.is_none() {
            self.domain.inner.lock().peer_spans.push(ctx.span);
        }
        self.handle(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use cosched_proto::inproc;
    use cosched_sched::MachineConfig;
    use cosched_sim::SimDuration;
    use std::time::Duration;

    fn job(machine: usize, id: u64, size: u64, runtime: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(machine),
            SimTime::ZERO,
            size,
            SimDuration::from_secs(runtime),
            SimDuration::from_secs(runtime * 2),
        )
    }

    fn registry_with_pair() -> MateRegistry {
        let mut reg = MateRegistry::new();
        reg.insert_pair((MachineId(0), JobId(1)), (MachineId(1), JobId(1)));
        reg
    }

    /// Span contexts carried in request frames reach the domain service.
    #[test]
    fn service_records_peer_span_contexts() {
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(1),
        );
        let (mut client, server) = inproc::pair(Duration::from_secs(1));
        let svc_domain = a.clone();
        let t = std::thread::spawn(move || {
            let mut svc = svc_domain.service(|| SimTime::ZERO);
            server.serve(&mut svc);
        });
        client
            .call_with(&Request::Ping, SpanContext::new(17))
            .unwrap();
        client.call(&Request::Ping).unwrap(); // empty context: not recorded
        client
            .call_with(
                &Request::GetMateStatus { job: JobId(1) },
                SpanContext::new(21),
            )
            .unwrap();
        drop(client);
        t.join().unwrap();
        assert_eq!(a.peer_spans(), vec![17, 21]);
    }

    /// Two live domains wired over in-proc transports, pumped manually.
    #[test]
    fn live_pair_synchronizes_over_inproc_transport() {
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(1),
        );
        let b = LiveDomain::new(
            Machine::new(MachineConfig::flat("B", MachineId(1), 10)),
            CoschedConfig::paper(Scheme::Yield),
            registry_with_pair(),
            MachineId(0),
        );

        // Transport A→B.
        let (mut to_b, server_b) = inproc::pair(Duration::from_secs(1));
        let b_svc = b.clone();
        let t_b = std::thread::spawn(move || {
            let mut svc = b_svc.service(|| SimTime::from_secs(0));
            // Serve a handful of calls then exit when client drops.
            server_b.serve(&mut svc);
        });
        // Transport B→A.
        let (mut to_a, server_a) = inproc::pair(Duration::from_secs(1));
        let a_svc = a.clone();
        let t_a = std::thread::spawn(move || {
            let mut svc = a_svc.service(|| SimTime::from_secs(0));
            server_a.serve(&mut svc);
        });

        // Submit the pair: job 1 on A first; A pumps and holds (mate not
        // submitted yet).
        a.submit(job(0, 1, 4, 60), SimTime::ZERO);
        a.pump(SimTime::ZERO, &mut to_b);
        assert_eq!(a.held(), vec![JobId(1)]);

        // Now the mate arrives on B; B pumps, sees A holding, both start.
        b.submit(job(1, 1, 4, 60), SimTime::ZERO);
        b.pump(SimTime::ZERO, &mut to_a);
        assert!(b.held().is_empty());

        // Complete both at t=60.
        let t60 = SimTime::from_secs(60);
        assert_eq!(a.complete_due(t60), 1);
        assert_eq!(b.complete_due(t60), 1);
        let ra = a.records();
        let rb = b.records();
        assert_eq!(ra[0].start, rb[0].start, "pair started simultaneously");
        assert!(a.drained() && b.drained());

        drop(to_b);
        drop(to_a);
        t_a.join().unwrap();
        t_b.join().unwrap();
    }

    /// A monitor attached to live domains sees the same lifecycle the
    /// domains execute: submits, the hold, the synchronized start, ends.
    #[test]
    fn attached_monitor_tracks_live_pair() {
        let monitor = StreamingMonitor::new();
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(1),
        );
        let b = LiveDomain::new(
            Machine::new(MachineConfig::flat("B", MachineId(1), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(0),
        );
        a.attach_telemetry(monitor.clone());
        b.attach_telemetry(monitor.clone());
        let snap = monitor.snapshot();
        assert_eq!(snap.machines.len(), 2, "capacities registered");
        assert_eq!(snap.machines[0].capacity, 10);

        let (mut to_b, server_b) = inproc::pair(Duration::from_secs(1));
        let b_svc = b.clone();
        let t_b = std::thread::spawn(move || {
            let mut svc = b_svc.service(|| SimTime::ZERO);
            server_b.serve(&mut svc);
        });
        a.submit(job(0, 1, 4, 60), SimTime::ZERO);
        a.pump(SimTime::ZERO, &mut to_b);
        let snap = monitor.snapshot();
        assert_eq!((snap.held, snap.holds_placed), (1, 1), "A holds for mate");

        b.submit(job(1, 1, 4, 60), SimTime::ZERO);
        b.pump(SimTime::ZERO, &mut to_a_stub(&a));
        let snap = monitor.snapshot();
        assert_eq!(snap.running, 2, "pair started on both machines");
        assert_eq!(snap.held, 0);

        let t60 = SimTime::from_secs(60);
        a.complete_due(t60);
        b.complete_due(t60);
        monitor.finish(false);
        let snap = monitor.snapshot();
        assert_eq!(snap.finished, 2);
        assert!(snap.drained() && snap.done && !snap.deadlocked);
        // 4 nodes × 60 s on each machine.
        assert_eq!(snap.machines[0].used_node_seconds, 240);
        assert_eq!(snap.machines[1].used_node_seconds, 240);

        drop(to_b);
        t_b.join().unwrap();
    }

    /// Direct (no thread) transport into domain `a` for tests.
    fn to_a_stub(a: &LiveDomain) -> impl Transport + '_ {
        struct Direct<'d>(&'d LiveDomain);
        impl Transport for Direct<'_> {
            fn call(&mut self, req: &Request) -> Result<Response, cosched_proto::ProtoError> {
                Ok(self.0.handle(req.clone(), SimTime::ZERO))
            }
        }
        Direct(a)
    }

    /// Remote that always reports the mate queuing but never startable.
    struct Stub;
    impl Transport for Stub {
        fn call(&mut self, req: &Request) -> Result<Response, cosched_proto::ProtoError> {
            Ok(match req {
                Request::GetMateJob { .. } => Response::MateJob(Some(cosched_workload::MateRef {
                    machine: MachineId(1),
                    job: JobId(1),
                })),
                Request::GetMateStatus { .. } => Response::MateStatus(MateStatus::Queuing),
                Request::TryStartMate { .. } => Response::Started(false),
                _ => Response::Error("unexpected".into()),
            })
        }
    }

    /// On a buddy-partitioned machine a hold keeps the whole charged
    /// partition; the monitor must count that, as it does for the
    /// simulator, not the job's requested size.
    #[test]
    fn attached_monitor_counts_the_charged_partition_of_a_hold() {
        let monitor = StreamingMonitor::new();
        let a = LiveDomain::new(
            Machine::new(MachineConfig::intrepid(MachineId(0))),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(1),
        );
        a.attach_telemetry(monitor.clone());
        // 600 nodes is no partition size: the buddy allocator charges 1,024.
        a.submit(job(0, 1, 600, 60), SimTime::ZERO);
        a.pump(SimTime::ZERO, &mut Stub);
        assert_eq!(a.held(), vec![JobId(1)]);
        let charged = a.inner.lock().machine.held_nodes();
        assert_eq!(charged, 1_024);
        assert_eq!(monitor.snapshot().machines[0].held_nodes, charged);
    }

    #[test]
    fn release_timer_fires_in_pump() {
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold)
                .with_release_period(Some(SimDuration::from_mins(20))),
            registry_with_pair(),
            MachineId(1),
        );
        a.submit(job(0, 1, 4, 60), SimTime::ZERO);
        a.pump(SimTime::ZERO, &mut Stub);
        assert_eq!(a.held(), vec![JobId(1)]);
        // Before the period: still held (pump re-holds it after iterating).
        a.pump(SimTime::from_secs(600), &mut Stub);
        assert_eq!(a.held(), vec![JobId(1)]);
        // After the period the release fires; the job re-enters the queue,
        // is picked again, and re-holds (mate still queuing) — but the
        // release demonstrably happened: its hold episode timestamp moved.
        a.pump(SimTime::from_secs(1_300), &mut Stub);
        assert_eq!(a.held(), vec![JobId(1)]);
        let inner_since = {
            let g = a.inner.lock();
            g.machine.hold_since(JobId(1)).unwrap()
        };
        assert_eq!(inner_since, SimTime::from_secs(1_300));
    }

    #[test]
    fn dead_remote_starts_job_normally() {
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(1),
        );
        struct Dead;
        impl Transport for Dead {
            fn call(&mut self, _req: &Request) -> Result<Response, cosched_proto::ProtoError> {
                Err(cosched_proto::ProtoError::Timeout)
            }
        }
        a.submit(job(0, 1, 4, 60), SimTime::ZERO);
        a.pump(SimTime::ZERO, &mut Dead);
        assert!(
            a.held().is_empty(),
            "fault tolerance: no waiting on a dead peer"
        );
        assert_eq!(a.complete_due(SimTime::from_secs(60)), 1);
        assert!(a.drained());
    }
}
