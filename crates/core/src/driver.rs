//! The coupled event-driven simulator.
//!
//! Reproduces the evaluation vehicle of §V-A: Qsim (the event-driven
//! simulator shipped with Cobalt) "extended … to support multi-domain
//! coscheduling simulation". Every machine's resource manager runs inside
//! one deterministic event loop; coordination between them goes through the
//! protocol vocabulary of `cosched-proto`, so the simulator exercises the
//! same `Run_Job` code path a live deployment uses.
//!
//! Events are job arrivals, job completions, and hold-release timers (the
//! deadlock breaker). Every event triggers a scheduling iteration on its
//! machine; each ready candidate passes through its rendezvous rule, which
//! may make protocol calls that start jobs on *other* machines (the
//! simultaneous start):
//!
//! * a mate pair — the paper's setting, and the k = 2 case of a co-start
//!   group — runs Algorithm 1 ([`run_job_traced`]);
//! * a co-start group of three or more members on k machines (§VI) runs the
//!   probe-then-commit rule [`run_group`];
//! * a `StartWithin` pair (§VI temporal constraints) runs [`run_within`];
//!   a `StartAfter` successor is withheld from submission until its
//!   predecessor has run for the minimum delay.
//!
//! Termination: the loop ends when the event queue drains. If jobs remain
//! unfinished at that point, the run **deadlocked** — exactly the
//! observable the paper reports for hold-hold without the release
//! enhancement ("the job queues on both machines keep growing, but no job
//! can start").

use crate::algorithm::{run_group, run_job_traced, run_within, Decision, LocalContext};
use crate::config::{CoupledConfig, NwayConfig};
use crate::nway::{GroupRegistry, NwayReport};
use crate::registry::MateRegistry;
use crate::temporal::{self, ConstraintInstance, TemporalConstraint, TemporalReport};
use cosched_metrics::{JobRecord, MachineSummary};
use cosched_obs::trace::RpcKind;
use cosched_obs::{
    MetricsRegistry, MetricsSnapshot, NoopObserver, Observer, SpanKind, TraceEvent, GLOBAL, NO_JOB,
    NO_SPAN,
};
use cosched_proto::{MateStatus, ProtoError, Request, Response};
use cosched_sched::{JobStatus, Machine, SchedStats};
use cosched_sim::{EventQueue, SimDuration, SimTime};
use cosched_workload::{Job, JobId, MachineId, Trace};
use std::collections::{HashMap, HashSet};

/// Events driving the coupled simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Trace job `idx` arrives at machine `m`.
    Arrival { m: usize, idx: usize },
    /// A running job completes.
    JobEnd { m: usize, job: JobId },
    /// Deadlock-breaker sweep (§IV-E1): periodically force the holding jobs
    /// on machine `m` to release their resources. Releasing *all* holds at
    /// once is what lets freed capacity accumulate so that larger waiting
    /// mates can use it — a per-job timer would free and instantly re-grab
    /// the same nodes, and the circular wait would persist.
    ReleaseSweep { m: usize },
    /// A withheld `StartAfter` successor (machine-1 trace job `idx`) is
    /// submitted: its predecessor started `min_delay` ago.
    Successor { idx: usize },
}

/// How the pairs that did synchronize committed their rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RendezvousCounts {
    /// The second-ready job found its mate *holding* and started it in
    /// place (Algorithm 1, lines 6–9) — the hold scheme's anchor working
    /// as designed.
    pub anchored: usize,
    /// The ready job direct-started its queued mate via `try_start_mate`
    /// (lines 10–15) — the yield scheme's (and unsubmitted-mate) path.
    pub direct: usize,
    /// Pair members started independently (fault tolerance, missed
    /// rendezvous); such pairs are typically not synchronized.
    pub independent: usize,
}

/// Deterministic activity counters for one coupled run: protocol traffic
/// plus Algorithm 1 transitions that do not already have a dedicated report
/// field. Collected unconditionally (no observer needed), so reports are
/// identical whether or not tracing is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RunStats {
    /// Holds placed (Algorithm 1 lines 16–23, hold scheme).
    pub holds: u64,
    /// Yields taken (yield scheme).
    pub yields: u64,
    /// Hold→yield degradations forced by the held-capacity cap (§IV-E2).
    pub degradations: u64,
    /// Yield→hold escalations forced by the yield cap (§IV-E2).
    pub escalations: u64,
    /// Release sweeps that actually force-released holds (§IV-E1).
    pub release_sweeps: u64,
    /// Protocol requests issued between the domains.
    pub rpc_calls: u64,
    /// Requests that failed with a transport error (down peer or injected
    /// timeout); the caller falls back to start-normally fault tolerance.
    pub rpc_timeouts: u64,
}

/// Everything a run produces: the deterministic report and the observer
/// (to read back a sink). The driver reads no wall clock; a wall-clock
/// profile comes from attaching a `cosched_obs::PhaseClock` observer.
pub struct RunArtifacts<O, R = SimulationReport> {
    /// The deterministic simulation outcome.
    pub report: R,
    /// The observer the simulation was built with.
    pub observer: O,
}

/// Outcome of a coupled simulation run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Completed-job records per machine.
    pub records: [Vec<JobRecord>; 2],
    /// Aggregated metrics per machine.
    pub summaries: [MachineSummary; 2],
    /// Final simulation instant (metrics horizon).
    pub horizon: SimTime,
    /// True if the event queue drained with jobs still stuck (the hold-hold
    /// circular wait).
    pub deadlocked: bool,
    /// True if the run hit the `max_events` safety valve.
    pub aborted: bool,
    /// Jobs left unfinished per machine (non-zero only when deadlocked or
    /// aborted).
    pub unfinished: [usize; 2],
    /// How many holds the deadlock breaker force-released.
    pub forced_releases: u64,
    /// |start(a) − start(b)| for every pair in which both jobs completed.
    pub pair_offsets: Vec<SimDuration>,
    /// How the completed pairs committed their rendezvous.
    pub rendezvous: RendezvousCounts,
    /// Total events dispatched.
    pub events: u64,
    /// Largest number of events simultaneously pending in the queue.
    pub queue_high_water: usize,
    /// Events cancelled before dispatch (re-armed sweep timers etc.).
    pub events_cancelled: u64,
    /// Deterministic run activity counters.
    pub stats: RunStats,
    /// Per-machine scheduler activity counters.
    pub sched_stats: [SchedStats; 2],
    /// The counters above plus derived histograms (pair offsets, waits) in
    /// registry form, ready for serialization.
    pub metrics: MetricsSnapshot,
}

impl SimulationReport {
    /// The paper's capability claim: "all the paired jobs start at the same
    /// time with their own mate jobs no matter which one gets ready first".
    pub fn all_pairs_synchronized(&self) -> bool {
        self.pair_offsets.iter().all(|d| d.is_zero())
    }

    /// Largest observed pair start offset (zero when synchronized).
    pub fn max_pair_offset(&self) -> SimDuration {
        self.pair_offsets
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// The rendezvous rule of a ready job that is not a plain mate-pair member.
#[derive(Debug, Clone)]
enum Rule {
    /// Member of a co-start group of three or more: the other members as
    /// `(machine, job)`.
    Group(Vec<(usize, JobId)>),
    /// `StartWithin` partner on machine `.0`.
    Within(usize, JobId),
}

/// Open-span bookkeeping for causal tracing. Span ids are dense and
/// assigned in emission order from deterministic state only, so same-seed
/// runs produce byte-identical span records. Populated only while the
/// observer is active; with the no-op observer every map stays empty.
#[derive(Debug, Default)]
struct SpanBook {
    /// Last span id handed out (ids start at 1; 0 is [`NO_SPAN`]).
    next: u64,
    /// Pair root spans keyed by (machine-0 member id, machine-1 member id).
    pair_root: HashMap<(u64, u64), u64>,
    /// Which members of each open pair span have started.
    pair_started: HashMap<(u64, u64), [bool; 2]>,
    /// Open hold spans keyed by (machine, job).
    hold: HashMap<(usize, u64), u64>,
    /// Open yield-episode spans keyed by (machine, job).
    yielding: HashMap<(usize, u64), u64>,
}

impl SpanBook {
    fn alloc(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

/// The coupled simulator: k ≥ 2 machines, one event loop, protocol-mediated
/// coordination.
///
/// Generic over an [`Observer`] receiving the structured trace-event stream;
/// the default [`NoopObserver`] is zero-sized and compiles every tracing
/// path away. Observers are pure consumers: attaching one cannot change the
/// simulation outcome.
pub struct CoupledSimulation<O: Observer = NoopObserver> {
    config: NwayConfig,
    machines: Vec<Machine>,
    jobs: Vec<Vec<Job>>,
    /// Co-start pairs, decided by Algorithm 1 (also answers `GetMateJob`).
    mates: MateRegistry,
    /// Co-start groups as registered (pairs included), for group spreads.
    groups: GroupRegistry,
    /// Temporal constraints between machine-0 and machine-1 jobs.
    constraints: Vec<ConstraintInstance>,
    /// Rules of group members and `StartWithin` jobs by (machine, job);
    /// empty in a mate-pair run.
    rules: HashMap<(usize, JobId), Rule>,
    /// `StartAfter` lower bounds: machine-1 successor → (machine-0
    /// predecessor, minimum delay).
    gates: HashMap<JobId, (JobId, SimDuration)>,
    /// Withheld successors (machine-1 trace indices) by their not yet
    /// started predecessor.
    parked: HashMap<JobId, Vec<usize>>,
    queue: EventQueue<Event>,
    now: SimTime,
    events: u64,
    forced_releases: u64,
    /// Fault injection: when false, protocol calls *to* machine `m` fail
    /// with a transport error.
    reachable: Vec<bool>,
    /// Fault injection: jobs whose status reads back as `Unknown`
    /// ("the mate job fails alone").
    unknown_status: HashSet<(usize, JobId)>,
    /// Whether a release sweep is currently scheduled per machine. Sweeps
    /// self-re-arm only while holds exist, so the event loop terminates.
    sweep_armed: Vec<bool>,
    /// Rendezvous audit: pairs committed via a hold anchor (`StartJob` on a
    /// held mate), keyed by the started job's `(machine, id)`.
    anchored_pairs: HashSet<(usize, JobId)>,
    /// Rendezvous audit: pairs committed via `TryStartMate`.
    direct_pairs: HashSet<(usize, JobId)>,
    /// Fault injection: `GetMateStatus` calls to machine `m` time out, so
    /// the caller sees `MateStatus::Unknown` and starts normally.
    status_timeout: Vec<bool>,
    /// Deterministic run counters (always on).
    stats: RunStats,
    /// Causal-span bookkeeping; empty unless the observer is active.
    spans: SpanBook,
    observer: O,
}

impl CoupledSimulation {
    /// Build a simulation from a coupled configuration and the two traces.
    ///
    /// # Panics
    /// Panics if a trace's machine id does not match its config slot or the
    /// pairing between the traces is invalid.
    pub fn new(config: CoupledConfig, traces: [Trace; 2]) -> Self {
        Self::with_observer(config, traces, NoopObserver)
    }

    /// Build a k-machine simulation whose rendezvous are co-start groups
    /// (see [`CoupledSimulation::with_groups`]).
    pub fn nway(config: NwayConfig, traces: Vec<Trace>, groups: GroupRegistry) -> Self {
        Self::with_groups(config, traces, groups, NoopObserver)
    }

    /// Build a two-machine simulation whose rendezvous are temporal
    /// constraints between machine-0 job `a` and machine-1 job `b`:
    /// `CoStart` is a mate pair, `StartWithin` brings the partner along
    /// without waiting, and a `StartAfter` successor is withheld until its
    /// predecessor has run for `min_delay`. Run it with
    /// [`CoupledSimulation::run_temporal`].
    ///
    /// # Panics
    /// Panics if a trace's machine id does not match its config slot, a
    /// constraint references a missing job, or a job has two
    /// decision-driving constraints.
    pub fn temporal(
        config: CoupledConfig,
        mut traces: [Trace; 2],
        constraints: Vec<ConstraintInstance>,
    ) -> Self {
        let mates = temporal::co_start_pairs(&constraints, &mut traces);
        let mut sim = Self::build(config.into(), traces.into(), mates, NoopObserver);
        for c in &constraints {
            match c.constraint {
                TemporalConstraint::CoStart => {}
                TemporalConstraint::StartWithin { .. } => {
                    sim.rules.insert((0, c.a), Rule::Within(1, c.b));
                    sim.rules.insert((1, c.b), Rule::Within(0, c.a));
                }
                TemporalConstraint::StartAfter { min_delay, .. } => {
                    sim.gates.insert(c.b, (c.a, min_delay));
                }
            }
        }
        sim.constraints = constraints;
        sim
    }
}

impl<O: Observer> CoupledSimulation<O> {
    /// Build a simulation whose trace-event stream feeds `observer`.
    ///
    /// # Panics
    /// Panics if a trace's machine id does not match its config slot or the
    /// pairing between the traces is invalid.
    pub fn with_observer(config: CoupledConfig, traces: [Trace; 2], observer: O) -> Self {
        let mates = MateRegistry::from_traces(&traces[0], &traces[1]);
        Self::build(config.into(), traces.into(), mates, observer)
    }

    /// Build a k-machine simulation (traces in machine order) whose
    /// rendezvous are co-start groups: a two-member group is a mate pair
    /// (Algorithm 1), a larger one uses [`run_group`]. Ring mate references
    /// are stamped onto the traces so records carry the `paired` flag. Run
    /// it with [`CoupledSimulation::run_nway`].
    ///
    /// # Panics
    /// Panics on config/trace arity or order mismatch, fewer than two
    /// machines, or a group member missing from its trace.
    pub fn with_groups(
        config: NwayConfig,
        mut traces: Vec<Trace>,
        groups: GroupRegistry,
        observer: O,
    ) -> Self {
        groups.stamp_rings(&mut traces);
        let mut mates = MateRegistry::new();
        for members in groups.iter().filter(|g| g.len() == 2) {
            mates.insert_pair(members[0], members[1]);
        }
        let mut sim = Self::build(config, traces, mates, observer);
        for members in groups.iter().filter(|g| g.len() > 2) {
            let slots: Vec<(usize, JobId)> =
                members.iter().map(|&(mm, j)| (sim.slot(mm), j)).collect();
            for (i, &member) in slots.iter().enumerate() {
                let mut others = slots.clone();
                others.remove(i);
                sim.rules.insert(member, Rule::Group(others));
            }
        }
        sim.groups = groups;
        sim
    }

    fn build(config: NwayConfig, traces: Vec<Trace>, mates: MateRegistry, observer: O) -> Self {
        let k = config.machines.len();
        assert!(k >= 2, "a coupled system needs at least two machines");
        assert_eq!(traces.len(), k, "one trace per machine");
        assert_eq!(config.cosched.len(), k, "one cosched config per machine");
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(
                t.machine(),
                config.machines[i].machine,
                "trace {i} targets {}, config expects {}",
                t.machine(),
                config.machines[i].machine
            );
        }
        let mut machines: Vec<Machine> =
            config.machines.iter().cloned().map(Machine::new).collect();
        if observer.active() {
            for m in &mut machines {
                m.set_tracing(true);
            }
        }
        CoupledSimulation {
            machines,
            jobs: traces.into_iter().map(Trace::into_jobs).collect(),
            mates,
            groups: GroupRegistry::new(),
            constraints: Vec::new(),
            rules: HashMap::new(),
            gates: HashMap::new(),
            parked: HashMap::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events: 0,
            forced_releases: 0,
            reachable: vec![true; k],
            unknown_status: HashSet::new(),
            sweep_armed: vec![false; k],
            anchored_pairs: HashSet::new(),
            direct_pairs: HashSet::new(),
            status_timeout: vec![false; k],
            stats: RunStats::default(),
            spans: SpanBook::default(),
            observer,
            config,
        }
    }

    /// The slot of machine `id` in this system.
    fn slot(&self, id: MachineId) -> usize {
        self.config
            .machines
            .iter()
            .position(|c| c.machine == id)
            .unwrap_or_else(|| panic!("{id} is not part of this coupled system"))
    }

    /// Fault injection: make protocol calls to machine `m` fail (simulates
    /// the remote system being down).
    pub fn set_reachable(&mut self, m: usize, up: bool) {
        self.reachable[m] = up;
    }

    /// Fault injection: make `GetMateStatus` calls to machine `m` time out.
    /// Per Algorithm 1 lines 25–26 the caller treats the status as
    /// `Unknown` and starts the ready job normally.
    pub fn inject_status_timeout(&mut self, m: usize, on: bool) {
        self.status_timeout[m] = on;
    }

    /// Construct-then-record helper: skips event construction entirely when
    /// the observer is inactive (the no-op default).
    #[inline]
    fn emit(&mut self, machine: usize, make: impl FnOnce() -> TraceEvent) {
        if self.observer.active() {
            self.observer.record(self.now.as_secs(), machine, make());
        }
    }

    /// Forward trace events the scheduler logged during its last calls,
    /// stamped with the current instant.
    fn drain_machine_trace(&mut self, m: usize) {
        if !self.observer.active() {
            return;
        }
        for ev in self.machines[m].take_trace() {
            self.observer.record(self.now.as_secs(), m, ev);
        }
    }

    /// Canonical pair key for a mate-pair member on machine `m`:
    /// (machine-0 member id, machine-1 member id). A pair root span names
    /// exactly these two machines, so a k-way run's pairs between other
    /// machines get none.
    fn pair_key(&self, m: usize, job: JobId) -> Option<(u64, u64)> {
        let mate = self.mates.mate_of(self.config.machines[m].machine, job)?;
        match (m, self.slot(mate.machine)) {
            (0, 1) => Some((job.0, mate.job.0)),
            (1, 0) => Some((mate.job.0, job.0)),
            _ => None,
        }
    }

    /// Open the pair's root span at the first submit of either member. The
    /// span belongs to no single machine ([`GLOBAL`]): the rendezvous is a
    /// cross-machine lifetime, closed only when both members have started.
    fn span_open_pair(&mut self, m: usize, job: JobId) {
        if !self.observer.active() {
            return;
        }
        let Some(key) = self.pair_key(m, job) else {
            return;
        };
        if self.spans.pair_root.contains_key(&key) {
            return;
        }
        let id = self.spans.alloc();
        self.spans.pair_root.insert(key, id);
        self.spans.pair_started.insert(key, [false, false]);
        self.observer.record(
            self.now.as_secs(),
            GLOBAL,
            TraceEvent::SpanOpen {
                span: id,
                parent: NO_SPAN,
                kind: SpanKind::PairRendezvous,
                job: key.0,
                mate: key.1,
            },
        );
    }

    /// The open pair-root span id for a job on machine `m` ([`NO_SPAN`]
    /// when untraced, unpaired, or already closed).
    fn pair_span_of(&self, m: usize, job: JobId) -> u64 {
        self.pair_key(m, job)
            .and_then(|key| self.spans.pair_root.get(&key).copied())
            .unwrap_or(NO_SPAN)
    }

    /// A job started on machine `m`: submit the `StartAfter` successors it
    /// withheld, and trace the start.
    fn started(&mut self, m: usize, job: JobId) {
        if m == 0 && !self.parked.is_empty() {
            for idx in self.parked.remove(&job).unwrap_or_default() {
                let (_, min_delay) = self.gates[&self.jobs[1][idx].id];
                self.queue
                    .push(self.now + min_delay, Event::Successor { idx });
            }
        }
        self.span_mark_started(m, job);
    }

    /// Close a started job's open yield/hold spans, mark its pair member as
    /// started, and close the pair root span once both members run.
    fn span_mark_started(&mut self, m: usize, job_id: JobId) {
        if !self.observer.active() {
            return;
        }
        let now = self.now.as_secs();
        if let Some(id) = self.spans.yielding.remove(&(m, job_id.0)) {
            self.observer
                .record(now, m, TraceEvent::SpanClose { span: id });
        }
        if let Some(id) = self.spans.hold.remove(&(m, job_id.0)) {
            self.observer
                .record(now, m, TraceEvent::SpanClose { span: id });
        }
        let Some(key) = self.pair_key(m, job_id) else {
            return;
        };
        if let Some(started) = self.spans.pair_started.get_mut(&key) {
            started[m] = true;
            if started[0] && started[1] {
                self.spans.pair_started.remove(&key);
                if let Some(root) = self.spans.pair_root.remove(&key) {
                    self.observer
                        .record(now, GLOBAL, TraceEvent::SpanClose { span: root });
                }
            }
        }
    }

    /// Fault injection: make machine `m` report `Unknown` for `job`'s
    /// status (simulates the mate job failing alone).
    pub fn mark_status_unknown(&mut self, m: usize, job: JobId) {
        self.unknown_status.insert((m, job));
    }

    /// Direct access to a machine (tests and examples).
    pub fn machine(&self, m: usize) -> &Machine {
        &self.machines[m]
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run to completion and build the report, invoking `observer` every
    /// `every` events — for long-run monitoring and diagnosis (the observer
    /// sees the live simulation state through the public accessors).
    pub fn run_observed(
        self,
        every: u64,
        observer: impl FnMut(&CoupledSimulation<O>),
    ) -> SimulationReport {
        let (sim, aborted) = self.run_loop(every, observer);
        sim.report(aborted).report
    }

    /// Run to completion and build the report.
    ///
    /// # Panics
    /// Panics unless the system has exactly two machines (a k-machine run
    /// reports through [`CoupledSimulation::run_nway`]).
    pub fn run(self) -> SimulationReport {
        self.run_traced().report
    }

    /// Run to completion, returning the report together with the observer
    /// (to read back an attached sink).
    pub fn run_traced(self) -> RunArtifacts<O> {
        let (sim, aborted) = self.run_loop(0, |_| {});
        sim.report(aborted)
    }

    /// Run a group simulation to completion: the per-machine records, every
    /// registered group's start spread, and the observer.
    pub fn run_nway(self) -> RunArtifacts<O, NwayReport> {
        let (mut sim, aborted) = self.run_loop(0, |_| {});
        let (records, summaries, unfinished) = sim.take_results();
        let machines: Vec<MachineId> = sim.config.machines.iter().map(|c| c.machine).collect();
        let report = NwayReport {
            group_spreads: sim.groups.spreads(&machines, &records),
            records,
            summaries,
            deadlocked: !aborted && unfinished.iter().any(|&n| n > 0),
            aborted,
            forced_releases: sim.forced_releases,
            events: sim.events,
            horizon: sim.now,
            stats: sim.stats,
        };
        let mut observer = sim.observer;
        observer.flush();
        RunArtifacts { report, observer }
    }

    /// Run a temporal-constraint simulation to completion and grade every
    /// constraint instance.
    pub fn run_temporal(mut self) -> TemporalReport {
        let constraints = std::mem::take(&mut self.constraints);
        TemporalReport::grade(self.run(), constraints)
    }

    /// The event loop: seed arrivals, then dispatch events in time order,
    /// calling `every_n` before every `every`-th event (never when
    /// `every` is 0). Returns the drained simulation and whether the
    /// `max_events` valve tripped.
    fn run_loop(
        mut self,
        every: u64,
        mut every_n: impl FnMut(&CoupledSimulation<O>),
    ) -> (Self, bool) {
        for m in 0..self.jobs.len() {
            for idx in 0..self.jobs[m].len() {
                let t = self.jobs[m][idx].submit;
                self.queue.push(t, Event::Arrival { m, idx });
            }
        }
        while let Some(ev) = self.queue.pop() {
            if self.events >= self.config.max_events {
                return (self, true);
            }
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            self.events += 1;
            if every > 0 && self.events.is_multiple_of(every) {
                every_n(&self);
            }
            self.dispatch(ev.event);
        }
        (self, false)
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Arrival { m, idx } => {
                if m == 1 && !self.gates.is_empty() && self.withhold(idx) {
                    return;
                }
                self.submit(m, idx);
            }
            Event::Successor { idx } => self.submit(1, idx),
            Event::JobEnd { m, job } => {
                self.emit(m, || TraceEvent::JobEnded { job: job.0 });
                self.machines[m].finish(job, self.now);
                self.iterate(m);
            }
            Event::ReleaseSweep { m } => self.sweep(m),
        }
    }

    /// Submit trace job `idx` to machine `m` and schedule.
    fn submit(&mut self, m: usize, idx: usize) {
        let job = self.jobs[m][idx].clone();
        self.span_open_pair(m, job.id);
        self.emit(m, || TraceEvent::JobSubmitted {
            job: job.id.0,
            size: job.size,
            paired: job.mate.is_some(),
        });
        self.machines[m].submit(job, self.now);
        self.iterate(m);
    }

    /// The `StartAfter` lower bound on arrival of machine-1 trace job
    /// `idx`: true if the job is withheld — until its predecessor starts,
    /// or until `min_delay` after that start.
    fn withhold(&mut self, idx: usize) -> bool {
        let Some(&(pred, min_delay)) = self.gates.get(&self.jobs[1][idx].id) else {
            return false;
        };
        match self.machines[0].start_of(pred) {
            Some(start) if start + min_delay <= self.now => false,
            Some(start) => {
                self.queue.push(start + min_delay, Event::Successor { idx });
                true
            }
            None => {
                self.parked.entry(pred).or_default().push(idx);
                true
            }
        }
    }

    /// The deadlock breaker's sweep on machine `m`.
    fn sweep(&mut self, m: usize) {
        self.sweep_armed[m] = false;
        let Some(period) = self.config.cosched[m].release_period else {
            return;
        };
        // The release exists to let "other waiting jobs … use the
        // previously held resources" (§IV-E1). If no queued job is
        // blocked by the held nodes, the holds are harmless — keep
        // them (a held job starts the instant its mate is ready,
        // which is the whole point of the hold scheme).
        if !self.holds_block_someone(m) {
            // Re-check one period from now (not from the oldest
            // hold, which is already mature — that would spin).
            if !self.machines[m].held_jobs().is_empty() {
                self.queue
                    .push(self.now + period, Event::ReleaseSweep { m });
                self.sweep_armed[m] = true;
            }
            return;
        }
        // Release EVERY hold, as one batch ("force the holding jobs
        // to release their resources", §IV-E1). A partial (e.g.
        // age-filtered) release livelocks: hold timestamps stagger
        // across events, each sweep frees only a subset, a large
        // blocked job never sees the full coalesced capacity, and
        // the released jobs instantly re-hold with fresh staggered
        // ages. Only the full batch lets the demoted-last iteration
        // hand the entire held capacity to the waiting jobs first.
        let sweep_span = if self.observer.active() {
            let id = self.spans.alloc();
            self.observer.record(
                self.now.as_secs(),
                m,
                TraceEvent::SpanOpen {
                    span: id,
                    parent: NO_SPAN,
                    kind: SpanKind::ReleaseSweep,
                    job: NO_JOB,
                    mate: NO_JOB,
                },
            );
            id
        } else {
            NO_SPAN
        };
        let held: Vec<JobId> = self.machines[m].held_jobs().to_vec();
        let held_before = held.len();
        for job in held {
            self.machines[m].release_held(job, self.now);
            self.forced_releases += 1;
            self.emit(m, || TraceEvent::CoschedDeadlockDemotion { job: job.0 });
            // The demotion ends the job's hold interval.
            if let Some(id) = self.spans.hold.remove(&(m, job.0)) {
                self.observer
                    .record(self.now.as_secs(), m, TraceEvent::SpanClose { span: id });
            }
        }
        self.stats.release_sweeps += 1;
        self.emit(m, || TraceEvent::CoschedReleaseSweep {
            released: held_before,
            held_before,
        });
        if sweep_span != NO_SPAN {
            self.observer.record(
                self.now.as_secs(),
                m,
                TraceEvent::SpanClose { span: sweep_span },
            );
        }
        self.iterate(m);
        // Re-arm for the re-created holds (they all begin at this
        // instant, so the next sweep is one full `period` away).
        self.arm_sweep_if_needed(m);
    }

    /// One scheduling iteration on machine `m`: drain ready candidates
    /// through their rendezvous rules.
    fn iterate(&mut self, m: usize) {
        let (queued, running, free_nodes) = (
            self.machines[m].queued_jobs().len(),
            self.machines[m].running_jobs().len(),
            self.machines[m].free_nodes(),
        );
        self.emit(m, || TraceEvent::SchedIterationStart {
            queued,
            running,
            free_nodes,
        });
        self.machines[m].begin_iteration();
        let mut started = 0usize;
        // Lazily opened at the first mated pick: "a scheduler iteration
        // that touches a mated job" gets its own span.
        let mut iter_span = NO_SPAN;
        while let Some(cand) = self.machines[m].pick_next(self.now) {
            self.drain_machine_trace(m);
            if cand.paired && iter_span == NO_SPAN && self.observer.active() {
                iter_span = self.spans.alloc();
                self.observer.record(
                    self.now.as_secs(),
                    m,
                    TraceEvent::SpanOpen {
                        span: iter_span,
                        parent: NO_SPAN,
                        kind: SpanKind::SchedIteration,
                        job: NO_JOB,
                        mate: NO_JOB,
                    },
                );
            }
            self.emit(m, || TraceEvent::SchedPick {
                job: cand.job_id.0,
                size: cand.size,
                via_backfill: cand.via_backfill,
            });
            let cfg = self.config.cosched[m].clone();
            let job = self.machines[m].candidate_job(&cand).clone();
            let ctx = LocalContext {
                job: &job,
                candidate_charged: cand.charged,
                capacity: self.machines[m].config().capacity,
                held_nodes: self.machines[m].held_nodes(),
                yields_so_far: cand.yields,
            };
            let rule = if self.rules.is_empty() {
                None
            } else {
                self.rules.get(&(m, job.id)).cloned()
            };
            // Algorithm 1 talks to the mate's machine; a job without one
            // asks the next machine (in a pair run, the other one).
            let remote = match (&rule, job.mate) {
                (Some(Rule::Within(to, _)), _) => *to,
                (None, Some(mate)) if self.machines.len() > 2 => self.slot(mate.machine),
                _ => (m + 1) % self.machines.len(),
            };
            // RPC spans for this decision parent under the pair root (the
            // span context a live transport would carry in its frames).
            let rpc_parent = if self.observer.active() {
                self.pair_span_of(m, job.id)
            } else {
                NO_SPAN
            };
            // Algorithm-internal events (§IV-E2 scheme shifts) are staged in
            // a local buffer: the remote-call closure already borrows `self`.
            let mut shifts: Vec<TraceEvent> = Vec::new();
            let decision = {
                let this = &mut *self;
                let trace = |ev| shifts.push(ev);
                match rule {
                    None => run_job_traced(
                        &cfg,
                        &ctx,
                        |req| this.remote_call(m, remote, req, rpc_parent),
                        trace,
                    ),
                    Some(Rule::Group(others)) => run_group(
                        &cfg,
                        &ctx,
                        &others,
                        |to, req| this.remote_call(m, to, req, rpc_parent),
                        trace,
                    ),
                    Some(Rule::Within(to, partner)) => run_within(&cfg, partner, |req| {
                        this.remote_call(m, to, req, rpc_parent)
                    }),
                }
            };
            for ev in shifts {
                match ev {
                    TraceEvent::CoschedHeldCapDegradation { .. } => self.stats.degradations += 1,
                    TraceEvent::CoschedYieldCapEscalation { .. } => self.stats.escalations += 1,
                    _ => {}
                }
                self.emit(m, || ev);
            }
            match decision {
                Decision::Start { mate_started } => {
                    started += 1;
                    if let Some(mate) = mate_started {
                        let anchored = self.anchored_pairs.contains(&(remote, mate));
                        self.emit(m, || TraceEvent::CoschedRendezvousCommit {
                            job: job.id.0,
                            mate: mate.0,
                            anchored,
                        });
                    }
                    self.emit(m, || TraceEvent::CoschedStart {
                        job: job.id.0,
                        with_mate: mate_started.is_some(),
                    });
                    let end = self.machines[m].start(cand, self.now);
                    let id = job.id;
                    self.queue.push(end, Event::JobEnd { m, job: id });
                    self.started(m, id);
                }
                Decision::Hold => {
                    self.stats.holds += 1;
                    if self.observer.active() {
                        let parent = self.pair_span_of(m, job.id);
                        let id = self.spans.alloc();
                        self.spans.hold.insert((m, job.id.0), id);
                        let mate = job.mate.as_ref().map_or(NO_JOB, |r| r.job.0);
                        self.observer.record(
                            self.now.as_secs(),
                            m,
                            TraceEvent::SpanOpen {
                                span: id,
                                parent,
                                kind: SpanKind::Hold,
                                job: job.id.0,
                                mate,
                            },
                        );
                    }
                    self.emit(m, || TraceEvent::CoschedHoldPlaced {
                        job: job.id.0,
                        nodes: cand.charged,
                    });
                    self.machines[m].hold(cand, self.now);
                }
                Decision::Yield => {
                    self.stats.yields += 1;
                    // A yield episode spans from the first yield to the
                    // job's eventual start; repeated yields stay inside it.
                    if self.observer.active() && !self.spans.yielding.contains_key(&(m, job.id.0)) {
                        let parent = self.pair_span_of(m, job.id);
                        let id = self.spans.alloc();
                        self.spans.yielding.insert((m, job.id.0), id);
                        let mate = job.mate.as_ref().map_or(NO_JOB, |r| r.job.0);
                        self.observer.record(
                            self.now.as_secs(),
                            m,
                            TraceEvent::SpanOpen {
                                span: id,
                                parent,
                                kind: SpanKind::YieldWait,
                                job: job.id.0,
                                mate,
                            },
                        );
                    }
                    let yields_so_far = ctx.yields_so_far + 1;
                    self.emit(m, || TraceEvent::CoschedYield {
                        job: job.id.0,
                        yields_so_far,
                    });
                    self.machines[m].yield_job(cand, self.now);
                }
            }
        }
        self.drain_machine_trace(m);
        if iter_span != NO_SPAN {
            self.observer.record(
                self.now.as_secs(),
                m,
                TraceEvent::SpanClose { span: iter_span },
            );
        }
        self.emit(m, || TraceEvent::SchedIterationEnd { started });
        self.arm_sweep_if_needed(m);
    }

    /// Is any queued job on machine `m` blocked by nodes that holds are
    /// sitting on? True when a queued job does not fit now but would fit
    /// (by node count) with the held nodes returned.
    fn holds_block_someone(&self, m: usize) -> bool {
        let held = self.machines[m].held_nodes();
        if held == 0 {
            return false;
        }
        let free = self.machines[m].free_nodes();
        // Blocked now (by count or by fragmentation) but feasible once the
        // held nodes come back.
        self.machines[m]
            .queued_jobs()
            .any(|job| job.size <= free + held && !self.machines[m].can_fit(job.size))
    }

    /// Schedule the next release sweep for machine `m` if it has holds and
    /// no sweep pending. The sweep fires when the *oldest* hold reaches the
    /// release period.
    fn arm_sweep_if_needed(&mut self, m: usize) {
        if self.sweep_armed[m] {
            return;
        }
        let Some(period) = self.config.cosched[m].release_period else {
            return;
        };
        let oldest = self.machines[m]
            .held_jobs()
            .iter()
            .filter_map(|&job| self.machines[m].hold_since(job))
            .min();
        if let Some(since) = oldest {
            let at = (since + period).max(self.now);
            self.queue.push(at, Event::ReleaseSweep { m });
            self.sweep_armed[m] = true;
        }
    }

    /// Answer one protocol request from machine `from` against machine `m`
    /// — the simulator's in-process "wire". Starting side effects schedule
    /// the corresponding end events. `parent` is the caller-side span the
    /// RPC parents under (the pair root; [`NO_SPAN`] when untraced or
    /// unpaired) — the same context a live transport carries in its
    /// `TracedRequest` frames.
    fn remote_call(
        &mut self,
        from: usize,
        m: usize,
        req: &Request,
        parent: u64,
    ) -> Result<Response, ProtoError> {
        let kind = rpc_kind(req);
        self.stats.rpc_calls += 1;
        // Caller-side RPC span: opened on the calling machine.
        let rpc_span = if self.observer.active() {
            let id = self.spans.alloc();
            self.observer.record(
                self.now.as_secs(),
                from,
                TraceEvent::SpanOpen {
                    span: id,
                    parent,
                    kind: SpanKind::Rpc(kind),
                    job: req_job(req),
                    mate: NO_JOB,
                },
            );
            id
        } else {
            NO_SPAN
        };
        let result = self.remote_call_inner(from, m, req, rpc_span);
        if result.is_err() {
            self.stats.rpc_timeouts += 1;
            self.emit(m, || TraceEvent::RpcTimeout { kind });
        } else {
            self.emit(m, || TraceEvent::RpcCall { kind, ok: true });
        }
        if rpc_span != NO_SPAN {
            self.observer.record(
                self.now.as_secs(),
                from,
                TraceEvent::SpanClose { span: rpc_span },
            );
        }
        result
    }

    /// `ctx_span` is the caller's RPC span id, as it would arrive in a
    /// `TracedRequest` envelope; the handler's work parents under it.
    fn remote_call_inner(
        &mut self,
        from: usize,
        m: usize,
        req: &Request,
        ctx_span: u64,
    ) -> Result<Response, ProtoError> {
        if !self.reachable[m] {
            return Err(ProtoError::Disconnected(format!(
                "machine {m} is down (fault injection)"
            )));
        }
        if self.status_timeout[m] && matches!(req, Request::GetMateStatus { .. }) {
            return Err(ProtoError::Timeout);
        }
        // The request reached the remote: its handler work gets a span
        // parented under the caller's RPC span (context propagation).
        let handler_span = if self.observer.active() {
            let id = self.spans.alloc();
            self.observer.record(
                self.now.as_secs(),
                m,
                TraceEvent::SpanOpen {
                    span: id,
                    parent: ctx_span,
                    kind: SpanKind::RpcHandler(rpc_kind(req)),
                    job: req_job(req),
                    mate: NO_JOB,
                },
            );
            id
        } else {
            NO_SPAN
        };
        let resp = match req {
            Request::GetMateJob { for_job } => Response::MateJob(
                self.mates
                    .mate_of(self.config.machines[from].machine, *for_job),
            ),
            Request::GetMateStatus { job } => {
                if self.unknown_status.contains(&(m, *job)) {
                    Response::MateStatus(MateStatus::Unknown)
                } else {
                    Response::MateStatus(match self.machines[m].status(*job) {
                        JobStatus::Unsubmitted => MateStatus::Unsubmitted,
                        JobStatus::Queued => MateStatus::Queuing,
                        JobStatus::Held => MateStatus::Holding,
                        JobStatus::Running => MateStatus::Running,
                        JobStatus::Finished => MateStatus::Finished,
                    })
                }
            }
            Request::TryStartMate { job } => {
                match self.machines[m].try_start_direct(*job, self.now) {
                    Some(end) => {
                        self.queue.push(end, Event::JobEnd { m, job: *job });
                        self.direct_pairs.insert((m, *job));
                        // Lifecycle event for the remote-started mate: its
                        // own machine never passes it through `iterate`.
                        self.emit(m, || TraceEvent::CoschedStart {
                            job: job.0,
                            with_mate: true,
                        });
                        self.started(m, *job);
                        Response::Started(true)
                    }
                    None => Response::Started(false),
                }
            }
            Request::StartJob { job } => {
                // Normal path: the mate is holding. Fall back to a direct
                // start if a release timer raced it back into the queue.
                let started = self.machines[m]
                    .start_held(*job, self.now)
                    .or_else(|| self.machines[m].try_start_direct(*job, self.now));
                match started {
                    Some(end) => {
                        self.queue.push(end, Event::JobEnd { m, job: *job });
                        self.anchored_pairs.insert((m, *job));
                        self.emit(m, || TraceEvent::CoschedStart {
                            job: job.0,
                            with_mate: true,
                        });
                        self.started(m, *job);
                        Response::Started(true)
                    }
                    None => Response::Started(false),
                }
            }
            Request::Ping => Response::Pong,
            Request::CanStart { job } => {
                Response::CanStart(self.machines[m].can_start_direct(*job, self.now))
            }
        };
        if handler_span != NO_SPAN {
            self.observer.record(
                self.now.as_secs(),
                m,
                TraceEvent::SpanClose { span: handler_span },
            );
        }
        Ok(resp)
    }

    /// Per machine: the finished run's job records, their summary over the
    /// run's horizon, and how many jobs never finished.
    fn take_results(&mut self) -> (Vec<Vec<JobRecord>>, Vec<MachineSummary>, Vec<usize>) {
        let horizon = self.now;
        let (mut records, mut summaries, mut unfinished) = (Vec::new(), Vec::new(), Vec::new());
        for (m, machine) in self.machines.iter_mut().enumerate() {
            let held_ns = machine.held_node_seconds(horizon);
            unfinished.push(self.jobs[m].len() - machine.records().len());
            let recs = machine.take_records();
            let cfg = &self.config.machines[m];
            summaries.push(MachineSummary::from_records(
                cfg.name.clone(),
                &recs,
                cfg.capacity,
                horizon.max(SimTime::from_secs(1)),
                held_ns,
            ));
            records.push(recs);
        }
        (records, summaries, unfinished)
    }

    /// The two-machine report.
    fn report(mut self, aborted: bool) -> RunArtifacts<O> {
        let horizon = self.now;
        let (records, summaries, unfinished) = self.take_results();
        let (records, summaries, unfinished) = (two(records), two(summaries), two(unfinished));
        // Pair start offsets.
        let mut starts: HashMap<(usize, JobId), SimTime> = HashMap::new();
        for (m, recs) in records.iter().enumerate() {
            for r in recs {
                starts.insert((m, r.id), r.start);
            }
        }
        let mut pair_offsets = Vec::new();
        let mut rendezvous = RendezvousCounts::default();
        for ((ma, ja), mate) in self.mates.pairs() {
            let keys = [(self.slot(ma), ja), (self.slot(mate.machine), mate.job)];
            if let (Some(&sa), Some(&sb)) = (starts.get(&keys[0]), starts.get(&keys[1])) {
                pair_offsets.push(sa.abs_diff(sb));
                if keys.iter().any(|k| self.anchored_pairs.contains(k)) {
                    rendezvous.anchored += 1;
                } else if keys.iter().any(|k| self.direct_pairs.contains(k)) {
                    rendezvous.direct += 1;
                } else {
                    rendezvous.independent += 1;
                }
            }
        }
        pair_offsets.sort();
        let deadlocked = !aborted && (unfinished[0] > 0 || unfinished[1] > 0);
        let sched_stats = [self.machines[0].stats(), self.machines[1].stats()];
        let metrics = build_metrics(
            &self.stats,
            &sched_stats,
            self.forced_releases,
            self.events,
            self.queue.high_water(),
            self.queue.cancelled(),
            &pair_offsets,
            &records,
        );
        let report = SimulationReport {
            records,
            summaries,
            horizon,
            deadlocked,
            aborted,
            unfinished,
            forced_releases: self.forced_releases,
            pair_offsets,
            rendezvous,
            events: self.events,
            queue_high_water: self.queue.high_water(),
            events_cancelled: self.queue.cancelled(),
            stats: self.stats,
            sched_stats,
            metrics,
        };
        let mut observer = self.observer;
        observer.flush();
        RunArtifacts { report, observer }
    }
}

/// The two per-machine entries of a pair run's report.
fn two<T>(v: Vec<T>) -> [T; 2] {
    v.try_into().unwrap_or_else(|v: Vec<T>| {
        panic!(
            "a pair report needs two machines, not {} (use run_nway)",
            v.len()
        )
    })
}

/// Map a protocol request to its trace-event kind tag.
fn rpc_kind(req: &Request) -> RpcKind {
    match req {
        Request::GetMateJob { .. } => RpcKind::GetMateJob,
        Request::GetMateStatus { .. } => RpcKind::GetMateStatus,
        Request::TryStartMate { .. } => RpcKind::TryStartMate,
        Request::StartJob { .. } => RpcKind::StartJob,
        Request::CanStart { .. } => RpcKind::CanStart,
        Request::Ping => RpcKind::Ping,
    }
}

/// The job a request concerns, for span records ([`NO_JOB`] for probes).
fn req_job(req: &Request) -> u64 {
    match req {
        Request::GetMateJob { for_job } => for_job.0,
        Request::GetMateStatus { job }
        | Request::TryStartMate { job }
        | Request::StartJob { job }
        | Request::CanStart { job } => job.0,
        Request::Ping => NO_JOB,
    }
}

/// Fold the deterministic counters and derived distributions into a
/// [`MetricsSnapshot`]. Everything here is a pure function of simulation
/// state — no wall clock — so identical seeds yield identical snapshots.
#[allow(clippy::too_many_arguments)]
fn build_metrics(
    stats: &RunStats,
    sched: &[SchedStats; 2],
    forced_releases: u64,
    events: u64,
    queue_high_water: usize,
    events_cancelled: u64,
    pair_offsets: &[SimDuration],
    records: &[Vec<JobRecord>; 2],
) -> MetricsSnapshot {
    let mut reg = MetricsRegistry::new();
    reg.set("engine.events_dispatched", events);
    reg.set("engine.queue_high_water", queue_high_water as u64);
    reg.set("engine.events_cancelled", events_cancelled);
    reg.set("cosched.holds", stats.holds);
    reg.set("cosched.yields", stats.yields);
    reg.set("cosched.degradations", stats.degradations);
    reg.set("cosched.escalations", stats.escalations);
    reg.set("cosched.release_sweeps", stats.release_sweeps);
    reg.set("cosched.forced_releases", forced_releases);
    reg.set("rpc.calls", stats.rpc_calls);
    reg.set("rpc.timeouts", stats.rpc_timeouts);
    let agg = |f: fn(&SchedStats) -> u64| f(&sched[0]) + f(&sched[1]);
    reg.set("sched.iterations", agg(|s| s.iterations));
    reg.set("sched.picks", agg(|s| s.picks));
    reg.set("sched.backfill_hits", agg(|s| s.backfill_hits));
    reg.set("sched.drains_engaged", agg(|s| s.drains_engaged));
    reg.set("sched.alloc_fail_capacity", agg(|s| s.alloc_fail_capacity));
    reg.set(
        "sched.alloc_fail_fragmentation",
        agg(|s| s.alloc_fail_fragmentation),
    );
    for d in pair_offsets {
        reg.observe("pair.start_offset_secs", d.as_secs());
    }
    for recs in records {
        for r in recs {
            reg.observe("job.wait_secs", r.wait().as_secs());
        }
    }
    reg.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoschedConfig, SchemeCombo};
    use cosched_sched::MachineConfig;
    use cosched_sim::SimRng;
    use cosched_workload::{pairing, MachineId};

    fn mk(machine: usize, id: u64, submit: u64, size: u64, runtime: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(machine),
            SimTime::from_secs(submit),
            size,
            SimDuration::from_secs(runtime),
            SimDuration::from_secs(runtime * 2),
        )
    }

    /// Two tiny flat machines with FCFS.
    fn small_config(combo: SchemeCombo) -> CoupledConfig {
        CoupledConfig {
            machines: [
                MachineConfig::flat("A", MachineId(0), 100),
                MachineConfig::flat("B", MachineId(1), 100),
            ],
            cosched: [
                // The held-fraction cap is cleared: these scenarios hold
                // more than half the machine on purpose (they exercise the
                // breaker, not the cap).
                CoschedConfig::paper(combo.of(0)).with_max_held_fraction(None),
                CoschedConfig::paper(combo.of(1)).with_max_held_fraction(None),
            ],
            max_events: 1_000_000,
        }
    }

    fn paired_traces() -> [Trace; 2] {
        // One pair (job 1 on each machine, submitted 60 s apart) plus an
        // unpaired filler job on each side that keeps the mate busy briefly.
        let mut a = Trace::from_jobs(
            MachineId(0),
            vec![mk(0, 0, 0, 100, 400), mk(0, 1, 50, 30, 300)],
        );
        let mut b = Trace::from_jobs(
            MachineId(1),
            vec![mk(1, 0, 0, 100, 600), mk(1, 1, 110, 30, 300)],
        );
        let n = pairing::pair_by_window(&mut a, &mut b, SimDuration::from_mins(2));
        assert_eq!(n, 2); // (a0,b0) and (a1,b1)
        [a, b]
    }

    #[test]
    fn baseline_runs_all_jobs() {
        let mut cfg = small_config(SchemeCombo::YY);
        cfg.cosched = [CoschedConfig::disabled(), CoschedConfig::disabled()];
        let report = CoupledSimulation::new(cfg, paired_traces()).run();
        assert!(!report.deadlocked);
        assert_eq!(report.records[0].len(), 2);
        assert_eq!(report.records[1].len(), 2);
        // Without coscheduling pairs are NOT generally synchronized.
        assert_eq!(report.pair_offsets.len(), 2);
    }

    #[test]
    fn all_combos_synchronize_pairs() {
        for combo in SchemeCombo::ALL {
            let report = CoupledSimulation::new(small_config(combo), paired_traces()).run();
            assert!(!report.deadlocked, "{} deadlocked", combo.label());
            assert_eq!(report.unfinished, [0, 0], "{} left jobs", combo.label());
            assert_eq!(report.pair_offsets.len(), 2, "{}", combo.label());
            assert!(
                report.all_pairs_synchronized(),
                "{}: offsets {:?}",
                combo.label(),
                report.pair_offsets
            );
        }
    }

    #[test]
    fn hold_scheme_accrues_service_unit_loss() {
        // Machine A holds: its paired job 1 becomes ready while b1 is not
        // yet submitted, so it holds nodes.
        let report = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces()).run();
        let lost: f64 = report.summaries[0].lost_node_hours + report.summaries[1].lost_node_hours;
        assert!(lost > 0.0, "expected some held node-hours, got {lost}");
        assert!(report.summaries[0].total_holds + report.summaries[1].total_holds > 0);
    }

    #[test]
    fn yield_scheme_loses_no_service_units() {
        let report = CoupledSimulation::new(small_config(SchemeCombo::YY), paired_traces()).run();
        assert_eq!(report.summaries[0].lost_node_hours, 0.0);
        assert_eq!(report.summaries[1].lost_node_hours, 0.0);
        assert_eq!(
            report.summaries[0].total_holds + report.summaries[1].total_holds,
            0
        );
    }

    /// The Fig. 2 scenario: a1 holds 60 nodes on A waiting for b1; b2 holds
    /// 60 nodes on B waiting for a2; neither mate can ever fit. Without the
    /// release enhancement this deadlocks.
    fn deadlock_traces() -> [Trace; 2] {
        let mut a = Trace::from_jobs(
            MachineId(0),
            vec![mk(0, 1, 0, 60, 1_000), mk(0, 2, 10, 60, 1_000)],
        );
        let mut b = Trace::from_jobs(
            MachineId(1),
            vec![mk(1, 2, 0, 60, 1_000), mk(1, 1, 10, 60, 1_000)],
        );
        // Pair a1↔b1 and a2↔b2 explicitly.
        use cosched_workload::MateRef;
        a.jobs_mut()[0].mate = Some(MateRef {
            machine: MachineId(1),
            job: JobId(1),
        });
        b.jobs_mut()[1].mate = Some(MateRef {
            machine: MachineId(0),
            job: JobId(1),
        });
        a.jobs_mut()[1].mate = Some(MateRef {
            machine: MachineId(1),
            job: JobId(2),
        });
        b.jobs_mut()[0].mate = Some(MateRef {
            machine: MachineId(0),
            job: JobId(2),
        });
        [a, b]
    }

    #[test]
    fn hold_hold_without_breaker_deadlocks() {
        let mut cfg = small_config(SchemeCombo::HH);
        cfg.cosched[0].release_period = None;
        cfg.cosched[1].release_period = None;
        let report = CoupledSimulation::new(cfg, deadlock_traces()).run();
        assert!(report.deadlocked, "expected deadlock");
        assert!(report.unfinished[0] > 0 && report.unfinished[1] > 0);
        assert_eq!(report.forced_releases, 0);
    }

    #[test]
    fn hold_hold_with_breaker_completes() {
        let report = CoupledSimulation::new(small_config(SchemeCombo::HH), deadlock_traces()).run();
        assert!(
            !report.deadlocked,
            "breaker should resolve the circular wait"
        );
        assert_eq!(report.unfinished, [0, 0]);
        assert!(report.forced_releases > 0, "breaker must have fired");
        assert!(report.all_pairs_synchronized());
    }

    #[test]
    fn remote_down_starts_jobs_normally() {
        let mut sim = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces());
        sim.set_reachable(1, false);
        let report = sim.run();
        assert!(!report.deadlocked);
        assert_eq!(
            report.records[0].len(),
            2,
            "machine 0 proceeds despite dead peer"
        );
        // Pairs cannot be synchronized with a dead peer — but nothing hangs.
        assert_eq!(report.unfinished[0], 0);
    }

    #[test]
    fn unknown_mate_status_starts_normally() {
        let mut sim = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces());
        sim.mark_status_unknown(1, JobId(0));
        sim.mark_status_unknown(1, JobId(1));
        let report = sim.run();
        assert!(!report.deadlocked);
        assert_eq!(report.unfinished, [0, 0]);
        assert_eq!(
            report.summaries[0].total_holds, 0,
            "unknown status must not cause holding"
        );
    }

    #[test]
    fn rendezvous_audit_classifies_paths() {
        // HH on the paired_traces scenario: pair (a0,b0) resolves through
        // b0 finding a0 HOLDING (anchored); pair (a1,b1) likewise. See the
        // trace walk in `all_combos_synchronize_pairs`.
        let report = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces()).run();
        assert_eq!(report.rendezvous.anchored, 2, "{:?}", report.rendezvous);
        assert_eq!(report.rendezvous.independent, 0);

        // YY: a0 yields, then b0 direct-starts it (TryStartMate) — every
        // pair commits through the direct path.
        let report = CoupledSimulation::new(small_config(SchemeCombo::YY), paired_traces()).run();
        assert_eq!(report.rendezvous.direct, 2, "{:?}", report.rendezvous);
        assert_eq!(report.rendezvous.anchored, 0);

        // Dead remote: machine-0 pairs start independently.
        let mut sim = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces());
        sim.set_reachable(1, false);
        let report = sim.run();
        assert_eq!(report.rendezvous.anchored, 0, "{:?}", report.rendezvous);
    }

    #[test]
    fn determinism_same_input_same_report() {
        let r1 = CoupledSimulation::new(small_config(SchemeCombo::HY), paired_traces()).run();
        let r2 = CoupledSimulation::new(small_config(SchemeCombo::HY), paired_traces()).run();
        assert_eq!(r1.records, r2.records);
        assert_eq!(r1.events, r2.events);
        assert_eq!(r1.pair_offsets, r2.pair_offsets);
        assert_eq!(r1.metrics, r2.metrics);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn traced_run_is_pure_observation() {
        use cosched_obs::{SinkObserver, VecSink};
        let plain = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces()).run();
        let arts = CoupledSimulation::with_observer(
            small_config(SchemeCombo::HH),
            paired_traces(),
            SinkObserver::new(VecSink::default()),
        )
        .run_traced();
        // Attaching an observer must not change any deterministic output.
        assert_eq!(arts.report.records, plain.records);
        assert_eq!(arts.report.events, plain.events);
        assert_eq!(arts.report.stats, plain.stats);
        assert_eq!(arts.report.sched_stats, plain.sched_stats);
        assert_eq!(arts.report.metrics, plain.metrics);
        assert!(plain.stats.holds > 0, "HH scenario places holds");
        assert!(plain.stats.rpc_calls > 0);
        assert_eq!(plain.metrics.counter("cosched.holds"), plain.stats.holds);

        let kinds: HashSet<&str> = arts
            .observer
            .sink()
            .records
            .iter()
            .map(|r| r.event.kind())
            .collect();
        for expected in [
            "sched-iteration-start",
            "sched-iteration-end",
            "sched-pick",
            "cosched-hold-placed",
            "cosched-rendezvous-commit",
            "cosched-start",
            "rpc-call",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
        // Records arrive in nondecreasing sim time.
        let times: Vec<u64> = arts
            .observer
            .sink()
            .records
            .iter()
            .map(|r| r.time)
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace times out of order"
        );
    }

    #[test]
    fn injected_status_timeout_starts_normally_and_counts() {
        let mut sim = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces());
        sim.inject_status_timeout(1, true);
        let report = sim.run();
        assert!(!report.deadlocked);
        assert_eq!(report.unfinished[0], 0, "timeouts must not wedge machine 0");
        assert!(
            report.stats.rpc_timeouts > 0,
            "timeouts counted: {:?}",
            report.stats
        );
        assert_eq!(
            report.metrics.counter("rpc.timeouts"),
            report.stats.rpc_timeouts
        );
    }

    #[test]
    fn max_events_aborts_cleanly() {
        let mut cfg = small_config(SchemeCombo::YY);
        cfg.max_events = 3;
        let report = CoupledSimulation::new(cfg, paired_traces()).run();
        assert!(report.aborted);
        assert!(
            !report.deadlocked,
            "aborted runs are not reported as deadlock"
        );
    }

    #[test]
    fn larger_random_workload_all_combos_synchronize() {
        use cosched_workload::{MachineModel, TraceGenerator};
        let rng = SimRng::seed_from_u64(42);
        for combo in SchemeCombo::ALL {
            let mut a = TraceGenerator::new(
                MachineModel::eureka().with_runtime(1_200.0, 1.0),
                MachineId(0),
            )
            .span(SimDuration::from_days(2))
            .target_utilization(0.6)
            .generate(&mut rng.fork(1));
            let mut b = TraceGenerator::new(
                MachineModel::eureka().with_runtime(1_200.0, 1.0),
                MachineId(1),
            )
            .span(SimDuration::from_days(2))
            .target_utilization(0.6)
            .generate(&mut rng.fork(2));
            let pairs = pairing::pair_exact_proportion(
                &mut a,
                &mut b,
                0.2,
                SimDuration::from_mins(2),
                &mut rng.fork(3),
            );
            assert!(pairs > 5, "workload too small: {pairs} pairs");
            let mut cfg = small_config(combo);
            cfg.machines[0] = MachineConfig::eureka(MachineId(0));
            cfg.machines[0].name = "A".into();
            cfg.machines[1] = MachineConfig::eureka(MachineId(1));
            cfg.machines[1].name = "B".into();
            let report = CoupledSimulation::new(cfg, [a, b]).run();
            assert!(!report.deadlocked, "{} deadlocked", combo.label());
            assert_eq!(report.unfinished, [0, 0], "{}", combo.label());
            assert!(
                report.all_pairs_synchronized(),
                "{}: max offset {}",
                combo.label(),
                report.max_pair_offset()
            );
        }
    }
}
