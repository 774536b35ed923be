//! Outside-in tracing: forwarding decorators around the coupler's
//! [`Channel`]s and the workers' [`ModelWorker`]s.
//!
//! Nothing inside the runtime is instrumented. A [`TimedChannel`] sits
//! between the bridge and each of its channels and attributes every
//! call to a Fig 7 phase; a [`TimedWorker`] sits between a worker host
//! (a `LocalChannel` or a loopback `WorkerServer`) and the model and
//! times each handler. Both forward *every* trait method, provided ones
//! included, so a traced run takes exactly the code paths of an
//! untraced one: the borrowing `LocalChannel` fast paths, the server's
//! zero-copy `particles()` snapshot leg and `ShardedChannel`'s
//! pipelined fan-out all stay in use.
//!
//! Recording happens only while the shared [`Gate`] is open — the
//! workloads open it around each measured outer iteration — so restores,
//! correctness snapshots and set-up traffic never leak into the
//! per-iteration figures.

use jc_amuse::channel::{Channel, ChannelStats};
use jc_amuse::worker::{ModelWorker, ParticleColumns, ParticleData, Request, Response};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The shared recording switch. Cloned into every decorator, coupler
/// and worker side alike (worker servers run on their own threads).
#[derive(Clone, Default)]
pub struct Gate(Arc<AtomicBool>);

impl Gate {
    /// Start or stop recording. Toggled only between iterations, when
    /// no request is in flight.
    pub fn set(&self, on: bool) {
        self.0.store(on, Ordering::SeqCst);
    }

    fn on(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The Fig 7 phases a bridge-side call can belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Snapshots, coupling kicks and velocity kicks.
    Pkick = 0,
    /// The parallel gravity/hydro evolve.
    Evolve = 1,
    /// The every-n-th-iteration stellar exchange and its feedback.
    Stellar = 2,
    /// SaveState / LoadState and heal (checkpoint and recovery).
    Checkpoint = 3,
}

impl Phase {
    /// Phase of a request issued through `call`/`submit`. The bridge's
    /// p-kick uses the dedicated fast-path methods; a plain
    /// `GetParticles` call comes from the stellar exchange.
    fn of(req: &Request) -> Phase {
        match req {
            Request::EvolveTo(_) => Phase::Evolve,
            Request::Kick(_) | Request::ComputeKick { .. } => Phase::Pkick,
            Request::SaveState | Request::LoadState(_) | Request::Ping => Phase::Checkpoint,
            _ => Phase::Stellar,
        }
    }
}

/// What one worker spent its time on, worker side.
#[derive(Clone, Debug, Default)]
pub struct WorkerTally {
    /// `EvolveTo` / `EvolveStars` handler time.
    pub evolve_ns: u64,
    /// Coupling-kick (`ComputeKick`) handler time.
    pub kick_ns: u64,
    /// `SaveState` / `LoadState` handler time.
    pub checkpoint_ns: u64,
    /// Every other handler: snapshots, velocity kicks, mass updates,
    /// feedback.
    pub state_ns: u64,
    /// Modeled flops reported by evolve and coupling-kick handlers.
    pub flops: f64,
    /// Requests handled, through any entry point.
    pub handled: u64,
    /// Duration of the most recent request (pairs a coupler-side
    /// synchronous call with its worker-side share).
    pub last_ns: u64,
    /// `Kick` / `ComputeKick` that arrived through the copying `handle`
    /// path instead of their borrowing fast paths.
    pub copying_fallbacks: u64,
    /// Zero-copy `particles()` snapshots served.
    pub zero_copy_snapshots: u64,
}

impl WorkerTally {
    /// Busy time over every handler.
    pub fn busy_ns(&self) -> u64 {
        self.evolve_ns + self.kick_ns + self.checkpoint_ns + self.state_ns
    }

    /// Field-wise sum (`last_ns` is per worker and left at 0).
    pub fn sum(tallies: &[WorkerTally]) -> WorkerTally {
        let mut s = WorkerTally::default();
        for t in tallies {
            s.evolve_ns += t.evolve_ns;
            s.kick_ns += t.kick_ns;
            s.checkpoint_ns += t.checkpoint_ns;
            s.state_ns += t.state_ns;
            s.flops += t.flops;
            s.handled += t.handled;
            s.copying_fallbacks += t.copying_fallbacks;
            s.zero_copy_snapshots += t.zero_copy_snapshots;
        }
        s
    }
}

/// A worker's tally plus the gate, moved into a worker factory (worker
/// servers build their model on the server thread).
#[derive(Clone)]
pub struct WorkerProbe {
    tally: Arc<Mutex<WorkerTally>>,
    gate: Gate,
}

enum WorkerOp {
    Evolve,
    Kick,
    Checkpoint,
    State,
}

/// Worker-side decorator: times every handler of the wrapped model.
pub struct TimedWorker {
    inner: Box<dyn ModelWorker>,
    probe: WorkerProbe,
}

impl TimedWorker {
    /// Wrap `inner`; its handlers are recorded into `probe`.
    pub fn new(inner: Box<dyn ModelWorker>, probe: WorkerProbe) -> TimedWorker {
        TimedWorker { inner, probe }
    }

    /// Start timing a handler, if the gate is open.
    fn start(&self) -> Option<Instant> {
        self.probe.gate.on().then(Instant::now)
    }

    fn record(
        &self,
        t0: Option<Instant>,
        op: WorkerOp,
        flops: f64,
        update: impl FnOnce(&mut WorkerTally),
    ) {
        let Some(t0) = t0 else { return };
        let ns = t0.elapsed().as_nanos() as u64;
        let mut t = self.probe.tally.lock().expect("worker tally poisoned");
        match op {
            WorkerOp::Evolve => t.evolve_ns += ns,
            WorkerOp::Kick => t.kick_ns += ns,
            WorkerOp::Checkpoint => t.checkpoint_ns += ns,
            WorkerOp::State => t.state_ns += ns,
        }
        t.flops += flops;
        t.handled += 1;
        t.last_ns = ns;
        update(&mut t);
    }
}

impl ModelWorker for TimedWorker {
    fn handle(&mut self, req: Request) -> Response {
        let (op, fallback) = match &req {
            Request::EvolveTo(_) | Request::EvolveStars(_) => (WorkerOp::Evolve, false),
            Request::ComputeKick { .. } => (WorkerOp::Kick, true),
            Request::SaveState | Request::LoadState(_) => (WorkerOp::Checkpoint, false),
            Request::Kick(_) => (WorkerOp::State, true),
            _ => (WorkerOp::State, false),
        };
        let t0 = self.start();
        let resp = self.inner.handle(req);
        let flops =
            if matches!(op, WorkerOp::Evolve | WorkerOp::Kick) { resp.flops() } else { 0.0 };
        self.record(t0, op, flops, |t| t.copying_fallbacks += u64::from(fallback));
        resp
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        let t0 = self.start();
        let ok = self.inner.snapshot_into(out);
        if ok {
            self.record(t0, WorkerOp::State, 0.0, |_| {});
        }
        ok
    }

    fn particles(&self) -> Option<ParticleColumns<'_>> {
        let t0 = self.start();
        let cols = self.inner.particles();
        if cols.is_some() {
            self.record(t0, WorkerOp::State, 0.0, |t| t.zero_copy_snapshots += 1);
        }
        cols
    }

    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Option<f64> {
        let t0 = self.start();
        let r = self.inner.kick_slice(dv);
        if r.is_some() {
            self.record(t0, WorkerOp::State, 0.0, |_| {});
        }
        r
    }

    fn compute_kick_into(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) -> Option<f64> {
        let t0 = self.start();
        let r = self.inner.compute_kick_into(targets, source_pos, source_mass, out);
        if let Some(flops) = r {
            self.record(t0, WorkerOp::Kick, flops, |_| {});
        }
        r
    }
}

/// Coupler-side record of the traced iterations.
#[derive(Debug, Default)]
pub struct Timeline {
    /// The open phase segment: consecutive bridge-side calls of one
    /// phase merge into one segment, gaps between them included.
    seg: Option<(Phase, Instant, Instant)>,
    /// Segment time per [`Phase`].
    pub phase_ns: [u64; 4],
    /// Time inside bridge-side channel calls.
    pub bridge_call_ns: u64,
    /// Time inside calls on sharded (fan-out) channels.
    pub fanout_ns: u64,
    /// Coupler-side minus worker-side time of each synchronous call on
    /// a channel with exactly one worker behind it.
    pub call_overhead_ns: Vec<u64>,
    /// Response bytes of bridge-side `SaveState` calls.
    pub checkpoint_bytes: u64,
}

impl Timeline {
    fn bridge_call(&mut self, phase: Phase, t0: Instant, t1: Instant, fanout: bool) {
        let ns = (t1 - t0).as_nanos() as u64;
        self.bridge_call_ns += ns;
        if fanout {
            self.fanout_ns += ns;
        }
        match &mut self.seg {
            Some((p, _, end)) if *p == phase => *end = t1,
            _ => {
                self.close_segment();
                self.seg = Some((phase, t0, t1));
            }
        }
    }

    fn close_segment(&mut self) {
        if let Some((p, start, end)) = self.seg.take() {
            self.phase_ns[p as usize] += (end - start).as_nanos() as u64;
        }
    }

    /// Close the iteration's last segment; call once per traced
    /// iteration, after it returns.
    pub fn end_iteration(&mut self) {
        self.close_segment();
    }
}

/// Where a [`TimedChannel`] sits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Directly under the bridge: calls are phase-attributed.
    Bridge,
    /// Directly under the bridge, in front of a `ShardedChannel`: also
    /// counted as fan-out time.
    BridgeFanout,
    /// One shard inside a `ShardedChannel`: only call overheads.
    Shard,
}

/// Coupler-side decorator: times every call and attributes it.
pub struct TimedChannel {
    inner: Box<dyn Channel>,
    gate: Gate,
    timeline: Rc<RefCell<Timeline>>,
    site: Site,
    /// The single worker behind this channel, when there is one.
    peer: Option<Arc<Mutex<WorkerTally>>>,
    /// Phase of the outstanding `submit`.
    pending: Phase,
}

impl TimedChannel {
    fn timed<R>(&mut self, phase: Phase, sync: bool, f: impl FnOnce(&mut dyn Channel) -> R) -> R {
        let on = self.gate.on();
        let peer_before = match (&self.peer, on && sync) {
            (Some(p), true) => Some(p.lock().expect("worker tally poisoned").handled),
            _ => None,
        };
        let t0 = Instant::now();
        let r = f(&mut *self.inner);
        if !on {
            return r;
        }
        let t1 = Instant::now();
        let mut tl = self.timeline.borrow_mut();
        if self.site != Site::Shard {
            tl.bridge_call(phase, t0, t1, self.site == Site::BridgeFanout);
        }
        if let (Some(before), Some(peer)) = (peer_before, &self.peer) {
            let t = peer.lock().expect("worker tally poisoned");
            if t.handled == before + 1 {
                let ns = (t1 - t0).as_nanos() as u64;
                tl.call_overhead_ns.push(ns.saturating_sub(t.last_ns));
            }
        }
        r
    }
}

impl Channel for TimedChannel {
    fn call(&mut self, req: Request) -> Response {
        let phase = Phase::of(&req);
        let save = matches!(req, Request::SaveState);
        let resp = self.timed(phase, true, |c| c.call(req));
        if save && self.site != Site::Shard && self.gate.on() {
            self.timeline.borrow_mut().checkpoint_bytes += resp.wire_size();
        }
        resp
    }

    fn submit(&mut self, req: Request) {
        self.pending = Phase::of(&req);
        self.timed(self.pending, false, |c| c.submit(req))
    }

    fn collect(&mut self) -> Response {
        self.timed(self.pending, false, |c| c.collect())
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }

    fn worker_name(&self) -> String {
        self.inner.worker_name()
    }

    fn heal(&mut self) -> bool {
        self.timed(Phase::Checkpoint, false, |c| c.heal())
    }

    fn set_deadline(&mut self, deadline_ms: u64) {
        self.inner.set_deadline(deadline_ms)
    }

    fn snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        self.timed(Phase::Pkick, true, |c| c.snapshot_into(out))
    }

    fn kick_slice(&mut self, dv: &[[f64; 3]]) -> Response {
        self.timed(Phase::Pkick, true, |c| c.kick_slice(dv))
    }

    fn compute_kick_into(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) -> Option<f64> {
        self.timed(Phase::Pkick, true, |c| {
            c.compute_kick_into(targets, source_pos, source_mass, out)
        })
    }

    fn pipelines(&self) -> bool {
        self.inner.pipelines()
    }

    fn submit_snapshot(&mut self) {
        self.timed(Phase::Pkick, false, |c| c.submit_snapshot())
    }

    fn collect_snapshot_into(&mut self, out: &mut ParticleData) -> bool {
        self.timed(Phase::Pkick, false, |c| c.collect_snapshot_into(out))
    }

    fn submit_kick_slice(&mut self, dv: &[[f64; 3]]) {
        self.timed(Phase::Pkick, false, |c| c.submit_kick_slice(dv))
    }

    fn collect_kick(&mut self) -> Response {
        self.timed(Phase::Pkick, false, |c| c.collect_kick())
    }

    fn submit_compute_kick(
        &mut self,
        targets: &[[f64; 3]],
        source_pos: &[[f64; 3]],
        source_mass: &[f64],
    ) {
        self.timed(Phase::Pkick, false, |c| c.submit_compute_kick(targets, source_pos, source_mass))
    }

    fn collect_accelerations_into(&mut self, out: &mut Vec<[f64; 3]>) -> Option<f64> {
        self.timed(Phase::Pkick, false, |c| c.collect_accelerations_into(out))
    }
}

/// One traced rig: the gate, the coupler timeline and every worker's
/// tally, keyed by the worker's role label.
#[derive(Default)]
pub struct Tracer {
    /// The shared recording switch.
    pub gate: Gate,
    /// Coupler-side record.
    pub timeline: Rc<RefCell<Timeline>>,
    workers: Vec<(String, Arc<Mutex<WorkerTally>>)>,
}

impl Tracer {
    /// A probe for a new worker labelled `label` ("gravity", "hydro",
    /// "coupling", "stellar"; shards share their model's label).
    pub fn probe(&mut self, label: &str) -> WorkerProbe {
        let tally = Arc::new(Mutex::new(WorkerTally::default()));
        self.workers.push((label.to_string(), Arc::clone(&tally)));
        WorkerProbe { tally, gate: self.gate.clone() }
    }

    /// Wrap a coupler-side channel. `peer` is the probe of the single
    /// worker behind it, if there is exactly one.
    pub fn channel(
        &self,
        inner: Box<dyn Channel>,
        site: Site,
        peer: Option<&WorkerProbe>,
    ) -> Box<dyn Channel> {
        Box::new(TimedChannel {
            inner,
            gate: self.gate.clone(),
            timeline: Rc::clone(&self.timeline),
            site,
            peer: peer.map(|p| Arc::clone(&p.tally)),
            pending: Phase::Checkpoint,
        })
    }

    /// Snapshot of every tally with `label`.
    pub fn tallies(&self, label: &str) -> Vec<WorkerTally> {
        self.workers
            .iter()
            .filter(|(l, _)| l == label)
            .map(|(_, t)| t.lock().expect("worker tally poisoned").clone())
            .collect()
    }

    /// Sum of every tally with `label`.
    pub fn total(&self, label: &str) -> WorkerTally {
        WorkerTally::sum(&self.tallies(label))
    }

    /// Sum over every worker.
    pub fn grand_total(&self) -> WorkerTally {
        let all: Vec<WorkerTally> = self
            .workers
            .iter()
            .map(|(_, t)| t.lock().expect("worker tally poisoned").clone())
            .collect();
        WorkerTally::sum(&all)
    }
}
