//! The episode loop shared by both bridge workloads (and the service's
//! isolated replays).
//!
//! A run is a sequence of *episodes*, each a fixed trajectory: restore
//! an initial checkpoint, run `k` outer iterations, read the final state
//! with `Bridge::snapshot`. Episodes cycle through a few initial
//! conditions drawn from the seed, so a run averages over clusters
//! instead of riding on one. Every episode therefore does the same work
//! whatever the machine's speed (a free-running bridge would reach
//! later, costlier states on a faster build), and every episode's final
//! state is checked bitwise against a reference trajectory.
//! An episode is the bridge workloads' "session": the same restore,
//! iterate, snapshot sequence a service session runs on a warm host.

use crate::report::{Report, Rounds};
use crate::stats::{median, ms, percentile};
use crate::trace::{Tracer, WorkerTally};
use jc_amuse::channel::{Channel, ChannelStats};
use jc_amuse::worker::{ModelWorker, Request, Response};
use jc_amuse::{Bridge, BridgeConfig, Checkpoint, EmbeddedCluster, RecoveryPolicy};
use std::time::{Duration, Instant};

/// How each outer iteration is driven.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `Bridge::iteration` (panics on a worker failure).
    Plain,
    /// `Bridge::iteration_recovering` with `RecoveryPolicy::default()`:
    /// a checkpoint after every iteration.
    Recovering,
}

/// What a run of episodes measured.
#[derive(Default)]
pub struct Episodes {
    /// Wall time of each completed outer iteration.
    pub iter_ns: Vec<u64>,
    /// Wall time of each episode (restore to final snapshot).
    pub episode_ns: Vec<u64>,
    /// Wall time of the whole loop.
    pub loop_ns: u64,
    /// Outer iterations attempted.
    pub attempted: u64,
    /// Iterations that errored or needed a recovery.
    pub failed: u64,
    /// Episodes whose final state differed from the reference, or whose
    /// restore or final snapshot failed.
    pub mismatches: u64,
    /// Channel traffic inside the iterations (restores and final
    /// snapshots excluded).
    pub stats: ChannelStats,
    /// Final state of the last episode (`None` if it failed).
    pub last_state: Option<Checkpoint>,
}

/// Traffic summed over the bridge's four channels.
fn total_stats(bridge: &Bridge) -> ChannelStats {
    let (g, h, c, s) = bridge.channel_stats();
    let mut t = g;
    t.merge(&h);
    t.merge(&c);
    if let Some(s) = s {
        t.merge(&s);
    }
    t
}

/// Field-wise `a - b` of two cumulative snapshots.
fn minus(a: ChannelStats, b: ChannelStats) -> ChannelStats {
    ChannelStats {
        calls: a.calls - b.calls,
        bytes_out: a.bytes_out - b.bytes_out,
        bytes_in: a.bytes_in - b.bytes_in,
        flops: a.flops - b.flops,
        retries: a.retries - b.retries,
    }
}

/// A bridge's four channels, kept across episodes: each episode
/// assembles a `Bridge` over them with its own case's configuration and
/// takes them back afterwards, as a service session leases a warm host.
pub struct Channels(
    pub Box<dyn Channel>,
    pub Box<dyn Channel>,
    pub Box<dyn Channel>,
    pub Option<Box<dyn Channel>>,
);

impl Channels {
    fn into_bridge(self, cfg: BridgeConfig) -> Bridge {
        Bridge::new(self.0, self.1, self.2, self.3, cfg)
    }

    fn from_bridge(bridge: Bridge) -> Channels {
        let (g, h, c, s) = bridge.into_channels();
        Channels(g, h, c, s)
    }
}

/// One trajectory an episode follows.
pub struct Case {
    /// Bridge configuration (units follow the case's cluster).
    pub cfg: BridgeConfig,
    /// Initial checkpoint, restored at the start of every episode.
    pub init: Checkpoint,
    /// Expected final state, serialized by `Checkpoint::write_to` (clocks,
    /// counters and every column, bit for bit); the first episode of the
    /// case sets it when `None`.
    pub reference: Option<Vec<u8>>,
}

impl Case {
    /// The cluster's initial state, saved from freshly built local
    /// workers — the same initial checkpoint a service session starts
    /// from.
    pub fn of(cluster: &EmbeddedCluster, substeps: u32) -> Case {
        let mut cfg = cluster.bridge_config();
        cfg.substeps = substeps;
        let (mut g, mut h, mut c, mut s) = cluster.local_workers(false);
        let save = |w: &mut Box<dyn ModelWorker>| match w.handle(Request::SaveState) {
            Response::State(st) => st,
            other => panic!("fresh worker failed to save its state: {other:?}"),
        };
        let init = Checkpoint {
            time: 0.0,
            iterations: 0,
            total_supernovae: 0,
            gravity: save(&mut g),
            hydro: save(&mut h),
            coupling: save(&mut c),
            stellar: Some(save(&mut s)),
        };
        Case { cfg, init, reference: None }
    }
}

/// Run whole episodes of `k` iterations over `channels`, cycling
/// through `cases` in whole cycles (so every case weighs the same in
/// the result): at least one, and no more than fit in `budget`. Each final state is compared with its case's reference.
/// With a `tracer`, its gate is open exactly around each iteration.
pub fn run(
    mut channels: Channels,
    cases: &mut [Case],
    k: u64,
    step: Step,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> (Channels, Episodes) {
    let policy = RecoveryPolicy::default();
    let mut ep = Episodes::default();
    let start = Instant::now();
    let n = cases.len();
    loop {
        let done = ep.episode_ns.len();
        if done > 0 && done % n == 0 {
            // stop at a cycle boundary when another cycle would overrun
            let elapsed = start.elapsed();
            let cycle = elapsed / (done / n) as u32;
            if elapsed + cycle > budget {
                break;
            }
        }
        let case = &mut cases[ep.episode_ns.len() % n];
        let t_ep = Instant::now();
        let mut bridge = channels.into_bridge(case.cfg.clone());
        let final_state = episode(&mut bridge, case, k, step, &policy, tracer, &mut ep);
        channels = Channels::from_bridge(bridge);
        ep.episode_ns.push(t_ep.elapsed().as_nanos() as u64);
        match (final_state.as_ref().map(state_bytes), &case.reference) {
            (Some(b), None) => case.reference = Some(b),
            (Some(b), Some(r)) if b == *r => {}
            _ => ep.mismatches += 1,
        }
        ep.last_state = final_state;
    }
    ep.loop_ns = start.elapsed().as_nanos() as u64;
    (channels, ep)
}

/// The checkpoint's own serialization: two states are bitwise equal
/// exactly when these bytes are.
fn state_bytes(ck: &Checkpoint) -> Vec<u8> {
    let mut bytes = Vec::new();
    ck.write_to(&mut bytes).expect("a checkpoint serializes into memory");
    bytes
}

/// Restore, iterate, snapshot. `None` when any step failed.
fn episode(
    bridge: &mut Bridge,
    case: &Case,
    k: u64,
    step: Step,
    policy: &RecoveryPolicy,
    tracer: Option<&Tracer>,
    ep: &mut Episodes,
) -> Option<Checkpoint> {
    if bridge.restore(&case.init).is_err() {
        ep.attempted += k;
        ep.failed += k;
        return None;
    }
    let mut ck = Some(case.init.clone());
    for _ in 0..k {
        ep.attempted += 1;
        let before = total_stats(bridge);
        if let Some(t) = tracer {
            t.gate.set(true);
        }
        let t0 = Instant::now();
        let ok = match step {
            Step::Plain => {
                bridge.iteration();
                true
            }
            Step::Recovering => matches!(bridge.iteration_recovering(&mut ck, policy), Ok((_, 0))),
        };
        ep.iter_ns.push(t0.elapsed().as_nanos() as u64);
        if let Some(t) = tracer {
            t.gate.set(false);
            t.timeline.borrow_mut().end_iteration();
        }
        ep.stats.merge(&minus(total_stats(bridge), before));
        if !ok {
            ep.failed += 1;
            return None;
        }
    }
    bridge.snapshot().ok()
}

impl Episodes {
    /// Append another run's samples and counts (the loop time adds up).
    pub fn absorb(&mut self, other: Episodes) {
        self.iter_ns.extend(other.iter_ns);
        self.episode_ns.extend(other.episode_ns);
        self.loop_ns += other.loop_ns;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.stats.merge(&other.stats);
        self.last_state = other.last_state;
    }

    /// Median iteration wall time, ms.
    pub fn iter_ms_p50(&self) -> f64 {
        median(&self.iter_ns.iter().map(|n| ms(*n)).collect::<Vec<_>>())
    }

    /// Record one round's end-to-end metrics (everything but `setup_s`).
    pub fn record_round(&self, rounds: &mut Rounds) {
        let loop_s = self.loop_ns as f64 / 1e9;
        let episodes: Vec<f64> = self.episode_ns.iter().map(|n| ms(*n)).collect();
        rounds.record("iters_per_s", self.iter_ns.len() as f64 / loop_s);
        rounds.record("iter_ms_p50", self.iter_ms_p50());
        rounds.record("session_ms_p50", median(&episodes));
        rounds.record("sessions_per_s", episodes.len() as f64 / loop_s);
    }

    /// Fold the run's correctness into the report: every episode must
    /// reproduce the reference state, and a calm run must not fail,
    /// recover or retry anything.
    pub fn check(&self, rep: &mut Report, what: &str) {
        rep.attempted += self.attempted;
        rep.failed += self.failed + self.stats.retries;
        rep.check(
            self.mismatches == 0,
            format!(
                "{what}: {} of {} episodes diverged from the reference state",
                self.mismatches,
                self.episode_ns.len()
            ),
        );
        rep.check(
            self.failed == 0,
            format!("{what}: {} iterations failed or recovered", self.failed),
        );
        rep.check(
            self.stats.retries == 0,
            format!("{what}: {} transport retries", self.stats.retries),
        );
    }

    /// Record the per-layer metrics of a traced run. `tracer` must be the
    /// one whose gate this run drove.
    pub fn report_layers(&self, rep: &mut Report, tracer: &Tracer) {
        let n = self.iter_ns.len().max(1) as f64;
        let wall: u64 = self.iter_ns.iter().sum();
        let tl = tracer.timeline.borrow();
        let per_iter = |ns: u64| ms(ns) / n;
        let episodes: Vec<f64> = self.episode_ns.iter().map(|n| ms(*n)).collect();
        rep.set("session_ms_p99", percentile(&episodes, 0.99));
        rep.set("bridge.calls_per_iter", self.stats.calls as f64 / n);
        rep.set("bridge.self_ms_per_iter", per_iter(wall.saturating_sub(tl.bridge_call_ns)));
        let [pkick, evolve, stellar, checkpoint] = tl.phase_ns;
        rep.set("phase.pkick_ms", per_iter(pkick));
        rep.set("phase.evolve_ms", per_iter(evolve));
        rep.set("phase.stellar_ms", per_iter(stellar));
        rep.set("phase.checkpoint_ms", per_iter(checkpoint));
        let attributed: u64 = tl.phase_ns.iter().sum();
        rep.set("phase.unattributed_ms", per_iter(wall.saturating_sub(attributed)));
        let (gravity, hydro) = (tracer.total("gravity"), tracer.total("hydro"));
        let (coupling, stars) = (tracer.total("coupling"), tracer.total("stellar"));
        rep.set(
            "phase.evolve_overlap",
            (gravity.evolve_ns + hydro.evolve_ns) as f64 / evolve.max(1) as f64,
        );
        rep.set("nbody.evolve_ms", per_iter(gravity.evolve_ns));
        rep.set("sph.evolve_ms", per_iter(hydro.evolve_ns));
        rep.set("treegrav.kick_ms", per_iter(coupling.kick_ns));
        rep.set("stellar.evolve_ms", per_iter(stars.evolve_ns));
        let all = tracer.grand_total();
        rep.set("worker.state_ms", per_iter(all.state_ns + all.checkpoint_ns));
        rep.set("nbody.flops", gravity.flops / n);
        rep.set("sph.flops", hydro.flops / n);
        rep.set("treegrav.flops", coupling.flops / n);
        let overhead: Vec<f64> = tl.call_overhead_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
        rep.set("reactor.overhead_ms_per_iter", per_iter(tl.call_overhead_ns.iter().sum()));
        rep.set("reactor.call_overhead_us_p50", median(&overhead));
        rep.set("reactor.call_overhead_us_p99", percentile(&overhead, 0.99));
        rep.set("reactor.bytes_per_iter", (self.stats.bytes_in + self.stats.bytes_out) as f64 / n);
        rep.set("reactor.retries", self.stats.retries as f64);
        rep.set("shard.fanout_ms_per_iter", per_iter(tl.fanout_ns));
        rep.set("shard.imbalance", imbalance(&tracer.tallies("coupling")));
        rep.set("checkpoint.ms_per_iter", per_iter(all.checkpoint_ns));
        rep.set("checkpoint.bytes", tl.checkpoint_bytes as f64 / n);
    }
}

/// Max over mean busy time of a shard pool (1.0 = balanced); 0 for an
/// unsharded model.
fn imbalance(shards: &[WorkerTally]) -> f64 {
    if shards.len() < 2 {
        return 0.0;
    }
    let busy: Vec<f64> = shards.iter().map(|t| t.busy_ns() as f64).collect();
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    busy.iter().cloned().fold(0.0, f64::max) / mean.max(1.0)
}
