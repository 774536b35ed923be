//! The two bridge workloads: the Fig 7 solver in process
//! (`bridge_local`) and over sharded loopback TCP (`bridge_tcp`).

use crate::episodes::{self, Case, Channels, Episodes, Step};
use crate::provenance::{nproc, set_threads};
use crate::report::{Report, Rounds, ROUNDS};
use crate::stats::{ms, Rng};
use crate::trace::{Site, TimedWorker, Tracer, WorkerProbe};
use jc_amuse::channel::{Channel, LocalChannel};
use jc_amuse::reactor::{Reactor, ReactorChannel};
use jc_amuse::shard::ShardedChannel;
use jc_amuse::socket::WorkerFleet;
use jc_amuse::worker::{CouplingWorker, GravityWorker, HydroWorker, ModelWorker, StellarWorker};
use jc_amuse::EmbeddedCluster;
use jc_nbody::Backend;
use std::net::SocketAddr;
use std::time::Duration;

/// Gas mass fraction of every cluster.
pub const GAS_FRACTION: f64 = 0.5;
/// `bridge_local` cluster size: stars, gas.
pub const LOCAL_SIZE: (usize, usize) = (256, 1024);
/// `bridge_tcp` cluster size: stars, gas.
pub const TCP_SIZE: (usize, usize) = (16, 64);
/// Iterations per `bridge_local` episode: one stellar exchange each.
pub const LOCAL_EPISODE: u64 = 4;
/// Clusters (initial conditions drawn from the seed) `bridge_local`
/// cycles through.
pub const LOCAL_VARIANTS: usize = 12;
/// Iterations per `bridge_tcp` episode: one stellar exchange each.
pub const TCP_EPISODE: u64 = 4;
/// Clusters (initial conditions drawn from the seed) `bridge_tcp`
/// cycles through.
pub const TCP_VARIANTS: usize = 8;
/// Coupling shards behind `bridge_tcp`'s `ShardedChannel`.
pub const TCP_SHARDS: usize = 2;
/// Set-ups timed per round of `bridge_local` (the median over the run
/// is reported; `bridge_tcp` spreads as many over its rounds).
pub const SETUP_REPS: usize = 15;
/// Rounds of a `bridge_tcp` run, each on the rig its own set-ups built.
/// Transport-bound iterations follow the host's speed from second to
/// second (a 2 s round moves by about ±10 % from the next one on the
/// same rig), so the median of many short rounds is steadier than that
/// of a few long ones, and set-ups spread over the run sample the host
/// over all of it.
pub const TCP_ROUNDS: usize = 15;

fn local_channel(
    w: Box<dyn ModelWorker>,
    label: &str,
    tracer: Option<&mut Tracer>,
) -> Box<dyn Channel> {
    match tracer {
        None => Box::new(LocalChannel::new(w)),
        Some(t) => {
            let probe = t.probe(label);
            let worker = Box::new(TimedWorker::new(w, probe.clone()));
            t.channel(Box::new(LocalChannel::new(worker)), Site::Bridge, Some(&probe))
        }
    }
}

/// The cluster's four `local_workers(false)` (CpuParallel PhiGRAPE,
/// Gadget SPH, Fi tree, SSE) over `LocalChannel`s.
pub fn local_channels(cluster: &EmbeddedCluster, mut tracer: Option<&mut Tracer>) -> Channels {
    let (g, h, c, s) = cluster.local_workers(false);
    Channels(
        local_channel(g, "gravity", tracer.as_deref_mut()),
        local_channel(h, "hydro", tracer.as_deref_mut()),
        local_channel(c, "coupling", tracer.as_deref_mut()),
        Some(local_channel(s, "stellar", tracer)),
    )
}

/// Start one loopback worker server, timed when tracing.
fn serve<W, F>(
    fleet: &mut WorkerFleet,
    label: &str,
    tracer: Option<&mut Tracer>,
    make: F,
) -> (SocketAddr, Option<WorkerProbe>)
where
    W: ModelWorker + 'static,
    F: FnOnce() -> W + Send + 'static,
{
    match tracer {
        None => (fleet.spawn(label, make), None),
        Some(t) => {
            let probe = t.probe(label);
            let p = probe.clone();
            (fleet.spawn(label, move || TimedWorker::new(Box::new(make()), p)), Some(probe))
        }
    }
}

/// `bridge_tcp`'s rig: every model behind a loopback `WorkerServer`,
/// driven by `ReactorChannel`s on one shared reactor; the coupling
/// model is a pipelined `ShardedChannel` over [`TCP_SHARDS`] servers.
pub struct TcpRig {
    /// The coupler-side channels.
    pub channels: Channels,
    fleet: WorkerFleet,
}

impl TcpRig {
    /// Spawn the servers, connect, and assemble the bridge.
    pub fn build(
        cluster: &EmbeddedCluster,
        mut tracer: Option<&mut Tracer>,
    ) -> std::io::Result<TcpRig> {
        let mut fleet = WorkerFleet::new();
        let (stars, gas) = (cluster.stars.clone(), cluster.gas.clone());
        let imf = cluster.star_masses_msun.clone();
        let g = serve(&mut fleet, "gravity", tracer.as_deref_mut(), move || {
            GravityWorker::new(stars, Backend::CpuParallel)
        });
        let h = serve(&mut fleet, "hydro", tracer.as_deref_mut(), move || HydroWorker::new(gas));
        let s = serve(&mut fleet, "stellar", tracer.as_deref_mut(), move || {
            StellarWorker::new(imf, 0.02)
        });
        let shards: Vec<_> = (0..TCP_SHARDS)
            .map(|_| serve(&mut fleet, "coupling", tracer.as_deref_mut(), CouplingWorker::fi))
            .collect();

        let reactor = Reactor::new_shared()?;
        let tracer = tracer.as_deref();
        let connect =
            |(addr, probe): &(SocketAddr, Option<WorkerProbe>), name: &str, site: Site| {
                let ch: Box<dyn Channel> = Box::new(ReactorChannel::connect(&reactor, addr, name)?);
                Ok::<_, std::io::Error>(match tracer {
                    Some(t) => t.channel(ch, site, probe.as_ref()),
                    None => ch,
                })
            };
        let gravity = connect(&g, "gravity", Site::Bridge)?;
        let hydro = connect(&h, "hydro", Site::Bridge)?;
        let stellar = connect(&s, "stellar", Site::Bridge)?;
        let mut pool = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            pool.push(connect(shard, &format!("fi-{i}"), Site::Shard)?);
        }
        let sharded: Box<dyn Channel> = Box::new(ShardedChannel::new(pool).with_lockstep(false));
        let coupling = match tracer {
            Some(t) => t.channel(sharded, Site::BridgeFanout, None),
            None => sharded,
        };
        Ok(TcpRig { channels: Channels(gravity, hydro, coupling, Some(stellar)), fleet })
    }

    /// [`episodes::run`] over this rig's channels.
    pub fn run(
        self,
        cases: &mut [Case],
        k: u64,
        step: Step,
        budget: Duration,
        tracer: Option<&Tracer>,
    ) -> (TcpRig, Episodes) {
        let (channels, ep) = episodes::run(self.channels, cases, k, step, budget, tracer);
        (TcpRig { channels, fleet: self.fleet }, ep)
    }

    /// Drop the channels (their `Stop` frames end the servers) and join
    /// every server thread.
    pub fn shutdown(self) -> std::io::Result<()> {
        let TcpRig { channels, mut fleet } = self;
        drop(channels);
        fleet.join_all()
    }
}

/// Per-iteration busy time of one model's evolve handler, ms.
fn evolve_ms(tracer: &Tracer, label: &str, ep: &Episodes) -> f64 {
    ms(tracer.total(label).evolve_ns) / ep.iter_ns.len().max(1) as f64
}

/// `n` clusters with seeds drawn from `seed`, and their cases.
pub fn variants(
    seed: u64,
    n: usize,
    (stars, gas): (usize, usize),
) -> (Vec<EmbeddedCluster>, Vec<Case>) {
    let mut rng = Rng::new(seed);
    let clusters: Vec<EmbeddedCluster> = (0..n)
        .map(|_| EmbeddedCluster::build(stars, gas, GAS_FRACTION, rng.next_u64() >> 16))
        .collect();
    let cases = clusters.iter().map(|c| Case::of(c, c.bridge_config().substeps)).collect();
    (clusters, cases)
}

/// `bridge_local`: [`LOCAL_VARIANTS`] 256-star / 1024-gas clusters in
/// process, plain `Bridge::iteration`, `JC_THREADS` = nproc. The first
/// cluster's reference trajectory runs at `JC_THREADS=1`, so every run
/// also checks that the thread-parallel kernels are bitwise equal to
/// the sequential ones. A traced run measures the first cluster only.
pub fn bridge_local(seed: u64, budget: Duration, trace: bool, rep: &mut Report) {
    let nproc = nproc();
    rep.note("jc_threads", nproc);
    rep.note("jc_threads_reference", 1);
    let run = |ch: Channels, cases: &mut [Case], budget: Duration, tracer: Option<&Tracer>| {
        episodes::run(ch, cases, LOCAL_EPISODE, Step::Plain, budget, tracer)
    };
    let reference =
        |ch: Channels, cases: &mut [Case], rep: &mut Report, tracer: Option<&Tracer>| {
            set_threads(1);
            let (ch, ep) = run(ch, &mut cases[..1], Duration::ZERO, tracer);
            set_threads(nproc);
            ep.check(rep, "bridge_local at JC_THREADS=1");
            (ch, ep)
        };

    if !trace {
        // one cycle over many clusters: the spread of this workload comes
        // mostly from the clusters (the Hermite step count, and so the
        // gravity cost, of a 256-star Plummer sphere varies about
        // fourfold between seeds), and three rounds would cost three
        // cycles. The cycle runs in parts, each after its own set-ups,
        // so `setup_s` samples the host over the whole run.
        let mut rounds = Rounds::default();
        let setup = || {
            let (clusters, cases) = variants(seed, LOCAL_VARIANTS, LOCAL_SIZE);
            (local_channels(&clusters[0], None), cases)
        };
        let (_, mut cases) = variants(seed, LOCAL_VARIANTS, LOCAL_SIZE);
        let mut cycle = Episodes::default();
        for (part, chunk) in cases.chunks_mut(LOCAL_VARIANTS / ROUNDS).enumerate() {
            let (mut ch, _) = rounds.setups(SETUP_REPS, setup, drop);
            if part == 0 {
                ch = reference(ch, chunk, rep, None).0;
            }
            cycle.absorb(run(ch, chunk, budget / ROUNDS as u32, None).1);
        }
        cycle.check(rep, "bridge_local");
        cycle.record_round(&mut rounds);
        rounds.commit(rep);
        return;
    }
    let (clusters, mut cases) = variants(seed, 1, LOCAL_SIZE);
    let mut t1 = Tracer::default();
    let (_, one) =
        reference(local_channels(&clusters[0], Some(&mut t1)), &mut cases, rep, Some(&t1));
    let (_, untraced) = run(local_channels(&clusters[0], None), &mut cases, budget / 2, None);
    untraced.check(rep, "bridge_local untraced");
    let mut tracer = Tracer::default();
    let (_, traced) =
        run(local_channels(&clusters[0], Some(&mut tracer)), &mut cases, budget / 2, Some(&tracer));
    traced.check(rep, "bridge_local traced");
    traced.report_layers(rep, &tracer);
    rep.set(
        "compute.nbody_speedup_t2",
        evolve_ms(&t1, "gravity", &one) / evolve_ms(&tracer, "gravity", &traced),
    );
    rep.set(
        "compute.sph_speedup_t2",
        evolve_ms(&t1, "hydro", &one) / evolve_ms(&tracer, "hydro", &traced),
    );
    rep.set("trace.overhead_frac", traced.iter_ms_p50() / untraced.iter_ms_p50() - 1.0);
}

/// `bridge_tcp`: [`TCP_VARIANTS`] 16-star / 64-gas clusters over
/// loopback TCP, `Bridge::iteration_recovering` with a checkpoint every
/// iteration, `JC_THREADS=1`. The reference trajectories run the same
/// clusters over `LocalChannel`s: the transport must not change a bit.
pub fn bridge_tcp(seed: u64, budget: Duration, trace: bool, rep: &mut Report) {
    set_threads(1);
    rep.note("jc_threads", 1);
    rep.note("shards", TCP_SHARDS);
    let build = |cluster: &EmbeddedCluster, tracer: Option<&mut Tracer>| {
        TcpRig::build(cluster, tracer).expect("loopback worker rig")
    };
    let shutdown = |rig: TcpRig| rig.shutdown().expect("worker servers exit cleanly");
    let measure = |rig: TcpRig, cases: &mut [Case], budget: Duration, tracer: Option<&Tracer>| {
        let (rig, ep) = rig.run(cases, TCP_EPISODE, Step::Recovering, budget, tracer);
        shutdown(rig);
        ep
    };
    let twin = |clusters: &[EmbeddedCluster], cases: &mut [Case], rep: &mut Report| {
        let ch = local_channels(&clusters[0], None);
        let (_, ep) = episodes::run(ch, cases, TCP_EPISODE, Step::Recovering, Duration::ZERO, None);
        ep.check(rep, "bridge_tcp LocalChannel twin");
    };

    if !trace {
        let setup = || {
            let (clusters, cases) = variants(seed, TCP_VARIANTS, TCP_SIZE);
            (build(&clusters[0], None), clusters, cases)
        };
        let mut rounds = Rounds::default();
        let (clusters, mut cases) = variants(seed, TCP_VARIANTS, TCP_SIZE);
        twin(&clusters, &mut cases, rep);
        for _ in 0..TCP_ROUNDS {
            let (rig, ..) =
                rounds.setups(SETUP_REPS * ROUNDS / TCP_ROUNDS, setup, |(rig, ..)| shutdown(rig));
            let ep = measure(rig, &mut cases, budget / TCP_ROUNDS as u32, None);
            ep.check(rep, "bridge_tcp");
            ep.record_round(&mut rounds);
        }
        rounds.commit(rep);
        return;
    }
    let (clusters, mut cases) = variants(seed, TCP_VARIANTS, TCP_SIZE);
    twin(&clusters, &mut cases, rep);
    let untraced = measure(build(&clusters[0], None), &mut cases, budget / 2, None);
    untraced.check(rep, "bridge_tcp untraced");
    let mut tracer = Tracer::default();
    let traced =
        measure(build(&clusters[0], Some(&mut tracer)), &mut cases, budget / 2, Some(&tracer));
    traced.check(rep, "bridge_tcp traced");
    traced.report_layers(rep, &tracer);
    rep.set("trace.overhead_frac", traced.iter_ms_p50() / untraced.iter_ms_p50() - 1.0);
}
