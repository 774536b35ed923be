//! The `service_sessions` workload: the multi-tenant session service
//! under an open-loop arrival stream (Phase A) and a saturating burst
//! (Phase B), checked against isolated replays of every spec.

use crate::bridges::local_channels;
use crate::episodes::{self, Case, Channels, Episodes, Step};
use crate::provenance::{nproc, set_threads};
use crate::report::{Report, Rounds, ROUNDS};
use crate::stats::{median, percentile, unit, Rng};
use crate::trace::Tracer;
use jc_amuse::worker::ParticleData;
use jc_amuse::{EmbeddedCluster, ModelState};
use jc_service::session::state_digest;
use jc_service::{
    QuotaPolicy, Service, ServiceConfig, ServiceCounters, SessionSpec, SessionStatus,
};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tenants submitting sessions (round robin).
pub const TENANTS: usize = 4;
/// Star counts of the catalog; gas is four times the stars.
pub const STARS: [usize; 3] = [8, 16, 24];
/// Outer iterations per session.
pub const ITERATIONS: [u64; 2] = [2, 4];
/// Bridge substeps per outer iteration.
pub const SUBSTEPS: u32 = 2;
/// Initial-condition seeds per run, drawn from the run's seed; small,
/// so specs repeat and their digests can be compared.
pub const SEED_POOL: usize = 32;
/// Phase A open-loop arrival rate, sessions per second: fixed, about
/// half the burst capacity measured at the commit that introduced this
/// benchmark.
pub const ARRIVAL_RATE: f64 = 150.0;
/// Share of the run spent in Phase A; Phase B gets the rest.
pub const PHASE_A_SHARE: f64 = 0.7;
/// Sessions per Phase B burst.
pub const BURST: usize = 256;
/// Isolated replays per spec (the median is the spec's run time).
pub const REPLAYS: usize = 2;
/// Service set-ups timed per round (each serves a few sessions).
pub const SETUP_REPS: usize = 5;
/// Threads blocked in `Service::wait` during Phase A, so each session's
/// completion is seen when it happens rather than when the sessions
/// submitted before it are done.
const WAITERS: usize = 4;

/// Every spec a run can submit: stars × iterations × seeds.
fn catalog(seed: u64) -> Vec<SessionSpec> {
    let mut rng = Rng::new(seed ^ 0x5E55_1015);
    let seeds: Vec<u64> = (0..SEED_POOL).map(|_| rng.next_u64() >> 16).collect();
    let mut specs = Vec::new();
    for &stars in &STARS {
        for &iterations in &ITERATIONS {
            for &seed in &seeds {
                specs.push(SessionSpec {
                    stars,
                    gas: 4 * stars,
                    seed,
                    iterations,
                    substeps: SUBSTEPS,
                    ..SessionSpec::default()
                });
            }
        }
    }
    specs
}

fn config() -> ServiceConfig {
    ServiceConfig {
        pool_size: nproc(),
        quota: QuotaPolicy { max_queue_depth: 1 << 16, per_tenant_in_flight: 1 << 16 },
        ..ServiceConfig::default()
    }
}

/// `Service::new` plus one default session (24 stars, 4 iterations)
/// per host, submitted one at a time: the service is set up once it has
/// served. Sequential warm-up sessions keep the measured set-up on one
/// core at a time, where a 2-vCPU machine is steadiest, and make it
/// compute rather than thread wake-ups.
fn start_service() -> Service {
    let service = Service::new(config());
    for _ in 0..nproc() {
        let id = service
            .submit("warm-up", SessionSpec::default())
            .expect("an idle service admits a warm-up session");
        service.wait(id);
        service.forget(id);
    }
    service
}

/// One finished Phase A or Phase B session.
struct Outcome {
    spec: usize,
    latency_ms: f64,
    status: Option<SessionStatus>,
}

/// Phase A: seeded Poisson arrivals at [`ARRIVAL_RATE`] for `span`,
/// each session timed from its due time.
fn open_loop(
    service: &Service,
    specs: &[SessionSpec],
    rng: &mut Rng,
    span: Duration,
) -> (Vec<Outcome>, Vec<f64>, Vec<f64>) {
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - unit(rng)).ln() / ARRIVAL_RATE;
        if t >= span.as_secs_f64() {
            break;
        }
        arrivals.push((Duration::from_secs_f64(t), rng.below(specs.len() as u64) as usize));
    }
    let (tx, rx) = mpsc::channel::<(u64, Instant, usize)>();
    let rx = Mutex::new(rx);
    let outcomes = Mutex::new(Vec::with_capacity(arrivals.len()));
    let (mut submit_us, mut late_ms) = (Vec::new(), Vec::new());
    std::thread::scope(|s| {
        for _ in 0..WAITERS {
            s.spawn(|| loop {
                let next = rx.lock().expect("arrival queue poisoned").recv();
                let Ok((id, due, spec)) = next else { return };
                let status = service.wait(id);
                let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                service.forget(id);
                outcomes.lock().expect("outcomes poisoned").push(Outcome {
                    spec,
                    latency_ms,
                    status,
                });
            });
        }
        let start = Instant::now();
        for (i, (at, spec)) in arrivals.iter().enumerate() {
            let due = start + *at;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t0 = Instant::now();
            late_ms.push((t0 - due).as_secs_f64() * 1e3);
            let id = service.submit(&format!("tenant-{}", i % TENANTS), specs[*spec].clone());
            submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            match id {
                Ok(id) => tx.send((id, due, *spec)).expect("waiters alive"),
                Err(_) => outcomes.lock().expect("outcomes poisoned").push(Outcome {
                    spec: *spec,
                    latency_ms: 0.0,
                    status: None,
                }),
            }
        }
        drop(tx);
    });
    (outcomes.into_inner().expect("outcomes poisoned"), submit_us, late_ms)
}

/// Phase B: bursts of [`BURST`] sessions submitted at once, until
/// `span` has passed. Returns the outcomes and each burst's wall time.
fn bursts(
    service: &Service,
    specs: &[SessionSpec],
    rng: &mut Rng,
    span: Duration,
    submit_us: &mut Vec<f64>,
) -> (Vec<Outcome>, Vec<Duration>) {
    let mut outcomes = Vec::new();
    let mut walls = Vec::new();
    while walls.is_empty() || walls.iter().sum::<Duration>() < span {
        let picks: Vec<usize> =
            (0..BURST).map(|_| rng.below(specs.len() as u64) as usize).collect();
        let t0 = Instant::now();
        let mut ids = Vec::with_capacity(BURST);
        for (i, spec) in picks.iter().enumerate() {
            let ts = Instant::now();
            ids.push((
                service.submit(&format!("tenant-{}", i % TENANTS), specs[*spec].clone()),
                *spec,
            ));
            submit_us.push(ts.elapsed().as_secs_f64() * 1e6);
        }
        let mut done = Vec::with_capacity(BURST);
        for (id, spec) in ids {
            let status = id.ok().and_then(|id| {
                let st = service.wait(id);
                service.forget(id);
                st
            });
            done.push(Outcome { spec, latency_ms: 0.0, status });
        }
        walls.push(t0.elapsed());
        outcomes.extend(done);
    }
    (outcomes, walls)
}

/// A warm in-process worker quad, like a service host's: placeholder
/// initial conditions that every replay restores over.
fn warm_channels(tracer: Option<&mut Tracer>) -> Channels {
    local_channels(&EmbeddedCluster::build(8, 32, 0.5, 0xC0FFEE), tracer)
}

fn particles_of(state: &ModelState) -> ParticleData {
    match state {
        ModelState::Gravity { mass, pos, vel, .. } | ModelState::Hydro { mass, pos, vel, .. } => {
            ParticleData { mass: mass.clone(), pos: pos.clone(), vel: vel.clone() }
        }
        _ => ParticleData::default(),
    }
}

/// Run `spec` alone through the public `Bridge` calls a service session
/// makes — initial checkpoint from fresh workers, restore onto the warm
/// quad, recovering iterations with a checkpoint each, final snapshot —
/// and return the session digest and wall time (ms). Its iterations are
/// appended to `acc`, traced when `tracer` is given.
fn replay(
    spec: &SessionSpec,
    channels: Channels,
    tracer: Option<&Tracer>,
    acc: &mut Episodes,
) -> (Channels, Option<(u64, f64)>) {
    let t0 = Instant::now();
    let cluster = EmbeddedCluster::build(spec.stars, spec.gas, spec.gas_fraction, spec.seed);
    let mut case = [Case::of(&cluster, spec.substeps)];
    let (channels, ep) = episodes::run(
        channels,
        &mut case,
        spec.iterations,
        Step::Recovering,
        Duration::ZERO,
        tracer,
    );
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let clean = ep.failed == 0 && ep.mismatches == 0;
    let digest = ep
        .last_state
        .as_ref()
        .filter(|_| clean)
        .map(|ck| state_digest(&particles_of(&ck.gravity), &particles_of(&ck.hydro)));
    acc.absorb(ep);
    (channels, digest.map(|d| (d, ms)))
}

/// What the isolated replays of the catalog produced.
struct Replays {
    /// Each spec's session digest (None if its replays failed or
    /// disagreed).
    digests: Vec<Option<u64>>,
    /// Each spec's median untraced run time, ms.
    run_ms: Vec<f64>,
    /// Untraced iterations.
    untraced: Episodes,
    /// Traced iterations (empty without a tracer).
    traced: Episodes,
}

/// Replay every catalog spec [`REPLAYS`] times untraced and, given a
/// tracer, as often traced — interleaved spec by spec, so a machine
/// that drifts during the replays slows both sides alike.
fn replays(specs: &[SessionSpec], rep: &mut Report, mut tracer: Option<&mut Tracer>) -> Replays {
    let mut plain = warm_channels(None);
    let mut timed = tracer.as_deref_mut().map(|t| warm_channels(Some(t)));
    let tracer = tracer.as_deref();
    let mut out = Replays {
        digests: Vec::new(),
        run_ms: Vec::new(),
        untraced: Episodes::default(),
        traced: Episodes::default(),
    };
    for (i, spec) in specs.iter().enumerate() {
        let mut runs = Vec::new();
        let mut traced_digests = Vec::new();
        for _ in 0..REPLAYS {
            let (ch, r) = replay(spec, plain, None, &mut out.untraced);
            plain = ch;
            runs.push(r);
            if let (Some(t), Some(ch)) = (tracer, timed.take()) {
                let (ch, r) = replay(spec, ch, Some(t), &mut out.traced);
                timed = Some(ch);
                traced_digests.push(r.map(|(d, _)| d));
            }
        }
        let first = runs[0].map(|(d, _)| d);
        let agree = first.is_some()
            && runs.iter().map(|r| r.map(|(d, _)| d)).chain(traced_digests).all(|d| d == first);
        rep.check(agree, format!("replays of spec {i} failed or disagree, traced or not"));
        out.digests.push(first.filter(|_| agree));
        out.run_ms.push(median(&runs.iter().flatten().map(|(_, t)| *t).collect::<Vec<_>>()));
    }
    out
}

/// `service_sessions`: `JC_THREADS=1`, a pool of nproc warm in-process
/// hosts, [`TENANTS`] tenants.
pub fn service_sessions(seed: u64, budget: Duration, trace: bool, rep: &mut Report) {
    set_threads(1);
    rep.note("jc_threads", 1);
    rep.note("pool_size", nproc());
    rep.note("arrival_rate_per_s", ARRIVAL_RATE);
    let specs = catalog(seed);
    let mut rng = Rng::new(seed);

    // each round: fresh service, Phase A, then Phase B
    let mut rounds = Rounds::default();
    let (mut phase_a, mut phase_b) = (Vec::new(), Vec::new());
    let (mut submit_us, mut late_ms) = (Vec::new(), Vec::new());
    let mut counted = ServiceCounters::default();
    let span = budget / ROUNDS as u32;
    let span_a = span.mul_f64(PHASE_A_SHARE);
    for _ in 0..ROUNDS {
        let service = rounds.setups(SETUP_REPS, start_service, Service::shutdown);
        let base = service.counters();
        let (a, submits, late) = open_loop(&service, &specs, &mut rng, span_a);
        let (b, walls) =
            bursts(&service, &specs, &mut rng, span.saturating_sub(span_a), &mut submit_us);
        let c = service.counters();
        service.shutdown();
        counted.failed += c.failed - base.failed;
        counted.shed_overloaded += c.shed_overloaded - base.shed_overloaded;
        counted.shed_quota += c.shed_quota - base.shed_quota;
        counted.migrations += c.migrations - base.migrations;
        counted.rewarms += c.rewarms - base.rewarms;

        let latency: Vec<f64> = a.iter().map(|o| o.latency_ms).collect();
        let iters = |os: &[Outcome]| os.iter().map(|o| specs[o.spec].iterations).sum::<u64>();
        let wall_b = walls.iter().sum::<Duration>().as_secs_f64();
        // host time per outer iteration at saturation, burst by burst
        let host_ms: Vec<f64> = b
            .chunks(BURST)
            .zip(&walls)
            .map(|(burst, wall)| nproc() as f64 * wall.as_secs_f64() * 1e3 / iters(burst) as f64)
            .collect();
        rounds.record("iter_ms_p50", median(&host_ms));
        rounds.record("iters_per_s", iters(&b) as f64 / wall_b);
        rounds.record("session_ms_p50", median(&latency));
        rounds.record("sessions_per_s", b.len() as f64 / wall_b);
        submit_us.extend(submits);
        late_ms.extend(late);
        phase_a.extend(a);
        phase_b.extend(b);
    }

    let mut tracer = Tracer::default();
    let Replays { digests, run_ms, untraced, traced } =
        replays(&specs, rep, trace.then_some(&mut tracer));

    // correctness: every session completes, on the digest of its spec
    let mut by_spec: BTreeMap<usize, u64> = BTreeMap::new();
    let (mut failed, mut wrong) = (0u64, 0u64);
    for o in phase_a.iter().chain(&phase_b) {
        match &o.status {
            Some(SessionStatus::Completed { digest, iterations, .. })
                if *iterations == specs[o.spec].iterations =>
            {
                if *by_spec.entry(o.spec).or_insert(*digest) != *digest
                    || digests[o.spec] != Some(*digest)
                {
                    wrong += 1;
                }
            }
            _ => failed += 1,
        }
    }
    let shed = counted.shed_overloaded + counted.shed_quota;
    let svc_failed = counted.failed;
    rep.attempted += (phase_a.len() + phase_b.len()) as u64;
    rep.failed += failed;
    rep.check(failed == 0, format!("{failed} sessions did not complete"));
    rep.check(
        wrong == 0,
        format!("{wrong} sessions disagree with their spec's digest or its isolated replay"),
    );
    rep.check(
        svc_failed == 0 && shed == 0,
        format!("service counted {svc_failed} failed and {shed} shed sessions"),
    );

    if !trace {
        rounds.commit(rep);
        return;
    }
    let overhead: Vec<f64> = phase_a.iter().map(|o| o.latency_ms - run_ms[o.spec]).collect();
    rep.set("service.submit_us_p50", median(&submit_us));
    rep.set("service.submit_us_p99", percentile(&submit_us, 0.99));
    rep.set(
        "service.run_ms_p50",
        median(&phase_a.iter().map(|o| run_ms[o.spec]).collect::<Vec<_>>()),
    );
    rep.set("service.overhead_ms_p50", median(&overhead));
    rep.set("service.overhead_ms_p99", percentile(&overhead, 0.99));
    rep.set("service.failed", svc_failed as f64);
    rep.set("service.shed", shed as f64);
    rep.set("service.migrations", counted.migrations as f64);
    rep.set("service.rewarms", counted.rewarms as f64);
    rep.set("loadgen.late_ms_p99", percentile(&late_ms, 0.99));

    // per-layer bridge figures from the traced replays of the catalog
    traced.report_layers(rep, &tracer);
    // the service's sessions are Phase A's, not the replays'
    let latency: Vec<f64> = phase_a.iter().map(|o| o.latency_ms).collect();
    rep.set("session_ms_p99", percentile(&latency, 0.99));
    // the same replays traced and untraced: compare total iteration time
    // (a median of this three-size mix can land between modes)
    let total = |ep: &Episodes| ep.iter_ns.iter().sum::<u64>() as f64;
    rep.set("trace.overhead_frac", total(&traced) / total(&untraced) - 1.0);
}
