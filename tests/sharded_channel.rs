//! Integration: sharded worker pools must be numerically invisible.
//!
//! The coupling kick evaluates each target independently against a tree
//! built from the sources alone, and SSE evolves each star
//! independently — so fanning those models over 1, 2, or 3 workers
//! (threads or TCP sockets) must reproduce the unsharded answers
//! *bitwise*. The finale runs the full embedded-cluster Bridge over real
//! TCP with the coupling model sharded across a pool of socket workers
//! and the stellar model sharded across threads, and checks the end
//! state equals the all-local, unsharded run bit for bit.

use jungle::amuse::channel::{Channel, LocalChannel, ThreadChannel};
use jungle::amuse::reactor::{Reactor, ReactorChannel};
use jungle::amuse::shard::{partition, ShardedChannel};
use jungle::amuse::socket::spawn_tcp_worker;
use jungle::amuse::worker::{
    CouplingWorker, GravityWorker, HydroWorker, ParticleData, Request, Response, StellarWorker,
};
use jungle::amuse::{Bridge, EmbeddedCluster};
use jungle::nbody::plummer::plummer_sphere;
use jungle::nbody::Backend;

fn bitwise_eq(a: &ParticleData, b: &ParticleData) -> bool {
    let f = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    let v = |x: &[[f64; 3]], y: &[[f64; 3]]| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(p, q)| (0..3).all(|k| p[k].to_bits() == q[k].to_bits()))
    };
    f(&a.mass, &b.mass) && v(&a.pos, &b.pos) && v(&a.vel, &b.vel)
}

/// Coupling scatter–gather over 1, 2, and 3 workers — thread pool and
/// socket pool both — against the unsharded answer.
#[test]
fn sharded_coupling_equivalence_over_threads_and_sockets() {
    let scene = plummer_sphere(151, 23);
    let mut reference = LocalChannel::new(Box::new(CouplingWorker::fi()));
    let expected = match reference.call(Request::ComputeKick {
        targets: scene.pos.clone(),
        source_pos: scene.pos.clone(),
        source_mass: scene.mass.clone(),
    }) {
        Response::Accelerations { acc, .. } => acc,
        other => panic!("{other:?}"),
    };

    for k in 1..=3usize {
        // thread pool
        let shards: Vec<Box<dyn Channel>> = (0..k)
            .map(|i| {
                Box::new(ThreadChannel::spawn(format!("fi-{i}"), CouplingWorker::fi))
                    as Box<dyn Channel>
            })
            .collect();
        check_pool(ShardedChannel::with_counts(shards, vec![0; k]), &scene, &expected, k);

        // socket pool
        let reactor = Reactor::new_shared().unwrap();
        let mut handles = Vec::new();
        let shards: Vec<Box<dyn Channel>> = (0..k)
            .map(|i| {
                let (addr, h) = spawn_tcp_worker(format!("fi-{i}"), CouplingWorker::fi);
                handles.push(h);
                Box::new(ReactorChannel::connect(&reactor, addr, format!("fi-{i}")).unwrap())
                    as Box<dyn Channel>
            })
            .collect();
        check_pool(ShardedChannel::with_counts(shards, vec![0; k]), &scene, &expected, k);
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }
}

fn check_pool(
    mut pool: ShardedChannel,
    scene: &jungle::nbody::ParticleSet,
    expected: &[[f64; 3]],
    k: usize,
) {
    // async scatter-gather path
    match pool.call(Request::ComputeKick {
        targets: scene.pos.clone(),
        source_pos: scene.pos.clone(),
        source_mass: scene.mass.clone(),
    }) {
        Response::Accelerations { acc, .. } => {
            assert_eq!(acc.len(), expected.len(), "k={k}");
            for (a, b) in acc.iter().zip(expected) {
                for j in 0..3 {
                    assert_eq!(a[j].to_bits(), b[j].to_bits(), "k={k}");
                }
            }
        }
        other => panic!("k={k}: {other:?}"),
    }
    // borrowing fast path
    let mut acc = Vec::new();
    let flops = pool
        .compute_kick_into(&scene.pos, &scene.pos, &scene.mass, &mut acc)
        .expect("sharded compute_kick_into");
    assert!(flops > 0.0);
    for (a, b) in acc.iter().zip(expected) {
        for j in 0..3 {
            assert_eq!(a[j].to_bits(), b[j].to_bits(), "k={k} fast path");
        }
    }
}

/// Range-sharded gravity state ops (snapshot / kick / set-masses)
/// against the unsharded worker, over sockets.
#[test]
fn sharded_state_ops_equivalence_over_sockets() {
    let ics = plummer_sphere(40, 31);
    let dv: Vec<[f64; 3]> = (0..40).map(|i| [1e-4 * i as f64, -2e-5, 3e-5 * i as f64]).collect();
    let masses: Vec<f64> = (0..40).map(|i| 0.02 + 1e-4 * i as f64).collect();

    let mut single = LocalChannel::new(Box::new(GravityWorker::new(ics.clone(), Backend::Scalar)));
    assert!(matches!(single.call(Request::Kick(dv.clone())), Response::Ok { .. }));
    assert!(matches!(single.call(Request::SetMasses(masses.clone())), Response::Ok { .. }));
    let mut expected = ParticleData::default();
    assert!(single.snapshot_into(&mut expected));

    for k in [2usize, 3] {
        let reactor = Reactor::new_shared().unwrap();
        let counts = partition(40, k);
        let mut handles = Vec::new();
        let mut off = 0usize;
        let shards: Vec<Box<dyn Channel>> = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let sub = ics.slice(off, off + c);
                off += c;
                let (addr, h) = spawn_tcp_worker(format!("grav-{i}"), move || {
                    GravityWorker::new(sub, Backend::Scalar)
                });
                handles.push(h);
                Box::new(ReactorChannel::connect(&reactor, addr, format!("grav-{i}")).unwrap())
                    as Box<dyn Channel>
            })
            .collect();
        let mut pool = ShardedChannel::new(shards);
        assert_eq!(pool.total_particles(), 40);
        assert_eq!(pool.worker_name(), format!("grav-0×{k}"));

        let r = pool.kick_slice(&dv);
        assert!(matches!(r, Response::Ok { .. }), "k={k}: {r:?}");
        let r = pool.call(Request::SetMasses(masses.clone()));
        assert!(matches!(r, Response::Ok { .. }), "k={k}: {r:?}");
        let mut got = ParticleData::default();
        assert!(pool.snapshot_into(&mut got));
        assert!(bitwise_eq(&got, &expected), "k={k}: sharded state diverged");

        drop(pool);
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }
}

/// The acceptance scenario: a Bridge over real TCP whose coupling model
/// is a pool of ≥2 sharded socket workers (and whose stellar model is a
/// sharded thread pool), bitwise-identical to the unsharded all-local
/// run.
#[test]
fn bridge_with_sharded_socket_pool_matches_local_run() {
    let c = EmbeddedCluster::build(21, 84, 0.5, 29);

    // --- reference: all-local, unsharded -------------------------------
    let mut cfg = c.bridge_config();
    cfg.substeps = 2;
    cfg.stellar_interval = 1;
    let mut local = Bridge::new(
        Box::new(LocalChannel::new(Box::new(GravityWorker::new(c.stars.clone(), Backend::Scalar)))),
        Box::new(LocalChannel::new(Box::new(HydroWorker::new(c.gas.clone())))),
        Box::new(LocalChannel::new(Box::new(CouplingWorker::fi()))),
        Some(Box::new(LocalChannel::new(Box::new(StellarWorker::new(
            c.star_masses_msun.clone(),
            0.02,
        ))))),
        cfg.clone(),
    );
    for _ in 0..2 {
        local.iteration();
    }
    let (stars_ref, gas_ref) = local.snapshots();

    // --- distributed: TCP workers, sharded coupling + stellar ----------
    let (stars, gas) = (c.stars.clone(), c.gas.clone());
    let (g_addr, g_h) =
        spawn_tcp_worker("grav", move || GravityWorker::new(stars, Backend::Scalar));
    let (h_addr, h_h) = spawn_tcp_worker("hydro", move || HydroWorker::new(gas));

    let reactor = Reactor::new_shared().unwrap();
    let mut handles = vec![g_h, h_h];
    let coupling_shards: Vec<Box<dyn Channel>> = (0..3)
        .map(|i| {
            let (addr, h) = spawn_tcp_worker(format!("fi-{i}"), CouplingWorker::fi);
            handles.push(h);
            Box::new(ReactorChannel::connect(&reactor, addr, format!("fi-{i}")).unwrap())
                as Box<dyn Channel>
        })
        .collect();
    let coupling = ShardedChannel::with_counts(coupling_shards, vec![0; 3]);

    let star_counts = partition(c.star_masses_msun.len(), 2);
    let mut off = 0usize;
    let stellar_shards: Vec<Box<dyn Channel>> = star_counts
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let imf = c.star_masses_msun[off..off + n].to_vec();
            off += n;
            Box::new(ThreadChannel::spawn(format!("sse-{i}"), move || {
                StellarWorker::new(imf, 0.02)
            })) as Box<dyn Channel>
        })
        .collect();
    let stellar = ShardedChannel::with_counts(stellar_shards, vec![0; 2]);

    let mut bridge = Bridge::new(
        Box::new(ReactorChannel::connect(&reactor, g_addr, "grav").unwrap()),
        Box::new(ReactorChannel::connect(&reactor, h_addr, "hydro").unwrap()),
        Box::new(coupling),
        Some(Box::new(stellar)),
        cfg,
    );
    for _ in 0..2 {
        bridge.iteration();
    }
    let (stars_tcp, gas_tcp) = bridge.snapshots();

    let (_, _, coupling_stats, stellar_stats) = bridge.channel_stats();
    assert!(coupling_stats.calls > 0, "sharded coupling pool unused");
    assert!(stellar_stats.unwrap().calls > 0, "sharded stellar pool unused");

    drop(bridge);
    for h in handles {
        h.join().unwrap().unwrap();
    }

    assert!(bitwise_eq(&stars_tcp, &stars_ref), "sharded TCP run diverged (stars)");
    assert!(bitwise_eq(&gas_tcp, &gas_ref), "sharded TCP run diverged (gas)");
}
