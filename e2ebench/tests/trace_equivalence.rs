//! The traced program must be the untraced program: the decorators
//! forward every `Channel` and `ModelWorker` method, so a traced run
//! takes the same code paths (borrowing fast paths, the server's
//! zero-copy snapshot leg, pipelined shard fan-out), ends in a bitwise
//! equal state and moves exactly the same traffic.

use e2ebench::bridges::{local_channels, variants, TcpRig, TCP_EPISODE, TCP_SIZE};
use e2ebench::episodes::{self, Case, Channels, Step};
use e2ebench::provenance::set_threads;
use e2ebench::report::{END_TO_END, PER_LAYER};
use e2ebench::trace::Tracer;
use jc_amuse::channel::ChannelStats;
use jc_amuse::EmbeddedCluster;
use std::time::Duration;

type Stats = (ChannelStats, ChannelStats, ChannelStats, Option<ChannelStats>);

fn stats(ch: &Channels) -> Stats {
    (ch.0.stats(), ch.1.stats(), ch.2.stats(), ch.3.as_ref().map(|s| s.stats()))
}

#[test]
fn traced_bridge_tcp_is_bitwise_the_untraced_program() {
    set_threads(1);
    let (clusters, mut cases) = variants(3, 2, TCP_SIZE);

    let rig = TcpRig::build(&clusters[0], None).expect("untraced rig");
    let (rig, plain) = rig.run(&mut cases, TCP_EPISODE, Step::Recovering, Duration::ZERO, None);
    assert_eq!((plain.failed, plain.mismatches), (0, 0));
    let plain_stats = stats(&rig.channels);
    assert!(rig.channels.2.pipelines(), "untraced coupling pool must fan out pipelined");
    rig.shutdown().expect("servers exit");

    let mut tracer = Tracer::default();
    let rig = TcpRig::build(&clusters[0], Some(&mut tracer)).expect("traced rig");
    let (rig, traced) =
        rig.run(&mut cases, TCP_EPISODE, Step::Recovering, Duration::ZERO, Some(&tracer));
    // the first run set each case's reference state; the traced run
    // must reproduce every one of them bit for bit
    assert_eq!((traced.failed, traced.mismatches), (0, 0), "traced run diverged");
    assert_eq!(stats(&rig.channels), plain_stats, "traced run moved different traffic");
    assert!(rig.channels.2.pipelines(), "decorated shards must keep the pipelined fan-out");
    rig.shutdown().expect("servers exit");

    let all = tracer.grand_total();
    assert_eq!(all.copying_fallbacks, 0, "a kick reached the copying RPC path");
    assert!(tracer.total("gravity").zero_copy_snapshots > 0, "zero-copy snapshot leg unused");
    assert!(tracer.total("hydro").zero_copy_snapshots > 0, "zero-copy snapshot leg unused");
    assert!(
        tracer.total("coupling").kick_ns > 0
            && !tracer.timeline.borrow().call_overhead_ns.is_empty()
    );
}

#[test]
fn traced_local_bridge_keeps_the_borrowing_fast_paths() {
    let cluster = EmbeddedCluster::build(24, 96, 0.5, 9);
    let mut cases = [Case::of(&cluster, 2)];
    let (plain_ch, plain) = episodes::run(
        local_channels(&cluster, None),
        &mut cases,
        4,
        Step::Plain,
        Duration::ZERO,
        None,
    );
    let mut tracer = Tracer::default();
    let ch = local_channels(&cluster, Some(&mut tracer));
    let (traced_ch, traced) =
        episodes::run(ch, &mut cases, 4, Step::Plain, Duration::ZERO, Some(&tracer));
    assert_eq!((plain.mismatches, traced.mismatches), (0, 0), "traced run diverged");
    assert_eq!(stats(&traced_ch), stats(&plain_ch));
    assert_eq!(tracer.grand_total().copying_fallbacks, 0, "a kick reached the copying RPC path");
    let phases: u64 = tracer.timeline.borrow().phase_ns.iter().sum();
    assert!(phases > 0 && phases <= traced.iter_ns.iter().sum::<u64>());
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"name\":").count(), END_TO_END.len() + PER_LAYER.len() + 3);
}
