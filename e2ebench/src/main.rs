//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds`, checks its outputs, and
//! prints one metric per line followed by a provenance line and, last,
//! the JSON result: end-to-end metrics with `--trace 0`, per-layer
//! metrics (from decorated channels and workers) with `--trace 1`. Exits
//! 1 when a correctness check fails, 2 on bad arguments.

use e2ebench::provenance::{commit, cpu_ticks, nproc, source_digest, spin_speedup_t2, steal_frac};
use e2ebench::report::Report;
use e2ebench::{bridges, service};
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["bridge_local", "bridge_tcp", "service_sessions"];

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => {
                seed =
                    Some(value.parse::<u64>().unwrap_or_else(|_| usage("--seed takes an integer")))
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds takes a positive number")),
                )
            }
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => usage(&format!("bad argument {flag} {value}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let budget = Duration::from_secs_f64(seconds.unwrap_or_else(|| usage("--seconds is required")));
    let trace = trace.unwrap_or(false);

    let ticks = cpu_ticks();
    let mut rep = Report::default();
    rep.note("workload", &workload);
    rep.note("seed", seed);
    rep.note("trace", trace);
    rep.note("nproc", nproc());
    rep.note("commit", commit());
    rep.note("source_digest", source_digest());
    let spin = spin_speedup_t2();
    rep.note("spin_speedup_t2", spin);
    match workload.as_str() {
        "bridge_local" => bridges::bridge_local(seed, budget, trace, &mut rep),
        "bridge_tcp" => bridges::bridge_tcp(seed, budget, trace, &mut rep),
        _ => service::service_sessions(seed, budget, trace, &mut rep),
    }
    if trace {
        rep.set("compute.spin_speedup_t2", spin);
    }
    rep.note("host_steal_frac", steal_frac(ticks, cpu_ticks()));
    rep.print(trace);
    if !rep.correct() {
        std::process::exit(1);
    }
}
