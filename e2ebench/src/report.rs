//! The metric vocabulary and the result line.
//!
//! Every workload reports every metric below: the end-to-end set on an
//! untraced run, the per-layer set on a traced one. A per-layer metric
//! that a workload does not exercise (a transport or service figure on
//! a workload without that layer) reads 0 by construction.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("iters_per_s", "1/s"),
    ("iter_ms_p50", "ms"),
    ("session_ms_p50", "ms"),
    ("sessions_per_s", "1/s"),
];

/// Per-layer metrics of a traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session_ms_p99", "ms"),
    ("bridge.calls_per_iter", "count"),
    ("bridge.self_ms_per_iter", "ms"),
    ("phase.pkick_ms", "ms"),
    ("phase.evolve_ms", "ms"),
    ("phase.stellar_ms", "ms"),
    ("phase.checkpoint_ms", "ms"),
    ("phase.unattributed_ms", "ms"),
    ("phase.evolve_overlap", "ratio"),
    ("nbody.evolve_ms", "ms"),
    ("sph.evolve_ms", "ms"),
    ("treegrav.kick_ms", "ms"),
    ("stellar.evolve_ms", "ms"),
    ("worker.state_ms", "ms"),
    ("nbody.flops", "flop"),
    ("sph.flops", "flop"),
    ("treegrav.flops", "flop"),
    ("compute.nbody_speedup_t2", "ratio"),
    ("compute.sph_speedup_t2", "ratio"),
    ("compute.spin_speedup_t2", "ratio"),
    ("reactor.overhead_ms_per_iter", "ms"),
    ("reactor.call_overhead_us_p50", "us"),
    ("reactor.call_overhead_us_p99", "us"),
    ("reactor.bytes_per_iter", "B"),
    ("reactor.retries", "count"),
    ("shard.fanout_ms_per_iter", "ms"),
    ("shard.imbalance", "ratio"),
    ("checkpoint.ms_per_iter", "ms"),
    ("checkpoint.bytes", "B"),
    ("service.submit_us_p50", "us"),
    ("service.submit_us_p99", "us"),
    ("service.run_ms_p50", "ms"),
    ("service.overhead_ms_p50", "ms"),
    ("service.overhead_ms_p99", "ms"),
    ("service.failed", "count"),
    ("service.shed", "count"),
    ("service.migrations", "count"),
    ("service.rewarms", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Rounds per `service_sessions` run (each on a freshly set-up
/// service; `bridge_tcp` runs more, shorter ones). Every end-to-end
/// metric is measured once per round and reported as the median over
/// rounds, so one round disturbed by a neighbour on a shared machine
/// does not move the result.
pub const ROUNDS: usize = 3;

/// Per-round end-to-end values, folded into medians at the end.
#[derive(Default)]
pub struct Rounds {
    setup_s: Vec<f64>,
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Rounds {
    /// Time `reps` set-ups (tearing each down but the last) and return
    /// the last product; every set-up time is one `setup_s` sample.
    pub fn setups<T>(
        &mut self,
        reps: usize,
        mut setup: impl FnMut() -> T,
        mut teardown: impl FnMut(T),
    ) -> T {
        let mut last = None;
        for _ in 0..reps {
            if let Some(prev) = last.take() {
                teardown(prev);
            }
            let t0 = Instant::now();
            last = Some(setup());
            self.setup_s.push(t0.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up")
    }

    /// One round's value of an end-to-end metric.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// Report the median set-up time and each metric's median round.
    pub fn commit(self, rep: &mut Report) {
        rep.set("setup_s", median(&self.setup_s));
        for (name, v) in self.values {
            rep.set(name, median(&v));
        }
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Everything one run produces.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (iterations, or sessions submitted).
    pub attempted: u64,
    /// Operations that failed, were refused, or needed recovery.
    pub failed: u64,
    failures: Vec<String>,
    provenance: Vec<(&'static str, String)>,
}

impl Report {
    /// Record a metric. Panics on a name outside the vocabulary; a
    /// non-finite value fails the run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.check(value.is_finite(), format!("{name} is not finite ({value})"));
        self.values.insert(name, value);
    }

    /// A correctness check: a failing one fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// Did every check pass?
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Record a provenance field (printed, not a metric).
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    /// Print the human-readable table, the provenance line, and, last,
    /// the one-line JSON result with the end-to-end (`trace == false`)
    /// or per-layer metrics.
    pub fn print(&self, trace: bool) {
        let set = if trace { PER_LAYER } else { END_TO_END };
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{:<32} {:>16} ratio", "fail_frac", fmt(fail_frac));
        let mut metrics = Vec::new();
        for (name, unit) in set {
            let v = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            println!("{name:<32} {:>16} {unit}", fmt(v));
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                fmt(v),
                json_str(unit)
            ));
        }
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        println!("{{\"provenance\": {{{}}}}}", prov.join(", "));
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values already failed the run).
fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
