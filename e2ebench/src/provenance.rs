//! What a result was measured on: cores, thread settings, the
//! machine's raw two-thread scaling, and which source tree was built.

use crate::stats::median;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Set the `jc_compute` pool's thread cap. The pool reads `JC_THREADS`
/// on every kernel call, so this takes effect on the next one.
pub fn set_threads(n: usize) {
    std::env::set_var("JC_THREADS", n.to_string());
}

/// A floating-point recurrence: each step waits for the previous one
/// and the compiler may not reassociate it, so the loop runs at the
/// core's multiply-add latency whatever the optimizer does.
fn spin(n: u64) -> f64 {
    let mut x = black_box(1.0f64);
    for _ in 0..n {
        x = x * 0.999_999_9 + 1e-7;
    }
    black_box(x)
}

/// Raw two-thread scaling of a dependent floating-point loop: the time one
/// thread needs for one loop, times two, over the time two threads
/// need for one loop each. Median of three trials. About 2.0 on two
/// idle cores; this is the ceiling any `_t2` kernel speed-up is judged
/// against.
pub fn spin_speedup_t2() -> f64 {
    const N: u64 = 10_000_000;
    let trials: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            spin(N);
            let one = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(|| spin(N));
                let b = s.spawn(|| spin(N));
                a.join().expect("spin thread");
                b.join().expect("spin thread");
            });
            2.0 * one / t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&trials)
}

/// The machine's cumulative CPU time from the `cpu` line of
/// `/proc/stat`, in clock ticks: (stolen by the hypervisor, total).
/// `None` where the file is not there.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user)
    let ticks: Vec<u64> =
        line.split_whitespace().take(8).map(|t| t.parse().ok()).collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Share of the machine's CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings: a run taken under steal is slower for
/// reasons outside the program, and shows it here.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.4}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".to_string(),
    }
}

/// The commit of the checkout, when it is a git work tree (read from
/// `.git` directly, no git process), else "unknown": [`source_digest`]
/// identifies the build either way.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    if let Some(head) = read(".git/HEAD") {
        let Some(name) = head.strip_prefix("ref: ") else { return head };
        if let Some(hash) = read(&format!(".git/{name}")) {
            return hash;
        }
        if let Some(packed) = read(".git/packed-refs") {
            if let Some(line) = packed.lines().find(|l| l.ends_with(name)) {
                return line.split(' ').next().unwrap_or_default().to_string();
            }
        }
    }
    "unknown".to_string()
}

/// FNV-1a over the measured program's sources (`crates/`, `shims/`
/// and the root manifests, in sorted path order): identifies the build
/// even where the checkout carries no git metadata.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if !p.ends_with("target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files =
        vec![Path::new("Cargo.toml").to_path_buf(), Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("shims"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}
