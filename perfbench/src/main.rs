//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <render_ctf|serve_open|serve_closed|sim_accel> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no benchmark spans;
//! `--trace 1` runs the per-layer ledger (spans around the public calls
//! of each layer) and reports the tracing overhead against an untraced
//! pass in the same process. Every traced run reports the whole ledger:
//! the named workload's own layers over the window, then a short probe
//! of a workload for each layer group it does not exercise. See
//! `perfbench/README.md` for the workloads, the metrics and how to read
//! them.

mod fingerprint;
mod render;
mod replay;
mod report;
mod serve;
mod sim;
mod stats;

use fingerprint::Fingerprint;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Counts heap allocations (the `pipeline.allocs_per_frame` ledger row).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The names of the end-to-end metrics every workload reports with
/// `--trace 0`, with their units (the `end_to_end` list of
/// `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("full_tier_frac", "fraction"),
    ("frames_per_s", "1/s"),
    ("rays_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("sim_cycles", "cycles"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["render_ctf", "serve_open", "serve_closed", "sim_accel"];

/// The workload each traced run probes for a layer group the named
/// workload does not exercise: the render pipeline, the serve layer and
/// the accelerator simulator.
pub const PROBES: [&str; 3] = ["render_ctf", "serve_closed", "sim_accel"];

/// Window of each probe, as a share of `--seconds`.
pub const PROBE_SHARE: u64 = 4;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Every per-layer metric, each once, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    let mut all = Vec::new();
    for m in render::LAYERS.iter().chain(serve::LAYERS).chain(sim::LAYERS) {
        if !all.contains(m) {
            all.push(*m);
        }
    }
    all
}

/// The metrics a run must report: every end-to-end metric untraced,
/// every per-layer metric traced.
fn expected_metrics(args: &Args) -> Vec<(&'static str, &'static str)> {
    if args.trace {
        per_layer()
    } else {
        END_TO_END.to_vec()
    }
}

/// The layer group a workload exercises.
fn layer_group(workload: &str) -> &str {
    if workload.starts_with("serve_") {
        "serve"
    } else {
        workload
    }
}

/// One workload's own traced run.
fn run_traced(args: &Args) -> report::Outcome {
    match args.workload.as_str() {
        "render_ctf" => render::run_traced(args),
        "serve_open" => serve::run(args, serve::Mode::Open, true),
        "serve_closed" => serve::run(args, serve::Mode::Closed, true),
        _ => sim::run(args, true),
    }
}

/// The whole per-layer ledger: the named workload's traced run over the
/// window, then a traced probe of each [`PROBES`] workload of another
/// layer group over `seconds / PROBE_SHARE`. A metric both report keeps
/// the named workload's value (or the earlier probe's).
fn run_ledger(args: &Args) -> report::Outcome {
    let mut out = run_traced(args);
    for probe in PROBES {
        if layer_group(probe) == layer_group(&args.workload) {
            continue;
        }
        let probe_args = Args {
            workload: probe.to_string(),
            seconds: (args.seconds / PROBE_SHARE).max(1),
            ..args.clone()
        };
        out.absorb(probe, run_traced(&probe_args));
    }
    out
}

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Runs `setup` [`SETUP_REPS`] times, dropping the previous state
/// first, and returns the last state with the median set-up time in
/// seconds. The first repetition is timed from process start.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut state = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let t0 = if rep == 0 {
            process_start()
        } else {
            Instant::now()
        };
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        state.expect("at least one set-up repetition"),
        stats::median(&times),
    )
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// The `VmHWM` line of `/proc/self/status`, in kB.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A 64-bit mix of `seed` and `salt` (SplitMix64 finalizer), used to
/// derive every workload input from the `--seed` argument.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from [`mix`].
pub fn unit(seed: u64, salt: u64) -> f64 {
    (mix(seed, salt) >> 11) as f64 / (1u64 << 53) as f64
}

fn main() {
    process_start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The render engines and the server size their worker pools from
    // GEN_NERF_THREADS; pin it to the core count unless the caller set
    // it. No other thread exists yet.
    if std::env::var_os("GEN_NERF_THREADS").is_none() {
        std::env::set_var("GEN_NERF_THREADS", fingerprint::nproc().to_string());
    }
    let fp = Fingerprint::collect(&args.workload, args.seed, args.seconds, args.trace);

    let mut outcome = match args.workload.as_str() {
        _ if args.trace => run_ledger(&args),
        "render_ctf" => render::run(&args),
        "serve_open" => serve::run(&args, serve::Mode::Open, false),
        "serve_closed" => serve::run(&args, serve::Mode::Closed, false),
        "sim_accel" => sim::run(&args, false),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => outcome.metric("peak_rss_mb", mb, "MB"),
            None => outcome.check("peak_rss", false, "/proc/self/status has no VmHWM"),
        }
    }
    let reported: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let expected = expected_metrics(&args);
    let missing: Vec<_> = expected.iter().filter(|e| !reported.contains(e)).collect();
    let extra: Vec<_> = reported.iter().filter(|r| !expected.contains(r)).collect();
    let detail = format!("missing {missing:?}, undeclared {extra:?}");
    outcome.check("metric_set", missing.is_empty() && extra.is_empty(), detail);
    outcome.print(&fp);
    let dir = std::path::Path::new("perfbench/results");
    let file = dir.join(format!(
        "{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, outcome.record_json(&fp)))
    {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    if !outcome.correct() {
        eprintln!("perfbench: output checks failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv("--workload sim_accel --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "sim_accel".into(),
                seed: 9,
                seconds: 3,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload render_ctf --trace 2")).is_err());
        assert!(parse_args(&argv("--workload render_ctf --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload render_ctf --seed")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    #[test]
    fn seed_derivation_is_deterministic_and_spread() {
        assert_eq!(mix(5, 1), mix(5, 1));
        assert_ne!(mix(5, 1), mix(6, 1));
        assert_ne!(mix(5, 1), mix(5, 2));
        let u: Vec<f64> = (0..1000).map(|k| unit(3, k)).collect();
        assert!(u.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn vm_hwm_parses_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  200 kB\nVmHWM:\t   51200 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51200));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    /// The metric names and units in code are the ones `BENCHMARK.json`
    /// declares.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        for (name, unit) in per_layer() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // No metric is declared beyond those the runs report.
        assert_eq!(
            text.matches("\"better\"").count(),
            END_TO_END.len() + per_layer().len()
        );
    }

    /// Every traced run covers every layer group, its own or a probe's.
    #[test]
    fn probes_cover_every_layer_group() {
        for w in WORKLOADS {
            let mut groups: Vec<&str> = PROBES
                .iter()
                .map(|p| layer_group(p))
                .filter(|g| *g != layer_group(w))
                .collect();
            groups.push(layer_group(w));
            groups.sort_unstable();
            assert_eq!(groups, ["render_ctf", "serve", "sim_accel"], "{w}");
        }
    }
}
