//! `sim_accel`: the cycle-level accelerator simulator on `render_ctf`'s
//! model and sampling strategy at 400×400 with 6 source views.
//!
//! The simulated cycles are exact and repeat on every run; the host
//! time per simulated frame is the simulator's own speed. The workload
//! has no random input, so `--seed` does not change it. The traced run
//! reads the per-stage `SimReport`; the simulator has no spans of its
//! own to switch on, so the tracing overhead of a traced `sim_accel`
//! run is its `render_ctf` probe's.

use crate::report::Outcome;
use crate::stats::Samples;
use crate::{repeated_setup, Args};
use gen_nerf::config::ModelConfig;
use gen_nerf::hardware::workload_spec;
use gen_nerf_accel::config::AcceleratorConfig;
use gen_nerf_accel::simulator::{SimReport, Simulator};
use gen_nerf_accel::workload::WorkloadSpec;
use std::time::Instant;

pub const WIDTH: u32 = 400;
pub const HEIGHT: u32 = 400;
pub const VIEWS: usize = 6;

/// Per-layer metrics of the simulator's layers.
pub const LAYERS: &[(&str, &str)] = &[
    ("accel.cycles.coarse", "cycles"),
    ("accel.cycles.focus", "cycles"),
    ("accel.data_cycles", "cycles"),
    ("accel.compute_cycles", "cycles"),
    ("accel.patches", "count"),
    ("dram.row_hit_rate", "fraction"),
    ("dram.bank_conflict_stalls", "cycles"),
    ("dram.bytes_fetched", "bytes"),
    ("accel.host_us_per_patch", "us"),
];

/// The simulated workload of a coarse-then-focus render of `width ×
/// height` with `render_ctf`'s model and strategy.
pub fn spec(width: u32, height: u32) -> WorkloadSpec {
    workload_spec(
        &ModelConfig::fast(),
        &crate::render::strategy(),
        width,
        height,
        VIEWS,
    )
}

/// Simulates `spec` once on the paper's accelerator configuration.
pub fn simulate(spec: &WorkloadSpec) -> SimReport {
    Simulator::new(AcceleratorConfig::paper()).simulate(spec)
}

pub fn run(args: &Args, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let ((sim, spec, reference), setup_s) = repeated_setup(|| {
        let spec = spec(WIDTH, HEIGHT);
        let sim = Simulator::new(AcceleratorConfig::paper());
        let reference = sim.simulate(&spec);
        (sim, spec, reference)
    });

    // Back-to-back simulations for the window, each report checked
    // against the set-up one.
    let mut samples = Vec::new();
    let mut mismatches = 0;
    let start = Instant::now();
    while start.elapsed() < args.window() {
        let t0 = Instant::now();
        let report = std::hint::black_box(sim.simulate(&spec));
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        if report != reference {
            mismatches += 1;
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let one_thread = Simulator::new(AcceleratorConfig::paper())
        .with_threads(1)
        .simulate(&spec);
    out.check(
        "sim_report_repeats",
        mismatches == 0,
        format!("{mismatches} of {} repetitions differ", samples.len()),
    );
    out.check(
        "sim_report_1t_eq_nt",
        one_thread == reference,
        format!("1 thread vs {} threads", gen_nerf_parallel::num_threads()),
    );
    out.attempted = samples.len() as u64;
    let lat = Samples::new(samples);
    let p50 = lat.median().unwrap_or(f64::NAN);
    let r = &reference;
    out.note(format!(
        "sim_accel {WIDTH}x{HEIGHT} views={VIEWS}: host ms per simulated frame {}",
        lat.describe("ms")
    ));
    out.note(format!(
        "sim_host_s {:.6} s (host seconds per simulated frame, p50); sim_cycles {} \
         (coarse {} + focus {})",
        p50 / 1e3,
        r.total_cycles,
        r.coarse.total_cycles,
        r.focused.total_cycles
    ));

    if !trace {
        let frames_per_s = lat.len() as f64 / elapsed_s;
        out.metric("setup_s", setup_s, "s");
        out.metric("ok_frac", 1.0, "fraction");
        out.metric("full_tier_frac", 1.0, "fraction");
        out.metric("frames_per_s", frames_per_s, "1/s");
        out.metric(
            "rays_per_s",
            frames_per_s * f64::from(WIDTH * HEIGHT),
            "1/s",
        );
        out.metric("latency_ms_p50", p50, "ms");
        out.metric("sim_cycles", r.total_cycles as f64, "cycles");
        return out;
    }

    let stages = [&r.coarse, &r.focused];
    let patches: u64 = stages.iter().map(|s| s.patches).sum();
    // Row-hit rate over both stages, weighted by the bytes each fetched.
    let bytes = r.bytes_fetched();
    let hit_rate = stages
        .iter()
        .map(|s| s.row_hit_rate * s.bytes_fetched as f64)
        .sum::<f64>()
        / bytes.max(1) as f64;
    out.metric(
        "accel.cycles.coarse",
        r.coarse.total_cycles as f64,
        "cycles",
    );
    out.metric(
        "accel.cycles.focus",
        r.focused.total_cycles as f64,
        "cycles",
    );
    out.metric("accel.data_cycles", r.data_cycles() as f64, "cycles");
    out.metric("accel.compute_cycles", r.compute_cycles() as f64, "cycles");
    out.metric("accel.patches", patches as f64, "count");
    out.metric("dram.row_hit_rate", hit_rate, "fraction");
    out.metric(
        "dram.bank_conflict_stalls",
        stages.iter().map(|s| s.bank_conflict_stalls).sum::<u64>() as f64,
        "cycles",
    );
    out.metric("dram.bytes_fetched", bytes as f64, "bytes");
    out.metric(
        "accel.host_us_per_patch",
        p50 * 1e3 / patches.max(1) as f64,
        "us",
    );
    out
}
