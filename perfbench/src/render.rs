//! `render_ctf`: closed loop, one caller, direct `Renderer` renders of
//! a fixed orbit of poses around the DeepVoxels `cube` at 64×64 with 6
//! source views, `ModelConfig::fast()` and coarse-then-focus (8, 16).
//! The seed sets the orbit's starting angle.
//!
//! The traced run adds the per-layer ledger:
//!
//! * the program's `render_stage_ns` timers over a window of renders at
//!   the workload's thread count. `coarse` is observed once per render
//!   call (wall time of Step ①). `focus` and `composite` are observed
//!   once per chunk, so they sum busy time across workers; `focus` also
//!   holds the importance sampling of Step ③. Both are reported raw
//!   (`stage_busy_ms`) and divided by the worker count (`stage_ms`)
//!   before they are compared with the frame's wall time; Step ②'s
//!   budget allocation, fan-out and image write are the unattributed
//!   rest;
//! * the layer replay (`crate::replay`) at one thread, interleaved with
//!   the `Renderer` at one thread and at the workload's thread count,
//!   traced and untraced;
//! * exact `RenderStats` counts per frame over one orbit lap,
//!   allocations per frame, the GEMM peak and the co-design bridge.

use crate::replay::{Layer, Replay, Spans};
use crate::report::Outcome;
use crate::stats::{median, Samples};
use crate::{allocations, repeated_setup, sim, unit, Args};
use gen_nerf::config::{ModelConfig, SamplingStrategy};
use gen_nerf::features::{prepare_sources, SourceViewData};
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::{RenderStats, Renderer};
use gen_nerf_geometry::{Camera, Pose, Vec3};
use gen_nerf_nn::Tensor2;
use gen_nerf_scene::{Dataset, DatasetKind, Image};
use std::time::Instant;

pub const RES: u32 = 64;
pub const VIEWS: usize = 6;
/// Poses on the orbit.
pub const ORBIT: usize = 24;
/// Orbit poses the layer replay covers.
pub const REPLAY_POSES: usize = 3;
/// Stated tolerance on the replay's frame time against the
/// `Renderer`'s at one thread (`pipeline.replay_gap_frac`).
pub const REPLAY_TOLERANCE: f64 = 0.25;

/// Per-layer metrics of the render pipeline's layers.
pub const LAYERS: &[(&str, &str)] = &[
    ("pipeline.frame_ms", "ms"),
    ("pipeline.stage_ms.coarse", "ms"),
    ("pipeline.stage_ms.focus", "ms"),
    ("pipeline.stage_ms.composite", "ms"),
    ("pipeline.stage_busy_ms.focus", "ms"),
    ("pipeline.stage_busy_ms.composite", "ms"),
    ("pipeline.stage_unattributed_frac", "fraction"),
    ("features.acquire_ms", "ms"),
    ("features.points_per_s", "1/s"),
    ("model.coarse_ms", "ms"),
    ("model.point_mlp_ms", "ms"),
    ("model.ray_module_ms", "ms"),
    ("model.blend_ms", "ms"),
    ("model.point_mlp_gflops", "GFLOP/s"),
    ("nn.gemm_peak_gflops", "GFLOP/s"),
    ("model.point_mlp_peak_frac", "fraction"),
    ("sampling.focus_alloc_ms", "ms"),
    ("scene.composite_ms", "ms"),
    ("pipeline.replay_frame_ms", "ms"),
    ("pipeline.replay_unattributed_ms", "ms"),
    ("pipeline.replay_gap_frac", "fraction"),
    ("pipeline.flops.acquire", "FLOP"),
    ("pipeline.flops.mlp", "FLOP"),
    ("pipeline.flops.ray_module", "FLOP"),
    ("pipeline.flops.others", "FLOP"),
    ("pipeline.points_per_ray", "count"),
    ("pipeline.feature_fetches", "count"),
    ("pipeline.allocs_per_frame", "count"),
    ("parallel.speedup", "x"),
    ("trace.overhead_frac", "fraction"),
    ("bridge.sim_coarse_cycle_frac", "fraction"),
    ("bridge.replay_coarse_busy_frac", "fraction"),
];

/// The workload's sampling strategy (shared with `sim_accel`).
pub fn strategy() -> SamplingStrategy {
    SamplingStrategy::coarse_then_focus(8, 16)
}

struct Setup {
    dataset: Dataset,
    sources: Vec<SourceViewData>,
    model: GenNerfModel,
    cameras: Vec<Camera>,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let dataset = Dataset::build(
            DatasetKind::DeepVoxels,
            "cube",
            RES as f32 / 512.0,
            VIEWS,
            1,
            32,
            7,
        );
        let sources = prepare_sources(&dataset.source_views);
        let model = GenNerfModel::new(ModelConfig::fast());
        let cameras = orbit(&dataset, seed);
        let setup = Self {
            dataset,
            sources,
            model,
            cameras,
        };
        // Warm-up: worker scratch, kernel dispatch and page faults.
        std::hint::black_box(
            setup
                .renderer(gen_nerf_parallel::num_threads())
                .render(&setup.cameras[0]),
        );
        setup
    }

    fn renderer(&self, threads: usize) -> Renderer<'_> {
        Renderer::new(
            &self.model,
            &self.sources,
            strategy(),
            self.dataset.scene.bounds,
            self.dataset.scene.background,
        )
        .with_threads(threads)
    }
}

/// `ORBIT` poses on the eval view's circle around the scene centre,
/// starting at a seed-drawn angle.
fn orbit(dataset: &Dataset, seed: u64) -> Vec<Camera> {
    let eval = &dataset.eval_views[0].camera;
    let bounds = dataset.scene.bounds;
    let center = (bounds.min + bounds.max) * 0.5;
    let rel = eval.pose.origin - center;
    let radius = (rel.x * rel.x + rel.z * rel.z).sqrt();
    let phase = unit(seed, 0x0B17) * std::f64::consts::TAU;
    (0..ORBIT)
        .map(|k| {
            let phi = (phase + k as f64 * std::f64::consts::TAU / ORBIT as f64) as f32;
            let eye = center + Vec3::new(radius * phi.cos(), rel.y, radius * phi.sin());
            Camera::new(eval.intrinsics, Pose::look_at(eye, center, Vec3::Y))
        })
        .collect()
}

/// FNV-1a over an image's pixel bits.
fn digest(image: &Image) -> u64 {
    image
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The 1-thread vs `nproc`-thread digest check on the first orbit
/// poses.
fn check_thread_determinism(st: &Setup, out: &mut Outcome) {
    let threads = gen_nerf_parallel::num_threads();
    let mismatched: Vec<usize> = (0..REPLAY_POSES)
        .filter(|&k| {
            let (a, sa) = st.renderer(1).render(&st.cameras[k]);
            let (b, sb) = st.renderer(threads).render(&st.cameras[k]);
            digest(&a) != digest(&b)
                || sa.points != sb.points
                || sa.flops.total() != sb.flops.total()
        })
        .collect();
    out.check(
        "digest_1t_eq_nt",
        mismatched.is_empty(),
        format!("1 vs {threads} threads on {REPLAY_POSES} poses; mismatched poses {mismatched:?}"),
    );
}

/// End-to-end run.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (st, setup_s) = repeated_setup(|| Setup::new(args.seed));
    let renderer = st.renderer(gen_nerf_parallel::num_threads());
    let mut image = Image::new(0, 0);
    let mut stats = RenderStats::default();
    let mut latencies = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while start.elapsed() < args.window() {
        let camera = &st.cameras[latencies.len() % ORBIT];
        let t0 = Instant::now();
        match renderer.try_render_into(camera, &mut image, &mut stats) {
            Ok(()) => latencies.push(t0.elapsed().as_secs_f64() * 1e3),
            Err(e) => {
                failed += 1;
                latencies.push(f64::INFINITY);
                out.note(format!("render failed: {e}"));
            }
        }
        std::hint::black_box(image.as_slice());
    }
    let elapsed = start.elapsed().as_secs_f64();
    check_thread_determinism(&st, &mut out);

    let frames = latencies.len() as u64;
    let ok = frames - failed;
    let lat = Samples::new(latencies);
    let rays_per_frame = f64::from(RES * RES);
    out.attempted = frames;
    out.failed = failed;
    out.note(format!(
        "render_ctf {RES}x{RES} views={VIEWS} threads={}: frame latency {}",
        gen_nerf_parallel::num_threads(),
        lat.describe("ms")
    ));
    out.note(format!(
        "failed_frac {:.6}; degraded_frac 0 (no serve layer)",
        failed as f64 / frames.max(1) as f64
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("ok_frac", ok as f64 / frames.max(1) as f64, "fraction");
    out.metric("full_tier_frac", 1.0, "fraction");
    out.metric("frames_per_s", ok as f64 / elapsed, "1/s");
    out.metric("rays_per_s", ok as f64 * rays_per_frame / elapsed, "1/s");
    out.metric("latency_ms_p50", lat.median().unwrap_or(f64::NAN), "ms");
    out.metric(
        "sim_cycles",
        sim::simulate(&sim::spec(RES, RES)).total_cycles as f64,
        "cycles",
    );
    out
}

/// Sum and count of one `render_stage_ns` series.
fn stage_hist(stage: &str) -> (u64, u64) {
    let h = gen_nerf_telemetry::snapshot().histogram_merged("render_stage_ns", &[("stage", stage)]);
    (h.sum, h.count)
}

/// GFLOP/s of a 128³ `Tensor2::matmul` on the active backend (best of
/// five batches).
fn gemm_peak_gflops() -> f64 {
    let n = 128;
    let a = Tensor2::from_fn(n, n, |r, c| ((r * n + c) as f32 * 0.11).sin());
    let b = Tensor2::from_fn(n, n, |r, c| ((r * n + c) as f32 * 0.05).cos());
    std::hint::black_box(a.matmul(&b));
    let reps = 50;
    let best = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(a.matmul(std::hint::black_box(&b)));
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .fold(f64::INFINITY, f64::min);
    2.0 * (n * n * n) as f64 / best / 1e9
}

/// Traced run: the per-layer ledger.
pub fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let st = Setup::new(args.seed);
    let threads = gen_nerf_parallel::num_threads();
    let renderer = st.renderer(threads);
    let renderer_1t = st.renderer(1);
    let ms = |ns: u64| ns as f64 / 1e6;

    // Exact counts: one render of every orbit pose.
    let mut lap = RenderStats::default();
    for camera in &st.cameras {
        lap.merge(&renderer.render(camera).1);
    }
    let per_frame = |v: u64| v as f64 / ORBIT as f64;

    // (a) Renders at the workload's thread count, read through the
    // program's stage timers.
    let before: Vec<(u64, u64)> = ["coarse", "focus", "composite"].map(stage_hist).to_vec();
    let mut image = Image::new(0, 0);
    let mut stats = RenderStats::default();
    let mut frames = 0usize;
    let start = Instant::now();
    while start.elapsed() < args.window() {
        renderer.render_into(&st.cameras[frames % ORBIT], &mut image, &mut stats);
        frames += 1;
    }
    let frame_ms = start.elapsed().as_secs_f64() * 1e3 / frames as f64;
    let after: Vec<(u64, u64)> = ["coarse", "focus", "composite"].map(stage_hist).to_vec();
    let stage_ms: Vec<f64> = before
        .iter()
        .zip(&after)
        .map(|(b, a)| ms(a.0 - b.0) / frames as f64)
        .collect();
    let coarse_calls = after[0].1 - before[0].1;
    out.note(format!(
        "stage timers over {frames} frames: coarse observed {coarse_calls} times (once per \
         render call, wall), focus {} and composite {} times (once per chunk, busy summed \
         over {threads} workers)",
        after[1].1 - before[1].1,
        after[2].1 - before[2].1
    ));
    let focus_ms = stage_ms[1] / threads as f64;
    let composite_ms = stage_ms[2] / threads as f64;

    // (b) Interleaved rounds over the replay poses: Renderer at
    // `threads` and at one thread, the replay untraced and traced.
    let mut replay = Replay::new(
        &st.model,
        &st.sources,
        strategy(),
        st.dataset.scene.bounds,
        st.dataset.scene.background,
    );
    let mut spans = Spans::new(true);
    let mut untraced_spans = Spans::new(false);
    let poses = &st.cameras[..REPLAY_POSES];
    // The replay must render exactly what the renderer renders.
    for (k, camera) in poses.iter().enumerate() {
        let (img, rs) = renderer_1t.render(camera);
        let rf = replay.frame(camera, &mut untraced_spans);
        let counts = |rays, points, coarse, image| {
            format!("rays/points/coarse {rays}/{points}/{coarse} image {image:016x}")
        };
        let replayed = counts(rf.rays, rf.points, rf.coarse_points, digest(&rf.image));
        let rendered = counts(rs.rays, rs.points, rs.coarse_points, digest(&img));
        out.check(
            &format!("replay_matches_renderer_pose{k}"),
            replayed == rendered,
            format!("replay {replayed}; renderer {rendered}"),
        );
    }
    let (mut coarse_stage_ns, mut focus_stage_ns) = (0u64, 0u64);
    let (mut replay_points, mut replay_focus_points) = (0u64, 0u64);
    let mut rounds: Vec<[f64; 4]> = Vec::new();
    let start = Instant::now();
    while rounds.len() < 3 || start.elapsed() < args.window() {
        let mut t = [0.0f64; 4];
        for camera in poses {
            // Rotate the order so no variant always runs first.
            for v in 0..4 {
                let variant = (v + rounds.len()) % 4;
                let t0 = Instant::now();
                match variant {
                    0 => drop(std::hint::black_box(renderer.render(camera))),
                    1 => drop(std::hint::black_box(renderer_1t.render(camera))),
                    2 => drop(std::hint::black_box(
                        replay.frame(camera, &mut untraced_spans),
                    )),
                    _ => {
                        let rf = replay.frame(camera, &mut spans);
                        coarse_stage_ns += rf.coarse_ns;
                        focus_stage_ns += rf.focus_ns;
                        replay_points += rf.points + rf.coarse_points;
                        replay_focus_points += rf.points;
                    }
                }
                t[variant] += t0.elapsed().as_secs_f64() * 1e3 / REPLAY_POSES as f64;
            }
        }
        rounds.push(t);
    }
    let per_variant = |v: usize| median(&rounds.iter().map(|r| r[v]).collect::<Vec<_>>());
    let (t_nt, t_1t, t_replay, t_traced) = (
        per_variant(0),
        per_variant(1),
        per_variant(2),
        per_variant(3),
    );
    let traced_frames = (rounds.len() * REPLAY_POSES) as f64;
    let layer_ms = |l: Layer| ms(spans.ns(l)) / traced_frames;
    let gap = t_replay / t_1t - 1.0;
    out.check(
        "replay_time_within_tolerance",
        gap.abs() <= REPLAY_TOLERANCE,
        format!(
            "replay {t_replay:.3} ms vs renderer 1-thread {t_1t:.3} ms per frame \
             (gap {gap:+.3}, tolerance ±{REPLAY_TOLERANCE})"
        ),
    );

    // (c) Allocations per frame at one thread, after a warm render.
    std::hint::black_box(renderer_1t.render(&st.cameras[0]));
    let a0 = allocations();
    std::hint::black_box(renderer_1t.render(&st.cameras[0]));
    let allocs = allocations() - a0;

    // (d) Achieved point-MLP rate against the GEMM peak.
    let cfg = &st.model.config;
    let point_mlp_flops =
        2.0 * cfg.mlp_macs_per_point() as f64 * replay_focus_points as f64 / traced_frames;
    let peak = gemm_peak_gflops();
    let point_mlp_ms = layer_ms(Layer::PointMlp);
    let point_mlp_gflops = point_mlp_flops / (point_mlp_ms * 1e6);

    // (e) The co-design bridge: the simulator's coarse share of this
    // workload's own spec beside the replay's measured coarse share.
    let bridge = sim::simulate(&sim::spec(RES, RES));
    let sim_coarse = bridge.coarse.total_cycles as f64 / bridge.total_cycles as f64;
    let measured_coarse = coarse_stage_ns as f64 / (coarse_stage_ns + focus_stage_ns) as f64;
    out.note(format!(
        "co-design bridge ({RES}x{RES}, {VIEWS} views): simulated cycles coarse {:.3} / focus \
         {:.3}; measured 1-thread busy time coarse {:.3} / focus {:.3}",
        sim_coarse,
        1.0 - sim_coarse,
        measured_coarse,
        1.0 - measured_coarse
    ));

    let attributed = stage_ms[0] + focus_ms + composite_ms;
    let spans_total_ms = ms(spans.total_ns()) / traced_frames;
    out.metric("pipeline.frame_ms", frame_ms, "ms");
    out.metric("pipeline.stage_ms.coarse", stage_ms[0], "ms");
    out.metric("pipeline.stage_ms.focus", focus_ms, "ms");
    out.metric("pipeline.stage_ms.composite", composite_ms, "ms");
    out.metric("pipeline.stage_busy_ms.focus", stage_ms[1], "ms");
    out.metric("pipeline.stage_busy_ms.composite", stage_ms[2], "ms");
    out.metric(
        "pipeline.stage_unattributed_frac",
        1.0 - attributed / frame_ms,
        "fraction",
    );
    out.metric("features.acquire_ms", layer_ms(Layer::Acquire), "ms");
    out.metric(
        "features.points_per_s",
        replay_points as f64 / (ms(spans.ns(Layer::Acquire)) / 1e3),
        "1/s",
    );
    out.metric("model.coarse_ms", layer_ms(Layer::Coarse), "ms");
    out.metric("model.point_mlp_ms", point_mlp_ms, "ms");
    out.metric("model.ray_module_ms", layer_ms(Layer::RayModule), "ms");
    out.metric("model.blend_ms", layer_ms(Layer::Blend), "ms");
    out.metric("model.point_mlp_gflops", point_mlp_gflops, "GFLOP/s");
    out.metric("nn.gemm_peak_gflops", peak, "GFLOP/s");
    out.metric(
        "model.point_mlp_peak_frac",
        point_mlp_gflops / peak,
        "fraction",
    );
    out.metric("sampling.focus_alloc_ms", layer_ms(Layer::FocusAlloc), "ms");
    out.metric("scene.composite_ms", layer_ms(Layer::Composite), "ms");
    out.metric("pipeline.replay_frame_ms", t_traced, "ms");
    out.metric(
        "pipeline.replay_unattributed_ms",
        t_traced - spans_total_ms,
        "ms",
    );
    out.metric("pipeline.replay_gap_frac", gap, "fraction");
    for bucket in ["acquire", "mlp", "ray_module", "others"] {
        out.metric(
            format!("pipeline.flops.{bucket}"),
            per_frame(lap.flops.get(bucket)),
            "FLOP",
        );
    }
    out.metric("pipeline.points_per_ray", lap.avg_points_per_ray(), "count");
    out.metric(
        "pipeline.feature_fetches",
        per_frame(lap.feature_fetches),
        "count",
    );
    out.metric("pipeline.allocs_per_frame", allocs as f64, "count");
    out.metric("parallel.speedup", t_1t / t_nt, "x");
    out.metric("trace.overhead_frac", t_traced / t_replay - 1.0, "fraction");
    out.metric("bridge.sim_coarse_cycle_frac", sim_coarse, "fraction");
    out.metric(
        "bridge.replay_coarse_busy_frac",
        measured_coarse,
        "fraction",
    );
    out.attempted = (frames + rounds.len() * REPLAY_POSES * 4) as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orbit_is_fixed_by_the_seed() {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.03, 2, 1, 8, 7);
        let bits =
            |c: &Camera| [c.pose.origin.x, c.pose.origin.y, c.pose.origin.z].map(f32::to_bits);
        let a: Vec<_> = orbit(&ds, 5).iter().map(bits).collect();
        let b: Vec<_> = orbit(&ds, 5).iter().map(bits).collect();
        let c: Vec<_> = orbit(&ds, 6).iter().map(bits).collect();
        assert_eq!(a.len(), ORBIT);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
