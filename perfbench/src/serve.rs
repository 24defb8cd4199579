//! The serve workloads: 8 sessions on 2 DeepVoxels scenes (`cube`,
//! `pedestal`), 32×32 frames, coarse-then-focus (8, 16), coherence
//! cache on (`within(0.05, 0.02)`), one load-generator thread, the server's
//! worker budget set to the core count.
//!
//! * `serve_open`: open-loop Poisson arrivals from `loadgen` (head-motion
//!   arcs, 25 % BestEffort) at a fixed 50 frames/s in total. The seeded
//!   schedule is rescaled so the window holds exactly `50 × seconds`
//!   arrivals. Latency is timed from each request's due time.
//! * `serve_closed`: 8 clients with one outstanding frame each. Poses
//!   jump between distant views, so nearly every frame misses, inserts
//!   an anchor and evicts under a one-anchor per-session budget; every
//!   [`RECYCLE_EVERY`] frames a client removes its session and creates a
//!   new one. Latency is timed from submission.
//!
//! A failed, shed or timed-out request counts as above every
//! percentile. The traced run drives the workload twice on fresh
//! servers — untraced, then with spans around `submit`,
//! `create_session` and `remove_session` — and reports the server's
//! layer counters of the traced pass plus the overhead between the two.

use crate::report::Outcome;
use crate::stats::Samples;
use crate::{repeated_setup, sim, unit, Args};
use gen_nerf::config::ModelConfig;
use gen_nerf::model::GenNerfModel;
use gen_nerf::pipeline::{RenderStats, Renderer};
use gen_nerf_bench::loadgen::{load_plan, Arrival, LoadSpec};
use gen_nerf_geometry::{Camera, Intrinsics, Pose, Vec3};
use gen_nerf_scene::{Dataset, DatasetKind, Image};
use gen_nerf_serve::{
    CacheOutcome, CacheStats, CoherenceConfig, DeadlineClass, FrameHandle, FrameRequest,
    RenderServer, ResolutionTier, SceneState, ServeError, ServerConfig, SessionConfig, SessionId,
};
use gen_nerf_telemetry::{EventKind, ResolveOutcome, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const RES: u32 = 32;
pub const VIEWS: usize = 6;
pub const SESSIONS: usize = 8;
pub const SCENES: [&str; 2] = ["cube", "pedestal"];
/// `serve_open`'s offered rate, frames/s over all sessions.
pub const OPEN_RATE_HZ: f64 = 50.0;
pub const BEST_EFFORT_FRACTION: f64 = 0.25;
/// `serve_closed`: frames between a client's session recycles.
pub const RECYCLE_EVERY: u64 = 16;
/// `serve_closed`'s per-session anchor budget: one 32×32 coarse pass.
pub const CLOSED_CACHE_BUDGET: usize = 96 * 1024;
/// Served Miss/Bypass frames compared bitwise with a direct render.
pub const EXACTNESS_SAMPLE: usize = 8;
/// How long the benchmark waits for any one handle before it counts
/// the handle as unresolved.
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-layer metrics of the serve layer, both serve workloads.
pub const LAYERS: &[(&str, &str)] = &[
    ("serve.admission.submit_us_p50", "us"),
    ("serve.admission.submit_us_p90", "us"),
    ("serve.admission.admitted", "count"),
    ("serve.admission.degraded", "count"),
    ("serve.admission.shed", "count"),
    ("serve.shard.queue_wait_ms_p50", "ms"),
    ("serve.shard.queue_wait_ms_p90", "ms"),
    ("serve.shard.render_ms_p50", "ms"),
    ("serve.shard.resolve_us_p50", "us"),
    ("serve.shard.resolve_us_p90", "us"),
    ("serve.shard.batch_frames_mean", "count"),
    ("serve.session.cache_hit_frac", "fraction"),
    ("serve.session.cache_inserts", "count"),
    ("serve.session.cache_evictions", "count"),
    ("serve.session.create_us", "us"),
    ("serve.session.remove_ms", "ms"),
    ("serve.governor.peak_bytes", "bytes"),
    ("serve.governor.refused_inserts", "count"),
    ("serve.supervisor.retries", "count"),
    ("serve.supervisor.timeouts", "count"),
    ("pipeline.flops.acquire", "FLOP"),
    ("pipeline.flops.mlp", "FLOP"),
    ("pipeline.flops.ray_module", "FLOP"),
    ("pipeline.flops.others", "FLOP"),
    ("pipeline.points_per_ray", "count"),
    ("pipeline.feature_fetches", "count"),
    ("trace.overhead_frac", "fraction"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Open,
    Closed,
}

fn intrinsics() -> Intrinsics {
    Intrinsics::from_fov(RES, RES, 0.55)
}

fn session_config(mode: Mode) -> SessionConfig {
    let cfg = SessionConfig::new(intrinsics(), crate::render::strategy())
        .with_coherence(CoherenceConfig::within(0.05, 0.02));
    match mode {
        Mode::Open => cfg,
        Mode::Closed => cfg.with_cache_budget(CLOSED_CACHE_BUDGET),
    }
}

/// A pose on a circle around the scene at angle `phi`.
fn orbit_pose(phi: f64) -> Pose {
    let phi = phi as f32;
    let eye = Vec3::new(4.0 * phi.cos(), 1.2, 4.0 * phi.sin());
    Pose::look_at(eye, Vec3::ZERO, Vec3::Y)
}

struct Setup {
    scenes: Vec<Arc<SceneState>>,
    server: RenderServer,
    sessions: Vec<SessionId>,
    /// Whether spans are recorded (the traced pass).
    traced: bool,
    create_us: Vec<f64>,
    remove_ms: Vec<f64>,
}

impl Setup {
    fn new(mode: Mode, traced: bool) -> Self {
        let scenes: Vec<Arc<SceneState>> = SCENES
            .iter()
            .map(|name| {
                let ds = Dataset::build(
                    DatasetKind::DeepVoxels,
                    name,
                    RES as f32 / 512.0,
                    VIEWS,
                    1,
                    32,
                    11,
                );
                Arc::new(SceneState::prepare(
                    GenNerfModel::new(ModelConfig::fast()),
                    &ds.source_views,
                    ds.scene.bounds,
                    ds.scene.background,
                ))
            })
            .collect();
        let server = RenderServer::new(ServerConfig {
            threads: gen_nerf_parallel::num_threads(),
            ..ServerConfig::default()
        });
        // Warm-up on throwaway sessions: shard workers, arenas, kernels.
        for scene in &scenes {
            let id = server.create_session(
                Arc::clone(scene),
                SessionConfig::new(intrinsics(), crate::render::strategy()),
            );
            let handles: Vec<FrameHandle> = (0..4)
                .map(|k| server.submit(id, FrameRequest::new(orbit_pose(k as f64))))
                .collect();
            for h in handles {
                let _ = h.wait_timeout(RESOLVE_TIMEOUT);
            }
            server.remove_session(id);
        }
        let mut setup = Self {
            scenes,
            server,
            sessions: Vec::with_capacity(SESSIONS),
            traced,
            create_us: Vec::new(),
            remove_ms: Vec::new(),
        };
        for s in 0..SESSIONS {
            let id = setup.create(mode, s);
            setup.sessions.push(id);
        }
        setup
    }

    /// Creates client `s`'s session (a span when traced).
    fn create(&mut self, mode: Mode, s: usize) -> SessionId {
        let scene = Arc::clone(&self.scenes[s % SCENES.len()]);
        if !self.traced {
            return self.server.create_session(scene, session_config(mode));
        }
        let t0 = Instant::now();
        let id = self.server.create_session(scene, session_config(mode));
        self.create_us.push(t0.elapsed().as_secs_f64() * 1e6);
        id
    }

    /// Removes a session (a span when traced).
    fn remove(&mut self, id: SessionId) {
        if !self.traced {
            return self.server.remove_session(id);
        }
        let t0 = Instant::now();
        self.server.remove_session(id);
        self.remove_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// Submits one frame; the span around `submit` when traced.
    fn submit(
        &self,
        s: usize,
        pose: Pose,
        deadline: DeadlineClass,
    ) -> (FrameHandle, Instant, Option<f64>) {
        let t0 = Instant::now();
        let handle = self.server.submit(
            self.sessions[s],
            FrameRequest::new(pose).with_deadline(deadline),
        );
        let span = self.traced.then(|| t0.elapsed().as_secs_f64() * 1e6);
        (handle, t0, span)
    }
}

/// One request of a pass.
struct Request {
    session: usize,
    pose: Pose,
    deadline: DeadlineClass,
    /// When it was due (open loop) or submitted (closed loop).
    due: Instant,
    submitted: Instant,
    /// The `submit` span (traced pass only).
    submit_us: Option<f64>,
    outcome: Option<Result<gen_nerf_serve::FrameResult, ServeError>>,
}

impl Request {
    /// Latency from the due time, or `INFINITY` when the frame failed.
    fn latency_ms(&self) -> f64 {
        match &self.outcome {
            Some(Ok(r)) => (self.submitted - self.due + r.serve.latency).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    fn ok(&self) -> Option<&gen_nerf_serve::FrameResult> {
        match &self.outcome {
            Some(Ok(r)) => Some(r),
            _ => None,
        }
    }
}

/// What one pass over the window produced.
struct Pass {
    requests: Vec<Request>,
    /// Frames delivered inside the window: every delivered frame of the
    /// open loop; the frames the closed loop saw complete before its
    /// window closed.
    completed_in_window: u64,
    /// From the window's start to the last of those completions.
    window_s: f64,
    unresolved: u64,
    /// The shards' lifecycle events of the pass (traced pass only).
    traces: Vec<TraceEvent>,
    trace_drops: u64,
}

fn resolve(
    handle: FrameHandle,
    unresolved: &mut u64,
) -> Option<Result<gen_nerf_serve::FrameResult, ServeError>> {
    let outcome = handle.wait_timeout(RESOLVE_TIMEOUT);
    if outcome.is_none() {
        *unresolved += 1;
    }
    outcome
}

/// `serve_open`'s arrivals for `seconds`: the first `50 × seconds`
/// arrivals of the seeded `loadgen` plan, their times rescaled so the
/// last one is due at the end of the window.
pub fn open_schedule(seed: u64, seconds: u64) -> Vec<Arrival> {
    let arrivals = (OPEN_RATE_HZ * seconds as f64).round() as usize;
    let spec = LoadSpec {
        sessions: SESSIONS,
        frames_per_session: 2 * arrivals / SESSIONS + 16,
        rate_hz: OPEN_RATE_HZ / SESSIONS as f64,
        best_effort_fraction: BEST_EFFORT_FRACTION,
        scenes: SCENES.len(),
        seed,
    };
    let mut plan = load_plan(&spec);
    plan.truncate(arrivals);
    let scale = seconds as f64 * 1e3 / plan.last().map_or(1.0, |a| a.at_ms);
    for a in &mut plan {
        a.at_ms *= scale;
    }
    plan
}

/// The open-loop pass: the seeded schedule, submitted on time by this
/// thread; handles are resolved after the last arrival.
fn drive_open(st: &Setup, args: &Args) -> Pass {
    let plan = open_schedule(args.seed, args.seconds);
    let mut handles = Vec::with_capacity(plan.len());
    let mut requests = Vec::with_capacity(plan.len());
    let start = Instant::now();
    for a in &plan {
        let due = start + Duration::from_secs_f64(a.at_ms / 1e3);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (handle, submitted, submit_us) = st.submit(a.session, a.pose, a.deadline);
        handles.push(handle);
        requests.push(Request {
            session: a.session,
            pose: a.pose,
            deadline: a.deadline,
            due,
            submitted,
            submit_us,
            outcome: None,
        });
    }
    let mut unresolved = 0;
    let mut last_done = start;
    for (r, h) in requests.iter_mut().zip(handles) {
        r.outcome = resolve(h, &mut unresolved);
        if let Some(Ok(f)) = &r.outcome {
            last_done = last_done.max(r.submitted + f.serve.latency);
        }
    }
    Pass {
        completed_in_window: requests.iter().filter(|r| r.ok().is_some()).count() as u64,
        requests,
        window_s: (last_done - start).as_secs_f64(),
        unresolved,
        traces: Vec::new(),
        trace_drops: 0,
    }
}

/// The pose of client `c`'s `k`-th closed-loop frame: a seeded angle on
/// the orbit, so consecutive frames are far apart.
pub fn closed_pose(seed: u64, c: usize, k: u64) -> Pose {
    orbit_pose(unit(seed, (c as u64) << 32 | k) * std::f64::consts::TAU)
}

/// The closed-loop pass: each client resubmits as soon as this thread
/// sees its frame complete (handles are waited in submission order).
fn drive_closed(st: &mut Setup, args: &Args) -> Pass {
    let mut steps = [0u64; SESSIONS];
    let mut requests = Vec::new();
    let mut inflight: VecDeque<(usize, FrameHandle)> = VecDeque::with_capacity(SESSIONS);
    let mut unresolved = 0;
    let mut completed_in_window = 0u64;
    let send = |st: &Setup, c: usize, k: u64, requests: &mut Vec<Request>| {
        let pose = closed_pose(args.seed, c, k);
        let (h, submitted, submit_us) = st.submit(c, pose, DeadlineClass::Interactive);
        requests.push(Request {
            session: c,
            pose,
            deadline: DeadlineClass::Interactive,
            due: submitted,
            submitted,
            submit_us,
            outcome: None,
        });
        h
    };
    let start = Instant::now();
    let mut last_done = start;
    for c in 0..SESSIONS {
        let h = send(st, c, 0, &mut requests);
        inflight.push_back((requests.len() - 1, h));
    }
    while let Some((idx, h)) = inflight.pop_front() {
        requests[idx].outcome = resolve(h, &mut unresolved);
        if start.elapsed() >= args.window() {
            continue;
        }
        if requests[idx].ok().is_some() {
            completed_in_window += 1;
            last_done = Instant::now();
        }
        let c = requests[idx].session;
        steps[c] += 1;
        if steps[c] % RECYCLE_EVERY == 0 {
            st.remove(st.sessions[c]);
            st.sessions[c] = st.create(Mode::Closed, c);
        }
        let h = send(st, c, steps[c], &mut requests);
        inflight.push_back((requests.len() - 1, h));
    }
    Pass {
        requests,
        completed_in_window,
        window_s: (last_done - start).as_secs_f64(),
        unresolved,
        traces: Vec::new(),
        trace_drops: 0,
    }
}

/// The serve counters of one server instance.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    admitted: u64,
    degraded: u64,
    shed: u64,
    cache: CacheStats,
    retries: u64,
    timeouts: u64,
    peak_bytes: u64,
    refused_inserts: u64,
}

impl Counters {
    fn read(server: &RenderServer) -> Self {
        let instance = server.instance().to_string();
        let subset = [("instance", instance.as_str())];
        let snap = server.telemetry_snapshot();
        let adm = server.admission_stats();
        let gov = server.governor_stats();
        Self {
            admitted: adm.admitted,
            degraded: adm.degraded,
            shed: adm.shed_best_effort + adm.shed_interactive + adm.shed_circuit,
            cache: CacheStats::from_snapshot(&snap, &subset),
            retries: snap.counter_with("serve_retries_total", &subset),
            timeouts: server.supervisor_stats().timed_out_total(),
            peak_bytes: gov.peak_bytes,
            refused_inserts: gov.refused_inserts,
        }
    }

    /// Counts accrued since `before` (the governor peak stays absolute).
    fn since(self, before: Self) -> Self {
        Self {
            admitted: self.admitted - before.admitted,
            degraded: self.degraded - before.degraded,
            shed: self.shed - before.shed,
            cache: CacheStats {
                hits: self.cache.hits - before.cache.hits,
                misses: self.cache.misses - before.cache.misses,
                bypasses: self.cache.bypasses - before.cache.bypasses,
                evictions: self.cache.evictions - before.cache.evictions,
                integrity_rejects: self.cache.integrity_rejects - before.cache.integrity_rejects,
            },
            retries: self.retries - before.retries,
            timeouts: self.timeouts - before.timeouts,
            ..self
        }
    }
}

fn run_pass(mode: Mode, args: &Args, st: &mut Setup) -> (Pass, Counters) {
    let before = Counters::read(&st.server);
    if st.traced {
        // Set-up and warm-up events are not the pass's.
        drop(st.server.drain_traces());
    }
    let drops = st.server.trace_drops();
    let mut pass = match mode {
        Mode::Open => drive_open(st, args),
        Mode::Closed => drive_closed(st, args),
    };
    if st.traced {
        pass.traces = st.server.drain_traces();
        pass.trace_drops = st.server.trace_drops() - drops;
    }
    (pass, Counters::read(&st.server).since(before))
}

/// Removes every session, so each client's removal is timed too.
fn teardown(mut st: Setup) -> Setup {
    for id in std::mem::take(&mut st.sessions) {
        st.remove(id);
    }
    st
}

/// Output checks: every handle resolved, and a seeded sample of frames
/// served as cache `Miss`/`Bypass` equals a direct render bitwise.
fn check_outputs(st: &Setup, pass: &Pass, seed: u64, out: &mut Outcome) {
    out.check(
        "every_handle_resolves",
        pass.unresolved == 0,
        format!(
            "{} of {} handles unresolved after {RESOLVE_TIMEOUT:?}",
            pass.unresolved,
            pass.requests.len()
        ),
    );
    let mut eligible: Vec<usize> = (0..pass.requests.len())
        .filter(|&i| {
            pass.requests[i]
                .ok()
                .is_some_and(|r| matches!(r.serve.cache, CacheOutcome::Miss | CacheOutcome::Bypass))
        })
        .collect();
    eligible.sort_by(|&a, &b| unit(seed, a as u64).total_cmp(&unit(seed, b as u64)));
    eligible.truncate(EXACTNESS_SAMPLE);
    let mismatched: Vec<usize> = eligible
        .iter()
        .copied()
        .filter(|&i| {
            let req = &pass.requests[i];
            let served = req.ok().expect("eligible frames are ok");
            let scene = &st.scenes[req.session % SCENES.len()];
            let camera = Camera::new(served.serve.tier.apply(intrinsics()), req.pose);
            let (direct, _) = Renderer::new(
                &scene.model,
                &scene.sources,
                crate::render::strategy(),
                scene.bounds,
                scene.background,
            )
            .render(&camera);
            !same_bits(&direct, &served.image)
        })
        .collect();
    out.check(
        "served_miss_eq_direct",
        !eligible.is_empty() && mismatched.is_empty(),
        format!(
            "{} sampled Miss/Bypass frames; mismatched request indices {mismatched:?}",
            eligible.len()
        ),
    );
}

fn same_bits(a: &Image, b: &Image) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(args: &Args, mode: Mode, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    if !trace {
        let (mut st, setup_s) = repeated_setup(|| Setup::new(mode, false));
        let (pass, _) = run_pass(mode, args, &mut st);
        check_outputs(&st, &pass, args.seed, &mut out);
        teardown(st);
        end_to_end(mode, &pass, setup_s, &mut out);
        return out;
    }
    let mut untraced = Setup::new(mode, false);
    let (base, _) = run_pass(mode, args, &mut untraced);
    teardown(untraced);
    let mut st = Setup::new(mode, true);
    let (pass, counters) = run_pass(mode, args, &mut st);
    check_outputs(&st, &pass, args.seed, &mut out);
    let st = teardown(st);
    layers(mode, &base, &pass, counters, &st, &mut out);
    out
}

fn latencies(pass: &Pass) -> Samples {
    Samples::new(pass.requests.iter().map(Request::latency_ms).collect())
}

fn end_to_end(mode: Mode, pass: &Pass, setup_s: f64, out: &mut Outcome) {
    let reqs = &pass.requests;
    let ok: Vec<&gen_nerf_serve::FrameResult> = reqs.iter().filter_map(Request::ok).collect();
    let interactive: Vec<&gen_nerf_serve::FrameResult> = reqs
        .iter()
        .filter(|r| r.deadline == DeadlineClass::Interactive)
        .filter_map(Request::ok)
        .collect();
    let quarter = interactive
        .iter()
        .filter(|r| r.serve.tier == ResolutionTier::Quarter)
        .count();
    let delivered = pass.completed_in_window as f64;
    let rays_per_frame =
        ok.iter().map(|r| r.image.pixel_count() as f64).sum::<f64>() / ok.len().max(1) as f64;
    let lat = latencies(pass);
    let failed = (reqs.len() - ok.len()) as u64;
    out.attempted = reqs.len() as u64;
    out.failed = failed;
    let degraded_frac = quarter as f64 / interactive.len().max(1) as f64;
    out.note(format!(
        "{mode:?} loop, {SESSIONS} sessions on {} scenes, {RES}x{RES}: latency {}",
        SCENES.len(),
        lat.describe("ms")
    ));
    out.note(format!(
        "failed_frac {:.6}; degraded_frac {degraded_frac:.6} ({quarter} of {} Interactive \
         frames at the Quarter tier)",
        failed as f64 / reqs.len().max(1) as f64,
        interactive.len()
    ));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    out.note(format!(
        "served frames: queue wait {}; render {}; batch size mean {:.3}",
        Samples::new(ok.iter().map(|r| ms(r.serve.queue_wait)).collect()).describe("ms"),
        Samples::new(ok.iter().map(|r| ms(r.serve.render_time)).collect()).describe("ms"),
        ok.iter()
            .map(|r| r.serve.batched_frames as f64)
            .sum::<f64>()
            / ok.len().max(1) as f64
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "ok_frac",
        ok.len() as f64 / reqs.len().max(1) as f64,
        "fraction",
    );
    out.metric("full_tier_frac", 1.0 - degraded_frac, "fraction");
    out.metric("frames_per_s", delivered / pass.window_s, "1/s");
    out.metric(
        "rays_per_s",
        delivered * rays_per_frame / pass.window_s,
        "1/s",
    );
    out.metric("latency_ms_p50", lat.median().unwrap_or(f64::NAN), "ms");
    out.metric(
        "sim_cycles",
        sim::simulate(&sim::spec(RES, RES)).total_cycles as f64,
        "cycles",
    );
}

/// Per-frame `submit → resolve − queue wait − render` from the traced
/// pass's lifecycle events, in µs, for frames that resolved ok.
fn resolve_us(events: &[TraceEvent]) -> Vec<f64> {
    #[derive(Default)]
    struct Life {
        queue_ns: u64,
        render_ns: u64,
        latency_ns: Option<u64>,
    }
    let mut lives: BTreeMap<u64, Life> = BTreeMap::new();
    for e in events {
        let life = lives.entry(e.frame).or_default();
        match e.kind {
            EventKind::Pop => life.queue_ns = e.a,
            EventKind::Render => life.render_ns += e.a,
            EventKind::Resolve if ResolveOutcome::from_code(e.a) == Some(ResolveOutcome::Ok) => {
                life.latency_ns = Some(e.b)
            }
            _ => {}
        }
    }
    lives
        .values()
        .filter_map(|l| {
            l.latency_ns
                .map(|t| t.saturating_sub(l.queue_ns + l.render_ns) as f64 / 1e3)
        })
        .collect()
}

fn layers(mode: Mode, base: &Pass, pass: &Pass, c: Counters, st: &Setup, out: &mut Outcome) {
    let reqs = &pass.requests;
    let ok: Vec<&gen_nerf_serve::FrameResult> = reqs.iter().filter_map(Request::ok).collect();
    out.attempted = reqs.len() as u64;
    out.failed = (reqs.len() - ok.len()) as u64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let submit = Samples::new(reqs.iter().filter_map(|r| r.submit_us).collect());
    let queue = Samples::new(ok.iter().map(|r| ms(r.serve.queue_wait)).collect());
    let render = Samples::new(ok.iter().map(|r| ms(r.serve.render_time)).collect());
    let resolve = Samples::new(resolve_us(&pass.traces));
    let mut stats = RenderStats::default();
    for r in &ok {
        stats.merge(&r.stats);
    }
    let per_frame = |v: u64| v as f64 / ok.len().max(1) as f64;
    let base_p50 = latencies(base).median().unwrap_or(f64::NAN);
    let traced_p50 = latencies(pass).median().unwrap_or(f64::NAN);
    out.note(format!(
        "{mode:?} loop traced pass: submit {}; queue wait {}; render {}; resolve {}",
        submit.describe("us"),
        queue.describe("ms"),
        render.describe("ms"),
        resolve.describe("us")
    ));
    out.note(format!(
        "tracing overhead: latency p50 {base_p50:.4} ms untraced vs {traced_p50:.4} ms traced; \
         {} lifecycle events drained, {} overwritten before the drain",
        pass.traces.len(),
        pass.trace_drops
    ));
    let tail =
        |out: &mut Outcome, name: &str, s: &Samples, unit| out.tail_metric(name, s, 0.9, unit);
    out.metric(
        "serve.admission.submit_us_p50",
        submit.median().unwrap_or(f64::NAN),
        "us",
    );
    tail(out, "serve.admission.submit_us_p90", &submit, "us");
    out.metric("serve.admission.admitted", c.admitted as f64, "count");
    out.metric("serve.admission.degraded", c.degraded as f64, "count");
    out.metric("serve.admission.shed", c.shed as f64, "count");
    out.metric(
        "serve.shard.queue_wait_ms_p50",
        queue.median().unwrap_or(f64::NAN),
        "ms",
    );
    tail(out, "serve.shard.queue_wait_ms_p90", &queue, "ms");
    out.metric(
        "serve.shard.render_ms_p50",
        render.median().unwrap_or(f64::NAN),
        "ms",
    );
    out.metric(
        "serve.shard.resolve_us_p50",
        resolve.median().unwrap_or(f64::NAN),
        "us",
    );
    tail(out, "serve.shard.resolve_us_p90", &resolve, "us");
    out.metric(
        "serve.shard.batch_frames_mean",
        ok.iter()
            .map(|r| r.serve.batched_frames as f64)
            .sum::<f64>()
            / ok.len().max(1) as f64,
        "count",
    );
    out.metric(
        "serve.session.cache_hit_frac",
        c.cache.hit_rate(),
        "fraction",
    );
    out.metric(
        "serve.session.cache_inserts",
        c.cache.misses as f64,
        "count",
    );
    out.metric(
        "serve.session.cache_evictions",
        c.cache.evictions as f64,
        "count",
    );
    out.metric(
        "serve.session.create_us",
        Samples::new(st.create_us.clone())
            .median()
            .unwrap_or(f64::NAN),
        "us",
    );
    out.metric(
        "serve.session.remove_ms",
        Samples::new(st.remove_ms.clone())
            .median()
            .unwrap_or(f64::NAN),
        "ms",
    );
    out.metric("serve.governor.peak_bytes", c.peak_bytes as f64, "bytes");
    out.metric(
        "serve.governor.refused_inserts",
        c.refused_inserts as f64,
        "count",
    );
    out.metric("serve.supervisor.retries", c.retries as f64, "count");
    out.metric("serve.supervisor.timeouts", c.timeouts as f64, "count");
    for bucket in ["acquire", "mlp", "ray_module", "others"] {
        out.metric(
            format!("pipeline.flops.{bucket}"),
            per_frame(stats.flops.get(bucket)),
            "FLOP",
        );
    }
    out.metric(
        "pipeline.points_per_ray",
        stats.avg_points_per_ray(),
        "count",
    );
    out.metric(
        "pipeline.feature_fetches",
        per_frame(stats.feature_fetches),
        "count",
    );
    out.metric(
        "trace.overhead_frac",
        traced_p50 / base_p50 - 1.0,
        "fraction",
    );
    if mode == Mode::Open {
        let late = reqs
            .iter()
            .map(|r| ms(r.submitted - r.due))
            .fold(0.0, f64::max);
        out.note(format!(
            "loadgen.late_ms_max {late:.6} ms (the load generator's latest submission; \
             printed, not reported)"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(p: &Pose) -> [u32; 3] {
        [
            p.origin.x.to_bits(),
            p.origin.y.to_bits(),
            p.origin.z.to_bits(),
        ]
    }

    #[test]
    fn open_schedule_is_fixed_by_the_seed() {
        let a = open_schedule(7, 4);
        let b = open_schedule(7, 4);
        assert_eq!(a.len(), 200);
        let last = a.last().map_or(0.0, |x| x.at_ms);
        assert!(
            (last - 4000.0).abs() < 1e-6,
            "last arrival due at {last} ms"
        );
        assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_ms.to_bits(), y.at_ms.to_bits());
            assert_eq!((x.session, x.deadline), (y.session, y.deadline));
            assert_eq!(bits(&x.pose), bits(&y.pose));
        }
        let c = open_schedule(8, 4);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.at_ms.to_bits() != y.at_ms.to_bits()));
        let best_effort = a
            .iter()
            .filter(|x| x.deadline == DeadlineClass::BestEffort)
            .count();
        assert!(
            (25..=75).contains(&best_effort),
            "{best_effort} BestEffort of 200"
        );
    }

    #[test]
    fn closed_poses_are_fixed_by_the_seed_and_jump() {
        assert_eq!(bits(&closed_pose(3, 1, 5)), bits(&closed_pose(3, 1, 5)));
        assert_ne!(bits(&closed_pose(3, 1, 5)), bits(&closed_pose(4, 1, 5)));
        assert_ne!(bits(&closed_pose(3, 1, 5)), bits(&closed_pose(3, 2, 5)));
        // Consecutive frames of one client land far apart (beyond the
        // 0.05 coherence radius) nearly always.
        let far = (0..100)
            .filter(|&k| {
                let (a, b) = (closed_pose(3, 0, k), closed_pose(3, 0, k + 1));
                (a.origin - b.origin).length() > 0.05
            })
            .count();
        assert!(far >= 95, "{far} of 100 steps jump");
    }
}
