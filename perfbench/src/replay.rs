//! The layer replay: one coarse-then-focus frame rendered on one
//! thread through the public per-layer calls, with a span around each
//! call, so the frame's time splits into the paper's Fig. 2 buckets.
//!
//! The replay follows the fused schedule of `gen_nerf::pipeline` at one
//! thread (one chunk holding every ray): Step ① aggregates every ray's
//! coarse samples into an arena and runs the coarse MLP once; Step ②
//! allocates the focused budget across rays; Step ③ importance-samples
//! each ray, aggregates the focused points, runs the point MLP, the
//! ray module and the blend head once over the arena, and composites
//! per ray. The image and the ray/point counts are compared with the
//! `Renderer`'s, so the ledger is known to time the frame the renderer
//! actually renders.
//!
//! Spans are aggregated per layer in memory (a frame makes tens of
//! thousands of calls) and read out after the run.

use gen_nerf::config::SamplingStrategy;
use gen_nerf::features::{aggregate_ray_into, AggregateArena, AggregateView, SourceViewData};
use gen_nerf::model::{density_from_logit, GenNerfModel, MlpScratch, RayModuleScratch};
use gen_nerf::pipeline::RayBatch;
use gen_nerf::sampling;
use gen_nerf_geometry::{Aabb, Camera, Ray, Vec3};
use gen_nerf_nn::init::Rng;
use gen_nerf_nn::Tensor2;
use gen_nerf_scene::renderer::{composite, composite_into};
use gen_nerf_scene::Image;
use std::time::Instant;

/// The layers the replay times, named after their modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `features::aggregate_ray_into` (projection + bilinear fetch),
    /// coarse and focused.
    Acquire,
    /// `GenNerfModel::coarse_densities_arena`.
    Coarse,
    /// `Mlp::forward_inference_into` of the point MLP.
    PointMlp,
    /// Per-ray `f^σ` slicing + `RayModule::forward_inference_batch_scratch`.
    RayModule,
    /// Blend-head input gather, `Mlp::forward_inference_into` of the
    /// blend head, and the per-point softmax/residual assembly.
    Blend,
    /// `sampling::critical_count`, `allocate_focused`, `uniform_edges`
    /// and `importance_sample`.
    FocusAlloc,
    /// `renderer::composite` (coarse weights) and `composite_into`.
    Composite,
}

/// Per-layer span totals.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    on: bool,
    ns: [u64; 7],
}

impl Spans {
    /// `on = false` skips the clock reads entirely (the untraced
    /// replay that measures tracing overhead).
    pub fn new(on: bool) -> Self {
        Self { on, ns: [0; 7] }
    }

    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.ns[layer as usize] += t0.elapsed().as_nanos() as u64;
        r
    }

    /// Total span time of `layer`, in nanoseconds.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// What one replayed frame produced.
#[derive(Debug, Clone)]
pub struct ReplayFrame {
    pub image: Image,
    pub rays: u64,
    pub points: u64,
    pub coarse_points: u64,
    /// Wall time of Step ①.
    pub coarse_ns: u64,
    /// Wall time of Steps ② and ③, composite included.
    pub focus_ns: u64,
}

/// The per-ray random stream seed of the render pipeline: the
/// renderer's base seed mixed with the frame-local ray index
/// (SplitMix64 finalizer). It mirrors the pipeline's private helper;
/// the image comparison with the `Renderer` fails if they drift apart.
fn ray_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The renderer's base seed for a model (see `Renderer::new`).
fn base_seed(model: &GenNerfModel) -> u64 {
    model.config.seed ^ 0x5eed_5a3e
}

/// One worker's reusable buffers, kept across frames like the
/// pipeline's thread-local worker scratch.
#[derive(Default)]
struct Scratch {
    arena: AggregateArena,
    coarse: MlpScratch,
    mlp: MlpScratch,
    blend: MlpScratch,
    ray_module: RayModuleScratch,
    f_sigma: Vec<Tensor2>,
    blend_in: Tensor2,
    softmax: Vec<f32>,
    deltas: Vec<f32>,
    weights: Vec<f32>,
}

pub struct Replay<'a> {
    model: &'a GenNerfModel,
    sources: &'a [SourceViewData],
    n_coarse: usize,
    n_focused: usize,
    tau: f32,
    s_coarse: usize,
    bounds: Aabb,
    background: Vec3,
    scratch: Scratch,
}

impl<'a> Replay<'a> {
    /// # Panics
    ///
    /// Panics unless `strategy` is coarse-then-focus.
    pub fn new(
        model: &'a GenNerfModel,
        sources: &'a [SourceViewData],
        strategy: SamplingStrategy,
        bounds: Aabb,
        background: Vec3,
    ) -> Self {
        let SamplingStrategy::CoarseThenFocus {
            n_coarse,
            n_focused,
            tau,
            s_coarse,
        } = strategy
        else {
            panic!("the replay covers the coarse-then-focus strategy only");
        };
        Self {
            model,
            sources,
            n_coarse,
            n_focused,
            tau,
            s_coarse,
            bounds,
            background,
            scratch: Scratch::default(),
        }
    }

    pub fn frame(&mut self, camera: &Camera, spans: &mut Spans) -> ReplayFrame {
        let cfg = &self.model.config;
        let model = self.model;
        let s = &mut self.scratch;
        let batch = RayBatch::from_camera(camera, &self.bounds);
        let n = batch.len();

        // Step ①: coarse probing.
        let t_coarse = Instant::now();
        let coarse_sources = &self.sources[..self.s_coarse.min(self.sources.len())];
        let dc = cfg.coarse_channels;
        s.arena.reset(coarse_sources.len(), dc);
        let mut coarse_points = 0u64;
        let mut coarse_depths: Vec<Vec<f32>> = Vec::with_capacity(n);
        for j in 0..n {
            let Some((t0, t1)) = batch.ranges[j] else {
                s.arena.seal_ray();
                coarse_depths.push(Vec::new());
                continue;
            };
            let depths = Ray::uniform_depths(t0, t1, self.n_coarse);
            let arena = &mut s.arena;
            spans.time(Layer::Acquire, || {
                aggregate_ray_into(&batch.rays[j], &depths, coarse_sources, dc, arena)
            });
            coarse_points += depths.len() as u64;
            coarse_depths.push(depths);
        }
        let densities = {
            let (arena, coarse) = (&s.arena, &mut s.coarse);
            spans.time(Layer::Coarse, || {
                model.coarse_densities_arena(arena, coarse)
            })
        };
        let mut hit_weights: Vec<Vec<f32>> = Vec::with_capacity(n);
        let mut criticals: Vec<usize> = Vec::with_capacity(n);
        for j in 0..n {
            let Some((_, t1)) = batch.ranges[j] else {
                hit_weights.push(Vec::new());
                criticals.push(0);
                continue;
            };
            let deltas = Ray::interval_widths(&coarse_depths[j], t1);
            let dummy = vec![Vec3::ZERO; densities[j].len()];
            let comp = spans.time(Layer::Composite, || {
                composite(&densities[j], &dummy, &deltas, Vec3::ZERO)
            });
            let tau = self.tau;
            criticals.push(spans.time(Layer::FocusAlloc, || {
                sampling::critical_count(&comp.weights, tau)
            }));
            hit_weights.push(comp.weights);
        }
        let coarse_ns = t_coarse.elapsed().as_nanos() as u64;

        // Step ②: the cross-ray budget.
        let t_focus = Instant::now();
        let budget = self.n_focused * n;
        let counts = spans.time(Layer::FocusAlloc, || {
            sampling::allocate_focused(&criticals, budget, cfg.n_max)
        });

        // Step ③: focused sampling + aggregation.
        let d = cfg.d_features;
        s.arena.reset(self.sources.len(), d);
        let seed = base_seed(model);
        let mut points = 0u64;
        let mut focus_depths: Vec<Option<Vec<f32>>> = Vec::with_capacity(n);
        for j in 0..n {
            let depths = batch.ranges[j].filter(|_| counts[j] > 0).map(|(t0, t1)| {
                spans.time(Layer::FocusAlloc, || {
                    let edges = sampling::uniform_edges(t0, t1, self.n_coarse);
                    let mut rng = Rng::seed_from(ray_seed(seed, j as u64));
                    sampling::importance_sample(&edges, &hit_weights[j], counts[j], &mut rng)
                })
            });
            match &depths {
                Some(dep) => {
                    let arena = &mut s.arena;
                    spans.time(Layer::Acquire, || {
                        aggregate_ray_into(&batch.rays[j], dep, self.sources, d, arena)
                    });
                    points += dep.len() as u64;
                }
                None => s.arena.seal_ray(),
            }
            focus_depths.push(depths);
        }

        // Step ③: the fused forward, one layer at a time.
        let outputs = forward(model, s, spans);

        // Step ③: per-ray composite.
        let mut image = Image::new(batch.width, batch.height);
        for j in 0..n {
            let color = match (&focus_depths[j], batch.ranges[j]) {
                (Some(depths), Some((_, t1))) if !depths.is_empty() => {
                    let (dens, cols) = &outputs[j];
                    let (deltas, weights) = (&mut s.deltas, &mut s.weights);
                    let background = self.background;
                    spans.time(Layer::Composite, || {
                        Ray::interval_widths_into(depths, t1, deltas);
                        composite_into(dens, cols, deltas, background, weights).0
                    })
                }
                _ => self.background,
            };
            image.set(j as u32 % batch.width, j as u32 / batch.width, color);
        }
        ReplayFrame {
            image,
            rays: n as u64,
            points,
            coarse_points,
            coarse_ns,
            focus_ns: t_focus.elapsed().as_nanos() as u64,
        }
    }
}

/// The fused forward over the focused arena, split at the public layer
/// calls: point MLP, ray module, blend head. Returns per-ray
/// `(densities, colors)`.
fn forward(model: &GenNerfModel, s: &mut Scratch, spans: &mut Spans) -> Vec<(Vec<f32>, Vec<Vec3>)> {
    let arena = &s.arena;
    let n_rays = arena.n_rays();
    if arena.total_points() == 0 {
        return vec![(Vec::new(), Vec::new()); n_rays];
    }
    let d_sigma = model.config.d_sigma;
    let mlp = &mut s.mlp;
    spans.time(Layer::PointMlp, || {
        model.point_mlp.forward_inference_into(arena.stats(), mlp)
    });
    let y = &s.mlp.out;

    let (f_sigma, ray_module) = (&mut s.f_sigma, &mut s.ray_module);
    let logits = spans.time(Layer::RayModule, || {
        if f_sigma.len() < n_rays {
            f_sigma.resize_with(n_rays, Tensor2::default);
        }
        for (i, slice) in f_sigma.iter_mut().take(n_rays).enumerate() {
            let range = arena.ray_range(i);
            slice.reset_zeroed(range.len(), d_sigma);
            for (r, k) in range.enumerate() {
                slice.row_mut(r).copy_from_slice(&y.row(k)[..d_sigma]);
            }
        }
        model
            .ray_module
            .forward_inference_batch_scratch(&f_sigma[..n_rays], ray_module)
    });

    let (blend_in, blend, softmax) = (&mut s.blend_in, &mut s.blend, &mut s.softmax);
    spans.time(Layer::Blend, || {
        blend_in.reset_zeroed(arena.valid_pairs().max(1), 2);
        let mut pr = 0;
        for k in 0..arena.total_points() {
            let inputs = arena.blend_inputs_row(k);
            for (i, &ok) in arena.valid_row(k).iter().enumerate() {
                if ok {
                    blend_in.row_mut(pr).copy_from_slice(&inputs[i]);
                    pr += 1;
                }
            }
        }
        model.blend.forward_inference_into(blend_in, blend);
        let blend_logits = &blend.out;
        let mut outputs = Vec::with_capacity(n_rays);
        let mut pair = 0;
        for (i, ray_logits) in logits.iter().enumerate() {
            let range = arena.ray_range(i);
            let mut densities = Vec::with_capacity(range.len());
            let mut colors = Vec::with_capacity(range.len());
            for (kk, k) in range.enumerate() {
                let m = arena.n_valid(k);
                if m == 0 {
                    densities.push(0.0);
                    colors.push(Vec3::ZERO);
                    continue;
                }
                densities.push(density_from_logit(ray_logits[kk]));
                let max = (pair..pair + m)
                    .map(|p| blend_logits[(p, 0)])
                    .fold(f32::NEG_INFINITY, f32::max);
                softmax.clear();
                softmax.extend((pair..pair + m).map(|p| (blend_logits[(p, 0)] - max).exp()));
                let total: f32 = softmax.iter().sum();
                softmax.iter_mut().for_each(|w| *w /= total);
                let mut blended = Vec3::ZERO;
                let mut wi = 0;
                for (v, &ok) in arena.valid_row(k).iter().enumerate() {
                    if ok {
                        blended += arena.view_colors_row(k)[v] * softmax[wi];
                        wi += 1;
                    }
                }
                pair += m;
                let resid = Vec3::new(
                    0.1 * y[(k, d_sigma)].tanh(),
                    0.1 * y[(k, d_sigma + 1)].tanh(),
                    0.1 * y[(k, d_sigma + 2)].tanh(),
                );
                colors.push((blended + resid).clamp(0.0, 1.0));
            }
            outputs.push((densities, colors));
        }
        outputs
    })
}
