//! `chip_eco`: windowed full-chip extraction, cold and then as an ECO.
//!
//! One op is a cold `ChipExtractor::extract` of bus 10×10 in 3×3 windows
//! (halo 1 µm, one worker, the `accelerated(true)` extractor) on fresh
//! caches; each op is followed by a `reextract` after nudging `mx0`
//! against the window cache the op just filled — `eco_p50_s`. The only
//! workload on the `accel` table primitives.

use std::sync::Arc;

use bemcap_accel::fastmath;
use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::TemplateIndex;
use bemcap_core::metrics::metrics;
use bemcap_core::{ChipExtraction, ChipExtractor, Extractor, TemplateCache};
use bemcap_geom::{Conductor, Geometry, GeometryDiff, Layout, PartitionConfig, Point3};
use bemcap_quad::galerkin::{GalerkinConfig, GalerkinEngine};

use super::{
    finish_trace, jittered_bus, pair_triangle_s, peak_rss_mb, set_op_metrics, set_up, timed, Ctx,
    Outcome, Window,
};
use crate::check;
use crate::spans::Recorder;
use crate::stats;

/// How far the ECO moves `mx0` down, away from the upper layer.
const NUDGE: f64 = 0.05e-6;

struct Inputs {
    geo: Geometry,
    /// `geo` after the ECO.
    revised: Geometry,
    diff: GeometryDiff,
    partition: PartitionConfig,
}

fn extractor() -> Extractor {
    Extractor::new().accelerated(true)
}

impl Inputs {
    /// A chip extractor on fresh caches, and its pair-integral cache.
    fn fresh_chip(&self) -> (ChipExtractor, Arc<TemplateCache>) {
        let cache = Arc::new(TemplateCache::unbounded());
        let chip = ChipExtractor::new(extractor())
            .partition_config(self.partition)
            .workers(1)
            .shared_cache(Arc::clone(&cache));
        (chip, cache)
    }
}

fn nudged(geo: &Geometry) -> Geometry {
    let conductors = geo
        .conductors()
        .iter()
        .map(|c| {
            let shift = if c.name() == "mx0" { -NUDGE } else { 0.0 };
            c.boxes().iter().fold(Conductor::new(c.name()), |nc, b| {
                nc.with_box(b.translated(Point3::new(0.0, 0.0, shift)))
            })
        })
        .collect();
    Geometry::new(conductors).with_eps_rel(geo.eps_rel())
}

fn build(ctx: &Ctx) -> Inputs {
    let (side, grid) = ctx.size((10, 3), (3, 2));
    let geo = jittered_bus(&mut ctx.rng("chip_eco"), side, side);
    let revised = nudged(&geo);
    let inputs = Inputs {
        diff: GeometryDiff::between(&geo, &revised),
        geo,
        revised,
        partition: PartitionConfig { nx: grid, ny: grid, halo: 1.0e-6 },
    };
    // Warm-up op (it also builds the accel tables), both legs.
    let (chip, _) = inputs.fresh_chip();
    chip.extract(&inputs.geo).expect("warm-up extraction");
    chip.reextract(&inputs.revised, &inputs.diff).expect("warm-up re-extraction");
    inputs
}

/// The stored entries with their values as bit patterns.
fn bits(extraction: &ChipExtraction) -> Vec<(usize, usize, u64)> {
    extraction.capacitance().matrix().iter().map(|(i, j, v)| (i, j, v.to_bits())).collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, inp) = set_up(ctx, || build(ctx));

    let mut rec = Recorder::new();
    let (mut cold, mut eco) = (Vec::new(), Vec::new());
    let (mut traced_cold, mut traced_eco) = (Vec::new(), Vec::new());
    let mut resident_bytes = 0;
    let m = metrics();
    let counters = || {
        [
            m.template_cache_hits.get(),
            m.template_cache_misses.get(),
            m.template_cache_evictions.get(),
            m.chip_stitch_nanos.get(),
        ]
    };
    let before = counters();
    let window = Window::begin(ctx.seconds);
    while window.open() {
        {
            let (chip, cache) = inp.fresh_chip();
            match (
                timed(|| chip.extract(&inp.geo)),
                timed(|| chip.reextract(&inp.revised, &inp.diff)),
            ) {
                ((tc, Ok(c)), (te, Ok(e))) => {
                    cold.push((tc, c));
                    eco.push((te, e));
                }
                ((_, c), (_, e)) => {
                    let why = c.err().or(e.err()).expect("one extraction failed");
                    out.check("chip extract", Err(why.to_string()));
                }
            }
            resident_bytes = cache.resident_bytes();
        }
        if ctx.trace {
            // The windowing is one public call, so the traced op is that
            // call under a span; the ECO leg adds the diff it starts from.
            let (chip, _) = inp.fresh_chip();
            let op_id = traced_cold.len() as u64;
            let root = rec.begin_op(op_id, "op");
            traced_cold.push(
                rec.span("core.chip.extract", || chip.extract(&inp.geo))
                    .expect("traced extraction"),
            );
            rec.exit(root);
            let root = rec.begin_op(op_id, "leg");
            let diff =
                rec.span("geom.layout.diff", || GeometryDiff::between(&inp.geo, &inp.revised));
            traced_eco.push(
                rec.span("core.chip.reextract", || chip.reextract(&inp.revised, &diff))
                    .expect("traced ECO"),
            );
            rec.exit(root);
        }
    }
    let after = counters();
    let rss = peak_rss_mb();
    if cold.is_empty() {
        out.fail("no op completed".into());
        return out;
    }
    let op_times: Vec<f64> = cold.iter().map(|r| r.0).collect();
    set_op_metrics(&mut out, setup_s, &op_times);
    out.set("peak_rss_mb", rss);
    out.set_median("eco_p50_s", &eco.iter().map(|r| r.0).collect::<Vec<_>>());

    // Verification: every stitched matrix (symmetric only as far as two
    // windows agree), repeats bit for bit, then cold and ECO results
    // against monolithic extractions of the same layouts.
    let mut worst = 0.0_f64;
    for (what, geo, plain, traced) in
        [("cold op", &inp.geo, &cold, &traced_cold), ("ECO leg", &inp.revised, &eco, &traced_eco)]
    {
        let first = &plain[0].1;
        let first_bits = bits(first);
        for c in plain.iter().map(|r| &r.1).chain(traced) {
            out.check(
                what,
                check::invariants(c.capacitance().matrix(), ctx.workload.tolerance).and_then(
                    |()| {
                        (bits(c) == first_bits)
                            .then_some(())
                            .ok_or_else(|| "result differs between repeats".to_string())
                    },
                ),
            );
        }
        let monolithic = extractor().extract(geo).expect("monolithic reference");
        worst = worst.max(check::max_scaled_err(
            first.capacitance().matrix(),
            monolithic.capacitance().matrix(),
        ));
    }
    out.set_rel_err(ctx, worst);

    if ctx.trace {
        finish_trace(ctx, &mut out, &rec, &op_times);
        let delta = |i: usize| (after[i] - before[i]) as f64;
        let runs = (cold.len() + eco.len() + traced_cold.len() + traced_eco.len()) as f64;
        out.set("core.cache.hit_ratio", delta(0) / (delta(0) + delta(1)));
        out.set("core.cache.evictions", delta(2));
        out.set("core.cache.resident_mb", resident_bytes as f64 / f64::from(1 << 20));
        out.set("core.chip.stitch_s", delta(3) * 1e-9 / runs);
        let report = eco[0].1.report();
        out.set("core.chip.windows", report.windows as f64);
        out.set("core.chip.extracted", report.extracted as f64);
        out.set("core.chip.reused", report.reused as f64);
        out.set(
            "core.chip.window_hit_ratio",
            report.reused as f64 / (report.extracted + report.reused) as f64,
        );
        out.set_median("geom.layout.diff_s", &rec.durations("geom.layout.diff"));
        layer_metrics(&mut out, &inp);
    }
    out
}

/// `geom.layout.partition_s` and the `accel.fastmath.*` pair: the full
/// template-pair triangle of the chip's largest window, once with the
/// exact primitives and once with the table primitives the workload uses.
fn layer_metrics(out: &mut Outcome, inp: &Inputs) {
    let partition = |geo: &Geometry| {
        let layout = Layout::new(geo.clone()).expect("layout");
        let part = layout.partition(&inp.partition).expect("partition");
        (layout, part)
    };
    out.set_median(
        "geom.layout.partition_s",
        &(0..5).map(|_| timed(|| partition(&inp.geo)).0).collect::<Vec<_>>(),
    );
    let (layout, part) = partition(&inp.geo);
    let largest = part.windows().iter().max_by_key(|w| w.members().len()).expect("a window");
    let set = instantiate(&largest.geometry(&layout), &InstantiateConfig::default())
        .expect("instantiate");
    let index = TemplateIndex::new(&set);
    fastmath::warm_tables();
    let exact = GalerkinEngine::new(GalerkinConfig::default());
    let table = GalerkinEngine::new(GalerkinConfig::default())
        .with_primitives(fastmath::fast_double_primitive, fastmath::fast_quad_primitive)
        .with_triple_primitive(fastmath::fast_triple_primitive);
    // Alternate the engines so drift of the box hits both alike.
    let (mut exact_s, mut table_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        exact_s.push(pair_triangle_s(&exact, &index));
        table_s.push(pair_triangle_s(&table, &index));
    }
    let pairs = (index.template_count() * (index.template_count() + 1) / 2) as f64;
    out.set("accel.fastmath.template_pair_ns", stats::median(&table_s) * 1e9 / pairs);
    out.set("accel.fastmath.speedup", stats::median(&exact_s) / stats::median(&table_s));
}
