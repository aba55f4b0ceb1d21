//! The one table of workloads and metrics. `BENCHMARK.json`, `benchmark
//! list`, the emitted records and `benchmark compare` all read it, so a
//! name, unit, direction or bound is written exactly once.

use serde_json::{json, Value};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

pub const BUS_INST: &str = "bus_inst";
pub const DENSE_LU: &str = "dense_lu";
pub const KRYLOV_MID: &str = "krylov_mid";
pub const CHIP_ECO: &str = "chip_eco";
pub const SERVE_WARM: &str = "serve_warm";
pub const SERVE_COLD: &str = "serve_cold";

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Largest `max_rel_err` against the workload's reference; exceeding
    /// it fails the run. From the cross-validation suites under `tests/`:
    /// 0.3 instantiable vs dense and 3e-2 FMM/pFFT vs dense
    /// (`solver_cross_validation.rs`), bit identity over the wire
    /// (`serve_daemon.rs`). The instantiable band is halved because the
    /// benchmark's 5 % coupling floor reads 0.09 where the suite's single
    /// coupling reads up to 0.3. `chip_properties.rs` holds a 2x2 split of
    /// bus 3x3 at halo 2 µm to 0.05 of the diagonal scale; the benchmark's
    /// 3x3 split of bus 10x10 at halo 1 µm, where every wire crosses three
    /// windows, reads 0.097 by the same measure and gets 0.15.
    pub tolerance: f64,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: BUS_INST,
        why: "The paper's method on the Fig. 8 crossing bus 8x8: pair integrals, condensation and \
              assembly do >98% of the work and LU <1%; a Threads(2) leg gives the speed-up",
        tolerance: 0.15,
    },
    Workload {
        name: DENSE_LU,
        why:
            "Dense piecewise-constant extraction of bus 20x20 (N=1360): dense fill plus O(N^3) LU, \
              the only workload where the factorization shows; no templates",
        tolerance: 0.03,
    },
    Workload {
        name: KRYLOV_MID,
        why: "FMM then pFFT extraction of bus 8x8 (N=544), the Fig. 8 baselines: operator apply, \
              GMRES and the dot/axpy/spmv kernels; no LU, no templates",
        tolerance: 0.03,
    },
    Workload {
        name: CHIP_ECO,
        why: "Windowed chip extraction cold, then an ECO re-extraction against the warm window \
              cache: partition, stitch, both caches, and the accel table primitives",
        tolerance: 0.15,
    },
    Workload {
        name: SERVE_WARM,
        why:
            "Closed loop, 2 clients through bemcaprd to 2 bemcapd with hot caches: codec, framing, \
              executor queue, cache reads, relay and digest affinity dominate",
        tolerance: 0.0,
    },
    Workload {
        name: SERVE_COLD,
        why: "Same stack, every request a never-seen geometry and 1 MiB caches: cache inserts and \
              evictions, compute-bound latency, no affinity gain",
        tolerance: 0.0,
    },
];

const ALL: &[&str] = &[BUS_INST, DENSE_LU, KRYLOV_MID, CHIP_ECO, SERVE_WARM, SERVE_COLD];
const SOLVERS: &[&str] = &[BUS_INST, DENSE_LU, KRYLOV_MID];
const MESHED: &[&str] = &[DENSE_LU, KRYLOV_MID];
const SERVE: &[&str] = &[SERVE_WARM, SERVE_COLD];
const CACHED: &[&str] = &[CHIP_ECO, SERVE_WARM, SERVE_COLD];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far an end-to-end metric may worsen before it is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline median.
    Relative(f64),
    /// The value itself may not exceed the workload's tolerance
    /// (`max_rel_err`) or zero (`failed_share`); a run beyond it fails.
    Absolute,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some` for the end-to-end metrics, `None` for per-layer ones.
    pub bound: Option<Bound>,
    /// The workloads that measure it.
    pub workloads: &'static [&'static str],
}

impl Metric {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.contains(&workload)
    }

    /// Whether the driver gates it: `BENCHMARK.json` lists under
    /// `end_to_end` only metrics every workload emits and that are never
    /// zero; the rest of the end-to-end table travels under `per_layer`.
    pub fn gated(&self) -> bool {
        matches!(self.bound, Some(Bound::Relative(_))) && self.workloads.len() == ALL.len()
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    workloads: &'static [&'static str],
) -> Metric {
    Metric { name, unit, better, bound: Some(bound), workloads }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> Metric {
    Metric { name, unit, better, bound: None, workloads }
}

use Better::{Higher, Lower};

/// The nine end-to-end metrics. A metric has one bound for all its
/// workloads, so the noisiest one sets it: on this 2-core box the serving
/// workloads (2 clients, a router and 2 daemons on 2 cores) spread 7-12 %
/// between runs of one seed in time, rate and — through allocator arenas
/// — resident memory, and twice the window does not narrow it. The
/// metrics that include them carry 25 %; the two that do not keep 10 %.
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", Lower, Bound::Relative(0.25), ALL),
    e2e("op_p50_s", "s", Lower, Bound::Relative(0.25), ALL),
    e2e("op_p95_s", "s", Lower, Bound::Relative(0.25), SERVE),
    e2e("ops_per_s", "1/s", Higher, Bound::Relative(0.25), ALL),
    e2e("par_speedup", "ratio", Higher, Bound::Relative(0.10), &[BUS_INST]),
    e2e("eco_p50_s", "s", Lower, Bound::Relative(0.10), &[CHIP_ECO]),
    e2e("max_rel_err", "ratio", Lower, Bound::Absolute, ALL),
    e2e("failed_share", "ratio", Lower, Bound::Absolute, ALL),
    e2e("peak_rss_mb", "MiB", Lower, Bound::Relative(0.25), ALL),
];

/// The per-layer ledger, named `<crate>.<module>.<what>`.
pub const PER_LAYER: [Metric; 66] = [
    layer("geom.mesh.build_s", "s", Lower, MESHED),
    layer("geom.mesh.panels", "count", Lower, MESHED),
    layer("geom.io.write_s", "s", Lower, SERVE),
    layer("geom.io.parse_s", "s", Lower, SERVE),
    layer("geom.io.bytes", "count", Lower, SERVE),
    layer("geom.layout.partition_s", "s", Lower, &[CHIP_ECO]),
    layer("geom.layout.diff_s", "s", Lower, &[CHIP_ECO]),
    layer("basis.instantiate.s", "s", Lower, &[BUS_INST]),
    layer("basis.instantiate.templates", "count", Lower, &[BUS_INST]),
    layer("basis.instantiate.basis_fns", "count", Lower, &[BUS_INST]),
    layer("basis.condense.index_s", "s", Lower, &[BUS_INST]),
    layer("quad.galerkin.template_pair_ns", "ns", Lower, &[BUS_INST]),
    layer("quad.galerkin.pairs", "count", Lower, &[BUS_INST]),
    layer("quad.galerkin.panel_pair_ns", "ns", Lower, &[DENSE_LU]),
    layer("accel.fastmath.template_pair_ns", "ns", Lower, &[CHIP_ECO]),
    layer("accel.fastmath.speedup", "ratio", Higher, &[CHIP_ECO]),
    layer("core.assembly.sequential_s", "s", Lower, &[BUS_INST]),
    layer("core.assembly.condense_s", "s", Lower, &[BUS_INST]),
    layer("core.assembly.phi_s", "s", Lower, &[BUS_INST]),
    layer("core.assembly.threaded_s", "s", Lower, &[BUS_INST]),
    layer("core.assembly.worker_busy_max_s", "s", Lower, &[BUS_INST]),
    layer("core.assembly.merge_s", "s", Lower, &[BUS_INST]),
    layer("core.assembly.imbalance", "ratio", Lower, &[BUS_INST]),
    layer("par.pool.spawn_join_s", "s", Lower, &[BUS_INST]),
    layer("core.backend.prepare_s", "s", Lower, SOLVERS),
    layer("core.backend.solve_s", "s", Lower, SOLVERS),
    layer("core.solver.dense_assemble_s", "s", Lower, &[DENSE_LU]),
    layer("core.solver.solve_capacitance_s", "s", Lower, &[DENSE_LU]),
    layer("linalg.lu.factor_s", "s", Lower, &[DENSE_LU]),
    layer("linalg.lu.solve_s", "s", Lower, &[DENSE_LU]),
    layer("linalg.lu.factor_gflops", "gflop/s", Higher, &[DENSE_LU]),
    layer("linalg.kernels.dot_ns_per_elem", "ns", Lower, MESHED),
    layer("linalg.kernels.axpy_ns_per_elem", "ns", Lower, MESHED),
    layer("linalg.krylov.iterations", "count", Lower, &[KRYLOV_MID]),
    layer("linalg.krylov.self_s", "s", Lower, &[KRYLOV_MID]),
    layer("fmm.operator.build_s", "s", Lower, &[KRYLOV_MID]),
    layer("fmm.operator.apply_s", "s", Lower, &[KRYLOV_MID]),
    layer("fmm.operator.near_share", "ratio", Lower, &[KRYLOV_MID]),
    layer("fmm.solve.iterations", "count", Lower, &[KRYLOV_MID]),
    layer("pfft.operator.build_s", "s", Lower, &[KRYLOV_MID]),
    layer("pfft.operator.apply_s", "s", Lower, &[KRYLOV_MID]),
    layer("pfft.operator.fft_share", "ratio", Lower, &[KRYLOV_MID]),
    layer("pfft.solve.iterations", "count", Lower, &[KRYLOV_MID]),
    layer("core.chip.windows", "count", Lower, &[CHIP_ECO]),
    layer("core.chip.extracted", "count", Lower, &[CHIP_ECO]),
    layer("core.chip.reused", "count", Higher, &[CHIP_ECO]),
    layer("core.chip.window_hit_ratio", "ratio", Higher, &[CHIP_ECO]),
    layer("core.chip.stitch_s", "s", Lower, &[CHIP_ECO]),
    layer("core.cache.hit_ratio", "ratio", Higher, CACHED),
    layer("core.cache.evictions", "count", Lower, CACHED),
    layer("core.cache.resident_mb", "MiB", Lower, CACHED),
    layer("core.exec.queue_wait_s", "s", Lower, SERVE),
    layer("core.exec.jobs_per_micro_batch", "ratio", Higher, SERVE),
    layer("core.exec.coalesced_share", "ratio", Higher, SERVE),
    layer("core.exec.rejected", "count", Lower, SERVE),
    layer("serve.protocol.encode_request_s", "s", Lower, SERVE),
    layer("serve.protocol.decode_request_s", "s", Lower, SERVE),
    layer("serve.protocol.encode_response_s", "s", Lower, SERVE),
    layer("serve.wire.request_bytes", "count", Lower, SERVE),
    layer("serve.wire.response_bytes", "count", Lower, SERVE),
    layer("serve.server.overhead_s", "s", Lower, SERVE),
    layer("router.relay.overhead_s", "s", Lower, SERVE),
    layer("router.balance.routing_key_ns", "ns", Lower, SERVE),
    layer("router.balance.affinity_share", "ratio", Higher, SERVE),
    layer("router.failovers", "count", Lower, SERVE),
    layer("trace.overhead_share", "ratio", Lower, ALL),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics the driver gates (`end_to_end` in `BENCHMARK.json`).
pub fn gated() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().filter(|m| m.gated())
}

/// Metrics of the traced run (`per_layer` in `BENCHMARK.json`): the
/// ledger, then the end-to-end metrics the driver's flat schema cannot
/// gate because they apply to some workloads only or may read zero.
pub fn traced() -> impl Iterator<Item = &'static Metric> {
    PER_LAYER.iter().chain(END_TO_END.iter().filter(|m| !m.gated()))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|&s| Value::from(s)).collect());
    let workloads = WORKLOADS.iter().map(|w| json!({ "name": w.name, "why": w.why })).collect();
    let end_to_end = gated()
        .map(|m| {
            let Some(Bound::Relative(bound)) = m.bound else { unreachable!("gated is relative") };
            json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": bound })
        })
        .collect();
    let per_layer = traced()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str() }))
        .collect();
    json!({
        "command": strings(&COMMAND),
        "paths": strings(&PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": Value::Array(workloads),
        "end_to_end": Value::Array(end_to_end),
        "per_layer": Value::Array(per_layer)
    })
}

/// `benchmark list`: every metric with unit, direction, bound, workloads.
pub fn print_list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<11} max_rel_err <= {:<5} {}", w.name, w.tolerance, w.why);
    }
    println!("\n{:<34} {:<8} {:<7} {:<9} workloads", "metric", "unit", "better", "bound");
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let bound = match m.bound {
            Some(Bound::Relative(b)) if m.gated() => format!("{:.0}% *", 100.0 * b),
            Some(Bound::Relative(b)) => format!("{:.0}%", 100.0 * b),
            Some(Bound::Absolute) => "absolute".to_string(),
            None => "-".to_string(),
        };
        let on =
            if m.workloads.len() == ALL.len() { "all".to_string() } else { m.workloads.join(",") };
        println!("{:<34} {:<8} {:<7} {:<9} {on}", m.name, m.unit, m.better.as_str(), bound);
    }
    println!(
        "\n* gated by the driver through BENCHMARK.json; the other bounds by `benchmark compare`"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize) -> bool {
        let head = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        head && name.len() <= max
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(well_formed(name, 64), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.workloads.iter().all(|w| workload(w).is_some()), "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn the_contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&gated().count()));
        assert!((1..=128).contains(&traced().count()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = gated().find(|m| m.name == "setup_s").expect("setup_s is gated");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let relative = |m: &Metric| match m.bound {
            Some(Bound::Relative(b)) => b,
            _ => panic!("{} is not relative", m.name),
        };
        for m in gated() {
            assert!(relative(m) > 0.0 && relative(m) <= 0.25, "{}", m.name);
            assert!(relative(m) <= relative(setup), "setup_s carries the largest bound");
        }
        assert!(
            serde_json::to_string_pretty(&benchmark_json()).expect("serializes").len() < 64 << 10
        );
    }

    #[test]
    fn committed_benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json drifted from spec.rs; regenerate it with `benchmark list --json`"
        );
    }
}
