//! Criterion benchmarks of the system-setup step (the >95 % phase):
//! sequential, threaded and distributed assembly, exact vs accelerated
//! primitives.

use criterion::{criterion_group, criterion_main, Criterion};

use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
use bemcap_basis::TemplateIndex;
use bemcap_core::assembly;
use bemcap_geom::structures::{self, CrossingParams};
use bemcap_quad::galerkin::GalerkinEngine;

fn bench_assembly(c: &mut Criterion) {
    let geo = structures::crossing_wires(CrossingParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default()).expect("basis");
    let index = TemplateIndex::new(&set);
    let nc = geo.conductor_count();
    let exact = GalerkinEngine::default();
    let fast = GalerkinEngine::default().with_primitives(
        bemcap_accel::fastmath::fast_double_primitive,
        bemcap_accel::fastmath::fast_quad_primitive,
    );
    let mut group = c.benchmark_group("assembly_crossing_wires");
    group.sample_size(10);
    group.bench_function("sequential_exact", |b| {
        b.iter(|| assembly::assemble_sequential(&exact, &index, &set, nc, 1.0))
    });
    group.bench_function("sequential_accelerated", |b| {
        b.iter(|| assembly::assemble_sequential(&fast, &index, &set, nc, 1.0))
    });
    group.bench_function("threaded_2", |b| {
        b.iter(|| assembly::assemble_threaded(&exact, &index, &set, nc, 1.0, 2))
    });
    group.bench_function("distributed_2", |b| {
        b.iter(|| assembly::assemble_distributed(&exact, &index, &set, nc, 1.0, 2))
    });
    group.finish();
}

fn bench_phi(c: &mut Criterion) {
    let geo = structures::bus_crossing(3, 3, structures::BusParams::default());
    let set = instantiate(&geo, &InstantiateConfig::default()).expect("basis");
    let eng = GalerkinEngine::default();
    c.bench_function("assemble_phi_3x3_bus", |b| {
        b.iter(|| assembly::assemble_phi(&eng, &set, geo.conductor_count()))
    });
}

fn bench_instantiation(c: &mut Criterion) {
    let geo = structures::bus_crossing(4, 4, structures::BusParams::default());
    c.bench_function("instantiate_4x4_bus", |b| {
        b.iter(|| instantiate(&geo, &InstantiateConfig::default()).expect("basis"))
    });
}

criterion_group!(benches, bench_assembly, bench_phi, bench_instantiation);
criterion_main!(benches);
