//! Criterion benchmarks of the from-scratch FFT substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bemcap_pfft::fft::{Complex, Convolver, FftPlan};

fn bench_fft_1d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_1d");
    for &n in &[256usize, 1024, 4096] {
        let data: Vec<Complex> =
            (0..n).map(|i| Complex::new((i as f64 * 0.1).sin(), 0.0)).collect();
        let plan = FftPlan::new(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut d = data.clone();
                plan.forward(&mut d);
                std::hint::black_box(d[0])
            })
        });
    }
    group.finish();
}

/// The pFFT grid convolution on an n³ logical box padded to (2n)³: the
/// pruned real-input forward transform, kernel multiply and inverse.
fn bench_fft_3d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_3d");
    group.sample_size(20);
    for &n in &[8usize, 16] {
        let p = 2 * n;
        let signed = |i: usize| if i <= p / 2 { i as f64 } else { i as f64 - p as f64 };
        let kernel: Vec<f64> = (0..p * p * p)
            .map(|f| {
                let r2 =
                    signed(f / (p * p)).powi(2) + signed(f / p % p).powi(2) + signed(f % p).powi(2);
                if r2 > 0.0 {
                    1.0 / r2.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        let conv = Convolver::new([n; 3], [p; 3], &kernel);
        let field: Vec<f64> = (0..p * p * p).map(|i| (i % 17) as f64).collect();
        let mut spec = vec![Complex::ZERO; conv.spectrum_len()];
        group.bench_with_input(BenchmarkId::new("convolve", n), &n, |b, _| {
            b.iter(|| {
                let mut f = field.clone();
                conv.convolve(&mut f, &mut spec);
                std::hint::black_box(f[0])
            })
        });
    }
    group.finish();
}

fn bench_pfft_matvec(c: &mut Criterion) {
    use bemcap_geom::{structures, Mesh};
    use bemcap_linalg::LinearOperator;
    use bemcap_pfft::{PfftConfig, PfftOperator};
    let geo = structures::parallel_plates(1.0e-6, 1.0e-6, 0.3e-6);
    let mesh = Mesh::uniform(&geo, 6);
    let op = PfftOperator::new(&mesh, 1.0, PfftConfig::default()).expect("operator");
    let n = mesh.panel_count();
    let x = vec![1.0e-6; n];
    let mut y = vec![0.0; n];
    c.bench_function("pfft_matvec", |b| {
        b.iter(|| {
            op.apply(&x, &mut y);
            std::hint::black_box(y[0])
        })
    });
}

criterion_group!(benches, bench_fft_1d, bench_fft_3d, bench_pfft_matvec);
criterion_main!(benches);
