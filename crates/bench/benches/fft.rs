//! FFT kernel bench: the "Fourier analysis" step of the Arecibo chain.
//! `benchmark/` never runs an FFT: ROADMAP "Put the paper's own kernels under
//! the benchmark" (a) plans `arecibo-search`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sciflow_arecibo::fft::{fft_in_place, real_power_spectrum, Complex};

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[1024usize, 4096, 16384] {
        let data: Vec<Complex> =
            (0..n).map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0)).collect();
        group.bench_with_input(BenchmarkId::new("complex", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = data.clone();
                fft_in_place(black_box(&mut buf), false);
                buf
            })
        });
        let series: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        group.bench_with_input(BenchmarkId::new("real_power", n), &n, |b, _| {
            b.iter(|| real_power_spectrum(black_box(&series)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fft);
criterion_main!(benches);
