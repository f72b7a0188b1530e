//! LZ codec throughput — the CPU cost of the preload's "uncompresses them"
//! step, on ARC-like markup and on incompressible bytes.
//! `benchmark/` never runs the codec: ROADMAP "Put the paper's own kernels
//! under the benchmark" (a) plans `weblab-preload`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sciflow_weblab::codec::{compress, decompress};

fn markup(n: usize) -> Vec<u8> {
    let mut s = String::new();
    let mut i = 0;
    while s.len() < n {
        s.push_str(&format!(
            "<div class=\"post\"><a href=\"http://site{}.example.org/page{}.html\">link</a>\
             <p>Lorem ipsum dolor sit amet, consectetur adipiscing elit.</p></div>\n",
            i % 37,
            i
        ));
        i += 1;
    }
    s.into_bytes()
}

fn random_bytes(n: usize) -> Vec<u8> {
    (0..n as u64).map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as u8).collect()
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for (label, data) in [("markup", markup(256 * 1024)), ("random", random_bytes(256 * 1024))] {
        group.throughput(criterion::Throughput::Bytes(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("compress", label), &data, |b, d| {
            b.iter(|| compress(black_box(d)))
        });
        let packed = compress(&data);
        group.bench_with_input(BenchmarkId::new("decompress", label), &packed, |b, p| {
            b.iter(|| decompress(black_box(p)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
