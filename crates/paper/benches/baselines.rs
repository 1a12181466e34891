//! Criterion: throughput of the three baseline compressors on the same
//! trace the flow-clustering bench uses — the engineering counterpart of
//! Figure 1.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flowzip_deflate::{gzip_compress, gzip_decompress, Level};
use flowzip_paper::comp::{VjCompressor, VjDecompressor};
use flowzip_paper::original_trace;
use flowzip_paper::peuhkuri::PeuhkuriCompressor;
use flowzip_trace::tsh;

fn bench_baselines(c: &mut Criterion) {
    let trace = original_trace(1_000, 30.0, 1);
    let image = tsh::to_bytes(&trace);

    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(image.len() as u64));

    group.bench_function("gzip_default", |b| {
        b.iter(|| gzip_compress(&image, Level::Default))
    });
    group.bench_function("gzip_fast", |b| {
        b.iter(|| gzip_compress(&image, Level::Fast))
    });
    let z = gzip_compress(&image, Level::Default);
    group.bench_function("gunzip", |b| b.iter(|| gzip_decompress(&z).unwrap()));

    group.bench_function("vj_compress", |b| {
        b.iter(|| VjCompressor::new().compress_trace(&trace))
    });
    let vj = VjCompressor::new().compress_trace(&trace);
    group.bench_function("vj_decompress", |b| {
        b.iter(|| VjDecompressor::new().decompress_trace(&vj).unwrap())
    });

    group.bench_function("peuhkuri_compress", |b| {
        b.iter(|| PeuhkuriCompressor::new().compress_trace(&trace))
    });

    group.bench_function("tsh_encode", |b| b.iter(|| tsh::to_bytes(&trace)));
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
