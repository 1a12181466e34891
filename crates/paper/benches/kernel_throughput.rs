//! Criterion: replay throughput of the three §6 kernels (packets/second
//! through parse + lookup + metering).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flowzip_paper::nat::NatBench;
use flowzip_paper::original_trace;
use flowzip_paper::route::RouteBench;
use flowzip_paper::rtr::RtrBench;
use flowzip_paper::runner::{BenchConfig, PacketProcessor};

fn bench_kernels(c: &mut Criterion) {
    let trace = original_trace(800, 30.0, 5);
    let cfg = BenchConfig::default();
    let mut group = c.benchmark_group("kernel_replay");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));

    group.bench_with_input(BenchmarkId::from_parameter("route"), &trace, |b, t| {
        b.iter(|| RouteBench::new(&cfg).run(t).nodes_visited)
    });
    group.bench_with_input(BenchmarkId::from_parameter("nat"), &trace, |b, t| {
        b.iter(|| NatBench::new(&cfg).run(t).nodes_visited)
    });
    group.bench_with_input(BenchmarkId::from_parameter("rtr"), &trace, |b, t| {
        b.iter(|| RtrBench::new(&cfg).run(t).nodes_visited)
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
