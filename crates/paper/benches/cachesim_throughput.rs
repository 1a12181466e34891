//! Criterion: cache-simulator access throughput under different
//! geometries and access patterns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flowzip_paper::cache::{Cache, CacheConfig, Replacement};

fn patterns() -> Vec<(&'static str, Vec<u64>)> {
    let n = 100_000usize;
    let sequential: Vec<u64> = (0..n as u64).map(|i| i * 8).collect();
    let strided: Vec<u64> = (0..n as u64).map(|i| (i * 4096) % (1 << 24)).collect();
    let mut state = 0x9E37u64;
    let random: Vec<u64> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % (1 << 26)
        })
        .collect();
    vec![
        ("sequential", sequential),
        ("strided", strided),
        ("random", random),
    ]
}

fn bench_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("cachesim_access");
    group.sample_size(20);
    for (name, stream) in patterns() {
        group.throughput(Throughput::Elements(stream.len() as u64));
        group.bench_with_input(BenchmarkId::new("l1_lru", name), &stream, |b, s| {
            b.iter(|| {
                let mut cache = Cache::new(CacheConfig::netbench_l1());
                let mut misses = 0u64;
                for &a in s {
                    if !cache.access(a).hit {
                        misses += 1;
                    }
                }
                misses
            });
        });
    }
    // Policy comparison on the random stream.
    let (_, random) = patterns().pop().expect("three patterns");
    for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
        group.bench_with_input(
            BenchmarkId::new("policy", format!("{policy:?}")),
            &random,
            |b, s| {
                b.iter(|| {
                    let mut cache = Cache::new(CacheConfig {
                        replacement: policy,
                        ..CacheConfig::netbench_l1()
                    });
                    let mut misses = 0u64;
                    for &a in s {
                        if !cache.access(a).hit {
                            misses += 1;
                        }
                    }
                    misses
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_access);
criterion_main!(benches);
