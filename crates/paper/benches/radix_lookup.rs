//! Criterion: radix-table longest-prefix-match throughput, plain and
//! traced (the §6 instrumentation overhead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flowzip_paper::tablegen::TableGen;
use flowzip_paper::trace::CountingSink;
use std::net::Ipv4Addr;

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("radix_lookup");
    group.sample_size(20);
    let addrs: Vec<Ipv4Addr> = {
        let mut state = 0xABCDu32;
        (0..10_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                Ipv4Addr::from(state)
            })
            .collect()
    };
    for routes in [1_000usize, 16_000, 64_000] {
        let table = TableGen::new(7).build(routes);
        group.throughput(Throughput::Elements(addrs.len() as u64));
        group.bench_with_input(BenchmarkId::new("plain", routes), &table, |b, t| {
            b.iter(|| {
                let mut hits = 0usize;
                for a in &addrs {
                    if t.lookup(*a).is_some() {
                        hits += 1;
                    }
                }
                hits
            });
        });
        group.bench_with_input(BenchmarkId::new("traced", routes), &table, |b, t| {
            b.iter(|| {
                let mut sink = CountingSink::new();
                for a in &addrs {
                    let _ = t.traced_lookup(*a, &mut sink);
                }
                sink.total()
            });
        });
    }
    group.finish();
}

fn bench_insert_remove(c: &mut Criterion) {
    let mut group = c.benchmark_group("radix_update");
    group.sample_size(20);
    group.bench_function("insert_remove_1k_host_routes", |b| {
        b.iter(|| {
            let mut table = TableGen::new(9).build(4_000);
            for i in 0..1_000u32 {
                table.insert(Ipv4Addr::from(0x0A00_0000 + i), 32, i);
            }
            for i in 0..1_000u32 {
                table.remove(Ipv4Addr::from(0x0A00_0000 + i), 32);
            }
            table.len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_lookup, bench_insert_remove);
criterion_main!(benches);
