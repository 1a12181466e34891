//! Criterion: template-store search — linear scan vs the sum-pruned
//! index (an ablation of the §3 "search for identical or similar KM
//! vectors" step; `SearchIndex` in `crates/core/src/cluster.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowzip_core::{Params, SearchIndex, TemplateStore};

/// Deterministic stream of plausible M vectors (lengths 7–20, values in
/// the paper's 0..=54 range).
fn vectors(count: usize) -> Vec<Vec<u16>> {
    let mut state = 0x1234_5678u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| {
            let n = 7 + (next() % 14) as usize;
            (0..n).map(|_| (next() % 55) as u16).collect()
        })
        .collect()
}

fn bench_search(c: &mut Criterion) {
    let stream = vectors(5_000);
    let mut group = c.benchmark_group("template_search");
    group.sample_size(10);
    for (name, index) in [
        ("linear", SearchIndex::Linear),
        ("sum_pruned", SearchIndex::SumPruned),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &index, |b, &index| {
            b.iter(|| {
                let mut store = TemplateStore::new(Params {
                    index,
                    ..Params::paper()
                });
                for v in &stream {
                    store.offer(v);
                }
                store.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
