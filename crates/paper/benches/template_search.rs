//! Criterion: template-store search — a linear scan vs the product's
//! sum-pruned index (an ablation of the §3 "search for identical or
//! similar KM vectors" step; `TemplateStore` in
//! `crates/core/src/cluster.rs`). The linear scan is this bench's own
//! reference implementation; before timing, both must agree on every
//! match and on the store size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowzip_core::{l1_distance, Params, TemplateStore};

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

/// The unindexed store: per-`n` buckets scanned in insertion order, the
/// first center within `d_sim` (Eq. 4) wins.
struct LinearStore {
    params: Params,
    buckets: Vec<Vec<Vec<u16>>>,
}

impl LinearStore {
    fn new(params: Params) -> LinearStore {
        LinearStore {
            params,
            buckets: Vec::new(),
        }
    }

    /// Whether `vector` joined a center; otherwise it becomes one.
    fn offer(&mut self, vector: &[u16]) -> bool {
        let n = vector.len();
        if n >= self.buckets.len() {
            self.buckets.resize_with(n + 1, Vec::new);
        }
        let d_sim = self.params.d_sim(n);
        let bucket = &mut self.buckets[n];
        let hit = bucket.iter().any(|c| l1_distance(c, vector) <= d_sim);
        if !hit {
            bucket.push(vector.to_vec());
        }
        hit
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

/// Same matches, same store size: the index only prunes.
fn assert_agree(stream: &[Vec<u16>]) {
    let mut linear = LinearStore::new(Params::paper());
    let mut pruned = TemplateStore::new(Params::paper());
    for v in stream {
        assert_eq!(linear.offer(v), pruned.offer(v).is_match(), "{v:?}");
    }
    assert_eq!(linear.len(), pruned.len());
}

fn bench_search(c: &mut Criterion) {
    let stream = vectors(5_000);
    assert_agree(&stream);
    let mut group = c.benchmark_group("template_search");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("linear"), &stream, |b, s| {
        b.iter(|| {
            let mut store = LinearStore::new(Params::paper());
            for v in s {
                store.offer(v);
            }
            store.len()
        });
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("sum_pruned"),
        &stream,
        |b, s| {
            b.iter(|| {
                let mut store = TemplateStore::new(Params::paper());
                for v in s {
                    store.offer(v);
                }
                store.len()
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
