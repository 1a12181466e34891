//! Short-flow template clustering — §3's "search for identical or similar
//! KM vectors in the short-flows-template dataset".
//!
//! Flows are only comparable when they have the same packet count `n`
//! ("for the same i, the maximum distance between two M values of
//! different flows is 50"), so templates live in per-`n` buckets. Within
//! a bucket, a new flow joins the first template within `d_sim` (Eq. 4)
//! or becomes a new cluster center.

use crate::characterize::l1_within;
use crate::Params;
use std::collections::BTreeMap;

/// One stored cluster center.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// The center's `M` vector.
    pub vector: Vec<u16>,
    /// How many flows joined this cluster (center included).
    pub members: u64,
}

/// Outcome of offering a flow vector to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome {
    /// Joined an existing cluster (index into the template list).
    Matched(u32),
    /// Became a new cluster center at this index.
    Inserted(u32),
}

impl MatchOutcome {
    /// The template index either way.
    pub fn index(self) -> u32 {
        match self {
            MatchOutcome::Matched(i) | MatchOutcome::Inserted(i) => i,
        }
    }

    /// `true` when the flow joined an existing cluster.
    pub fn is_match(self) -> bool {
        matches!(self, MatchOutcome::Matched(_))
    }
}

/// The `short-flows-template` dataset under construction: an append-only
/// template list plus per-`n` search buckets.
#[derive(Debug)]
pub struct TemplateStore {
    params: Params,
    templates: Vec<Template>,
    /// Indexed by `n`: the templates with that length, keyed by vector
    /// sum. Grown on demand to the longest vector offered; short flows
    /// keep it at `short_max + 1`.
    buckets: Vec<BTreeMap<u64, Vec<u32>>>,
    matched: u64,
    inserted: u64,
}

impl TemplateStore {
    /// Creates an empty store.
    pub fn new(params: Params) -> TemplateStore {
        TemplateStore {
            params,
            templates: Vec::new(),
            buckets: Vec::new(),
            matched: 0,
            inserted: 0,
        }
    }

    /// Number of cluster centers stored.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// `true` when no templates exist yet.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Flows that joined an existing cluster.
    pub fn matched_count(&self) -> u64 {
        self.matched
    }

    /// Flows that became new cluster centers.
    pub fn inserted_count(&self) -> u64 {
        self.inserted
    }

    /// The stored templates, index-addressable.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Offers a flow vector: returns whether it matched an existing
    /// template (within `d_sim`) or was inserted as a new center.
    ///
    /// # Panics
    ///
    /// Panics on an empty vector; zero-packet flows do not exist.
    pub fn offer(&mut self, vector: &[u16]) -> MatchOutcome {
        self.offer_weighted(vector, 1)
    }

    /// [`Self::offer`] for a pre-clustered group of `members` flows
    /// sharing `vector` as their center — the merge primitive. On a
    /// match the whole group joins the existing cluster (all `members`
    /// count as matched); on insertion the group's center stays a center
    /// and its other `members − 1` flows count as matched to it, exactly
    /// as if the flows had been offered here one by one.
    fn offer_weighted(&mut self, vector: &[u16], members: u64) -> MatchOutcome {
        assert!(!vector.is_empty(), "flows have at least one packet");
        let n = vector.len();
        let d_sim = self.params.d_sim(n);
        let sum: u64 = vector.iter().map(|&m| m as u64).sum();

        if n >= self.buckets.len() {
            self.buckets.resize_with(n + 1, BTreeMap::new);
        }
        // `|Σa − Σb| ≤ d_L1(a, b)`, so only templates whose sums fall
        // within `d_sim` can match.
        let window = d_sim.ceil() as u64;
        let bucket = &mut self.buckets[n];
        let found = bucket
            .range(sum.saturating_sub(window)..=sum + window)
            .flat_map(|(_, idxs)| idxs)
            .copied()
            .find(|&idx| l1_within(&self.templates[idx as usize].vector, vector, d_sim));

        match found {
            Some(idx) => {
                self.templates[idx as usize].members += members;
                self.matched += members;
                MatchOutcome::Matched(idx)
            }
            None => {
                let idx = self.templates.len() as u32;
                self.templates.push(Template {
                    vector: vector.to_vec(),
                    members,
                });
                bucket.entry(sum).or_default().push(idx);
                self.inserted += 1;
                self.matched += members - 1;
                MatchOutcome::Inserted(idx)
            }
        }
    }

    /// Absorbs another store built with the same parameters, re-clustering
    /// each foreign template under this store's `d_sim` rule (Eq. 4): a
    /// foreign center within `d_sim` of a local one folds its members into
    /// that cluster; otherwise it becomes a new center here. Returns the
    /// remap table `other`'s template index → this store's template index,
    /// for rewriting flow records that referenced `other`.
    ///
    /// This is what lets sharded pipelines run one store per shard and
    /// still emit a single `short-flows-template` dataset whose centers
    /// all satisfy the pairwise Eq. 4 guarantee against their members.
    ///
    /// # Panics
    ///
    /// Panics if the stores were built with different parameters —
    /// re-clustering under a different `d_sim` would silently void the
    /// Eq. 4 guarantee for the foreign members.
    pub fn merge(&mut self, other: TemplateStore) -> Vec<u32> {
        assert_eq!(
            self.params, other.params,
            "merging stores with different clustering parameters"
        );
        other
            .templates
            .into_iter()
            .map(|t| self.offer_weighted(&t.vector, t.members).index())
            .collect()
    }

    /// Consumes the store, returning the template list (the dataset that
    /// gets serialized).
    pub(crate) fn into_templates(self) -> Vec<Template> {
        self.templates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TemplateStore {
        TemplateStore::new(Params::paper())
    }

    #[test]
    fn identical_vectors_cluster() {
        let mut s = store();
        let v = vec![0u16, 16, 32, 37, 34, 52, 48, 32];
        assert_eq!(s.offer(&v), MatchOutcome::Inserted(0));
        assert_eq!(s.offer(&v), MatchOutcome::Matched(0));
        assert_eq!(s.offer(&v), MatchOutcome::Matched(0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.templates()[0].members, 3);
    }

    #[test]
    fn similar_vectors_cluster_within_d_sim() {
        // n=8 => d_sim = 8 with paper constants.
        let mut s = store();
        let a = vec![0u16, 16, 32, 37, 34, 52, 48, 32];
        let mut b = a.clone();
        b[3] = 33; // L1 distance 4 <= 8
        b[4] = 38;
        assert!(s.offer(&a).index() == 0);
        assert!(s.offer(&b).is_match());
    }

    #[test]
    fn distant_vectors_do_not_cluster() {
        let mut s = store();
        let a = vec![0u16, 16, 32, 37, 34, 52, 48, 32];
        let mut b = a.clone();
        b[0] = 48; // L1 distance 48 > 8
        assert_eq!(s.offer(&a), MatchOutcome::Inserted(0));
        assert_eq!(s.offer(&b), MatchOutcome::Inserted(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn different_lengths_never_share_clusters() {
        let mut s = store();
        let a = vec![0u16, 16, 32];
        let b = vec![0u16, 16, 32, 32];
        assert_eq!(s.offer(&a), MatchOutcome::Inserted(0));
        assert_eq!(s.offer(&b), MatchOutcome::Inserted(1));
    }

    /// The linear-scan reference for the sum-pruned search: each vector
    /// is compared with every center of its length, and joins the first
    /// one within `d_sim` or becomes a center. Returns whether each
    /// vector matched, and the final center count.
    fn linear_reference(params: &Params, vectors: &[Vec<u16>]) -> (Vec<bool>, usize) {
        let mut centers: Vec<&[u16]> = Vec::new();
        let matched = vectors
            .iter()
            .map(|v| {
                let d_sim = params.d_sim(v.len());
                let hit = centers
                    .iter()
                    .any(|c| c.len() == v.len() && l1_within(c, v, d_sim));
                if !hit {
                    centers.push(v);
                }
                hit
            })
            .collect();
        (matched, centers.len())
    }

    #[test]
    fn linear_and_pruned_agree() {
        let vectors: Vec<Vec<u16>> = (0..200)
            .map(|i| (0..10).map(|j| ((i * 7 + j * 13) % 55) as u16).collect())
            .collect();
        let (lin, lin_len) = linear_reference(&Params::paper(), &vectors);
        let mut pruned = store();
        for (v, &lin_match) in vectors.iter().zip(&lin) {
            assert_eq!(pruned.offer(v).is_match(), lin_match, "vector {v:?}");
        }
        assert_eq!(pruned.len(), lin_len);
    }

    #[test]
    fn zero_similarity_only_matches_identical() {
        let mut s = TemplateStore::new(Params {
            similarity: 0.0,
            ..Params::paper()
        });
        let a = vec![10u16, 20, 30];
        let mut b = a.clone();
        b[0] = 11;
        assert_eq!(s.offer(&a), MatchOutcome::Inserted(0));
        assert_eq!(s.offer(&b), MatchOutcome::Inserted(1));
        assert!(s.offer(&a).is_match());
    }

    #[test]
    fn merge_folds_similar_centers_and_remaps() {
        let mut a = store();
        let mut b = store();
        let v = vec![0u16, 16, 32, 37, 34, 52, 48, 32];
        let mut near = v.clone();
        near[3] = 33; // within d_sim = 8 of v
        let far = vec![200u16, 200, 200, 200, 200, 200, 200, 200];
        a.offer(&v);
        a.offer(&v);
        b.offer(&near);
        b.offer(&near);
        b.offer(&far);
        let remap = a.merge(b);
        // near folded into v's cluster (index 0), far became center 1.
        assert_eq!(remap, vec![0, 1]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.templates()[0].members, 4);
        assert_eq!(a.templates()[1].members, 1);
        // Counters behave as if all five flows were offered to one store.
        assert_eq!(a.matched_count() + a.len() as u64, 5);
    }

    #[test]
    fn merge_into_empty_store_preserves_everything() {
        let mut shard = store();
        for v in [vec![1u16, 2, 3], vec![90u16, 90, 90], vec![1u16, 2, 4]] {
            shard.offer(&v);
        }
        let shard_len = shard.len();
        let shard_matched = shard.matched_count();
        let mut merged = store();
        let vectors = shard
            .templates()
            .iter()
            .map(|t| t.vector.clone())
            .collect::<Vec<_>>();
        let got = merged.merge(shard);
        assert_eq!(got, (0..shard_len as u32).collect::<Vec<_>>());
        assert_eq!(merged.len(), shard_len);
        assert_eq!(merged.matched_count(), shard_matched);
        for (i, v) in vectors.iter().enumerate() {
            assert_eq!(&merged.templates()[i].vector, v);
        }
    }

    #[test]
    fn merged_flows_stay_within_eq4_of_their_center() {
        // After a merge, every member that was re-pointed at a local
        // center is within d_sim of it by construction (offer checked it).
        let mut a = store();
        let mut b = store();
        let base = vec![10u16; 10]; // n=10 -> d_sim = 10
        let mut shifted = base.clone();
        shifted[0] = 15; // L1 distance 5
        a.offer(&base);
        b.offer(&shifted);
        let remap = a.merge(b);
        let center = &a.templates()[remap[0] as usize].vector;
        let d: i64 = center
            .iter()
            .zip(&shifted)
            .map(|(&x, &y)| (x as i64 - y as i64).abs())
            .sum();
        assert!(d as f64 <= Params::paper().d_sim(10));
    }

    #[test]
    fn counters_track_outcomes() {
        let mut s = store();
        let v = vec![1u16, 2, 3];
        s.offer(&v);
        s.offer(&v);
        s.offer(&[40, 40, 40]);
        assert_eq!(s.matched_count(), 1);
        assert_eq!(s.inserted_count(), 2);
        let templates = s.into_templates();
        assert_eq!(templates.len(), 2);
        assert_eq!(templates[0].members, 2);
    }
}
