//! Entity clustering: union-find transitive closure of match-labeled pairs,
//! plus cluster-level pairwise quality metrics.
//!
//! Pair labels are only half of an ER system's output — the deliverable is the
//! *entities*: maximal groups of records declared to co-refer. This module
//! closes match-labeled pairs transitively with a disjoint-set forest and
//! scores the resulting clustering against a ground-truth clustering with the
//! standard pairwise precision/recall (every unordered record pair co-clustered
//! by the prediction is a positive; ground truth defines which of those are
//! correct), reusing [`QualityMetrics`] so pair-level and cluster-level numbers
//! read the same way.

use er_core::record::RecordId;
use er_core::workload::QualityMetrics;

/// Which source dataset a record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// The left dataset of the resolution task.
    Left,
    /// The right dataset of the resolution task.
    Right,
}

/// A globally unique record key across the two sources.
pub type RecordKey = (Side, RecordId);

/// A disjoint-set forest with union by rank and path halving.
#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates a forest of `n` singleton sets.
    fn new(n: usize) -> Self {
        Self { parent: (0..n).collect(), rank: vec![0; n] }
    }

    /// The representative of `x`'s set (with path halving).
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` when they were distinct.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }
}

/// A partition of record keys into entities, stored as one sorted key column:
/// `keys` holds every clustered key once, in ascending order, and the parallel
/// `cluster` column numbers each key's entity, with entities numbered in the
/// order of their smallest key; singletons are kept. The form is canonical by
/// construction, so two clusterings built from the same edges in any order
/// compare equal. The columns are built once and never grow, so they are
/// boxed slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityClusters {
    /// Every clustered key, sorted and distinct.
    keys: Box<[RecordKey]>,
    /// `cluster[i]` is the entity of `keys[i]`.
    cluster: Box<[u32]>,
    /// Members per entity, indexed by entity number.
    sizes: Box<[u32]>,
}

impl EntityClusters {
    /// Builds the transitive closure of `edges` over `nodes`.
    ///
    /// Nodes appearing only in `edges` are added implicitly, so passing an
    /// empty node iterator clusters exactly the records touched by an edge.
    pub fn from_edges(
        nodes: impl IntoIterator<Item = RecordKey>,
        edges: impl IntoIterator<Item = (RecordKey, RecordKey)>,
    ) -> Self {
        let mut keys: Vec<RecordKey> = Vec::new();
        let mut pairs: Vec<(RecordKey, RecordKey)> = Vec::new();
        // Plain push loops: collecting the caller's adapter chains instead
        // measurably slowed the chains' own code at the call sites.
        for key in nodes {
            keys.push(key);
        }
        for (a, b) in edges {
            keys.push(a);
            keys.push(b);
            pairs.push((a, b));
        }
        keys.sort_unstable();
        keys.dedup();
        assert!(keys.len() < u32::MAX as usize, "entities are numbered in u32");
        // Every endpoint is in `keys`, so its insertion point is its position.
        let position = |key: RecordKey| keys.partition_point(|&k| k < key);
        let mut forest = UnionFind::new(keys.len());
        for (a, b) in pairs {
            forest.union(position(a), position(b));
        }
        // Walking the keys in order numbers each entity at its smallest key.
        let mut number = vec![u32::MAX; keys.len()];
        let mut sizes: Vec<u32> = Vec::new();
        let cluster = (0..keys.len())
            .map(|i| {
                let root = forest.find(i);
                if number[root] == u32::MAX {
                    number[root] = sizes.len() as u32;
                    sizes.push(0);
                }
                sizes[number[root] as usize] += 1;
                number[root]
            })
            .collect();
        Self { keys: keys.into_boxed_slice(), cluster, sizes: sizes.into_boxed_slice() }
    }

    /// The clusters in canonical order: each sorted, ordered by smallest
    /// member. Built on demand.
    pub fn clusters(&self) -> Vec<Vec<RecordKey>> {
        let mut clusters: Vec<Vec<RecordKey>> =
            self.sizes.iter().map(|&size| Vec::with_capacity(size as usize)).collect();
        for (&key, &c) in self.keys.iter().zip(&self.cluster) {
            clusters[c as usize].push(key);
        }
        clusters
    }

    /// Number of clusters (singletons included).
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Number of clusters with at least two members (actual merged entities).
    pub fn non_singleton_count(&self) -> usize {
        self.sizes.iter().filter(|&&size| size > 1).count()
    }

    /// Whether two record keys are placed in the same entity.
    pub fn same_entity(&self, a: RecordKey, b: RecordKey) -> bool {
        match (self.keys.binary_search(&a), self.keys.binary_search(&b)) {
            (Ok(x), Ok(y)) => self.cluster[x] == self.cluster[y],
            _ => false,
        }
    }

    /// Number of unordered record pairs co-clustered by this partition.
    pub fn pair_count(&self) -> usize {
        self.sizes.iter().map(|&size| pairs_within(size as usize)).sum()
    }

    /// Pairwise cluster metrics against a ground-truth clustering.
    ///
    /// Positives are unordered record pairs co-clustered by `self`; a positive
    /// is true when `truth` also co-clusters the pair. Negatives are counted
    /// over all unordered pairs of the union of both key sets, so the returned
    /// [`QualityMetrics`] is a complete confusion matrix and its
    /// `precision()`/`recall()`/`f1()` are the standard pairwise cluster
    /// metrics.
    pub fn pairwise_metrics(&self, truth: &EntityClusters) -> QualityMetrics {
        // One merge of the two sorted key columns counts the union and
        // records, for every key both know, its (own, truth) entity pair.
        let (ours, theirs) = (&self.keys, &truth.keys);
        let (mut i, mut j, mut union) = (0, 0, 0);
        let mut shared: Vec<(u32, u32)> = Vec::new();
        while i < ours.len() && j < theirs.len() {
            match ours[i].cmp(&theirs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared.push((self.cluster[i], truth.cluster[j]));
                    i += 1;
                    j += 1;
                }
            }
            union += 1;
        }
        union += (ours.len() - i) + (theirs.len() - j);
        // A pair is a true positive exactly when both keys share the same
        // (own, truth) entity pair: count the pairs within each run.
        shared.sort_unstable();
        let true_positives: usize =
            shared.chunk_by(|a, b| a == b).map(|run| pairs_within(run.len())).sum();
        let predicted = self.pair_count();
        let actual = truth.pair_count();
        let false_positives = predicted - true_positives;
        let false_negatives = actual - true_positives;
        let true_negatives =
            pairs_within(union).saturating_sub(true_positives + false_positives + false_negatives);
        QualityMetrics::from_counts(
            true_positives,
            false_positives,
            false_negatives,
            true_negatives,
        )
    }
}

/// Number of unordered pairs among `n` items.
fn pairs_within(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn key(side: Side, id: u64) -> RecordKey {
        (side, RecordId(id))
    }

    /// A brute-force reference: min-label propagation to a fixpoint, and
    /// metrics counted over every unordered pair of the key union.
    struct Reference {
        label: HashMap<RecordKey, RecordKey>,
    }

    impl Reference {
        fn new(nodes: &[RecordKey], edges: &[(RecordKey, RecordKey)]) -> Self {
            let mut label: HashMap<RecordKey, RecordKey> = HashMap::new();
            for &k in nodes.iter().chain(edges.iter().flat_map(|(a, b)| [a, b])) {
                label.insert(k, k);
            }
            let mut changed = true;
            while changed {
                changed = false;
                for (a, b) in edges {
                    let low = label[a].min(label[b]);
                    for k in [a, b] {
                        if label[k] != low {
                            label.insert(*k, low);
                            changed = true;
                        }
                    }
                }
            }
            Self { label }
        }

        fn same(&self, a: RecordKey, b: RecordKey) -> bool {
            matches!((self.label.get(&a), self.label.get(&b)), (Some(x), Some(y)) if x == y)
        }

        fn clusters(&self) -> Vec<Vec<RecordKey>> {
            let mut grouped: HashMap<RecordKey, Vec<RecordKey>> = HashMap::new();
            for (&k, &l) in &self.label {
                grouped.entry(l).or_default().push(k);
            }
            let mut clusters: Vec<Vec<RecordKey>> = grouped.into_values().collect();
            clusters.iter_mut().for_each(|c| c.sort_unstable());
            clusters.sort_unstable();
            clusters
        }

        fn metrics(&self, truth: &Reference) -> QualityMetrics {
            let mut universe: Vec<RecordKey> =
                self.label.keys().chain(truth.label.keys()).copied().collect();
            universe.sort_unstable();
            universe.dedup();
            let mut counts = [0usize; 4];
            for (i, &a) in universe.iter().enumerate() {
                for &b in &universe[i + 1..] {
                    let (ours, theirs) = (self.same(a, b), truth.same(a, b));
                    counts[match (ours, theirs) {
                        (true, true) => 0,
                        (true, false) => 1,
                        (false, true) => 2,
                        (false, false) => 3,
                    }] += 1;
                }
            }
            QualityMetrics::from_counts(counts[0], counts[1], counts[2], counts[3])
        }
    }

    /// Deterministic draws for the property test.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Random nodes and edges over `ids` ids per side starting at `first`,
    /// with self edges and repeated edges mixed in.
    fn draw(
        state: &mut u64,
        nodes: usize,
        edges: usize,
        first: u64,
        ids: u64,
    ) -> (Vec<RecordKey>, Vec<(RecordKey, RecordKey)>) {
        let any = |state: &mut u64| {
            let side = if mix(state).is_multiple_of(2) { Side::Left } else { Side::Right };
            key(side, first + mix(state) % ids)
        };
        let nodes: Vec<RecordKey> = (0..nodes).map(|_| any(state)).collect();
        let mut drawn: Vec<(RecordKey, RecordKey)> = Vec::new();
        for _ in 0..edges {
            let edge = match mix(state) % 8 {
                0 => {
                    let a = any(state);
                    (a, a)
                }
                1 if !drawn.is_empty() => drawn[mix(state) as usize % drawn.len()],
                _ => (any(state), any(state)),
            };
            drawn.push(edge);
        }
        (nodes, drawn)
    }

    proptest::proptest! {
        /// The sorted key column agrees with the brute-force reference on
        /// every query: node-only and edge-only keys, self and repeated
        /// edges, empty inputs, and truths over different key sets.
        #[test]
        fn flat_partition_matches_a_brute_force_reference(
            seed in 0u64..u64::MAX,
            nodes in 0usize..24,
            edges in 0usize..32,
            truth_nodes in 0usize..24,
            truth_edges in 0usize..32,
        ) {
            let mut state = seed;
            let (n, e) = draw(&mut state, nodes, edges, 0, 16);
            // The truth's ids overlap the prediction's only in part.
            let (tn, te) = draw(&mut state, truth_nodes, truth_edges, 8, 16);
            let (ours, theirs) = (Reference::new(&n, &e), Reference::new(&tn, &te));
            let flat = EntityClusters::from_edges(n.iter().copied(), e.iter().copied());
            let truth = EntityClusters::from_edges(tn.iter().copied(), te.iter().copied());
            let expected = ours.clusters();
            proptest::prop_assert_eq!(flat.clusters(), expected.clone());
            proptest::prop_assert_eq!(flat.len(), expected.len());
            proptest::prop_assert_eq!(flat.is_empty(), expected.is_empty());
            proptest::prop_assert_eq!(
                flat.non_singleton_count(),
                expected.iter().filter(|c| c.len() > 1).count()
            );
            proptest::prop_assert_eq!(
                flat.pair_count(),
                expected.iter().map(|c| c.len() * (c.len() - 1) / 2).sum::<usize>()
            );
            for a in (0..26).map(|id| key(Side::Left, id)).chain([key(Side::Right, 3)]) {
                for b in [key(Side::Left, 2), key(Side::Right, 5), key(Side::Right, 23)] {
                    proptest::prop_assert_eq!(flat.same_entity(a, b), ours.same(a, b));
                }
            }
            proptest::prop_assert_eq!(flat.pairwise_metrics(&truth), ours.metrics(&theirs));
            proptest::prop_assert_eq!(truth.pairwise_metrics(&flat), theirs.metrics(&ours));
        }
    }

    #[test]
    fn union_find_merges_and_finds() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn transitive_closure_builds_entities() {
        let nodes = (0..4).map(|i| key(Side::Left, i)).chain((0..3).map(|i| key(Side::Right, i)));
        let edges = [
            (key(Side::Left, 0), key(Side::Right, 0)),
            (key(Side::Right, 0), key(Side::Left, 1)), // transitivity: L0-R0-L1
            (key(Side::Left, 2), key(Side::Right, 2)),
        ];
        let clusters = EntityClusters::from_edges(nodes, edges);
        assert!(clusters.same_entity(key(Side::Left, 0), key(Side::Left, 1)));
        assert!(clusters.same_entity(key(Side::Left, 2), key(Side::Right, 2)));
        assert!(!clusters.same_entity(key(Side::Left, 0), key(Side::Left, 2)));
        // 7 nodes: {L0,L1,R0}, {L2,R2}, singletons L3, R1.
        assert_eq!(clusters.len(), 4);
        assert_eq!(clusters.non_singleton_count(), 2);
        assert_eq!(clusters.pair_count(), 3 + 1);
    }

    #[test]
    fn clustering_is_idempotent_and_order_independent() {
        let nodes: Vec<RecordKey> = (0..5).map(|i| key(Side::Left, i)).collect();
        let edges = vec![
            (key(Side::Left, 0), key(Side::Left, 1)),
            (key(Side::Left, 1), key(Side::Left, 2)),
            (key(Side::Left, 3), key(Side::Left, 4)),
        ];
        let forward = EntityClusters::from_edges(nodes.clone(), edges.clone());
        let mut reversed = edges.clone();
        reversed.reverse();
        let backward = EntityClusters::from_edges(nodes.clone(), reversed);
        assert_eq!(forward, backward);
        // Duplicated edges change nothing.
        let doubled: Vec<_> = edges.iter().chain(edges.iter()).copied().collect();
        assert_eq!(forward, EntityClusters::from_edges(nodes, doubled));
    }

    #[test]
    fn pairwise_metrics_score_against_truth() {
        let nodes: Vec<RecordKey> = (0..4).map(|i| key(Side::Left, i)).collect();
        // Prediction merges {0,1,2}; truth is {0,1} and {2,3}.
        let predicted = EntityClusters::from_edges(
            nodes.clone(),
            [(key(Side::Left, 0), key(Side::Left, 1)), (key(Side::Left, 1), key(Side::Left, 2))],
        );
        let truth = EntityClusters::from_edges(
            nodes,
            [(key(Side::Left, 0), key(Side::Left, 1)), (key(Side::Left, 2), key(Side::Left, 3))],
        );
        let m = predicted.pairwise_metrics(&truth);
        // Predicted pairs: (0,1), (0,2), (1,2) → only (0,1) is true.
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_positives, 2);
        // Truth pairs: (0,1), (2,3) → (2,3) missed.
        assert_eq!(m.false_negatives, 1);
        assert_eq!(m.total(), 6); // C(4,2)
        assert!((m.precision() - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_clustering_scores_one() {
        let nodes: Vec<RecordKey> =
            (0..3).map(|i| key(Side::Left, i)).chain((0..3).map(|i| key(Side::Right, i))).collect();
        let edges: Vec<_> = (0..3).map(|i| (key(Side::Left, i), key(Side::Right, i))).collect();
        let predicted = EntityClusters::from_edges(nodes.clone(), edges.clone());
        let truth = EntityClusters::from_edges(nodes, edges);
        let m = predicted.pairwise_metrics(&truth);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f1(), 1.0);
    }

    #[test]
    fn empty_clustering_is_well_defined() {
        let clusters = EntityClusters::from_edges(std::iter::empty(), std::iter::empty());
        assert!(clusters.is_empty());
        assert_eq!(clusters.pair_count(), 0);
        let m = clusters.pairwise_metrics(&clusters);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
    }
}
