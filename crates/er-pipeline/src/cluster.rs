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
use std::collections::BTreeMap;

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
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates a forest of `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self { parent: (0..n).collect(), rank: vec![0; n] }
    }

    /// Number of elements in the forest.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest holds no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` when they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
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

    /// Whether `a` and `b` are currently in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// A partition of record keys into entities, in canonical form: every cluster
/// is sorted, clusters are ordered by their smallest member, and singletons are
/// kept. Two clusterings built from the same edges in any order compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityClusters {
    clusters: Vec<Vec<RecordKey>>,
    membership: BTreeMap<RecordKey, usize>,
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
        let mut index: BTreeMap<RecordKey, usize> = BTreeMap::new();
        let mut keys: Vec<RecordKey> = Vec::new();
        let mut intern = |key: RecordKey, keys: &mut Vec<RecordKey>| -> usize {
            *index.entry(key).or_insert_with(|| {
                keys.push(key);
                keys.len() - 1
            })
        };
        let edges: Vec<(usize, usize)> = {
            let mut dense = Vec::new();
            for key in nodes {
                intern(key, &mut keys);
            }
            for (a, b) in edges {
                let (ia, ib) = (intern(a, &mut keys), intern(b, &mut keys));
                dense.push((ia, ib));
            }
            dense
        };
        let mut forest = UnionFind::new(keys.len());
        for (a, b) in edges {
            forest.union(a, b);
        }
        let mut grouped: BTreeMap<usize, Vec<RecordKey>> = BTreeMap::new();
        for (i, &key) in keys.iter().enumerate() {
            let root = forest.find(i);
            grouped.entry(root).or_default().push(key);
        }
        let mut clusters: Vec<Vec<RecordKey>> = grouped
            .into_values()
            .map(|mut members| {
                members.sort_unstable();
                members
            })
            .collect();
        clusters.sort_unstable();
        let mut membership = BTreeMap::new();
        for (c, members) in clusters.iter().enumerate() {
            for &key in members {
                membership.insert(key, c);
            }
        }
        Self { clusters, membership }
    }

    /// The clusters in canonical order.
    pub fn clusters(&self) -> &[Vec<RecordKey>] {
        &self.clusters
    }

    /// Number of clusters (singletons included).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Number of clusters with at least two members (actual merged entities).
    pub fn non_singleton_count(&self) -> usize {
        self.clusters.iter().filter(|c| c.len() > 1).count()
    }

    /// Whether two record keys are placed in the same entity.
    pub fn same_entity(&self, a: RecordKey, b: RecordKey) -> bool {
        match (self.membership.get(&a), self.membership.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Number of unordered record pairs co-clustered by this partition.
    pub fn pair_count(&self) -> usize {
        self.clusters.iter().map(|c| c.len() * (c.len() - 1) / 2).sum()
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
        let mut true_positives = 0usize;
        for cluster in &self.clusters {
            for i in 0..cluster.len() {
                for j in (i + 1)..cluster.len() {
                    if truth.same_entity(cluster[i], cluster[j]) {
                        true_positives += 1;
                    }
                }
            }
        }
        let predicted = self.pair_count();
        let actual = truth.pair_count();
        let false_positives = predicted - true_positives;
        let false_negatives = actual - true_positives;
        let universe: std::collections::BTreeSet<RecordKey> =
            self.membership.keys().chain(truth.membership.keys()).copied().collect();
        let n = universe.len();
        let total_pairs = n * n.saturating_sub(1) / 2;
        let true_negatives =
            total_pairs.saturating_sub(true_positives + false_positives + false_negatives);
        QualityMetrics::from_counts(
            true_positives,
            false_positives,
            false_negatives,
            true_negatives,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(side: Side, id: u64) -> RecordKey {
        (side, RecordId(id))
    }

    #[test]
    fn union_find_merges_and_finds() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
        assert_eq!(uf.len(), 6);
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
