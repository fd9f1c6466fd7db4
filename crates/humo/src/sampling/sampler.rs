//! Sampling pairs from workload subsets.
//!
//! The sampler owns the *randomness* of within-subset sampling but not the
//! labels: which pairs get drawn from a subset is decided by a seeded RNG whose
//! draw order never depends on label values, so a
//! [`LabelingSession`](crate::LabelingSession) replay reproduces the exact same
//! draws. Labels are then read from the session's answered slate (suspending
//! the replay when missing) or, through the legacy synchronous API, pulled
//! from an [`Oracle`].

use crate::oracle::Oracle;
use crate::session::{Drive, LabelSlate, SessionPhase};
use er_core::workload::{SubsetPartition, Workload};
use er_stats::SampleSummary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The owned, workload-independent part of a [`SubsetSampler`]: cached draws,
/// cached summaries and the RNG state. The sampler itself borrows the workload
/// and partition, so it cannot be stored across session steps — a suspended
/// replay snapshots this state instead and restores an equivalent sampler on
/// the next step ([`SubsetSampler::restore`]).
#[derive(Debug, Clone)]
pub(crate) struct SamplerSnapshot {
    drawn: BTreeMap<usize, Vec<usize>>,
    cache: BTreeMap<usize, SampleSummary>,
    rng: StdRng,
}

impl SamplerSnapshot {
    /// The state of a fresh sampler with the given seed: restoring from this
    /// snapshot is equivalent to [`SubsetSampler::new`] with the same seed.
    pub(crate) fn new(seed: u64) -> Self {
        Self { drawn: BTreeMap::new(), cache: BTreeMap::new(), rng: StdRng::seed_from_u64(seed) }
    }
}

/// Draws simple random samples from workload subsets and caches the per-subset
/// draws and summaries so a subset is never re-sampled.
#[derive(Debug)]
pub struct SubsetSampler<'a> {
    workload: &'a Workload,
    partition: &'a SubsetPartition,
    samples_per_subset: usize,
    rng: StdRng,
    /// Within-subset sample indices, cached at first draw (ascending order).
    drawn: BTreeMap<usize, Vec<usize>>,
    cache: BTreeMap<usize, SampleSummary>,
}

impl<'a> SubsetSampler<'a> {
    /// Creates a sampler drawing `samples_per_subset` pairs from each sampled subset.
    pub fn new(
        workload: &'a Workload,
        partition: &'a SubsetPartition,
        samples_per_subset: usize,
        seed: u64,
    ) -> Self {
        Self {
            workload,
            partition,
            samples_per_subset: samples_per_subset.max(1),
            rng: StdRng::seed_from_u64(seed),
            drawn: BTreeMap::new(),
            cache: BTreeMap::new(),
        }
    }

    /// Rebuilds a sampler from a [`SamplerSnapshot`], continuing exactly where
    /// the snapshotted sampler stopped (same cached draws, same RNG state).
    pub(crate) fn restore(
        workload: &'a Workload,
        partition: &'a SubsetPartition,
        samples_per_subset: usize,
        snapshot: SamplerSnapshot,
    ) -> Self {
        Self {
            workload,
            partition,
            samples_per_subset: samples_per_subset.max(1),
            rng: snapshot.rng,
            drawn: snapshot.drawn,
            cache: snapshot.cache,
        }
    }

    /// The sampler's owned state, for storing across session steps.
    pub(crate) fn snapshot(&self) -> SamplerSnapshot {
        SamplerSnapshot {
            drawn: self.drawn.clone(),
            cache: self.cache.clone(),
            rng: self.rng.clone(),
        }
    }

    /// Number of distinct subsets sampled so far.
    pub fn sampled_subset_count(&self) -> usize {
        self.cache.len()
    }

    /// The cached sample summaries, keyed by subset index.
    pub fn samples(&self) -> &BTreeMap<usize, SampleSummary> {
        &self.cache
    }

    /// Whether a subset has already been sampled.
    pub fn is_sampled(&self, subset_index: usize) -> bool {
        self.cache.contains_key(&subset_index)
    }

    /// The workload indices sampled from a subset, drawing (and advancing the
    /// RNG) only the first time a subset is asked for.
    fn draw(&mut self, subset_index: usize) -> Vec<usize> {
        if let Some(drawn) = self.drawn.get(&subset_index) {
            return drawn.clone();
        }
        let range = self.partition.subset(subset_index).range();
        let size = range.len();
        let take = self.samples_per_subset.min(size);
        let indices: BTreeSet<usize> = if take >= size {
            range.clone().collect()
        } else {
            let mut drawn = BTreeSet::new();
            while drawn.len() < take {
                drawn.insert(self.rng.gen_range(range.start..range.end));
            }
            drawn
        };
        let drawn: Vec<usize> = indices.into_iter().collect();
        self.drawn.insert(subset_index, drawn.clone());
        drawn
    }

    /// Summarizes a drawn subset from answered labels and caches the result.
    fn summarize(
        &mut self,
        subset_index: usize,
        indices: &[usize],
        slate: &LabelSlate<'_>,
    ) -> SampleSummary {
        let positives = indices.iter().filter(|&&index| slate.is_match(index)).count();
        self.insert_summary(subset_index, indices.len(), positives)
    }

    /// Caches and returns a subset's sample summary — the single construction
    /// point shared by the slate and oracle labeling paths.
    fn insert_summary(
        &mut self,
        subset_index: usize,
        sample_size: usize,
        positives: usize,
    ) -> SampleSummary {
        let summary = SampleSummary::new(sample_size, positives)
            .expect("positives cannot exceed the sample size by construction");
        self.cache.insert(subset_index, summary);
        summary
    }

    /// Samples a subset (or returns the cached summary), reading labels from
    /// the answered slate and suspending the replay when they are missing.
    pub(crate) fn sample_core(
        &mut self,
        subset_index: usize,
        slate: &LabelSlate<'_>,
    ) -> Drive<SampleSummary> {
        if let Some(summary) = self.cache.get(&subset_index) {
            return Ok(*summary);
        }
        let indices = self.draw(subset_index);
        slate.require(SessionPhase::Sampling, indices.iter().copied())?;
        Ok(self.summarize(subset_index, &indices, slate))
    }

    /// Samples several subsets as **one** label batch: all draws happen first
    /// (their membership never depends on labels), then a single `require`
    /// covers every drawn pair, so a driver can dispatch the whole set in
    /// parallel within one round-trip.
    pub(crate) fn sample_many_core(
        &mut self,
        subsets: &[usize],
        slate: &LabelSlate<'_>,
    ) -> Drive<Vec<SampleSummary>> {
        let mut fresh: Vec<(usize, Vec<usize>)> = Vec::new();
        for &subset in subsets {
            if !self.cache.contains_key(&subset) {
                let indices = self.draw(subset);
                fresh.push((subset, indices));
            }
        }
        slate.require(
            SessionPhase::Sampling,
            fresh.iter().flat_map(|(_, indices)| indices.iter().copied()),
        )?;
        for (subset, indices) in &fresh {
            self.summarize(*subset, indices, slate);
        }
        Ok(subsets.iter().map(|subset| self.cache[subset]).collect())
    }

    /// Samples a subset (or returns the cached summary), labelling the drawn
    /// pairs synchronously through the oracle. This is the legacy blocking
    /// API; session replays use the suspendable path instead.
    pub fn sample(&mut self, subset_index: usize, oracle: &mut dyn Oracle) -> SampleSummary {
        if let Some(summary) = self.cache.get(&subset_index) {
            return *summary;
        }
        let indices = self.draw(subset_index);
        let positives = indices
            .iter()
            .filter(|&&index| oracle.label(&self.workload.pair(index)).is_match())
            .count();
        self.insert_summary(subset_index, indices.len(), positives)
    }

    /// Samples every subset of the partition (the all-sampling regime).
    pub fn sample_all(&mut self, oracle: &mut dyn Oracle) -> Vec<SampleSummary> {
        (0..self.partition.len()).map(|i| self.sample(i, oracle)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{GroundTruthOracle, Oracle};
    use er_core::workload::Label;

    fn workload(n: usize) -> Workload {
        // Top half of the similarity range is all matches.
        Workload::from_scores((0..n).map(|i| (i as f64 / n as f64, i >= n / 2))).unwrap()
    }

    #[test]
    fn sampling_respects_budget_and_caches() {
        let w = workload(1_000);
        let partition = w.partition(100).unwrap();
        let mut sampler = SubsetSampler::new(&w, &partition, 10, 1);
        let mut oracle = GroundTruthOracle::new();
        let first = sampler.sample(3, &mut oracle);
        assert_eq!(first.sample_size, 10);
        let cost_after_first = oracle.labels_issued();
        assert_eq!(cost_after_first, 10);
        // Re-sampling the same subset is free and returns the cached summary.
        let second = sampler.sample(3, &mut oracle);
        assert_eq!(first, second);
        assert_eq!(oracle.labels_issued(), cost_after_first);
        assert_eq!(sampler.sampled_subset_count(), 1);
    }

    #[test]
    fn small_subsets_are_fully_sampled() {
        let w = workload(100);
        let partition = w.partition(20).unwrap();
        let mut sampler = SubsetSampler::new(&w, &partition, 50, 1);
        let mut oracle = GroundTruthOracle::new();
        let summary = sampler.sample(0, &mut oracle);
        assert_eq!(summary.sample_size, 20);
    }

    #[test]
    fn sampled_proportions_reflect_the_ground_truth() {
        let w = workload(2_000);
        let partition = w.partition(200).unwrap();
        let mut sampler = SubsetSampler::new(&w, &partition, 200, 1);
        let mut oracle = GroundTruthOracle::new();
        let summaries = sampler.sample_all(&mut oracle);
        // First subsets are pure non-matches, last ones pure matches.
        assert_eq!(summaries.first().unwrap().proportion(), 0.0);
        assert_eq!(summaries.last().unwrap().proportion(), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = workload(1_000);
        let partition = w.partition(100).unwrap();
        let mut a = SubsetSampler::new(&w, &partition, 15, 9);
        let mut b = SubsetSampler::new(&w, &partition, 15, 9);
        let mut oracle_a = GroundTruthOracle::new();
        let mut oracle_b = GroundTruthOracle::new();
        assert_eq!(a.sample(5, &mut oracle_a), b.sample(5, &mut oracle_b));
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let w = workload(1_000);
        let partition = w.partition(100).unwrap();
        let mut reference = SubsetSampler::new(&w, &partition, 15, 9);
        let mut oracle = GroundTruthOracle::new();
        let first = reference.sample(2, &mut oracle);
        // Snapshot mid-flight, restore, and continue: the restored sampler
        // reproduces both the cached summary and the future draws.
        let snapshot = reference.snapshot();
        let mut restored = SubsetSampler::restore(&w, &partition, 15, snapshot);
        assert_eq!(restored.sample(2, &mut oracle), first);
        assert_eq!(restored.sample(7, &mut oracle), reference.sample(7, &mut oracle));
        // A fresh snapshot is equivalent to a fresh sampler.
        let mut from_fresh = SubsetSampler::restore(&w, &partition, 15, SamplerSnapshot::new(9));
        let mut fresh = SubsetSampler::new(&w, &partition, 15, 9);
        assert_eq!(from_fresh.sample(5, &mut oracle), fresh.sample(5, &mut oracle));
    }

    #[test]
    fn suspendable_sampling_matches_the_oracle_path() {
        // The same seed must draw the same pairs whether labels are pulled
        // from an oracle or read from an answered slate — that equivalence is
        // what makes session replays byte-identical with oracle runs.
        let w = workload(1_000);
        let partition = w.partition(100).unwrap();
        let mut oracle_sampler = SubsetSampler::new(&w, &partition, 15, 9);
        let mut oracle = GroundTruthOracle::new();
        let via_oracle = oracle_sampler.sample(5, &mut oracle);

        let mut session_sampler = SubsetSampler::new(&w, &partition, 15, 9);
        let empty: Vec<Option<Label>> = vec![None; w.len()];
        let slate = LabelSlate::new(&empty);
        // First attempt suspends with the drawn pairs.
        let suspended = session_sampler.sample_core(5, &slate);
        let indices = match suspended {
            Err(crate::session::Suspend::Need { indices, .. }) => indices,
            _ => panic!("expected a suspension for unanswered labels"),
        };
        assert_eq!(indices.len(), 15);
        // Answer them from the ground truth and retry: summary matches.
        let mut answered: Vec<Option<Label>> = vec![None; w.len()];
        for &i in &indices {
            answered[i] = Some(w.pair(i).ground_truth());
        }
        let slate = LabelSlate::new(&answered);
        let via_slate = session_sampler.sample_core(5, &slate).unwrap_or_else(|_| panic!());
        assert_eq!(via_oracle, via_slate);
    }
}
