//! Sampling pairs from workload subsets.
//!
//! The sampler owns the *randomness* of within-subset sampling but not the
//! labels: which pairs get drawn from a subset is decided by a seeded RNG whose
//! draw order never depends on label values, so a
//! [`LabelingSession`](crate::LabelingSession) replay reproduces the exact same
//! draws. Labels are then read from the session's answered slate, and the
//! replay suspends when some are missing.

use crate::session::{Drive, LabelSlate, SessionPhase};
use er_core::workload::SubsetPartition;
use er_stats::SampleSummary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The owned, workload-independent part of a [`SubsetSampler`]: cached draws,
/// cached summaries and the RNG state. The sampler itself borrows the
/// partition, so it cannot be stored across session steps — a suspended
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
pub(crate) struct SubsetSampler<'a> {
    partition: &'a SubsetPartition,
    samples_per_subset: usize,
    rng: StdRng,
    /// Within-subset sample indices, cached at first draw (ascending order).
    drawn: BTreeMap<usize, Vec<usize>>,
    cache: BTreeMap<usize, SampleSummary>,
}

impl<'a> SubsetSampler<'a> {
    /// Creates a sampler drawing `samples_per_subset` pairs from each sampled subset.
    pub fn new(partition: &'a SubsetPartition, samples_per_subset: usize, seed: u64) -> Self {
        Self {
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
        partition: &'a SubsetPartition,
        samples_per_subset: usize,
        snapshot: SamplerSnapshot,
    ) -> Self {
        Self {
            partition,
            samples_per_subset: samples_per_subset.max(1),
            rng: snapshot.rng,
            drawn: snapshot.drawn,
            cache: snapshot.cache,
        }
    }

    /// The sampler's owned state, for storing across session steps.
    pub(crate) fn into_snapshot(self) -> SamplerSnapshot {
        SamplerSnapshot { drawn: self.drawn, cache: self.cache, rng: self.rng }
    }

    /// Number of distinct subsets sampled so far.
    pub fn sampled_subset_count(&self) -> usize {
        self.cache.len()
    }

    /// The cached sample summaries, keyed by subset index.
    pub fn samples(&self) -> &BTreeMap<usize, SampleSummary> {
        &self.cache
    }

    /// The workload indices sampled from a subset, in ascending order,
    /// drawing (and advancing the RNG) only the first time a subset is asked
    /// for.
    ///
    /// A draw takes `samples_per_subset` distinct indices of the subset's
    /// range, or the whole range when it is no larger. Uniform indices are
    /// drawn until that many distinct ones are hit; the hits are marked in
    /// a bitmap over the range, which is then read back in order.
    fn draw(&mut self, subset_index: usize) -> Vec<usize> {
        if let Some(drawn) = self.drawn.get(&subset_index) {
            return drawn.clone();
        }
        let range = self.partition.subset(subset_index).range();
        let size = range.len();
        let take = self.samples_per_subset.min(size);
        let drawn: Vec<usize> = if take >= size {
            range.collect()
        } else {
            let mut hit = vec![false; size];
            let mut hits = 0;
            while hits < take {
                let index = self.rng.gen_range(range.start..range.end);
                if !std::mem::replace(&mut hit[index - range.start], true) {
                    hits += 1;
                }
            }
            range.zip(hit).filter_map(|(index, hit)| hit.then_some(index)).collect()
        };
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
        let summary = SampleSummary::new(indices.len(), positives)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{GroundTruthOracle, Oracle};
    use er_core::workload::{Label, Workload};

    fn workload(n: usize) -> Workload {
        // Top half of the similarity range is all matches.
        Workload::from_scores((0..n).map(|i| (i as f64 / n as f64, i >= n / 2))).unwrap()
    }

    /// Every pair's ground-truth label, as an answered slate holds it.
    fn answered(w: &Workload) -> Vec<Option<Label>> {
        (0..w.len()).map(|i| Some(w.pair(i).ground_truth())).collect()
    }

    /// Samples one subset from a slate that must hold every drawn label.
    fn sample(
        sampler: &mut SubsetSampler<'_>,
        subset: usize,
        labels: &[Option<Label>],
    ) -> SampleSummary {
        sampler
            .sample_core(subset, &LabelSlate::new(labels))
            .unwrap_or_else(|_| panic!("subset {subset} suspended on an answered slate"))
    }

    /// The workload indices a fresh draw of `subset` asks labels for.
    fn requested(sampler: &mut SubsetSampler<'_>, subset: usize, len: usize) -> Vec<usize> {
        let empty: Vec<Option<Label>> = vec![None; len];
        match sampler.sample_core(subset, &LabelSlate::new(&empty)) {
            Err(crate::session::Suspend::Need { indices, .. }) => indices,
            _ => panic!("expected a suspension for unanswered labels"),
        }
    }

    #[test]
    fn sampling_respects_budget_and_caches() {
        let w = workload(1_000);
        let partition = w.partition(100).unwrap();
        let labels = answered(&w);
        let mut sampler = SubsetSampler::new(&partition, 10, 1);
        // A fresh subset asks for exactly the per-subset budget.
        assert_eq!(requested(&mut sampler, 3, w.len()).len(), 10);
        let first = sample(&mut sampler, 3, &labels);
        assert_eq!(first.sample_size, 10);
        // Re-sampling the same subset is free: it returns the cached summary
        // without asking for any label.
        let unanswered: Vec<Option<Label>> = vec![None; w.len()];
        let second = sample(&mut sampler, 3, &unanswered);
        assert_eq!(first, second);
        assert_eq!(sampler.sampled_subset_count(), 1);
    }

    #[test]
    fn small_subsets_are_fully_sampled() {
        let w = workload(100);
        let partition = w.partition(20).unwrap();
        let mut sampler = SubsetSampler::new(&partition, 50, 1);
        let summary = sample(&mut sampler, 0, &answered(&w));
        assert_eq!(summary.sample_size, 20);
    }

    #[test]
    fn sampled_proportions_reflect_the_ground_truth() {
        let w = workload(2_000);
        let partition = w.partition(200).unwrap();
        let mut sampler = SubsetSampler::new(&partition, 200, 1);
        let labels = answered(&w);
        let all: Vec<usize> = (0..partition.len()).collect();
        let summaries = sampler
            .sample_many_core(&all, &LabelSlate::new(&labels))
            .unwrap_or_else(|_| panic!("every label is answered"));
        // First subsets are pure non-matches, last ones pure matches.
        assert_eq!(summaries.first().unwrap().proportion(), 0.0);
        assert_eq!(summaries.last().unwrap().proportion(), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = workload(1_000);
        let partition = w.partition(100).unwrap();
        let labels = answered(&w);
        let mut a = SubsetSampler::new(&partition, 15, 9);
        let mut b = SubsetSampler::new(&partition, 15, 9);
        assert_eq!(sample(&mut a, 5, &labels), sample(&mut b, 5, &labels));
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let w = workload(1_000);
        let partition = w.partition(100).unwrap();
        let labels = answered(&w);
        let mut reference = SubsetSampler::new(&partition, 15, 9);
        let first = sample(&mut reference, 2, &labels);
        // Snapshot a twin mid-flight, restore, and continue: the restored
        // sampler reproduces both the cached summary and the future draws.
        let mut twin = SubsetSampler::new(&partition, 15, 9);
        sample(&mut twin, 2, &labels);
        let mut restored = SubsetSampler::restore(&partition, 15, twin.into_snapshot());
        assert_eq!(sample(&mut restored, 2, &labels), first);
        assert_eq!(sample(&mut restored, 7, &labels), sample(&mut reference, 7, &labels));
        // A fresh snapshot is equivalent to a fresh sampler.
        let mut from_fresh = SubsetSampler::restore(&partition, 15, SamplerSnapshot::new(9));
        let mut fresh = SubsetSampler::new(&partition, 15, 9);
        assert_eq!(sample(&mut from_fresh, 5, &labels), sample(&mut fresh, 5, &labels));
    }

    /// The draw `draw` made before hits were marked on a bitmap: insert
    /// uniform indices into a `BTreeSet` until it holds `take`.
    fn btreeset_draw(rng: &mut StdRng, range: std::ops::Range<usize>, take: usize) -> Vec<usize> {
        if take >= range.len() {
            return range.collect();
        }
        let mut drawn = std::collections::BTreeSet::new();
        while drawn.len() < take {
            drawn.insert(rng.gen_range(range.start..range.end));
        }
        drawn.into_iter().collect()
    }

    #[test]
    fn draws_match_a_btreeset_reference_and_leave_the_same_rng_state() {
        let w = workload(1_000);
        for unit in [1, 2, 7, 100, 250, 1_000] {
            let partition = w.partition(unit).unwrap();
            for samples in [1, 2, 5, 50, 99, 100, 101, 400] {
                for seed in [3, 9] {
                    let mut sampler = SubsetSampler::new(&partition, samples, seed);
                    let mut rng = StdRng::seed_from_u64(seed);
                    // Consecutive draws of distinct subsets: the second only
                    // matches if the first left the RNG where the reference
                    // left it.
                    let mut subsets = vec![partition.len() / 2, partition.len() - 1];
                    subsets.dedup();
                    for subset in subsets {
                        let range = partition.subset(subset).range();
                        let expected = btreeset_draw(&mut rng, range, samples);
                        assert_eq!(sampler.draw(subset), expected, "unit {unit}, k {samples}");
                    }
                }
            }
        }
    }

    #[test]
    fn suspendable_sampling_matches_the_oracle_path() {
        // The same seed must draw the same pairs whether every label was
        // pulled from an oracle up front or the draw suspends and is answered
        // afterwards — that equivalence is what makes session replays
        // byte-identical with oracle-driven runs.
        let w = workload(1_000);
        let partition = w.partition(100).unwrap();
        let mut oracle = GroundTruthOracle::new();
        let pulled: Vec<Option<Label>> =
            (0..w.len()).map(|i| Some(oracle.label(&w.pair(i)))).collect();
        let via_oracle = sample(&mut SubsetSampler::new(&partition, 15, 9), 5, &pulled);

        let mut session_sampler = SubsetSampler::new(&partition, 15, 9);
        // First attempt suspends with the drawn pairs.
        let indices = requested(&mut session_sampler, 5, w.len());
        assert_eq!(indices.len(), 15);
        // Answer them from the ground truth and retry: summary matches.
        let mut answered: Vec<Option<Label>> = vec![None; w.len()];
        for &i in &indices {
            answered[i] = Some(w.pair(i).ground_truth());
        }
        assert_eq!(sample(&mut session_sampler, 5, &answered), via_oracle);
    }
}
