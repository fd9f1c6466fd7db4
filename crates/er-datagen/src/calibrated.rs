//! Pair-level workloads calibrated to the statistics of the paper's real datasets.
//!
//! The paper evaluates HUMO on two benchmark ER datasets (DBLP-Scholar and
//! Abt-Buy) that are distributed as external downloads, which this repository
//! does not fetch. This module substitutes generated workloads that match the
//! *reported statistics* of those datasets after blocking:
//!
//! | dataset | pairs after blocking | matching pairs | blocking threshold | match distribution (Fig. 4) |
//! |---|---|---|---|---|
//! | DBLP-Scholar (DS) | 100 077 | 5 267 | 0.20 | concentrated at high similarity |
//! | Abt-Buy (AB) | 313 040 | 1 085 | 0.05 | spread over low/medium similarity |
//!
//! HUMO and its optimizers only consume `(similarity, ground-truth)` pairs, so a
//! workload reproducing the pair count, match count and the match-proportion
//! shape reproduces the experimental conditions that drive the paper's results:
//! DS is an "easy" workload (monotone, steep match-proportion curve), AB is a
//! "hard" one (matches living in the middle of a sea of non-matches).

use crate::rng::{bernoulli, truncated_exponential, truncated_normal};
use er_core::workload::{InstancePair, Label, PairId, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One truncated-normal component of the match-similarity mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureComponent {
    /// Relative weight of the component (normalized internally).
    pub weight: f64,
    /// Mean similarity of matching pairs drawn from this component.
    pub mean: f64,
    /// Standard deviation of the component.
    pub std_dev: f64,
    /// Lower truncation bound.
    pub lo: f64,
    /// Upper truncation bound.
    pub hi: f64,
}

/// Mixture model describing where matching pairs live on the similarity axis.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchSimilarityModel {
    components: Vec<MixtureComponent>,
}

impl MatchSimilarityModel {
    /// Creates a mixture model from components (weights are normalized).
    ///
    /// # Panics
    /// Panics if no components are provided or all weights are zero.
    pub fn new(components: Vec<MixtureComponent>) -> Self {
        assert!(!components.is_empty(), "mixture model needs at least one component");
        let total: f64 = components.iter().map(|c| c.weight).sum();
        assert!(total > 0.0, "mixture weights must not all be zero");
        Self { components }
    }

    /// The mixture components.
    pub fn components(&self) -> &[MixtureComponent] {
        &self.components
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let total: f64 = self.components.iter().map(|c| c.weight).sum();
        let mut pick = rng.gen_range(0.0..total);
        for c in &self.components {
            if pick < c.weight {
                return truncated_normal(rng, c.mean, c.std_dev, c.lo, c.hi);
            }
            pick -= c.weight;
        }
        let c = self.components.last().expect("non-empty mixture");
        truncated_normal(rng, c.mean, c.std_dev, c.lo, c.hi)
    }
}

/// Configuration of a calibrated workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedConfig {
    /// Human-readable dataset name (e.g. `"DS"`).
    pub name: String,
    /// Total number of pairs after blocking.
    pub total_pairs: usize,
    /// Number of ground-truth matching pairs.
    pub total_matches: usize,
    /// Blocking threshold: no generated pair has similarity below this value.
    pub min_similarity: f64,
    /// Similarity distribution of matching pairs.
    pub match_model: MatchSimilarityModel,
    /// Exponential decay rate of non-matching pair similarities above the
    /// blocking threshold (larger → non-matches concentrate just above the
    /// threshold).
    pub unmatch_decay_rate: f64,
    /// Fraction of non-matching pairs drawn as "hard negatives" spread uniformly
    /// over the upper similarity band (these are what keep machine precision
    /// below 1 even at high similarity).
    pub hard_negative_fraction: f64,
    /// Band `[lo, hi]` from which hard-negative similarities are drawn.
    pub hard_negative_band: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl CalibratedConfig {
    /// The DBLP-Scholar-like configuration (paper statistics, Fig. 4a shape).
    pub fn ds(seed: u64) -> Self {
        Self {
            name: "DS".to_string(),
            total_pairs: 100_077,
            total_matches: 5_267,
            min_similarity: 0.20,
            match_model: MatchSimilarityModel::new(vec![
                MixtureComponent { weight: 0.80, mean: 0.82, std_dev: 0.10, lo: 0.30, hi: 1.0 },
                MixtureComponent { weight: 0.20, mean: 0.55, std_dev: 0.15, lo: 0.20, hi: 0.95 },
            ]),
            unmatch_decay_rate: 15.0,
            hard_negative_fraction: 0.01,
            hard_negative_band: (0.45, 0.90),
            seed,
        }
    }

    /// The Abt-Buy-like configuration (paper statistics, Fig. 4b shape).
    pub fn ab(seed: u64) -> Self {
        Self {
            name: "AB".to_string(),
            total_pairs: 313_040,
            total_matches: 1_085,
            min_similarity: 0.05,
            match_model: MatchSimilarityModel::new(vec![
                MixtureComponent { weight: 0.60, mean: 0.30, std_dev: 0.10, lo: 0.12, hi: 0.60 },
                MixtureComponent { weight: 0.30, mean: 0.45, std_dev: 0.12, lo: 0.15, hi: 0.75 },
                MixtureComponent { weight: 0.10, mean: 0.22, std_dev: 0.04, lo: 0.12, hi: 0.35 },
            ]),
            unmatch_decay_rate: 40.0,
            hard_negative_fraction: 0.006,
            hard_negative_band: (0.10, 0.50),
            seed,
        }
    }

    /// Returns a copy scaled down to `fraction` of the original pair and match
    /// counts (used to keep unit tests fast); at least one match is retained.
    pub fn scaled(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0,1]");
        self.total_pairs = ((self.total_pairs as f64 * fraction).round() as usize).max(10);
        self.total_matches = ((self.total_matches as f64 * fraction).round() as usize).max(1);
        self
    }

    /// Generates the workload described by this configuration.
    pub fn generate(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut pairs = Vec::with_capacity(self.total_pairs);
        let mut next_id = 0u64;

        // Matching pairs.
        for _ in 0..self.total_matches.min(self.total_pairs) {
            let sim = self.match_model.sample(&mut rng).clamp(self.min_similarity, 1.0);
            pairs.push(InstancePair::new(PairId(next_id), sim, Label::Match));
            next_id += 1;
        }

        // Non-matching pairs.
        let num_unmatch = self.total_pairs.saturating_sub(self.total_matches);
        let span = 1.0 - self.min_similarity;
        for _ in 0..num_unmatch {
            let sim = if bernoulli(&mut rng, self.hard_negative_fraction) {
                let (lo, hi) = self.hard_negative_band;
                rng.gen_range(lo..hi)
            } else {
                self.min_similarity + truncated_exponential(&mut rng, self.unmatch_decay_rate, span)
            };
            pairs.push(InstancePair::new(PairId(next_id), sim.clamp(0.0, 1.0), Label::Unmatch));
            next_id += 1;
        }

        Workload::from_pairs(pairs).expect("calibrated similarities are always in [0,1]")
    }
}

/// Full-size DBLP-Scholar-like workload (100 077 pairs, 5 267 matches).
pub fn ds_like(seed: u64) -> Workload {
    CalibratedConfig::ds(seed).generate()
}

/// Full-size Abt-Buy-like workload (313 040 pairs, 1 085 matches).
pub fn ab_like(seed: u64) -> Workload {
    CalibratedConfig::ab(seed).generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ds_statistics_match_the_paper() {
        let w = ds_like(1);
        assert_eq!(w.len(), 100_077);
        assert_eq!(w.total_matches(), 5_267);
        for p in w.pairs() {
            assert!(p.similarity() >= 0.20 - 1e-12);
            assert!(p.similarity() <= 1.0);
        }
    }

    #[test]
    fn ab_statistics_match_the_paper() {
        let w = ab_like(1);
        assert_eq!(w.len(), 313_040);
        assert_eq!(w.total_matches(), 1_085);
        for p in w.pairs() {
            assert!(p.similarity() >= 0.05 - 1e-12);
        }
    }

    #[test]
    fn ds_matches_concentrate_at_high_similarity() {
        // Figure 4a: the majority of DS matching pairs have high similarity.
        let w = CalibratedConfig::ds(2).scaled(0.2).generate();
        let matches: Vec<f64> =
            w.pairs().iter().filter(|p| p.is_match()).map(|p| p.similarity()).collect();
        let high = matches.iter().filter(|&&s| s >= 0.6).count();
        assert!(
            high as f64 / matches.len() as f64 > 0.6,
            "expected most DS matches above 0.6 similarity"
        );
    }

    #[test]
    fn ab_matches_concentrate_at_low_and_medium_similarity() {
        // Figure 4b: many AB matching pairs have medium and low similarity.
        let w = CalibratedConfig::ab(2).scaled(0.2).generate();
        let matches: Vec<f64> =
            w.pairs().iter().filter(|p| p.is_match()).map(|p| p.similarity()).collect();
        let low_mid = matches.iter().filter(|&&s| s < 0.5).count();
        assert!(
            low_mid as f64 / matches.len() as f64 > 0.6,
            "expected most AB matches below 0.5 similarity"
        );
    }

    #[test]
    fn monotonicity_of_precision_holds_broadly_on_ds() {
        // The match proportion of the top similarity quartile must dominate the
        // bottom quartile by a wide margin — this is what makes DS "easy".
        let w = CalibratedConfig::ds(3).scaled(0.1).generate();
        let n = w.len();
        let bottom = w.match_proportion(0..n / 4);
        let top = w.match_proportion(3 * n / 4..n);
        assert!(top > 10.0 * bottom.max(1e-6), "top {top} vs bottom {bottom}");
    }

    #[test]
    fn ab_is_harder_than_ds_for_a_machine_classifier() {
        // Best-achievable F1 of a pure similarity threshold classifier should be
        // clearly higher on DS than on AB, mirroring Table I.
        fn best_f1(w: &Workload) -> f64 {
            let n = w.len();
            let mut best: f64 = 0.0;
            for idx in (0..n).step_by((n / 200).max(1)) {
                let assignment = er_core::workload::LabelAssignment::from_threshold_index(n, idx);
                let m = w.evaluate(&assignment).unwrap();
                best = best.max(m.f1());
            }
            best
        }
        let ds = CalibratedConfig::ds(4).scaled(0.1).generate();
        let ab = CalibratedConfig::ab(4).scaled(0.1).generate();
        let f1_ds = best_f1(&ds);
        let f1_ab = best_f1(&ab);
        assert!(f1_ds > f1_ab + 0.15, "DS best F1 {f1_ds} should exceed AB best F1 {f1_ab}");
        assert!(f1_ds > 0.6, "DS should be reasonably easy, got best F1 {f1_ds}");
        assert!(f1_ab < 0.75, "AB should be hard, got best F1 {f1_ab}");
    }

    #[test]
    fn scaled_preserves_shape() {
        let w = CalibratedConfig::ds(5).scaled(0.05).generate();
        assert_eq!(w.len(), (100_077.0_f64 * 0.05).round() as usize);
        assert_eq!(w.total_matches(), (5_267.0_f64 * 0.05).round() as usize);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = CalibratedConfig::ds(9).scaled(0.02).generate();
        let b = CalibratedConfig::ds(9).scaled(0.02).generate();
        assert_eq!(
            a.pairs().iter().map(|p| p.similarity()).collect::<Vec<_>>(),
            b.pairs().iter().map(|p| p.similarity()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn scaled_rejects_bad_fraction() {
        let _ = CalibratedConfig::ds(1).scaled(0.0);
    }
}
