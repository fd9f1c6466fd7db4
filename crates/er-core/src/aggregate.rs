//! Attribute-weighted pair similarity.
//!
//! The paper computes pair similarity "by aggregating attribute similarities with
//! weights", where "the weight of each attribute is determined by the number of
//! its distinct attribute values". This module implements that scheme:
//! a [`PairScorer`] evaluates a configured similarity measure per attribute and
//! combines the scores with per-attribute weights, renormalizing over the
//! attributes actually present on both records.

use crate::blocking::{Candidate, TokenBlocker};
use crate::codec::Fnv1a;
use crate::record::{Dataset, Record, RecordId};
use crate::similarity::StringMeasure;
use crate::similarity::{
    absolute_difference_similarity, dice_from_counts, jaccard_from_counts, overlap_from_counts,
    relative_difference_similarity,
};
use crate::text::Tokenizer;
use crate::{AttributeValue, ErError, Result};
use std::collections::hash_map::HashMap;
use std::hash::BuildHasherDefault;

/// How per-attribute weights are derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttributeWeighting {
    /// All attributes weigh the same.
    Uniform,
    /// Each attribute is weighted by its number of distinct values across the
    /// datasets being matched (the paper's rule): attributes with many distinct
    /// values are more discriminative and therefore weigh more.
    DistinctValues,
}

/// How a single attribute contributes to the pair similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttributeMeasure {
    /// Compare attribute texts with a string measure.
    Text(StringMeasure),
    /// Compare numeric attributes with `max(0, 1 - |a-b|/tolerance)`.
    NumberAbsolute {
        /// The difference at which similarity reaches zero.
        tolerance: f64,
    },
    /// Compare numeric attributes with `1 - |a-b| / max(|a|,|b|)`.
    NumberRelative,
}

/// A token-set measure as a function of `(|A|, |B|, |A ∩ B|)`.
type SetFormula = fn(usize, usize, usize) -> f64;

impl AttributeMeasure {
    fn eval(&self, a: &AttributeValue, b: &AttributeValue) -> Option<f64> {
        match self {
            AttributeMeasure::Text(measure) => match (a.as_text(), b.as_text()) {
                (Some(ta), Some(tb)) => Some(measure.eval(ta, tb)),
                _ => None,
            },
            AttributeMeasure::NumberAbsolute { tolerance } => {
                match (a.as_number(), b.as_number()) {
                    (Some(na), Some(nb)) => {
                        Some(absolute_difference_similarity(na, nb, *tolerance))
                    }
                    _ => None,
                }
            }
            AttributeMeasure::NumberRelative => match (a.as_number(), b.as_number()) {
                (Some(na), Some(nb)) => Some(relative_difference_similarity(na, nb)),
                _ => None,
            },
        }
    }

    /// The tokenizer and count formula of a token-set measure (Jaccard, Dice,
    /// overlap), the measures a [`TokenCache`] memoizes; `None` for every
    /// other measure. Cosine needs token multiplicities, so it is not one.
    fn token_set(&self) -> Option<(Tokenizer, SetFormula)> {
        match *self {
            AttributeMeasure::Text(StringMeasure::Jaccard(t)) => Some((t, jaccard_from_counts)),
            AttributeMeasure::Text(StringMeasure::Dice(t)) => Some((t, dice_from_counts)),
            AttributeMeasure::Text(StringMeasure::Overlap(t)) => Some((t, overlap_from_counts)),
            _ => None,
        }
    }
}

/// Configuration of a [`PairScorer`]: which attributes to compare, how, and how to weight them.
#[derive(Debug, Clone)]
pub struct ScoringConfig {
    /// `(attribute name, measure)` pairs.
    pub attributes: Vec<(String, AttributeMeasure)>,
    /// Weighting rule.
    pub weighting: AttributeWeighting,
}

impl ScoringConfig {
    /// Creates a configuration comparing the given attributes with the given measures.
    pub fn new(
        attributes: impl IntoIterator<Item = (impl Into<String>, AttributeMeasure)>,
        weighting: AttributeWeighting,
    ) -> Self {
        Self { attributes: attributes.into_iter().map(|(n, m)| (n.into(), m)).collect(), weighting }
    }
}

/// A configured attribute with its resolved weight.
#[derive(Debug, Clone)]
struct WeightedAttribute {
    name: String,
    measure: AttributeMeasure,
    weight: f64,
}

/// Computes weighted pair similarities between records.
#[derive(Debug, Clone)]
pub struct PairScorer {
    attributes: Vec<WeightedAttribute>,
}

impl PairScorer {
    /// Builds a scorer from a configuration and the datasets being matched.
    ///
    /// The datasets are only consulted when [`AttributeWeighting::DistinctValues`]
    /// is selected, to count distinct values per attribute.
    pub fn new(config: &ScoringConfig, datasets: &[&Dataset]) -> Result<Self> {
        if config.attributes.is_empty() {
            return Err(ErError::InvalidArgument(
                "scoring configuration must name at least one attribute".to_string(),
            ));
        }
        let mut attributes = Vec::with_capacity(config.attributes.len());
        for (name, measure) in &config.attributes {
            let weight = match config.weighting {
                AttributeWeighting::Uniform => 1.0,
                AttributeWeighting::DistinctValues => {
                    let count: usize = datasets.iter().map(|d| d.distinct_value_count(name)).sum();
                    // An attribute absent from every dataset still participates with a
                    // minimal weight so the scorer never divides by zero.
                    (count as f64).max(1.0)
                }
            };
            attributes.push(WeightedAttribute { name: name.clone(), measure: *measure, weight });
        }
        Ok(Self { attributes })
    }

    /// Builds a scorer with explicit per-attribute weights (bypassing the weighting rule).
    pub fn with_weights(
        attributes: impl IntoIterator<Item = (impl Into<String>, AttributeMeasure, f64)>,
    ) -> Result<Self> {
        let attributes: Vec<WeightedAttribute> = attributes
            .into_iter()
            .map(|(n, m, w)| WeightedAttribute { name: n.into(), measure: m, weight: w })
            .collect();
        if attributes.is_empty() {
            return Err(ErError::InvalidArgument(
                "scorer needs at least one attribute".to_string(),
            ));
        }
        if attributes.iter().any(|a| a.weight < 0.0 || !a.weight.is_finite()) {
            return Err(ErError::InvalidArgument(
                "attribute weights must be finite and non-negative".to_string(),
            ));
        }
        Ok(Self { attributes })
    }

    /// The attribute names this scorer compares, with their weights.
    pub fn weights(&self) -> Vec<(&str, f64)> {
        self.attributes.iter().map(|a| (a.name.as_str(), a.weight)).collect()
    }

    /// Per-attribute similarity scores for a record pair (`None` where either side
    /// is missing or of the wrong type). Useful as a feature vector for classifiers.
    pub fn attribute_scores(&self, a: &Record, b: &Record) -> Vec<Option<f64>> {
        self.attributes
            .iter()
            .map(|attr| attr.measure.eval(a.get(&attr.name), b.get(&attr.name)))
            .collect()
    }

    /// Weighted aggregate similarity of a record pair in `[0, 1]`.
    ///
    /// Attributes missing on either side are excluded and the remaining weights are
    /// renormalized; if every attribute is missing the pair scores `0`.
    pub fn score(&self, a: &Record, b: &Record) -> f64 {
        let mut mean = WeightedMean::default();
        for attr in &self.attributes {
            mean.add(attr.weight, attr.measure.eval(a.get(&attr.name), b.get(&attr.name)));
        }
        mean.finish()
    }

    /// Binds this scorer to a [`TokenCache`] for a scoring pass: every
    /// token-set attribute (Jaccard, Dice, overlap) finds its cache entry
    /// here, once, instead of once per pair.
    ///
    /// `blocking` names the blocker whose [`Candidate`]s the pass scores. A
    /// token-set attribute with the blocker's attribute and tokenizer shares
    /// its cache entry with the blocking index, so it is scored from the
    /// candidate's `shared` count instead of a merge. With `None`, every
    /// candidate's count is ignored.
    pub fn bind<'a>(
        &'a self,
        cache: &'a TokenCache,
        blocking: Option<&TokenBlocker>,
    ) -> BoundScorer<'a> {
        let entries = self
            .attributes
            .iter()
            .map(|attr| {
                let (tokenizer, formula) = attr.measure.token_set()?;
                let counted =
                    blocking.is_some_and(|b| b.tokenizer == tokenizer && b.attribute == attr.name);
                Some(Memo { tokens: cache.interned(&attr.name, tokenizer)?, formula, counted })
            })
            .collect();
        BoundScorer { attributes: &self.attributes, slots: &cache.slots, entries }
    }
}

/// A running weighted mean over the attributes present on both records.
#[derive(Default)]
struct WeightedMean {
    weighted_sum: f64,
    weight_total: f64,
}

impl WeightedMean {
    fn add(&mut self, weight: f64, similarity: Option<f64>) {
        if let Some(similarity) = similarity {
            self.weighted_sum += weight * similarity;
            self.weight_total += weight;
        }
    }

    /// The mean clamped to `[0, 1]`, or `0` when no attribute was present.
    fn finish(self) -> f64 {
        if self.weight_total == 0.0 {
            0.0
        } else {
            (self.weighted_sum / self.weight_total).clamp(0.0, 1.0)
        }
    }
}

/// A [`PairScorer`] bound to a [`TokenCache`] for one scoring pass
/// ([`PairScorer::bind`]); it scores blocking [`Candidate`]s by record id.
///
/// A token-set attribute whose cache entry holds both records is scored
/// from `|A|`, `|B|` and `|A ∩ B|`. On the blocking attribute `|A ∩ B|` is
/// the candidate's `shared` count; on any other it costs one merge of two
/// short, sorted, deduplicated id sets. Everything else — a record the
/// entry lacks, a missing or non-text value, a character-based, cosine or
/// numeric measure — is evaluated directly on the records, which are looked
/// up in the datasets only then. Every score is bit-identical to
/// [`PairScorer::score`]: the set measures evaluate the same expressions on
/// the same distinct-token counts.
#[derive(Debug, Clone)]
pub struct BoundScorer<'a> {
    attributes: &'a [WeightedAttribute],
    slots: &'a [FnvMap<u64, usize>; 2],
    /// Per attribute, the memo of a token-set measure.
    entries: Vec<Option<Memo<'a>>>,
}

/// The cache entry of a token-set attribute and its count formula.
#[derive(Debug, Clone, Copy)]
struct Memo<'a> {
    tokens: &'a InternedTokens,
    formula: SetFormula,
    /// The entry is the blocking index's, so a candidate's `shared` count
    /// is `|A ∩ B|`.
    counted: bool,
}

impl BoundScorer<'_> {
    /// Weighted aggregate similarity of a candidate: record `left` of the
    /// `left` dataset and record `right` of the `right` one, the sides the
    /// cache admitted them on.
    ///
    /// When the scorer was bound with a blocker, `candidate` must come from
    /// that blocker's index fed with this cache
    /// ([`crate::blocking::IncrementalTokenIndex::add_records`]), so its
    /// `shared` count is the two records' shared blocking tokens.
    ///
    /// Fails with [`ErError::UnknownRecord`] when the cache cannot answer for
    /// a record that its dataset does not hold. A record the cache does hold
    /// is trusted to be the dataset's record: admit exactly the records the
    /// datasets store, as the resolution engine does at ingest.
    pub fn score(&self, left: &Dataset, right: &Dataset, candidate: Candidate) -> Result<f64> {
        let Candidate { left: a, right: b, shared } = candidate;
        let (slot_a, slot_b) = (self.slots[LEFT].get(&a.0), self.slots[RIGHT].get(&b.0));
        let mut fetched = None;
        let mut mean = WeightedMean::default();
        for (attr, entry) in self.attributes.iter().zip(&self.entries) {
            // An entry holds a record exactly when the record had text for
            // the attribute, so two hits mean both texts are present.
            let cached = entry.and_then(|memo| {
                let ids_a = memo.tokens.ids(LEFT, *slot_a?)?;
                let ids_b = memo.tokens.ids(RIGHT, *slot_b?)?;
                let common = if memo.counted { shared as usize } else { common_ids(ids_a, ids_b) };
                Some((memo.formula)(ids_a.len(), ids_b.len(), common))
            });
            let similarity = match cached {
                Some(similarity) => Some(similarity),
                None => {
                    let (ra, rb) = match fetched {
                        Some(pair) => pair,
                        // The records are fetched once, by the first
                        // attribute the cache cannot answer.
                        None => *fetched.insert((left.require(a)?, right.require(b)?)),
                    };
                    attr.measure.eval(ra.get(&attr.name), rb.get(&attr.name))
                }
            };
            mean.add(attr.weight, similarity);
        }
        Ok(mean.finish())
    }
}

/// `|A ∩ B|` of two sorted, deduplicated id sets, by a branchless
/// two-pointer merge.
fn common_ids(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        common += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    common
}

/// Index of the left-side tables of a [`TokenCache`].
pub(crate) const LEFT: usize = 0;
/// Index of the right-side tables of a [`TokenCache`].
pub(crate) const RIGHT: usize = 1;

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a>>;
/// A memo of per-record token ids, shared by blocking and scoring so a
/// record's attribute text is normalized and tokenized once, at admission.
///
/// Each `(attribute, tokenizer)` entry interns its tokens to dense `u32` ids
/// (one interner for both sides, so ids compare across them) and keeps, per
/// record, the *distinct* ids of the raw `Tokenizer::tokenize` output,
/// sorted. The token-set measures (Jaccard, Dice, overlap) count overlaps
/// by merging two such sets, and blocking posts and probes the same sets by
/// id. TF-cosine needs token multiplicities and is not memoized: scoring
/// evaluates it directly.
///
/// The cache gives every admitted record one slot per side, shared by all
/// entries, so one record-id lookup serves every entry. An entry holds a
/// record exactly when the record had text for the entry's attribute:
/// records where it is missing or not text are never admitted (an empty
/// text is admitted as an empty set), so presence in the entry implies a
/// text value. Records are keyed by `(side, record id)` because the two
/// datasets' record ids may collide. The cache trusts that an admitted
/// record's text does not change afterwards — the resolution engine admits
/// each record once, at ingest.
#[derive(Debug, Default, Clone)]
pub struct TokenCache {
    /// Per side ([`LEFT`], [`RIGHT`]), record id → slot in every entry.
    slots: [FnvMap<u64, usize>; 2],
    entries: Vec<InternedTokens>,
}

/// One `(attribute, tokenizer)` entry of a [`TokenCache`].
#[derive(Debug, Clone)]
pub(crate) struct InternedTokens {
    attribute: String,
    tokenizer: Tokenizer,
    /// Token → id; ids are dense, so the next id is `ids.len()`.
    ids: FnvMap<Box<str>, u32>,
    /// Per side, the sorted distinct token ids of the record in each slot,
    /// `None` where the slot's record was not admitted under this entry.
    sides: [Vec<Option<Box<[u32]>>>; 2],
}

impl InternedTokens {
    fn new(attribute: &str, tokenizer: Tokenizer) -> Self {
        Self {
            attribute: attribute.to_string(),
            tokenizer,
            ids: FnvMap::default(),
            sides: [Vec::new(), Vec::new()],
        }
    }

    /// Admits `records` on `side`, giving each record new to the cache the
    /// next slot of `slots`, that side's slot table.
    fn admit(&mut self, slots: &mut FnvMap<u64, usize>, side: usize, records: &[Record]) {
        let Self { attribute, tokenizer, ids, sides } = self;
        let sets = &mut sides[side];
        let mut set: Vec<u32> = Vec::new();
        for record in records {
            let Some(text) = record.text(attribute) else { continue };
            let next = slots.len();
            let slot = *slots.entry(record.id().0).or_insert(next);
            if sets.len() <= slot {
                sets.resize_with(slot + 1, || None);
            }
            if sets[slot].is_some() {
                continue;
            }
            set.clear();
            tokenizer.for_each_token(text, |token| {
                let id = match ids.get(token) {
                    Some(&id) => id,
                    None => {
                        let id = u32::try_from(ids.len()).expect("token vocabulary exceeds u32");
                        ids.insert(token.into(), id);
                        id
                    }
                };
                set.push(id);
            });
            set.sort_unstable();
            set.dedup();
            sets[slot] = Some(set.as_slice().into());
        }
    }

    /// The sorted distinct token ids of the record in `slot` on `side`, if
    /// it was admitted under this entry.
    fn ids(&self, side: usize, slot: usize) -> Option<&[u32]> {
        self.sides[side].get(slot)?.as_deref()
    }
}

impl TokenCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenizes and memoizes a batch of `side` records for an attribute;
    /// records the entry already holds are skipped.
    pub(crate) fn admit(
        &mut self,
        attribute: &str,
        tokenizer: Tokenizer,
        side: usize,
        records: &[Record],
    ) {
        let Self { slots, entries } = self;
        let entry =
            match entries.iter().position(|e| e.tokenizer == tokenizer && e.attribute == attribute)
            {
                Some(i) => &mut entries[i],
                None => {
                    entries.push(InternedTokens::new(attribute, tokenizer));
                    entries.last_mut().expect("entry just pushed")
                }
            };
        entry.admit(&mut slots[side], side, records);
    }

    /// Admits left- and right-side batches for every token-set attribute
    /// (Jaccard, Dice, overlap) of a scoring configuration — the other
    /// measures are evaluated directly and are skipped — so a
    /// [`BoundScorer`] finds every record it can use.
    pub fn admit_scoring(
        &mut self,
        config: &ScoringConfig,
        left_records: &[Record],
        right_records: &[Record],
    ) {
        for (name, measure) in &config.attributes {
            let Some((tokenizer, _)) = measure.token_set() else { continue };
            self.admit(name, tokenizer, LEFT, left_records);
            self.admit(name, tokenizer, RIGHT, right_records);
        }
    }

    /// The entry of an `(attribute, tokenizer)` pair, if any record was
    /// admitted under it.
    pub(crate) fn interned(
        &self,
        attribute: &str,
        tokenizer: Tokenizer,
    ) -> Option<&InternedTokens> {
        self.entries.iter().find(|e| e.tokenizer == tokenizer && e.attribute == attribute)
    }

    /// The slot and sorted distinct token ids of record `id` as admitted on
    /// `side` under `entry` (an entry of this cache); `None` if it was not.
    pub(crate) fn token_ids<'a>(
        &'a self,
        entry: &'a InternedTokens,
        side: usize,
        id: RecordId,
    ) -> Option<(usize, &'a [u32])> {
        let slot = *self.slots[side].get(&id.0)?;
        Some((slot, entry.ids(side, slot)?))
    }

    /// Total number of memoized record token sets across all entries.
    pub fn cached_records(&self) -> usize {
        self.entries.iter().flat_map(|e| &e.sides).flatten().filter(|ids| ids.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, RecordId, Schema};
    use crate::text::Tokenizer;
    use proptest::prelude::*;

    fn paper_record(id: u64, title: &str, venue: &str) -> Record {
        Record::new(RecordId(id)).with("title", title).with("venue", venue)
    }

    fn bib_dataset(records: Vec<Record>) -> Dataset {
        let mut ds = Dataset::new("test", Schema::new(["title", "venue", "year"]));
        for r in records {
            ds.push(r).unwrap();
        }
        ds
    }

    fn title_venue_config() -> ScoringConfig {
        ScoringConfig::new(
            [
                ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
                ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
            ],
            AttributeWeighting::DistinctValues,
        )
    }

    #[test]
    fn identical_records_score_one() {
        let ds = bib_dataset(vec![
            paper_record(1, "entity resolution", "icde"),
            paper_record(2, "record linkage", "vldb"),
        ]);
        let scorer = PairScorer::new(&title_venue_config(), &[&ds]).unwrap();
        let a = paper_record(10, "entity resolution", "icde");
        assert!((scorer.score(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unrelated_records_score_low() {
        let ds = bib_dataset(vec![paper_record(1, "entity resolution", "icde")]);
        let scorer = PairScorer::new(&title_venue_config(), &[&ds]).unwrap();
        let a = paper_record(10, "entity resolution with quality guarantees", "icde");
        let b = paper_record(11, "deep convolutional networks", "nips");
        assert!(scorer.score(&a, &b) < 0.5);
        assert!(scorer.score(&a, &b) >= 0.0);
    }

    #[test]
    fn missing_attributes_renormalize_weights() {
        let ds = bib_dataset(vec![paper_record(1, "entity resolution", "icde")]);
        let scorer = PairScorer::new(&title_venue_config(), &[&ds]).unwrap();
        let full = paper_record(10, "entity resolution", "icde");
        let missing_venue = Record::new(RecordId(11)).with("title", "entity resolution");
        // Only the title attribute participates, and the titles are identical.
        assert!((scorer.score(&full, &missing_venue) - 1.0).abs() < 1e-12);
        // A record with no comparable attributes scores 0.
        let empty = Record::new(RecordId(12));
        assert_eq!(scorer.score(&full, &empty), 0.0);
    }

    #[test]
    fn distinct_value_weighting_prefers_discriminative_attributes() {
        // Titles are all distinct; venue has a single value, so title carries more weight.
        let ds = bib_dataset(vec![
            paper_record(1, "paper one", "icde"),
            paper_record(2, "paper two", "icde"),
            paper_record(3, "paper three", "icde"),
        ]);
        let scorer = PairScorer::new(&title_venue_config(), &[&ds]).unwrap();
        let weights = scorer.weights();
        let title_weight = weights.iter().find(|(n, _)| *n == "title").unwrap().1;
        let venue_weight = weights.iter().find(|(n, _)| *n == "venue").unwrap().1;
        assert!(title_weight > venue_weight);

        // Same titles, different venue: should still score high because venue weighs little.
        let a = paper_record(10, "matching paper", "icde");
        let b = paper_record(11, "matching paper", "sigmod");
        assert!(scorer.score(&a, &b) > 0.7);
    }

    #[test]
    fn numeric_attribute_measures() {
        let scorer = PairScorer::with_weights([
            ("year", AttributeMeasure::NumberAbsolute { tolerance: 10.0 }, 1.0),
            ("price", AttributeMeasure::NumberRelative, 1.0),
        ])
        .unwrap();
        let a = Record::new(RecordId(1)).with("year", 2000.0).with("price", 100.0);
        let b = Record::new(RecordId(2)).with("year", 2005.0).with("price", 50.0);
        // year: 1 - 5/10 = 0.5; price: 1 - 50/100 = 0.5 → aggregate 0.5.
        assert!((scorer.score(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn attribute_scores_expose_feature_vector() {
        let scorer = PairScorer::with_weights([
            ("title", AttributeMeasure::Text(StringMeasure::Levenshtein), 1.0),
            ("year", AttributeMeasure::NumberAbsolute { tolerance: 5.0 }, 1.0),
        ])
        .unwrap();
        let a = Record::new(RecordId(1)).with("title", "abc").with("year", 2000.0);
        let b = Record::new(RecordId(2)).with("title", "abc");
        let scores = scorer.attribute_scores(&a, &b);
        assert_eq!(scores.len(), 2);
        assert!((scores[0].unwrap() - 1.0).abs() < 1e-12);
        assert!(scores[1].is_none());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let ds = bib_dataset(vec![]);
        let empty = ScoringConfig::new(
            Vec::<(String, AttributeMeasure)>::new(),
            AttributeWeighting::Uniform,
        );
        assert!(PairScorer::new(&empty, &[&ds]).is_err());
        assert!(PairScorer::with_weights([(
            "title",
            AttributeMeasure::Text(StringMeasure::Jaro),
            -1.0
        )])
        .is_err());
    }

    #[test]
    fn cached_scores_are_bit_identical() {
        // Mixed measures: token-based (Jaccard/Cosine go through the cache),
        // character-based (JaroWinkler) and numeric (absolute) fall back.
        let scorer = PairScorer::with_weights([
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words)), 3.0),
            ("authors", AttributeMeasure::Text(StringMeasure::Cosine(Tokenizer::QGrams(2))), 2.0),
            ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler), 1.0),
            ("year", AttributeMeasure::NumberAbsolute { tolerance: 5.0 }, 1.0),
        ])
        .unwrap();
        let lefts = vec![
            Record::new(RecordId(1))
                .with("title", "Entity Resolution, a Survey")
                .with("authors", "getoor machanavajjhala")
                .with("venue", "vldb")
                .with("year", 2012.0),
            Record::new(RecordId(2)).with("title", "graph networks"),
        ];
        let rights = vec![
            Record::new(RecordId(1)) // same id as a left record: sides must not mix
                .with("title", "a survey of entity resolution")
                .with("authors", "machanavajjhala")
                .with("venue", "pvldb")
                .with("year", 2011.0),
            Record::new(RecordId(9)).with("venue", "icde"),
        ];
        let mut cache = TokenCache::new();
        for (attr, tok) in [("title", Tokenizer::Words), ("authors", Tokenizer::QGrams(2))] {
            cache.admit(attr, tok, LEFT, &lefts);
            cache.admit(attr, tok, RIGHT, &rights);
        }
        assert!(cache.cached_records() > 0);
        let (left, right) = (dataset("left", &lefts), dataset("right", &rights));
        let bound = scorer.bind(&cache, None);
        for a in &lefts {
            for b in &rights {
                let plain = scorer.score(a, b);
                let cached = bound.score(&left, &right, uncounted(a.id(), b.id())).unwrap();
                assert_eq!(plain.to_bits(), cached.to_bits(), "{:?} vs {:?}", a.id(), b.id());
            }
        }
        // An empty cache degrades to plain scoring for every pair.
        let empty = TokenCache::new();
        let bound = scorer.bind(&empty, None);
        for a in &lefts {
            for b in &rights {
                assert_eq!(
                    scorer.score(a, b).to_bits(),
                    bound.score(&left, &right, uncounted(a.id(), b.id())).unwrap().to_bits()
                );
            }
        }
    }

    /// SplitMix64 step for the differential generator below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A record whose text attributes are missing, numeric, empty or drawn
    /// from a tiny vocabulary (so duplicates and shared tokens are common),
    /// some repeating their whole phrase ("new york new york"): the cache
    /// deduplicates at admission, the direct measures at evaluation.
    fn random_record(id: u64, state: &mut u64) -> Record {
        let vocab = ["ab", "ba", "abc", "Ab,", "b", "a a", "", "--"];
        let mut record = Record::new(RecordId(id));
        for name in ["title", "authors", "venue"] {
            record = match next(state) % 7 {
                0 => record,                       // missing
                1 => record.with(name, id as f64), // numeric value on a text attribute
                2 => record.with(name, ""),        // empty text
                draw => {
                    let words = 1 + next(state) % 5;
                    let text: Vec<&str> = (0..words)
                        .map(|_| vocab[(next(state) % vocab.len() as u64) as usize])
                        .collect();
                    let phrase = text.join(" ");
                    if draw == 3 {
                        record.with(name, format!("{phrase} {phrase}"))
                    } else {
                        record.with(name, phrase)
                    }
                }
            };
        }
        match next(state) % 3 {
            0 => record,
            1 => record.with("year", 2000.0 + (next(state) % 10) as f64),
            _ => record.with("year", "n/a"),
        }
    }

    fn dataset(name: &str, records: &[Record]) -> Dataset {
        let mut ds = Dataset::new(name, Schema::new(["title", "authors", "venue", "year"]));
        for record in records {
            ds.push(record.clone()).unwrap();
        }
        ds
    }

    /// A candidate for a scorer bound without a blocker, which ignores its
    /// count.
    fn uncounted(left: RecordId, right: RecordId) -> Candidate {
        Candidate { left, right, shared: 0 }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]
        #[test]
        fn cached_scoring_matches_plain_scoring(seed in 0u64..1_000_000) {
            let mut state = seed;
            // Every token measure under every tokenizer, spread over the three
            // text attributes, mixed with character-based and numeric ones.
            let mut attributes = Vec::new();
            let tokenizers = [Tokenizer::Words, Tokenizer::QGrams(2), Tokenizer::QGrams(3)];
            for (t, tokenizer) in tokenizers.into_iter().enumerate() {
                for (m, measure) in [
                    StringMeasure::Jaccard(tokenizer),
                    StringMeasure::Dice(tokenizer),
                    StringMeasure::Overlap(tokenizer),
                    StringMeasure::Cosine(tokenizer),
                ]
                .into_iter()
                .enumerate()
                {
                    let name = ["title", "authors", "venue"][(t + m) % 3];
                    let weight = 1.0 + (next(&mut state) % 4) as f64;
                    attributes.push((name, AttributeMeasure::Text(measure), weight));
                }
            }
            attributes.push(("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler), 2.0));
            attributes.push(("year", AttributeMeasure::NumberAbsolute { tolerance: 5.0 }, 1.0));
            attributes.push(("year", AttributeMeasure::NumberRelative, 0.5));
            let scorer = PairScorer::with_weights(attributes).unwrap();
            // Left and right ids overlap, so equal ids meet on both sides.
            let lefts: Vec<Record> =
                (0..1 + next(&mut state) % 6).map(|id| random_record(id, &mut state)).collect();
            let rights: Vec<Record> =
                (0..1 + next(&mut state) % 6).map(|id| random_record(id, &mut state)).collect();
            let config = ScoringConfig::new(
                scorer.attributes.iter().map(|a| (a.name.clone(), a.measure)),
                AttributeWeighting::Uniform,
            );
            let mut full = TokenCache::new();
            full.admit_scoring(&config, &lefts, &rights);
            let mut partial = TokenCache::new();
            let some = |records: &[Record], state: &mut u64| -> Vec<Record> {
                records.iter().filter(|_| next(state).is_multiple_of(2)).cloned().collect()
            };
            partial.admit_scoring(&config, &some(&lefts, &mut state), &some(&rights, &mut state));
            let (left, right) = (dataset("left", &lefts), dataset("right", &rights));
            let empty = TokenCache::new();
            let caches = [&full, &partial, &empty];
            let bound: Vec<BoundScorer> =
                caches.iter().map(|cache| scorer.bind(cache, None)).collect();
            // Cosine needs multiplicities, so the memo skips it: a cosine-only
            // scorer admits nothing and scores every pair directly.
            let cosine_only = PairScorer::with_weights([
                ("title", AttributeMeasure::Text(StringMeasure::Cosine(Tokenizer::Words)), 1.0),
                ("authors", AttributeMeasure::Text(StringMeasure::Cosine(Tokenizer::QGrams(2))), 2.0),
            ])
            .unwrap();
            let cosine_config = ScoringConfig::new(
                cosine_only.attributes.iter().map(|a| (a.name.clone(), a.measure)),
                AttributeWeighting::Uniform,
            );
            let mut cosine_cache = TokenCache::new();
            cosine_cache.admit_scoring(&cosine_config, &lefts, &rights);
            prop_assert_eq!(cosine_cache.cached_records(), 0);
            let weights = scorer.weights();
            for a in &lefts {
                for b in &rights {
                    // Reference: the direct per-attribute measures, summed in
                    // the scorer's order.
                    let (mut sum, mut total) = (0.0, 0.0);
                    for (sim, (_, weight)) in scorer.attribute_scores(a, b).into_iter().zip(&weights) {
                        if let Some(sim) = sim {
                            sum += weight * sim;
                            total += weight;
                        }
                    }
                    let reference = if total == 0.0 { 0.0 } else { (sum / total).clamp(0.0, 1.0) };
                    let plain = scorer.score(a, b);
                    prop_assert_eq!(plain.to_bits(), reference.to_bits());
                    for bound in &bound {
                        let by_id = bound.score(&left, &right, uncounted(a.id(), b.id())).unwrap();
                        prop_assert_eq!(by_id.to_bits(), plain.to_bits());
                    }
                    let cosine = cosine_only.score(a, b);
                    for cache in [&cosine_cache, &full] {
                        let by_id = cosine_only
                            .bind(cache, None)
                            .score(&left, &right, uncounted(a.id(), b.id()));
                        prop_assert_eq!(by_id.unwrap().to_bits(), cosine.to_bits());
                    }
                }
            }
            // An id that neither the cache nor the datasets hold is an error,
            // on either side and under any cache state.
            let unknown = RecordId(1_000);
            for bound in &bound {
                for a in &lefts {
                    prop_assert!(bound.score(&left, &right, uncounted(a.id(), unknown)).is_err());
                }
                for b in &rights {
                    prop_assert!(bound.score(&left, &right, uncounted(unknown, b.id())).is_err());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]
        #[test]
        fn counted_candidates_score_like_plain_scoring(seed in 0u64..1_000_000) {
            let mut state = seed;
            let lefts: Vec<Record> =
                (0..1 + next(&mut state) % 8).map(|id| random_record(id, &mut state)).collect();
            let rights: Vec<Record> =
                (0..1 + next(&mut state) % 8).map(|id| random_record(id, &mut state)).collect();
            let (left, right) = (dataset("left", &lefts), dataset("right", &rights));
            for tokenizer in [Tokenizer::Words, Tokenizer::QGrams(2)] {
                let other = if tokenizer == Tokenizer::Words { Tokenizer::QGrams(2) } else { Tokenizer::Words };
                for measure in [
                    StringMeasure::Jaccard(tokenizer),
                    StringMeasure::Dice(tokenizer),
                    StringMeasure::Overlap(tokenizer),
                ] {
                    let config = ScoringConfig::new(
                        [
                            ("title", AttributeMeasure::Text(measure)),
                            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
                            ("year", AttributeMeasure::NumberAbsolute { tolerance: 5.0 }),
                        ],
                        AttributeWeighting::Uniform,
                    );
                    let scorer = PairScorer::new(&config, &[]).unwrap();
                    // Only the title blocker shares the scored title's cache
                    // entry: the scorer does not score the venue, and the
                    // last blocker tokenizes the title another way.
                    for (blocker, counted) in [
                        (TokenBlocker::new("title", tokenizer), true),
                        (TokenBlocker::new("venue", tokenizer), false),
                        (TokenBlocker::new("title", other), false),
                    ] {
                        let mut cache = TokenCache::new();
                        cache.admit_scoring(&config, &lefts, &rights);
                        let candidates =
                            blocker.incremental().add_records(&lefts, &rights, &mut cache).unwrap();
                        let bound = scorer.bind(&cache, Some(&blocker));
                        for candidate in candidates {
                            let (a, b) = (left.require(candidate.left), right.require(candidate.right));
                            let plain = scorer.score(a.unwrap(), b.unwrap());
                            let scored = bound.score(&left, &right, candidate).unwrap();
                            prop_assert_eq!(scored.to_bits(), plain.to_bits());
                            // One shared token fewer lowers the title's
                            // similarity exactly when the count is used.
                            let skewed = Candidate { shared: candidate.shared - 1, ..candidate };
                            let skewed = bound.score(&left, &right, skewed).unwrap();
                            prop_assert_eq!(skewed.to_bits() != plain.to_bits(), counted);
                        }
                    }
                }
            }
        }
    }
}
