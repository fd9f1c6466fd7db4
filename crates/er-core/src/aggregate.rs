//! Attribute-weighted pair similarity.
//!
//! The paper computes pair similarity "by aggregating attribute similarities with
//! weights", where "the weight of each attribute is determined by the number of
//! its distinct attribute values". This module implements that scheme:
//! a [`PairScorer`] evaluates a configured similarity measure per attribute and
//! combines the scores with per-attribute weights, renormalizing over the
//! attributes actually present on both records.

use crate::codec::Fnv1a;
use crate::record::{Dataset, Record, RecordId};
use crate::similarity::StringMeasure;
use crate::similarity::{
    absolute_difference_similarity, dice_from_counts, jaccard_from_counts, overlap_from_counts,
    relative_difference_similarity, tf_cosine_similarity,
};
use crate::text::Tokenizer;
use crate::{AttributeValue, ErError, Result};
use std::collections::hash_map::{Entry, HashMap};
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
        self.score_with_cache(a, b, &TokenCache::default())
    }

    /// Weighted aggregate similarity, reusing the interned token ids of a
    /// [`TokenCache`] for the token-based string measures (Jaccard, Dice,
    /// overlap, TF-cosine). `a` is looked up on the cache's left side and `b`
    /// on its right side.
    ///
    /// Bit-identical to [`PairScorer::score`]: the set measures count the same
    /// distinct tokens by merging sorted ids and evaluate the same expressions
    /// on those counts, cosine sees the same token multisets, and anything
    /// the cache does not cover (a record missing on either side,
    /// character-based or numeric measures) is evaluated directly.
    pub fn score_with_cache(&self, a: &Record, b: &Record, cache: &TokenCache) -> f64 {
        let mut weighted_sum = 0.0;
        let mut weight_total = 0.0;
        for attr in &self.attributes {
            if let Some(sim) = attr.eval(a, b, cache) {
                weighted_sum += attr.weight * sim;
                weight_total += attr.weight;
            }
        }
        if weight_total == 0.0 {
            0.0
        } else {
            (weighted_sum / weight_total).clamp(0.0, 1.0)
        }
    }
}

impl WeightedAttribute {
    /// This attribute's similarity on a record pair, `None` where either side
    /// is missing or of the wrong type.
    fn eval(&self, a: &Record, b: &Record, cache: &TokenCache) -> Option<f64> {
        if let AttributeMeasure::Text(measure) = self.measure {
            let entry = token_based_tokenizer(measure).and_then(|t| cache.interned(&self.name, t));
            if let Some(entry) = entry {
                // An entry holds a record exactly when the record had text for
                // the attribute, so two hits mean both texts are present.
                if let (Some(ids_a), Some(ids_b)) =
                    (entry.ids(LEFT, a.id()), entry.ids(RIGHT, b.id()))
                {
                    return Some(entry.eval(measure, ids_a, ids_b));
                }
            }
        }
        self.measure.eval(a.get(&self.name), b.get(&self.name))
    }
}

/// The tokenizer of a token-based string measure, `None` for character-based ones.
fn token_based_tokenizer(measure: StringMeasure) -> Option<Tokenizer> {
    match measure {
        StringMeasure::Jaccard(t)
        | StringMeasure::Dice(t)
        | StringMeasure::Overlap(t)
        | StringMeasure::Cosine(t) => Some(t),
        _ => None,
    }
}

/// Index of the left-side record map of a [`TokenCache`] entry.
pub(crate) const LEFT: usize = 0;
/// Index of the right-side record map of a [`TokenCache`] entry.
pub(crate) const RIGHT: usize = 1;

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a>>;

/// A memo of per-record token ids, shared by blocking and scoring so a
/// record's attribute text is normalized and tokenized once, at admission.
///
/// Each `(attribute, tokenizer)` entry interns its tokens to dense `u32` ids
/// (one interner for both sides, so ids compare across them) and keeps, per
/// record, the sorted id multiset of the raw `Tokenizer::tokenize` output,
/// duplicates included. Set measures then count overlaps by merging two
/// sorted slices, and cosine and blocking still see exactly the multiset a
/// fresh tokenization would produce.
///
/// An entry holds a record exactly when the record had text for the entry's
/// attribute: records where it is missing or not text are never admitted
/// (an empty text is admitted as an empty multiset), so presence in the
/// cache implies a text value. Records
/// are keyed by `(side, record id)` because the two datasets' record ids may
/// collide. The cache trusts that an admitted record's text does not change
/// afterwards — the resolution engine admits each record once, at ingest.
#[derive(Debug, Default, Clone)]
pub struct TokenCache {
    entries: Vec<InternedTokens>,
}

/// One `(attribute, tokenizer)` entry of a [`TokenCache`].
#[derive(Debug, Clone)]
pub(crate) struct InternedTokens {
    attribute: String,
    tokenizer: Tokenizer,
    /// Token → id; `tokens[id]` is the reverse table.
    ids: FnvMap<Box<str>, u32>,
    tokens: Vec<Box<str>>,
    /// Sorted token-id multisets by record id, index [`LEFT`] or [`RIGHT`].
    sides: [FnvMap<u64, Box<[u32]>>; 2],
}

impl InternedTokens {
    fn new(attribute: &str, tokenizer: Tokenizer) -> Self {
        Self {
            attribute: attribute.to_string(),
            tokenizer,
            ids: FnvMap::default(),
            tokens: Vec::new(),
            sides: [FnvMap::default(), FnvMap::default()],
        }
    }

    fn admit(&mut self, side: usize, records: &[Record]) {
        let Self { attribute, tokenizer, ids, tokens, sides } = self;
        let mut seq: Vec<u32> = Vec::new();
        for record in records {
            let Some(text) = record.text(attribute) else { continue };
            let Entry::Vacant(slot) = sides[side].entry(record.id().0) else {
                continue;
            };
            seq.clear();
            tokenizer.for_each_token(text, |token| {
                let id = match ids.get(token) {
                    Some(&id) => id,
                    None => {
                        let id = u32::try_from(tokens.len()).expect("token vocabulary exceeds u32");
                        tokens.push(token.into());
                        ids.insert(token.into(), id);
                        id
                    }
                };
                seq.push(id);
            });
            seq.sort_unstable();
            slot.insert(seq.as_slice().into());
        }
    }

    /// The sorted token-id multiset of an admitted record on one side.
    pub(crate) fn ids(&self, side: usize, id: RecordId) -> Option<&[u32]> {
        self.sides[side].get(&id.0).map(|ids| &ids[..])
    }

    /// The distinct tokens of a sorted id multiset, in id order.
    pub(crate) fn distinct_tokens<'a>(&'a self, ids: &'a [u32]) -> impl Iterator<Item = &'a str> {
        distinct_ids(ids).map(|id| &*self.tokens[id as usize])
    }

    /// A token-based measure on two sorted id multisets of this entry.
    fn eval(&self, measure: StringMeasure, a: &[u32], b: &[u32]) -> f64 {
        match measure {
            StringMeasure::Jaccard(_) => {
                let (na, nb, common) = merge_counts(a, b);
                jaccard_from_counts(na, nb, common)
            }
            StringMeasure::Dice(_) => {
                let (na, nb, common) = merge_counts(a, b);
                dice_from_counts(na, nb, common)
            }
            StringMeasure::Overlap(_) => {
                let (na, nb, common) = merge_counts(a, b);
                overlap_from_counts(na, nb, common)
            }
            StringMeasure::Cosine(_) => {
                let text = |ids: &[u32]| -> Vec<&str> {
                    ids.iter().map(|&id| &*self.tokens[id as usize]).collect()
                };
                tf_cosine_similarity(&text(a), &text(b))
            }
            _ => unreachable!("only token-based measures are evaluated on token ids"),
        }
    }
}

/// The distinct ids of a sorted id multiset, ascending.
fn distinct_ids(ids: &[u32]) -> impl Iterator<Item = u32> + '_ {
    ids.chunk_by(|x, y| x == y).map(|run| run[0])
}

/// `(|A|, |B|, |A ∩ B|)` of the distinct ids of two sorted id multisets, in
/// one merge.
fn merge_counts(a: &[u32], b: &[u32]) -> (usize, usize, usize) {
    let (mut a, mut b) = (distinct_ids(a).peekable(), distinct_ids(b).peekable());
    let (mut na, mut nb, mut common) = (0, 0, 0);
    while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
        if x <= y {
            na += 1;
            a.next();
        }
        if y <= x {
            nb += 1;
            b.next();
        }
        if x == y {
            common += 1;
        }
    }
    (na + a.count(), nb + b.count(), common)
}

impl TokenCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn admit(&mut self, attribute: &str, tokenizer: Tokenizer, side: usize, records: &[Record]) {
        let entry = match self
            .entries
            .iter()
            .position(|e| e.tokenizer == tokenizer && e.attribute == attribute)
        {
            Some(i) => &mut self.entries[i],
            None => {
                self.entries.push(InternedTokens::new(attribute, tokenizer));
                self.entries.last_mut().expect("entry just pushed")
            }
        };
        entry.admit(side, records);
    }

    /// Tokenizes and memoizes a batch of left-side records for an attribute.
    pub fn admit_left(&mut self, attribute: &str, tokenizer: Tokenizer, records: &[Record]) {
        self.admit(attribute, tokenizer, LEFT, records);
    }

    /// Tokenizes and memoizes a batch of right-side records for an attribute.
    pub fn admit_right(&mut self, attribute: &str, tokenizer: Tokenizer, records: &[Record]) {
        self.admit(attribute, tokenizer, RIGHT, records);
    }

    /// Admits left- and right-side batches for every *token-based* text
    /// attribute of a scoring configuration (character-based and numeric
    /// measures gain nothing from token memoization and are skipped), so
    /// [`PairScorer::score_with_cache`] finds every record it can use.
    pub fn admit_scoring(
        &mut self,
        config: &ScoringConfig,
        left_records: &[Record],
        right_records: &[Record],
    ) {
        for (name, measure) in &config.attributes {
            let AttributeMeasure::Text(measure) = measure else { continue };
            let Some(tokenizer) = token_based_tokenizer(*measure) else { continue };
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

    /// Total number of memoized record token sequences across all entries.
    pub fn cached_records(&self) -> usize {
        self.entries.iter().map(|e| e.sides[LEFT].len() + e.sides[RIGHT].len()).sum()
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
            cache.admit_left(attr, tok, &lefts);
            cache.admit_right(attr, tok, &rights);
        }
        assert!(cache.cached_records() > 0);
        for a in &lefts {
            for b in &rights {
                let plain = scorer.score(a, b);
                let cached = scorer.score_with_cache(a, b, &cache);
                assert_eq!(plain.to_bits(), cached.to_bits(), "{:?} vs {:?}", a.id(), b.id());
            }
        }
        // An empty cache degrades to plain scoring for every pair.
        let empty = TokenCache::new();
        for a in &lefts {
            for b in &rights {
                assert_eq!(
                    scorer.score(a, b).to_bits(),
                    scorer.score_with_cache(a, b, &empty).to_bits()
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
    /// from a tiny vocabulary (so duplicates and shared tokens are common).
    fn random_record(id: u64, state: &mut u64) -> Record {
        let vocab = ["ab", "ba", "abc", "Ab,", "b", "a a", "", "--"];
        let mut record = Record::new(RecordId(id));
        for name in ["title", "authors", "venue"] {
            record = match next(state) % 6 {
                0 => record,                       // missing
                1 => record.with(name, id as f64), // numeric value on a text attribute
                2 => record.with(name, ""),        // empty text
                _ => {
                    let words = 1 + next(state) % 5;
                    let text: Vec<&str> = (0..words)
                        .map(|_| vocab[(next(state) % vocab.len() as u64) as usize])
                        .collect();
                    record.with(name, text.join(" "))
                }
            };
        }
        match next(state) % 3 {
            0 => record,
            1 => record.with("year", 2000.0 + (next(state) % 10) as f64),
            _ => record.with("year", "n/a"),
        }
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
                    for cache in [&full, &partial, &TokenCache::new()] {
                        let cached = scorer.score_with_cache(a, b, cache);
                        prop_assert_eq!(cached.to_bits(), plain.to_bits());
                    }
                }
            }
        }
    }
}
