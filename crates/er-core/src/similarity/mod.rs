//! String and numeric similarity functions.
//!
//! Every function returns a similarity in `[0, 1]`, with `1` meaning identical.
//! The HUMO paper aggregates Jaccard similarity (for long textual attributes such
//! as titles, author lists and product descriptions) and Jaro-Winkler similarity
//! (for short attributes such as venue names) into a weighted pair similarity;
//! the other measures are provided so downstream users can plug in whichever
//! machine metric fits their data, as the framework is metric-agnostic.

mod cosine;
mod edit;
mod jaro;
mod monge_elkan;
mod numeric;
mod token;

pub use cosine::tf_cosine_similarity;
pub use edit::{levenshtein_distance, levenshtein_similarity};
pub use jaro::{jaro_similarity, jaro_winkler_similarity};
pub use monge_elkan::monge_elkan_similarity;
pub use numeric::{absolute_difference_similarity, relative_difference_similarity};
pub(crate) use token::{dice_from_counts, jaccard_from_counts, overlap_from_counts};
pub use token::{dice_similarity, jaccard_similarity, overlap_coefficient};

use crate::text::Tokenizer;

/// A named string-similarity measure, usable where a runtime-selected measure is
/// needed (feature extraction, configuration files, benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StringMeasure {
    /// Normalized Levenshtein similarity on characters.
    Levenshtein,
    /// Jaro similarity.
    Jaro,
    /// Jaro-Winkler similarity (prefix-boosted Jaro).
    JaroWinkler,
    /// Jaccard similarity over tokens from the given tokenizer.
    Jaccard(Tokenizer),
    /// Dice similarity over tokens from the given tokenizer.
    Dice(Tokenizer),
    /// Overlap coefficient over tokens from the given tokenizer.
    Overlap(Tokenizer),
    /// Term-frequency cosine similarity over tokens from the given tokenizer.
    Cosine(Tokenizer),
    /// Monge-Elkan similarity: average best Jaro-Winkler match of word tokens.
    MongeElkan,
}

impl StringMeasure {
    /// Evaluates the measure on a pair of strings.
    pub fn eval(&self, a: &str, b: &str) -> f64 {
        match self {
            StringMeasure::Levenshtein => levenshtein_similarity(a, b),
            StringMeasure::Jaro => jaro_similarity(a, b),
            StringMeasure::JaroWinkler => jaro_winkler_similarity(a, b),
            StringMeasure::Jaccard(t) => jaccard_similarity(&t.tokenize(a), &t.tokenize(b)),
            StringMeasure::Dice(t) => dice_similarity(&t.tokenize(a), &t.tokenize(b)),
            StringMeasure::Overlap(t) => overlap_coefficient(&t.tokenize(a), &t.tokenize(b)),
            StringMeasure::Cosine(t) => tf_cosine_similarity(&t.tokenize(a), &t.tokenize(b)),
            StringMeasure::MongeElkan => monge_elkan_similarity(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn string_measure_dispatch_identity() {
        let measures = [
            StringMeasure::Levenshtein,
            StringMeasure::Jaro,
            StringMeasure::JaroWinkler,
            StringMeasure::Jaccard(Tokenizer::Words),
            StringMeasure::Dice(Tokenizer::QGrams(2)),
            StringMeasure::Overlap(Tokenizer::Words),
            StringMeasure::Cosine(Tokenizer::Words),
            StringMeasure::MongeElkan,
        ];
        for m in measures {
            let s = m.eval("entity resolution framework", "entity resolution framework");
            assert!((s - 1.0).abs() < 1e-12, "{m:?} should score identical strings as 1");
        }
    }

    proptest! {
        #[test]
        fn all_measures_bounded_and_symmetric(a in "[a-z ]{0,20}", b in "[a-z ]{0,20}") {
            let measures = [
                StringMeasure::Levenshtein,
                StringMeasure::Jaro,
                StringMeasure::JaroWinkler,
                StringMeasure::Jaccard(Tokenizer::Words),
                StringMeasure::Dice(Tokenizer::Words),
                StringMeasure::Overlap(Tokenizer::QGrams(2)),
                StringMeasure::Cosine(Tokenizer::Words),
                StringMeasure::MongeElkan,
            ];
            for m in measures {
                let ab = m.eval(&a, &b);
                let ba = m.eval(&b, &a);
                prop_assert!((0.0..=1.0).contains(&ab), "{m:?} out of range: {ab}");
                prop_assert!((ab - ba).abs() < 1e-9, "{m:?} not symmetric: {ab} vs {ba}");
            }
        }
    }
}
