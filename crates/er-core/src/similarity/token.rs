//! Set-based token similarities: Jaccard, Dice and the overlap coefficient.
//!
//! Jaccard over word tokens is the primary attribute similarity used by the
//! paper's experiments (titles, author lists, product names and descriptions).

use std::collections::BTreeSet;

/// `(|A|, |B|, |A ∩ B|)` of the token *sets* of two token lists.
fn set_counts<S: AsRef<str>>(a: &[S], b: &[S]) -> (usize, usize, usize) {
    let sa: BTreeSet<&str> = a.iter().map(|t| t.as_ref()).collect();
    let sb: BTreeSet<&str> = b.iter().map(|t| t.as_ref()).collect();
    (sa.len(), sb.len(), sa.intersection(&sb).count())
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` over token *sets*.
///
/// Two empty token lists are considered identical (similarity `1`).
pub fn jaccard_similarity<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let (na, nb, common) = set_counts(a, b);
    jaccard_from_counts(na, nb, common)
}

/// Dice similarity `2|A ∩ B| / (|A| + |B|)` over token sets.
pub fn dice_similarity<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let (na, nb, common) = set_counts(a, b);
    dice_from_counts(na, nb, common)
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` over token sets.
///
/// Returns `0` when exactly one side is empty and `1` when both are empty.
pub fn overlap_coefficient<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let (na, nb, common) = set_counts(a, b);
    overlap_from_counts(na, nb, common)
}

// The set measures as functions of `|A|`, `|B|` and `|A ∩ B|` alone. Every
// caller, string-keyed above or id-keyed in the token cache, evaluates these
// same expressions, so equal counts give bit-equal similarities.

pub(crate) fn jaccard_from_counts(na: usize, nb: usize, common: usize) -> f64 {
    if na == 0 && nb == 0 {
        return 1.0;
    }
    common as f64 / (na + nb - common) as f64
}

pub(crate) fn dice_from_counts(na: usize, nb: usize, common: usize) -> f64 {
    if na == 0 && nb == 0 {
        return 1.0;
    }
    2.0 * common as f64 / (na + nb) as f64
}

pub(crate) fn overlap_from_counts(na: usize, nb: usize, common: usize) -> f64 {
    if na == 0 && nb == 0 {
        return 1.0;
    }
    if na == 0 || nb == 0 {
        return 0.0;
    }
    common as f64 / na.min(nb) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toks(s: &str) -> Vec<String> {
        crate::text::word_tokens(s)
    }

    #[test]
    fn jaccard_known_values() {
        assert_eq!(jaccard_similarity(&toks("a b c"), &toks("a b c")), 1.0);
        assert_eq!(jaccard_similarity(&toks("a b"), &toks("c d")), 0.0);
        assert!((jaccard_similarity(&toks("a b c"), &toks("b c d")) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_ignores_duplicates() {
        // Set semantics: duplicates collapse.
        assert_eq!(jaccard_similarity(&toks("a a a b"), &toks("a b")), 1.0);
    }

    #[test]
    fn dice_known_values() {
        assert!((dice_similarity(&toks("a b c"), &toks("b c d")) - 2.0 * 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(dice_similarity(&toks(""), &toks("")), 1.0);
        assert_eq!(dice_similarity(&toks("a"), &toks("")), 0.0);
    }

    #[test]
    fn overlap_is_one_for_subset() {
        assert_eq!(overlap_coefficient(&toks("a b"), &toks("a b c d")), 1.0);
        assert_eq!(overlap_coefficient(&toks(""), &toks("a")), 0.0);
        assert_eq!(overlap_coefficient(&toks(""), &toks("")), 1.0);
    }

    #[test]
    fn dice_at_least_jaccard() {
        let a = toks("entity resolution with quality control");
        let b = toks("quality control for entity matching");
        assert!(dice_similarity(&a, &b) >= jaccard_similarity(&a, &b));
    }

    proptest! {
        #[test]
        fn token_measures_bounded_and_symmetric(a in "[a-d ]{0,20}", b in "[a-d ]{0,20}") {
            let (ta, tb) = (toks(&a), toks(&b));
            for f in [jaccard_similarity::<String>, dice_similarity::<String>, overlap_coefficient::<String>] {
                let ab = f(&ta, &tb);
                prop_assert!((0.0..=1.0).contains(&ab));
                prop_assert!((ab - f(&tb, &ta)).abs() < 1e-12);
            }
        }

        #[test]
        fn jaccard_le_dice_le_overlap(a in "[a-d ]{1,20}", b in "[a-d ]{1,20}") {
            let (ta, tb) = (toks(&a), toks(&b));
            prop_assume!(!ta.is_empty() && !tb.is_empty());
            let j = jaccard_similarity(&ta, &tb);
            let d = dice_similarity(&ta, &tb);
            let o = overlap_coefficient(&ta, &tb);
            prop_assert!(j <= d + 1e-12);
            prop_assert!(d <= o + 1e-12);
        }
    }
}
