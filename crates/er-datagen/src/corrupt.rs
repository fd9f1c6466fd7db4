//! Textual corruption utilities for record-level dataset generation.
//!
//! Duplicate records in real ER benchmarks differ from their originals through
//! typos, dropped or abbreviated tokens and truncation. These helpers inject the
//! same classes of noise in a controlled, seeded way so the generated corpora
//! produce realistic similarity distributions.

use crate::rng::bernoulli;
use rand::Rng;

/// Injects a single character-level typo (substitution, swap, deletion or
/// duplication) at a random position. Strings shorter than two characters are
/// returned unchanged.
pub fn typo<R: Rng + ?Sized>(rng: &mut R, input: &str) -> String {
    let chars: Vec<char> = input.chars().collect();
    if chars.len() < 2 {
        return input.to_string();
    }
    let pos = rng.gen_range(0..chars.len());
    let mut out = chars.clone();
    match rng.gen_range(0..4) {
        0 => {
            // Substitution with a nearby lowercase letter.
            let replacement = (b'a' + rng.gen_range(0..26)) as char;
            out[pos] = replacement;
        }
        1 => {
            // Adjacent swap.
            if pos + 1 < out.len() {
                out.swap(pos, pos + 1);
            } else {
                out.swap(pos - 1, pos);
            }
        }
        2 => {
            // Deletion.
            out.remove(pos);
        }
        _ => {
            // Duplication.
            let c = out[pos];
            out.insert(pos, c);
        }
    }
    out.into_iter().collect()
}

/// Drops one whitespace-delimited token at random. Single-token strings are
/// returned unchanged.
pub fn drop_token<R: Rng + ?Sized>(rng: &mut R, input: &str) -> String {
    let tokens: Vec<&str> = input.split_whitespace().collect();
    if tokens.len() < 2 {
        return input.to_string();
    }
    let drop = rng.gen_range(0..tokens.len());
    tokens
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != drop)
        .map(|(_, t)| *t)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Abbreviates one random token to its first letter followed by a period
/// ("proceedings" → "p."), mimicking venue and first-name abbreviations.
pub fn abbreviate_token<R: Rng + ?Sized>(rng: &mut R, input: &str) -> String {
    let tokens: Vec<&str> = input.split_whitespace().collect();
    if tokens.is_empty() {
        return input.to_string();
    }
    let idx = rng.gen_range(0..tokens.len());
    tokens
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if i == idx && t.len() > 1 {
                let first = t.chars().next().expect("non-empty token");
                format!("{first}.")
            } else {
                (*t).to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Truncates the string to at most `max_tokens` whitespace-delimited tokens.
pub fn truncate_tokens(input: &str, max_tokens: usize) -> String {
    input.split_whitespace().take(max_tokens.max(1)).collect::<Vec<_>>().join(" ")
}

/// Applies a randomized sequence of corruptions controlled by `severity ∈ [0, 1]`.
///
/// At severity `0` the input is returned unchanged; at severity `1` several typos
/// plus token-level edits are applied. The expected number of edits grows roughly
/// linearly with severity.
pub fn corrupt<R: Rng + ?Sized>(rng: &mut R, input: &str, severity: f64) -> String {
    let severity = severity.clamp(0.0, 1.0);
    if severity == 0.0 {
        return input.to_string();
    }
    let mut out = input.to_string();
    let typo_rounds = 1 + (severity * 3.0).round() as usize;
    for _ in 0..typo_rounds {
        if bernoulli(rng, severity) {
            out = typo(rng, &out);
        }
    }
    if bernoulli(rng, severity * 0.6) {
        out = drop_token(rng, &out);
    }
    if bernoulli(rng, severity * 0.5) {
        out = abbreviate_token(rng, &out);
    }
    if bernoulli(rng, severity * 0.3) {
        let keep = out.split_whitespace().count().saturating_sub(1).max(1);
        out = truncate_tokens(&out, keep);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn typo_changes_string_but_keeps_length_close() {
        let mut rng = StdRng::seed_from_u64(1);
        let original = "entity resolution";
        for _ in 0..50 {
            let corrupted = typo(&mut rng, original);
            let diff = corrupted.chars().count().abs_diff(original.chars().count());
            assert!(diff <= 1);
        }
    }

    #[test]
    fn typo_leaves_tiny_strings_alone() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(typo(&mut rng, "a"), "a");
        assert_eq!(typo(&mut rng, ""), "");
    }

    #[test]
    fn drop_token_removes_exactly_one_token() {
        let mut rng = StdRng::seed_from_u64(3);
        let out = drop_token(&mut rng, "one two three four");
        assert_eq!(out.split_whitespace().count(), 3);
        assert_eq!(drop_token(&mut rng, "single"), "single");
    }

    #[test]
    fn abbreviate_token_shortens_one_token() {
        let mut rng = StdRng::seed_from_u64(4);
        let out = abbreviate_token(&mut rng, "very large databases");
        assert_eq!(out.split_whitespace().count(), 3);
        assert!(out.split_whitespace().any(|t| t.len() == 2 && t.ends_with('.')));
    }

    #[test]
    fn truncate_tokens_limits_length() {
        assert_eq!(truncate_tokens("a b c d", 2), "a b");
        assert_eq!(truncate_tokens("a b", 10), "a b");
        assert_eq!(truncate_tokens("a b", 0), "a");
    }

    #[test]
    fn zero_severity_is_identity() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(corrupt(&mut rng, "quality control for er", 0.0), "quality control for er");
    }

    #[test]
    fn higher_severity_degrades_similarity_more() {
        let mut rng = StdRng::seed_from_u64(6);
        let original = "enabling quality control for entity resolution frameworks";
        let sim = |s: &str| {
            er_core::similarity::jaccard_similarity(
                &er_core::text::word_tokens(original),
                &er_core::text::word_tokens(s),
            )
        };
        let mild: f64 = (0..30).map(|_| sim(&corrupt(&mut rng, original, 0.2))).sum::<f64>() / 30.0;
        let harsh: f64 =
            (0..30).map(|_| sim(&corrupt(&mut rng, original, 1.0))).sum::<f64>() / 30.0;
        assert!(mild > harsh, "mild corruption ({mild}) should preserve more similarity ({harsh})");
    }
}
