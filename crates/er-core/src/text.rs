//! Text normalization and tokenization.
//!
//! All string similarity functions in [`crate::similarity`] operate either on raw
//! character sequences or on token multisets produced by the tokenizers here. The
//! normalization mirrors what ER systems typically do before matching: lowercase,
//! strip punctuation, collapse whitespace.

use std::collections::BTreeMap;

/// Lowercases, maps punctuation to spaces and collapses repeated whitespace.
pub fn normalize(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let mut last_was_space = true;
    for ch in input.chars() {
        let mapped = if ch.is_alphanumeric() { Some(ch.to_ascii_lowercase()) } else { None };
        match mapped {
            Some(c) => {
                out.push(c);
                last_was_space = false;
            }
            None => {
                if !last_was_space {
                    out.push(' ');
                    last_was_space = true;
                }
            }
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Splits normalized text into lowercase word tokens.
pub fn word_tokens(input: &str) -> Vec<String> {
    collect_tokens(Tokenizer::Words, input)
}

/// Produces the multiset of character q-grams of the normalized input.
///
/// The input is padded with `q - 1` leading and trailing `#`/`$` markers, the
/// standard trick that lets q-gram similarity capture prefix/suffix agreement.
/// Returns an empty vector when `q == 0` or the normalized input is empty.
pub fn qgrams(input: &str, q: usize) -> Vec<String> {
    collect_tokens(Tokenizer::QGrams(q), input)
}

fn collect_tokens(tokenizer: Tokenizer, input: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    tokenizer.for_each_token(input, |token| tokens.push(token.to_string()));
    tokens
}

fn for_each_qgram(input: &str, q: usize, mut f: impl FnMut(&str)) {
    if q == 0 {
        return;
    }
    let normalized = normalize(input);
    if normalized.is_empty() {
        return;
    }
    let mut padded: Vec<char> = Vec::with_capacity(normalized.len() + 2 * (q - 1));
    padded.extend(std::iter::repeat_n('#', q - 1));
    padded.extend(normalized.chars());
    padded.extend(std::iter::repeat_n('$', q - 1));
    if padded.len() < q {
        f(&padded.iter().collect::<String>());
        return;
    }
    let mut gram = String::with_capacity(4 * q);
    for window in padded.windows(q) {
        gram.clear();
        gram.extend(window);
        f(&gram);
    }
}

/// Counts token occurrences, producing a term-frequency map.
pub fn term_frequencies<S: AsRef<str>>(tokens: &[S]) -> BTreeMap<String, usize> {
    let mut tf = BTreeMap::new();
    for t in tokens {
        *tf.entry(t.as_ref().to_string()).or_insert(0) += 1;
    }
    tf
}

/// A tokenization strategy, used by token-based similarity functions and blockers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tokenizer {
    /// Whitespace-delimited word tokens of the normalized text.
    Words,
    /// Character q-grams of the given width.
    QGrams(usize),
}

impl Tokenizer {
    /// Tokenizes the input according to the strategy.
    pub fn tokenize(&self, input: &str) -> Vec<String> {
        collect_tokens(*self, input)
    }

    /// Calls `f` on every token [`Tokenizer::tokenize`] returns, in the same
    /// order, without allocating a `String` per token.
    pub(crate) fn for_each_token(&self, input: &str, mut f: impl FnMut(&str)) {
        match self {
            Tokenizer::Words => normalize(input).split_whitespace().for_each(f),
            Tokenizer::QGrams(q) => for_each_qgram(input, *q, &mut f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lowercases_and_strips_punctuation() {
        assert_eq!(normalize("Entity-Resolution:  A Survey!"), "entity resolution a survey");
        assert_eq!(normalize("  "), "");
        assert_eq!(normalize("ABC123"), "abc123");
    }

    #[test]
    fn word_tokens_splits_on_whitespace() {
        assert_eq!(word_tokens("Data, Matching & Linkage"), vec!["data", "matching", "linkage"]);
        assert!(word_tokens("").is_empty());
    }

    #[test]
    fn qgrams_pad_and_window() {
        let grams = qgrams("ab", 2);
        assert_eq!(grams, vec!["#a".to_string(), "ab".to_string(), "b$".to_string()]);
        assert!(qgrams("", 2).is_empty());
        assert!(qgrams("abc", 0).is_empty());
    }

    #[test]
    fn qgrams_count_matches_length() {
        // With padding of q-1 on both sides, #grams = len + q - 1 for non-empty input.
        let grams = qgrams("abcd", 3);
        assert_eq!(grams.len(), 4 + 3 - 1);
    }

    #[test]
    fn term_frequencies_counts_duplicates() {
        let tf = term_frequencies(&["a", "b", "a", "c", "a"]);
        assert_eq!(tf["a"], 3);
        assert_eq!(tf["b"], 1);
        assert_eq!(tf.len(), 3);
    }

    #[test]
    fn tokenizer_enum_dispatch() {
        assert_eq!(Tokenizer::Words.tokenize("a b"), vec!["a", "b"]);
        assert_eq!(Tokenizer::QGrams(2).tokenize("ab").len(), 3);
    }
}
