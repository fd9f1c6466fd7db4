//! Blocking: generating candidate record pairs without enumerating the full
//! cartesian product, plus the similarity-threshold filtering the paper applies
//! when building its ER workloads.
//!
//! The paper's experiments "use the blocking technique to filter the instance
//! pairs unlikely to match", keeping only pairs whose aggregated similarity is at
//! least a per-dataset threshold (0.2 for DBLP-Scholar, 0.05 for Abt-Buy). The
//! [`build_workload`] helper reproduces that pipeline: candidate generation →
//! scoring → threshold filter → similarity-sorted [`Workload`].
//!
//! The token blocker also comes in an **incremental** flavour for streaming
//! ingestion ([`TokenBlocker::incremental`]): record batches are folded into
//! a persistent index and each `add_records` call returns only the *delta*
//! candidate pairs — the pairs involving at least one record of the new batch —
//! without rescanning the pairs of previously ingested records.

use crate::aggregate::{InternedTokens, PairScorer, TokenCache, LEFT, RIGHT};
use crate::codec::{ByteReader, ByteWriter, Fnv1a};
use crate::record::{Dataset, Record, RecordId};
use crate::spill::{ChunkHandle, MemoryBudget, SpillFile};
use crate::text::Tokenizer;
use crate::workload::{InstancePair, Label, PairId, Workload};
use crate::{ErError, Result};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hasher;
use std::sync::Arc;

/// All pairs of the cartesian product between two datasets.
pub fn cartesian_pairs(a: &Dataset, b: &Dataset) -> Vec<(RecordId, RecordId)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for ra in a.iter() {
        for rb in b.iter() {
            out.push((ra.id(), rb.id()));
        }
    }
    out
}

/// Token blocking: candidate pairs are record pairs sharing at least one token of
/// the blocking attribute.
#[derive(Debug, Clone)]
pub struct TokenBlocker {
    attribute: String,
    tokenizer: Tokenizer,
}

impl TokenBlocker {
    /// Creates a token blocker over the given attribute.
    pub fn new(attribute: impl Into<String>, tokenizer: Tokenizer) -> Self {
        Self { attribute: attribute.into(), tokenizer }
    }

    /// Generates candidate pairs between two datasets.
    pub fn candidates(&self, a: &Dataset, b: &Dataset) -> Vec<(RecordId, RecordId)> {
        self.candidates_impl(a, b, None)
    }

    /// Generates candidate pairs between two datasets, reusing memoized token
    /// sequences (records of `a` on the cache's left side, `b` on its right)
    /// instead of re-tokenizing. Produces exactly [`TokenBlocker::candidates`].
    pub fn candidates_with_cache(
        &self,
        a: &Dataset,
        b: &Dataset,
        cache: &TokenCache,
    ) -> Vec<(RecordId, RecordId)> {
        self.candidates_impl(a, b, Some(cache))
    }

    fn candidates_impl(
        &self,
        a: &Dataset,
        b: &Dataset,
        cache: Option<&TokenCache>,
    ) -> Vec<(RecordId, RecordId)> {
        // Tokens are deduplicated per record before indexing and probing: a
        // record repeating a token ("new york, new york") must not push its id
        // into a posting list twice, nor probe the same posting list twice —
        // the output set would hide it, but every duplicate re-scans a whole
        // posting list.
        let cached = cache.and_then(|c| Some((c, c.interned(&self.attribute, self.tokenizer)?)));
        let record_tokens = |record: &Record, side: usize| {
            unique_record_tokens(cached, &self.attribute, self.tokenizer, record, side).0
        };
        // Invert dataset b: token → record ids.
        let mut index: BTreeMap<String, Vec<RecordId>> = BTreeMap::new();
        for rb in b.iter() {
            for token in record_tokens(rb, RIGHT) {
                index.entry(token.into_owned()).or_default().push(rb.id());
            }
        }
        let mut pairs = Vec::new();
        for ra in a.iter() {
            for token in record_tokens(ra, LEFT) {
                if let Some(ids) = index.get(token.as_ref()) {
                    pairs.extend(ids.iter().map(|&rb_id| (ra.id(), rb_id)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Creates an empty incremental index with this blocker's attribute and
    /// tokenizer. Feed record batches through
    /// [`IncrementalTokenIndex::add_records`] to obtain delta candidates.
    pub fn incremental(&self) -> IncrementalTokenIndex {
        IncrementalTokenIndex {
            attribute: self.attribute.clone(),
            tokenizer: self.tokenizer,
            resident_left: BTreeMap::new(),
            resident_right: BTreeMap::new(),
            resident_postings: 0,
            generations: Vec::new(),
            records_indexed: 0,
            budget: MemoryBudget::default(),
            spill: None,
            obs: er_obs::ObsHandle::default(),
        }
    }
}

/// The distinct tokens of one record, in no particular order: borrowed from
/// the token cache's `(attribute, tokenizer)` entry when the record was
/// admitted on `side`, freshly tokenized otherwise. The flag reports whether
/// the cache answered (always `false` without an entry).
fn unique_record_tokens<'a>(
    cached: Option<(&'a TokenCache, &'a InternedTokens)>,
    attribute: &str,
    tokenizer: Tokenizer,
    record: &Record,
    side: usize,
) -> (Vec<Cow<'a, str>>, bool) {
    if let Some(tokens) =
        cached.and_then(|(cache, entry)| cache.distinct_tokens(entry, side, record.id()))
    {
        return (tokens.map(Cow::Borrowed).collect(), true);
    }
    let mut tokens =
        record.text(attribute).map(|text| tokenizer.tokenize(text)).unwrap_or_default();
    tokens.sort_unstable();
    tokens.dedup();
    (tokens.into_iter().map(Cow::Owned).collect(), false)
}

/// A persistent token-blocking index supporting incremental ingestion.
///
/// The index keeps one posting list per token and side. Adding a batch probes
/// the *existing* posting lists for the new records' tokens, so the work per
/// batch is proportional to the new records and their matching postings — old
/// candidate pairs are never re-derived. The union of the deltas over any batch
/// split equals [`TokenBlocker::candidates`] on the union of the records, and a
/// pair is never emitted twice (every delta pair involves a record of the
/// current batch).
///
/// Under a [`MemoryBudget`] with a posting bound, the index freezes its
/// resident posting maps into an immutable on-disk *generation* (an `HPG1`
/// chunk, see [`crate::spill`]) between batches; probes consult the resident
/// maps plus every generation through a small resident hash directory, so
/// budgeted and unbounded indexes produce identical candidates. A generation
/// entry that cannot be read back, runs past its bytes, or does not hash to
/// the bucket that points at it fails the batch with [`ErError::Spill`]
/// rather than dropping candidates.
#[derive(Debug, Clone)]
pub struct IncrementalTokenIndex {
    attribute: String,
    tokenizer: Tokenizer,
    resident_left: BTreeMap<String, Vec<RecordId>>,
    resident_right: BTreeMap<String, Vec<RecordId>>,
    /// Total record-id entries across both resident maps.
    resident_postings: usize,
    generations: Vec<PostingGeneration>,
    records_indexed: usize,
    budget: MemoryBudget,
    spill: Option<Arc<SpillFile>>,
    obs: er_obs::ObsHandle,
}

/// The side byte of posting keys and `HPG1` entries: the token cache's side
/// index.
const SIDE_LEFT: u8 = LEFT as u8;
const SIDE_RIGHT: u8 = RIGHT as u8;
const POSTING_MAGIC: [u8; 4] = *b"HPG1";

/// FNV-1a over the bytes of `side` followed by `token` — the key of
/// posting-generation directories.
fn posting_key(side: u8, token: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(&[side]);
    hash.write(token);
    hash.finish()
}

/// Converts an offset, length or count to its `u32` field of the `HPG1`
/// format, failing instead of wrapping once a generation outgrows it.
fn generation_u32(value: usize, what: &str) -> Result<u32> {
    u32::try_from(value).map_err(|_| {
        ErError::Spill(format!("posting generation {what} {value} does not fit in 32 bits"))
    })
}

/// An immutable spilled snapshot of the index's posting maps.
#[derive(Debug, Clone)]
struct PostingGeneration {
    spill: Arc<SpillFile>,
    handle: ChunkHandle,
    /// FNV-1a of `(side, token)` → byte ranges of matching entries inside the
    /// chunk. A bucket may hold hash collisions; probes verify token bytes.
    directory: HashMap<u64, Vec<(u32, u32)>>,
}

impl PostingGeneration {
    /// Calls `f` on every record id this generation holds for `(side, token)`.
    fn probe(&self, side: u8, token: &str, f: &mut impl FnMut(RecordId)) -> Result<()> {
        let key = posting_key(side, token.as_bytes());
        let Some(ranges) = self.directory.get(&key) else {
            return Ok(());
        };
        for &(start, len) in ranges {
            // Sub-entry read: the enclosing chunk was checksummed when written
            // whole; entry reads skip re-verification by design.
            let bytes = self.spill.read_at(self.handle.offset + start as u64, len as usize)?;
            let mut r = ByteReader::unchecked(&bytes);
            let entry_side = r.take_u8()?;
            let token_len = r.take_u32()? as usize;
            let entry_token = r.take_bytes(token_len)?;
            if entry_side != side || entry_token != token.as_bytes() {
                // A bucket may also hold entries whose keys collide with this
                // one, but never an entry that hashes elsewhere.
                if posting_key(entry_side, entry_token) != key {
                    return Err(ErError::Spill(format!(
                        "posting generation entry at byte {start} does not match its key"
                    )));
                }
                continue;
            }
            for _ in 0..r.take_u32()? {
                f(RecordId(r.take_u64()?));
            }
        }
        Ok(())
    }
}

/// Appends `id` to `token`'s posting list, allocating the key only for a new
/// token.
fn push_posting(map: &mut BTreeMap<String, Vec<RecordId>>, token: &str, id: RecordId) {
    match map.get_mut(token) {
        Some(ids) => ids.push(id),
        None => {
            map.insert(token.to_string(), vec![id]);
        }
    }
}

impl IncrementalTokenIndex {
    /// Number of records folded into the index so far (both sides).
    pub fn records_indexed(&self) -> usize {
        self.records_indexed
    }

    /// Sets the memory budget governing resident postings and immediately
    /// freezes them if the index is already over it.
    pub fn set_memory_budget(&mut self, budget: MemoryBudget) -> Result<()> {
        self.budget = budget;
        self.enforce_budget()
    }

    /// The configured memory budget.
    pub fn memory_budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Record-id posting entries currently resident.
    pub fn resident_postings(&self) -> usize {
        self.resident_postings
    }

    /// Number of frozen on-disk posting generations.
    pub fn spilled_generations(&self) -> usize {
        self.generations.len()
    }

    /// Total bytes appended to the index's spill file (0 without spilling).
    pub fn spilled_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.bytes_written())
    }

    /// Attaches an observability handle; blocking and posting-spill events
    /// are recorded through it from then on.
    pub fn set_obs(&mut self, obs: er_obs::ObsHandle) {
        self.obs = obs;
    }

    /// Folds a batch of records into the index and returns the **new** candidate
    /// pairs: every `(left, right)` pair sharing at least one token where at
    /// least one side belongs to this batch. Pairs are deduplicated and sorted.
    ///
    /// Fails with [`ErError::Spill`] when a frozen posting generation cannot
    /// be read back or is corrupt, or when freezing postings under the memory
    /// budget fails. A failed call may leave the batch partly folded in (its
    /// delta is lost), so the index should then be discarded.
    pub fn add_records(
        &mut self,
        left_batch: &[Record],
        right_batch: &[Record],
    ) -> Result<Vec<(RecordId, RecordId)>> {
        self.add_records_with(left_batch, right_batch, None)
    }

    /// [`add_records`](IncrementalTokenIndex::add_records) reading record
    /// tokens from `cache`'s interned ids where admitted. The cache is
    /// behaviour-invisible: the returned delta is identical for any cache
    /// state.
    pub fn add_records_with(
        &mut self,
        left_batch: &[Record],
        right_batch: &[Record],
        cache: Option<&TokenCache>,
    ) -> Result<Vec<(RecordId, RecordId)>> {
        let cached = cache.and_then(|c| Some((c, c.interned(&self.attribute, self.tokenizer)?)));
        let mut token_cache_hits = 0u64;
        let mut delta = Vec::new();
        // Right side first: new right records pair with previously indexed
        // left records here, and pairs with the new left records are found
        // once the right postings are in place — so every within-batch pair is
        // emitted exactly once.
        for (side, batch) in [(RIGHT, right_batch), (LEFT, left_batch)] {
            for record in batch {
                let (tokens, cache_hit) =
                    unique_record_tokens(cached, &self.attribute, self.tokenizer, record, side);
                token_cache_hits += u64::from(cache_hit);
                let id = record.id();
                for token in &tokens {
                    if side == RIGHT {
                        self.probe(SIDE_LEFT, token, |left_id| delta.push((left_id, id)))?;
                        push_posting(&mut self.resident_right, token, id);
                    } else {
                        self.probe(SIDE_RIGHT, token, |right_id| delta.push((id, right_id)))?;
                        push_posting(&mut self.resident_left, token, id);
                    }
                    self.resident_postings += 1;
                }
            }
        }
        let records = left_batch.len() + right_batch.len();
        self.records_indexed += records;
        // Token-cache hits only mean something when a cache was supplied.
        if cache.is_some() && self.obs.is_enabled() {
            self.obs.counter("blocking.tokencache.hits", token_cache_hits);
            self.obs.counter("blocking.tokencache.misses", records as u64 - token_cache_hits);
        }
        delta.sort_unstable();
        delta.dedup();
        self.enforce_budget()?;
        Ok(delta)
    }

    /// Calls `f` on every indexed record id for a token on one side: every
    /// frozen generation plus the resident map.
    fn probe(&self, side: u8, token: &str, mut f: impl FnMut(RecordId)) -> Result<()> {
        for generation in &self.generations {
            generation.probe(side, token, &mut f)?;
        }
        let resident = if side == SIDE_LEFT { &self.resident_left } else { &self.resident_right };
        resident.get(token).into_iter().flatten().copied().for_each(f);
        Ok(())
    }

    /// Freezes the resident postings into one on-disk generation when they
    /// exceed the budget.
    fn enforce_budget(&mut self) -> Result<()> {
        let budget = self.budget.resident_postings;
        if budget == 0 || self.resident_postings <= budget {
            return Ok(());
        }
        if self.spill.is_none() {
            self.spill = Some(Arc::new(SpillFile::create_in(self.budget.spill_dir.as_deref())?));
        }
        let spill = Arc::clone(self.spill.as_ref().expect("spill file just ensured"));
        let bytes_before = spill.bytes_written();
        self.freeze(&spill)?;
        self.obs.counter("spill.postings.generations_spilled", 1);
        self.obs.counter("spill.postings.bytes_spilled", spill.bytes_written() - bytes_before);
        Ok(())
    }

    /// Writes the resident posting maps as one immutable `HPG1` generation
    /// chunk and clears them. A failure leaves the resident maps intact.
    fn freeze(&mut self, spill: &Arc<SpillFile>) -> Result<()> {
        let entry_count = self.resident_left.len() + self.resident_right.len();
        let mut w = ByteWriter::with_capacity(16 + self.resident_postings * 8);
        w.put_bytes(&POSTING_MAGIC);
        w.put_u32(generation_u32(entry_count, "entry count")?);
        let mut entries: Vec<(u64, u32, u32)> = Vec::with_capacity(entry_count);
        for (side, map) in [(SIDE_LEFT, &self.resident_left), (SIDE_RIGHT, &self.resident_right)] {
            for (token, ids) in map {
                let start = w.len();
                w.put_u8(side);
                w.put_u32(generation_u32(token.len(), "token length")?);
                w.put_bytes(token.as_bytes());
                w.put_u32(generation_u32(ids.len(), "posting count")?);
                for id in ids {
                    w.put_u64(id.0);
                }
                entries.push((
                    posting_key(side, token.as_bytes()),
                    generation_u32(start, "entry offset")?,
                    generation_u32(w.len() - start, "entry length")?,
                ));
            }
        }
        let handle = spill.append(&w.finish())?;
        let mut directory: HashMap<u64, Vec<(u32, u32)>> = HashMap::with_capacity(entry_count);
        for (key, start, len) in entries {
            directory.entry(key).or_default().push((start, len));
        }
        self.generations.push(PostingGeneration { spill: Arc::clone(spill), handle, directory });
        self.resident_left.clear();
        self.resident_right.clear();
        self.resident_postings = 0;
        Ok(())
    }
}

/// Scores candidate pairs, filters them by a similarity threshold, and assembles a
/// similarity-sorted [`Workload`] with ground-truth labels.
///
/// * `candidates` — the output of a blocker (or [`cartesian_pairs`]);
/// * `scorer` — the attribute-weighted pair scorer;
/// * `ground_truth` — the set of record-id pairs that are true matches;
/// * `threshold` — pairs scoring below this aggregated similarity are dropped
///   (the paper's per-dataset blocking threshold).
pub fn build_workload(
    a: &Dataset,
    b: &Dataset,
    candidates: &[(RecordId, RecordId)],
    scorer: &PairScorer,
    ground_truth: &BTreeSet<(RecordId, RecordId)>,
    threshold: f64,
) -> Result<Workload> {
    let mut pairs = Vec::new();
    let mut next_id = 0u64;
    for &(left, right) in candidates {
        let ra = a.require(left)?;
        let rb = b.require(right)?;
        let similarity = scorer.score(ra, rb);
        if similarity < threshold {
            continue;
        }
        let label = Label::from_bool(ground_truth.contains(&(left, right)));
        pairs.push(InstancePair::with_records(PairId(next_id), left, right, similarity, label));
        next_id += 1;
    }
    Workload::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
    use crate::codec::fnv1a;
    use crate::record::{Record, Schema};
    use crate::similarity::StringMeasure;
    use proptest::prelude::*;

    fn dataset(name: &str, titles: &[(u64, &str)]) -> Dataset {
        let mut ds = Dataset::new(name, Schema::new(["title"]));
        for &(id, title) in titles {
            ds.push(Record::new(RecordId(id)).with("title", title)).unwrap();
        }
        ds
    }

    fn title_scorer(datasets: &[&Dataset]) -> PairScorer {
        let config = ScoringConfig::new(
            [("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words)))],
            AttributeWeighting::Uniform,
        );
        PairScorer::new(&config, datasets).unwrap()
    }

    #[test]
    fn cartesian_pairs_full_product() {
        let a = dataset("a", &[(1, "x"), (2, "y")]);
        let b = dataset("b", &[(10, "x"), (11, "y"), (12, "z")]);
        assert_eq!(cartesian_pairs(&a, &b).len(), 6);
    }

    #[test]
    fn token_blocking_only_pairs_sharing_tokens() {
        let a = dataset("a", &[(1, "entity resolution survey"), (2, "graph neural networks")]);
        let b = dataset(
            "b",
            &[
                (10, "a survey of entity resolution"),
                (11, "convolutional networks"),
                (12, "databases"),
            ],
        );
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let candidates = blocker.candidates(&a, &b);
        assert!(candidates.contains(&(RecordId(1), RecordId(10))));
        assert!(candidates.contains(&(RecordId(2), RecordId(11)))); // shares "networks"
        assert!(!candidates.contains(&(RecordId(1), RecordId(12))));
        // No duplicates even though multiple tokens are shared.
        let unique: BTreeSet<_> = candidates.iter().collect();
        assert_eq!(unique.len(), candidates.len());
    }

    #[test]
    fn repeated_tokens_do_not_duplicate_index_postings() {
        // Records that repeat a token ("new york new york") must behave exactly
        // like their deduplicated counterparts: same candidates, no duplicate
        // posting-list entries blowing up the probe work.
        let a = dataset("a", &[(1, "york york york new new"), (2, "boston")]);
        let b = dataset("b", &[(10, "new york"), (11, "york york minster"), (12, "chicago")]);
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let candidates = blocker.candidates(&a, &b);
        let dedup_a = dataset("a", &[(1, "york new"), (2, "boston")]);
        let dedup_b = dataset("b", &[(10, "new york"), (11, "york minster"), (12, "chicago")]);
        let dedup_candidates = blocker.candidates(&dedup_a, &dedup_b);
        assert_eq!(candidates, dedup_candidates);
        assert!(candidates.contains(&(RecordId(1), RecordId(10))));
        assert!(candidates.contains(&(RecordId(1), RecordId(11))));
        assert!(!candidates.contains(&(RecordId(2), RecordId(12))));
        let unique: BTreeSet<_> = candidates.iter().collect();
        assert_eq!(unique.len(), candidates.len());
    }

    #[test]
    fn token_blocking_is_subset_of_cartesian() {
        let a = dataset("a", &[(1, "alpha beta"), (2, "gamma")]);
        let b = dataset("b", &[(10, "beta"), (11, "delta")]);
        let candidates = TokenBlocker::new("title", Tokenizer::Words).candidates(&a, &b);
        let all: BTreeSet<_> = cartesian_pairs(&a, &b).into_iter().collect();
        for c in &candidates {
            assert!(all.contains(c));
        }
        assert!(candidates.len() < all.len());
    }

    #[test]
    fn build_workload_scores_filters_and_labels() {
        let a = dataset("a", &[(1, "entity resolution framework"), (2, "deep learning")]);
        let b = dataset(
            "b",
            &[(10, "entity resolution framework"), (11, "reinforcement learning agents")],
        );
        let scorer = title_scorer(&[&a, &b]);
        let candidates = cartesian_pairs(&a, &b);
        let mut truth = BTreeSet::new();
        truth.insert((RecordId(1), RecordId(10)));
        let workload = build_workload(&a, &b, &candidates, &scorer, &truth, 0.1).unwrap();
        // The exact-match pair survives with similarity 1 and a Match label.
        let pairs = workload.pairs();
        let top = pairs.last().unwrap();
        assert_eq!(top.left(), Some(RecordId(1)));
        assert_eq!(top.right(), Some(RecordId(10)));
        assert!((top.similarity() - 1.0).abs() < 1e-12);
        assert!(top.is_match());
        // Completely dissimilar pairs are filtered by the threshold.
        assert!(workload.len() < candidates.len());
        // Every retained pair meets the threshold.
        for p in workload.pairs() {
            assert!(p.similarity() >= 0.1);
        }
    }

    #[test]
    fn build_workload_rejects_unknown_records() {
        let a = dataset("a", &[(1, "x")]);
        let b = dataset("b", &[(10, "x")]);
        let scorer = title_scorer(&[&a, &b]);
        let bogus = vec![(RecordId(99), RecordId(10))];
        assert!(build_workload(&a, &b, &bogus, &scorer, &BTreeSet::new(), 0.0).is_err());
    }

    fn batched(records: &[Record], batches: usize) -> Vec<&[Record]> {
        let size = records.len().div_ceil(batches.max(1)).max(1);
        records.chunks(size).collect()
    }

    #[test]
    fn incremental_token_index_matches_batch_for_any_split() {
        let a = dataset(
            "a",
            &[(1, "entity resolution survey"), (2, "graph neural networks"), (3, "databases")],
        );
        let b = dataset(
            "b",
            &[
                (10, "a survey of entity resolution"),
                (11, "convolutional networks"),
                (12, "databases and networks"),
                (13, "quantum computing"),
            ],
        );
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let expected: BTreeSet<_> = blocker.candidates(&a, &b).into_iter().collect();
        for (left_batches, right_batches) in [(1, 1), (2, 3), (3, 2), (3, 4)] {
            let mut index = blocker.incremental();
            let mut union: BTreeSet<(RecordId, RecordId)> = BTreeSet::new();
            let left_chunks = batched(a.records(), left_batches);
            let right_chunks = batched(b.records(), right_batches);
            for i in 0..left_chunks.len().max(right_chunks.len()) {
                let l = left_chunks.get(i).copied().unwrap_or(&[]);
                let r = right_chunks.get(i).copied().unwrap_or(&[]);
                for pair in index.add_records(l, r).unwrap() {
                    assert!(union.insert(pair), "pair {pair:?} emitted twice");
                }
            }
            assert_eq!(union, expected, "split ({left_batches},{right_batches}) diverged");
            assert_eq!(index.records_indexed(), a.len() + b.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]
        #[test]
        fn incremental_token_deltas_union_to_batch_candidates(
            n_left in 1usize..12,
            n_right in 1usize..12,
            split in 1usize..5,
            salt in 0u64..1_000,
        ) {
            // Tiny vocabulary so records share tokens often.
            let vocab = ["ant", "bee", "cat", "dog", "elk"];
            let title = |id: u64| -> String {
                let mut words = Vec::new();
                for k in 0..(1 + (id.wrapping_mul(2654435761).wrapping_add(salt) % 3)) {
                    let h = id.wrapping_mul(31).wrapping_add(k).wrapping_add(salt);
                    words.push(vocab[(h % vocab.len() as u64) as usize]);
                }
                words.join(" ")
            };
            let mut a = Dataset::new("a", Schema::new(["title"]));
            for i in 0..n_left as u64 {
                a.push(Record::new(RecordId(i)).with("title", title(i))).unwrap();
            }
            let mut b = Dataset::new("b", Schema::new(["title"]));
            for i in 0..n_right as u64 {
                b.push(Record::new(RecordId(1_000 + i)).with("title", title(77 + i))).unwrap();
            }
            let blocker = TokenBlocker::new("title", Tokenizer::Words);
            let expected: BTreeSet<_> = blocker.candidates(&a, &b).into_iter().collect();
            let mut index = blocker.incremental();
            let mut union: BTreeSet<(RecordId, RecordId)> = BTreeSet::new();
            let left_chunks = batched(a.records(), split);
            let right_chunks = batched(b.records(), split);
            for i in 0..left_chunks.len().max(right_chunks.len()) {
                let l = left_chunks.get(i).copied().unwrap_or(&[]);
                let r = right_chunks.get(i).copied().unwrap_or(&[]);
                for pair in index.add_records(l, r).unwrap() {
                    prop_assert!(union.insert(pair), "pair emitted twice: {:?}", pair);
                }
            }
            prop_assert_eq!(union, expected);
        }
    }

    #[test]
    fn candidates_with_cache_match_uncached() {
        let a = dataset("a", &[(1, "entity resolution survey"), (2, "graph neural networks")]);
        let b =
            dataset("b", &[(10, "a survey of entity resolution"), (11, "convolutional networks")]);
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let expected = blocker.candidates(&a, &b);
        // A fully warmed cache and a cold cache both reproduce the plain path.
        let mut warm = TokenCache::new();
        warm.admit_left("title", Tokenizer::Words, a.records());
        warm.admit_right("title", Tokenizer::Words, b.records());
        assert_eq!(blocker.candidates_with_cache(&a, &b, &warm), expected);
        assert_eq!(blocker.candidates_with_cache(&a, &b, &TokenCache::new()), expected);
    }

    #[test]
    fn budgeted_index_spills_postings_and_keeps_candidates() {
        let titles: Vec<(u64, String)> =
            (0..40).map(|i| (i, format!("tok{} tok{} shared", i % 7, (i * 3) % 11))).collect();
        let mut a = Dataset::new("a", Schema::new(["title"]));
        let mut b = Dataset::new("b", Schema::new(["title"]));
        for &(id, ref title) in &titles {
            a.push(Record::new(RecordId(id)).with("title", title.clone())).unwrap();
            b.push(Record::new(RecordId(1_000 + id)).with("title", title.clone())).unwrap();
        }
        let blocker = TokenBlocker::new("title", Tokenizer::Words);
        let mut unbounded = blocker.incremental();
        let mut budgeted = blocker.incremental();
        budgeted
            .set_memory_budget(MemoryBudget { resident_postings: 16, ..MemoryBudget::default() })
            .unwrap();
        for i in 0..4 {
            let l = &a.records()[i * 10..(i + 1) * 10];
            let r = &b.records()[i * 10..(i + 1) * 10];
            assert_eq!(
                budgeted.add_records(l, r).unwrap(),
                unbounded.add_records(l, r).unwrap(),
                "budgeted delta diverged on batch {i}"
            );
            // Over-budget postings were frozen between batches.
            assert!(budgeted.resident_postings() <= 16, "resident postings left over budget");
        }
        assert!(budgeted.spilled_generations() > 0, "budget never triggered a spill");
        assert!(budgeted.spilled_bytes() > 0);
        assert_eq!(unbounded.spilled_generations(), 0);
        // A clone shares the spill file and still probes generations correctly.
        let mut cloned = budgeted.clone();
        let extra = Record::new(RecordId(9_999)).with("title", "tok1 shared");
        let from_clone = cloned.add_records(&[], std::slice::from_ref(&extra)).unwrap();
        let from_orig = budgeted.add_records(&[], std::slice::from_ref(&extra)).unwrap();
        assert_eq!(from_clone, from_orig);
        assert!(!from_clone.is_empty());
    }

    #[test]
    fn posting_key_is_fnv1a_of_side_then_token() {
        for side in [SIDE_LEFT, SIDE_RIGHT, 7] {
            for token in ["", "a", "shared", "#ab", "zürich", "中文"] {
                assert_eq!(
                    posting_key(side, token.as_bytes()),
                    fnv1a(&[&[side], token.as_bytes()].concat()),
                    "side {side}, token {token:?}"
                );
            }
        }
    }

    #[test]
    fn generation_fields_past_u32_fail_instead_of_wrapping() {
        assert_eq!(generation_u32(u32::MAX as usize, "entry offset").unwrap(), u32::MAX);
        let err = generation_u32(u32::MAX as usize + 1, "entry offset").unwrap_err();
        assert!(matches!(err, ErError::Spill(_)), "{err:?}");
    }

    /// An index over 40 left and 40 right records whose posting budget froze
    /// several generations, plus a right record sharing the token every left
    /// record holds.
    fn spilled_index() -> (IncrementalTokenIndex, Record) {
        let mut index = TokenBlocker::new("title", Tokenizer::Words).incremental();
        index
            .set_memory_budget(MemoryBudget { resident_postings: 16, ..MemoryBudget::default() })
            .unwrap();
        let left: Vec<Record> = (0..40)
            .map(|i| Record::new(RecordId(i)).with("title", format!("tok{} shared", i % 7)))
            .collect();
        let right: Vec<Record> = (0..40)
            .map(|i| Record::new(RecordId(1_000 + i)).with("title", format!("tok{}", i % 5)))
            .collect();
        for i in 0..4 {
            index.add_records(&left[i * 10..(i + 1) * 10], &right[i * 10..(i + 1) * 10]).unwrap();
        }
        // Several generations, so probes span more than one of them.
        assert!(index.generations.len() >= 2, "only {} generations froze", index.generations.len());
        (index, Record::new(RecordId(5_000)).with("title", "shared"))
    }

    /// Rewrites every generation of `index` as a corrupted copy: `corrupt`
    /// edits the chunk bytes given each entry's byte range, and the copy is
    /// appended to the same spill file in place of the original.
    fn corrupt_generations(
        index: &mut IncrementalTokenIndex,
        corrupt: impl Fn(&mut [u8], usize, usize),
    ) {
        for generation in &mut index.generations {
            let mut bytes = generation.spill.read_chunk(generation.handle).unwrap();
            for ranges in generation.directory.values() {
                for &(start, len) in ranges {
                    corrupt(&mut bytes, start as usize, len as usize);
                }
            }
            generation.handle = generation.spill.append(&bytes).unwrap();
        }
    }

    #[test]
    fn corrupt_posting_generations_fail_without_panicking() {
        let (healthy, probe) = spilled_index();
        let expected = healthy.clone().add_records(&[], std::slice::from_ref(&probe)).unwrap();
        assert_eq!(expected.len(), 40, "the probe pairs with every left record");

        // A token length running past the entry.
        let mut index = healthy.clone();
        corrupt_generations(&mut index, |bytes, start, _| {
            bytes[start + 1..start + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let err = index.add_records(&[], std::slice::from_ref(&probe)).unwrap_err();
        assert!(matches!(err, ErError::Spill(_)), "{err:?}");

        // A flipped token byte: the entry no longer hashes to its bucket.
        let mut index = healthy.clone();
        corrupt_generations(&mut index, |bytes, start, _| bytes[start + 5] ^= 0x01);
        let err = index.add_records(&[], std::slice::from_ref(&probe)).unwrap_err();
        assert!(matches!(err, ErError::Spill(_)), "{err:?}");

        // A generation whose bytes cannot be read back at all.
        let mut index = healthy.clone();
        for generation in &mut index.generations {
            generation.handle.offset = u64::MAX / 2;
        }
        let err = index.add_records(&[], std::slice::from_ref(&probe)).unwrap_err();
        assert!(matches!(err, ErError::Spill(_)), "{err:?}");
    }

    /// SplitMix64 step for the differential generators below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Cuts `records` into consecutive batches of random sizes (0 to 4).
    fn random_batches<'r>(records: &'r [Record], state: &mut u64) -> Vec<&'r [Record]> {
        let mut batches = Vec::new();
        let mut rest = records;
        while !rest.is_empty() {
            let size = ((next(state) % 5) as usize).min(rest.len());
            let (batch, tail) = rest.split_at(size);
            batches.push(batch);
            rest = tail;
        }
        batches
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]
        #[test]
        fn deltas_match_a_btreeset_reference(seed in 0u64..1_000_000, qgrams in 0usize..2) {
            let tokenizer = if qgrams == 1 { Tokenizer::QGrams(2) } else { Tokenizer::Words };
            let vocab = ["ant", "bee", "Bee", "cat", "ant-bee", "elk", "", "  "];
            let mut state = seed;
            let mut record = |id: u64| -> Record {
                let record = Record::new(RecordId(id));
                match next(&mut state) % 8 {
                    0 => record, // missing attribute
                    1 => record.with("title", id as f64), // numeric value on the text attribute
                    _ => {
                        let words = 1 + next(&mut state) % 4; // duplicates are likely
                        let title: Vec<&str> = (0..words)
                            .map(|_| vocab[(next(&mut state) % vocab.len() as u64) as usize])
                            .collect();
                        record.with("title", title.join(" "))
                    }
                }
            };
            // Equal ids on both sides: the sides must never mix.
            let left: Vec<Record> = (0..1 + seed % 14).map(&mut record).collect();
            let right: Vec<Record> = (0..1 + (seed / 14) % 14).map(&mut record).collect();
            let token_set = |r: &Record| -> BTreeSet<String> {
                r.text("title").map(|t| tokenizer.tokenize(t).into_iter().collect()).unwrap_or_default()
            };
            let left_batches = random_batches(&left, &mut state);
            let right_batches = random_batches(&right, &mut state);
            let steps = left_batches.len().max(right_batches.len());
            // The cache holds a random subset of the records; the rest are
            // tokenized fresh.
            let mut cache = TokenCache::new();
            let admitted = |records: &[Record], state: &mut u64| -> Vec<Record> {
                records.iter().filter(|_| next(state).is_multiple_of(2)).cloned().collect()
            };
            cache.admit_left("title", tokenizer, &admitted(&left, &mut state));
            cache.admit_right("title", tokenizer, &admitted(&right, &mut state));
            let blocker = TokenBlocker::new("title", tokenizer);
            // Both step parities per budget: every step runs with and without
            // the cache.
            for budget in [0usize, 3] {
                for parity in [0usize, 1] {
                    let mut index = blocker.incremental();
                    index
                        .set_memory_budget(MemoryBudget { resident_postings: budget, ..MemoryBudget::default() })
                        .unwrap();
                    let (mut seen_left, mut seen_right) = (0, 0);
                    for step in 0..steps {
                        let l = left_batches.get(step).copied().unwrap_or(&[]);
                        let r = right_batches.get(step).copied().unwrap_or(&[]);
                        let use_cache = (step + parity) % 2 == 0;
                        let delta =
                            index.add_records_with(l, r, use_cache.then_some(&cache)).unwrap();
                        let (old_left, old_right) = (seen_left, seen_right);
                        seen_left += l.len();
                        seen_right += r.len();
                        let mut reference: BTreeSet<(RecordId, RecordId)> = BTreeSet::new();
                        for (i, a) in left[..seen_left].iter().enumerate() {
                            for (j, b) in right[..seen_right].iter().enumerate() {
                                let new = i >= old_left || j >= old_right;
                                if new && !token_set(a).is_disjoint(&token_set(b)) {
                                    reference.insert((a.id(), b.id()));
                                }
                            }
                        }
                        let reference: Vec<_> = reference.into_iter().collect();
                        prop_assert!(
                            delta == reference,
                            "budget {} parity {} step {}: {:?} != {:?}",
                            budget, parity, step, delta, reference
                        );
                    }
                    if budget > 0 {
                        prop_assert!(index.resident_postings() <= budget);
                    }
                }
            }
        }
    }
}
