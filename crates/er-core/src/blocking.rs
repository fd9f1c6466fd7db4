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
use crate::codec::{ByteReader, ByteWriter};
use crate::record::{Dataset, Record, RecordId};
use crate::spill::{ChunkHandle, MemoryBudget, SpillFile};
use crate::text::Tokenizer;
use crate::workload::{InstancePair, Label, PairId, Workload};
use crate::{ErError, Result};
use std::collections::BTreeSet;
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
    pub(crate) attribute: String,
    pub(crate) tokenizer: Tokenizer,
}

impl TokenBlocker {
    /// Creates a token blocker over the given attribute.
    pub fn new(attribute: impl Into<String>, tokenizer: Tokenizer) -> Self {
        Self { attribute: attribute.into(), tokenizer }
    }

    /// Generates candidate pairs between two datasets, sorted and
    /// deduplicated: the pairs of one [`IncrementalTokenIndex::add_records`]
    /// batch on a fresh index and token cache, without their shared-token
    /// counts.
    ///
    /// The fresh index has no posting budget, so it never spills, and dataset
    /// record ids are unique, so the call does not fail today; the `Result`
    /// is `add_records`'s.
    pub fn candidates(&self, a: &Dataset, b: &Dataset) -> Result<Vec<(RecordId, RecordId)>> {
        let candidates =
            self.incremental().add_records(a.records(), b.records(), &mut TokenCache::new())?;
        Ok(candidates.iter().map(Candidate::pair).collect())
    }

    /// Creates an empty incremental index with this blocker's attribute and
    /// tokenizer. Feed record batches through
    /// [`IncrementalTokenIndex::add_records`] to obtain delta candidates.
    pub fn incremental(&self) -> IncrementalTokenIndex {
        IncrementalTokenIndex {
            blocker: self.clone(),
            resident: [Vec::new(), Vec::new()],
            resident_postings: 0,
            posted: [Vec::new(), Vec::new()],
            generations: Vec::new(),
            budget: MemoryBudget::default(),
            spill: None,
            obs: er_obs::ObsHandle::default(),
        }
    }
}

/// A candidate pair from token blocking: a left and a right record that
/// share `shared` distinct tokens of the blocking attribute.
///
/// `shared` is `|A ∩ B|` of the two records' distinct token sets, the
/// count [`crate::aggregate::BoundScorer`] scores the blocking attribute
/// from. Candidates order by `(left, right)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Candidate {
    /// The left record.
    pub left: RecordId,
    /// The right record.
    pub right: RecordId,
    /// Distinct blocking tokens the two records share (at least 1).
    pub shared: u32,
}

impl Candidate {
    /// The `(left, right)` record pair.
    pub fn pair(&self) -> (RecordId, RecordId) {
        (self.left, self.right)
    }
}

/// A persistent token-blocking index supporting incremental ingestion.
///
/// The index keeps one posting list per token and side, keyed by the token
/// ids a [`TokenCache`] interns for the blocking `(attribute, tokenizer)`.
/// Adding a batch probes the *existing* posting lists for the new records'
/// tokens, so the work per batch is proportional to the new records and
/// their matching postings — old candidate pairs are never re-derived. The
/// union of the deltas over any batch split equals
/// [`TokenBlocker::candidates`] on the union of the records, and a pair is
/// never emitted twice (every delta pair involves a record of the current
/// batch).
///
/// Under a [`MemoryBudget`] with a posting bound, the index freezes its
/// resident postings into an immutable on-disk *generation* (an `HPG2`
/// chunk, see [`crate::spill`]) between batches; probes consult the resident
/// postings plus every generation through a small resident directory, so
/// budgeted and unbounded indexes produce identical candidates. A generation
/// entry that cannot be read back, runs past its bytes, or holds another
/// side or token id than the directory points at fails the batch with
/// [`ErError::Spill`] rather than dropping candidates.
#[derive(Debug, Clone)]
pub struct IncrementalTokenIndex {
    blocker: TokenBlocker,
    /// Per side (`LEFT`, `RIGHT`), token id → record ids posted since the
    /// last freeze.
    resident: [Vec<Vec<RecordId>>; 2],
    /// Total record-id entries across both sides' resident postings.
    resident_postings: usize,
    /// Per side, indexed by token-cache slot: whether the slot's record is
    /// posted. A record posted twice would count every shared token twice.
    posted: [Vec<bool>; 2],
    generations: Vec<PostingGeneration>,
    budget: MemoryBudget,
    spill: Option<Arc<SpillFile>>,
    obs: er_obs::ObsHandle,
}

const POSTING_MAGIC: [u8; 4] = *b"HPG2";

/// Converts an offset, length or count to its `u32` field of the `HPG2`
/// format, failing instead of wrapping once a generation outgrows it.
fn generation_u32(value: usize, what: &str) -> Result<u32> {
    u32::try_from(value).map_err(|_| {
        ErError::Spill(format!("posting generation {what} {value} does not fit in 32 bits"))
    })
}

/// An immutable spilled snapshot of the index's resident postings.
#[derive(Debug, Clone)]
struct PostingGeneration {
    spill: Arc<SpillFile>,
    handle: ChunkHandle,
    /// Per side, `(token id, entry offset, entry length)` inside the chunk,
    /// sorted by token id.
    directory: [Vec<(u32, u32, u32)>; 2],
}

impl PostingGeneration {
    /// Calls `f` on every record id this generation holds for `token` on
    /// `side`.
    fn probe(&self, side: usize, token: u32, f: &mut impl FnMut(RecordId)) -> Result<()> {
        let directory = &self.directory[side];
        let Ok(i) = directory.binary_search_by_key(&token, |&(id, _, _)| id) else {
            return Ok(());
        };
        let (_, start, len) = directory[i];
        // Sub-entry read: the enclosing chunk was checksummed when written
        // whole; entry reads skip re-verification by design.
        let bytes = self.spill.read_at(self.handle.offset + start as u64, len as usize)?;
        let mut r = ByteReader::unchecked(&bytes);
        if usize::from(r.take_u8()?) != side || r.take_u32()? != token {
            return Err(ErError::Spill(format!(
                "posting generation entry at byte {start} does not match its key"
            )));
        }
        for _ in 0..r.take_u32()? {
            f(RecordId(r.take_u64()?));
        }
        Ok(())
    }
}

impl IncrementalTokenIndex {
    /// Sets the memory budget governing resident postings and immediately
    /// freezes them if the index is already over it.
    pub fn set_memory_budget(&mut self, budget: MemoryBudget) -> Result<()> {
        self.budget = budget;
        self.enforce_budget()
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

    /// The blocker whose attribute and tokenizer this index posts.
    pub fn blocker(&self) -> &TokenBlocker {
        &self.blocker
    }

    /// Folds a batch of records into the index and returns the **new**
    /// candidates: every `(left, right)` pair sharing at least one token
    /// where at least one side belongs to this batch, each once, with the
    /// number of distinct tokens the two records share, sorted by
    /// `(left, right)`.
    ///
    /// Every record probes the postings of the other side for its distinct
    /// tokens, and the partners it visits are counted: a partner visited
    /// `k` times shares `k` tokens. New right records probe first, before
    /// the new left records are posted, so a within-batch pair is found by
    /// its left record only and the two probing passes emit disjoint pairs.
    ///
    /// The batch is first admitted to `cache` under the index's attribute and
    /// tokenizer (records the cache already holds are skipped), and the
    /// postings are keyed by that entry's token ids. So every call must pass
    /// the same cache, or the clone taken together with a clone of the index.
    /// A record without text for the attribute posts nothing.
    ///
    /// Fails with [`ErError::InvalidArgument`], before any posting changes,
    /// when a batch names a record id twice on one side or names one the
    /// index has already posted on that side: posting a record twice would
    /// inflate the shared-token counts. (The batch's records may stay
    /// admitted to the cache.) Fails with [`ErError::Spill`] when a frozen
    /// posting generation cannot be read back or is corrupt, or when
    /// freezing postings under the memory budget fails; such a call may
    /// leave the batch partly folded in (its delta is lost), so the index
    /// should then be discarded.
    pub fn add_records(
        &mut self,
        left_batch: &[Record],
        right_batch: &[Record],
        cache: &mut TokenCache,
    ) -> Result<Vec<Candidate>> {
        let TokenBlocker { attribute, tokenizer } = &self.blocker;
        cache.admit(attribute, *tokenizer, LEFT, left_batch);
        cache.admit(attribute, *tokenizer, RIGHT, right_batch);
        let entry = cache.interned(attribute, *tokenizer).expect("entry just admitted");
        self.mark_posted(cache, entry, left_batch, right_batch)?;
        let mut delta = Vec::new();
        let mut partners = Vec::new();
        let (mut visits, postings_before) = (0, self.resident_postings);
        for (side, other, batch) in [(RIGHT, LEFT, right_batch), (LEFT, RIGHT, left_batch)] {
            for record in batch {
                let id = record.id();
                let Some((_, tokens)) = cache.token_ids(entry, side, id) else { continue };
                partners.clear();
                for &token in tokens {
                    self.probe(other, token, |found| partners.push(found))?;
                }
                visits += partners.len();
                partners.sort_unstable();
                for run in partners.chunk_by(|a, b| a == b) {
                    let (left, right) = if side == LEFT { (id, run[0]) } else { (run[0], id) };
                    let shared = u32::try_from(run.len()).expect("a run is one visit per token id");
                    delta.push(Candidate { left, right, shared });
                }
                let lists = &mut self.resident[side];
                for &token in tokens {
                    let token = token as usize;
                    if lists.len() <= token {
                        lists.resize_with(token + 1, Vec::new);
                    }
                    lists[token].push(id);
                }
                self.resident_postings += tokens.len();
            }
        }
        self.obs.counter("blocking.postings", (self.resident_postings - postings_before) as u64);
        self.obs.counter("blocking.visits", visits as u64);
        // Each probing record's partners come out sorted, but the right
        // pass orders its pairs by right record first.
        if !delta.is_sorted() {
            delta.sort_unstable();
        }
        self.enforce_budget()?;
        Ok(delta)
    }

    /// Marks every batch record with token ids in `entry` as posted on its
    /// side, or fails with [`ErError::InvalidArgument`] — every mark as it
    /// was — when one already is: posted by an earlier batch, or named twice
    /// in this one.
    fn mark_posted(
        &mut self,
        cache: &TokenCache,
        entry: &InternedTokens,
        left_batch: &[Record],
        right_batch: &[Record],
    ) -> Result<()> {
        let mut marked: Vec<(usize, usize)> = Vec::new();
        for (side, batch) in [(LEFT, left_batch), (RIGHT, right_batch)] {
            for record in batch {
                let Some((slot, _)) = cache.token_ids(entry, side, record.id()) else { continue };
                let posted = &mut self.posted[side];
                if posted.len() <= slot {
                    posted.resize(slot + 1, false);
                }
                if posted[slot] {
                    let side = if side == LEFT { "left" } else { "right" };
                    for &(marked_side, marked_slot) in &marked {
                        self.posted[marked_side][marked_slot] = false;
                    }
                    return Err(ErError::InvalidArgument(format!(
                        "record {} is posted twice on the {side} side of the blocking index",
                        record.id()
                    )));
                }
                posted[slot] = true;
                marked.push((side, slot));
            }
        }
        Ok(())
    }

    /// Calls `f` on every indexed record id for a token on one side: every
    /// frozen generation plus the resident postings.
    fn probe(&self, side: usize, token: u32, mut f: impl FnMut(RecordId)) -> Result<()> {
        for generation in &self.generations {
            generation.probe(side, token, &mut f)?;
        }
        self.resident[side].get(token as usize).into_iter().flatten().copied().for_each(f);
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

    /// Writes the resident postings as one immutable `HPG2` generation chunk,
    /// entries in side then token-id order, and releases them. A failure
    /// leaves the resident postings intact.
    fn freeze(&mut self, spill: &Arc<SpillFile>) -> Result<()> {
        let entry_count = self.resident.iter().flatten().filter(|ids| !ids.is_empty()).count();
        let mut w = ByteWriter::with_capacity(16 + self.resident_postings * 8);
        w.put_bytes(&POSTING_MAGIC);
        w.put_u32(generation_u32(entry_count, "entry count")?);
        let mut directory = [Vec::new(), Vec::new()];
        for (side, lists) in self.resident.iter().enumerate() {
            for (token, ids) in lists.iter().enumerate().filter(|(_, ids)| !ids.is_empty()) {
                // Token ids come from the cache's `u32` interner.
                let token = token as u32;
                let start = w.len();
                w.put_u8(side as u8);
                w.put_u32(token);
                w.put_u32(generation_u32(ids.len(), "posting count")?);
                for id in ids {
                    w.put_u64(id.0);
                }
                directory[side].push((
                    token,
                    generation_u32(start, "entry offset")?,
                    generation_u32(w.len() - start, "entry length")?,
                ));
            }
        }
        let handle = spill.append(&w.finish())?;
        self.generations.push(PostingGeneration { spill: Arc::clone(spill), handle, directory });
        self.resident = [Vec::new(), Vec::new()];
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
        let candidates = blocker.candidates(&a, &b).unwrap();
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
        let candidates = blocker.candidates(&a, &b).unwrap();
        let dedup_a = dataset("a", &[(1, "york new"), (2, "boston")]);
        let dedup_b = dataset("b", &[(10, "new york"), (11, "york minster"), (12, "chicago")]);
        let dedup_candidates = blocker.candidates(&dedup_a, &dedup_b).unwrap();
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
        let candidates = TokenBlocker::new("title", Tokenizer::Words).candidates(&a, &b).unwrap();
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
        let expected: BTreeSet<_> = blocker.candidates(&a, &b).unwrap().into_iter().collect();
        for (left_batches, right_batches) in [(1, 1), (2, 3), (3, 2), (3, 4)] {
            let mut index = blocker.incremental();
            let mut cache = TokenCache::new();
            let mut union: BTreeSet<(RecordId, RecordId)> = BTreeSet::new();
            let left_chunks = batched(a.records(), left_batches);
            let right_chunks = batched(b.records(), right_batches);
            for i in 0..left_chunks.len().max(right_chunks.len()) {
                let l = left_chunks.get(i).copied().unwrap_or(&[]);
                let r = right_chunks.get(i).copied().unwrap_or(&[]);
                for candidate in index.add_records(l, r, &mut cache).unwrap() {
                    assert!(union.insert(candidate.pair()), "{candidate:?} emitted twice");
                }
            }
            assert_eq!(union, expected, "split ({left_batches},{right_batches}) diverged");
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
            let expected: BTreeSet<_> = blocker.candidates(&a, &b).unwrap().into_iter().collect();
            let mut index = blocker.incremental();
            let mut cache = TokenCache::new();
            let mut union: BTreeSet<(RecordId, RecordId)> = BTreeSet::new();
            let left_chunks = batched(a.records(), split);
            let right_chunks = batched(b.records(), split);
            for i in 0..left_chunks.len().max(right_chunks.len()) {
                let l = left_chunks.get(i).copied().unwrap_or(&[]);
                let r = right_chunks.get(i).copied().unwrap_or(&[]);
                for candidate in index.add_records(l, r, &mut cache).unwrap() {
                    prop_assert!(union.insert(candidate.pair()), "emitted twice: {:?}", candidate);
                }
            }
            prop_assert_eq!(union, expected);
        }
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
        let (mut unbounded_cache, mut budgeted_cache) = (TokenCache::new(), TokenCache::new());
        budgeted
            .set_memory_budget(MemoryBudget { resident_postings: 16, ..MemoryBudget::default() })
            .unwrap();
        for i in 0..4 {
            let l = &a.records()[i * 10..(i + 1) * 10];
            let r = &b.records()[i * 10..(i + 1) * 10];
            assert_eq!(
                budgeted.add_records(l, r, &mut budgeted_cache).unwrap(),
                unbounded.add_records(l, r, &mut unbounded_cache).unwrap(),
                "budgeted delta diverged on batch {i}"
            );
            // Over-budget postings were frozen between batches.
            assert!(budgeted.resident_postings() <= 16, "resident postings left over budget");
        }
        assert!(budgeted.spilled_generations() > 0, "budget never triggered a spill");
        assert!(budgeted.spilled_bytes() > 0);
        assert_eq!(unbounded.spilled_generations(), 0);
        // A clone, taken with its cache, shares the spill file and still
        // probes generations correctly.
        let (mut cloned, mut cloned_cache) = (budgeted.clone(), budgeted_cache.clone());
        let extra = Record::new(RecordId(9_999)).with("title", "tok1 shared");
        let from_clone =
            cloned.add_records(&[], std::slice::from_ref(&extra), &mut cloned_cache).unwrap();
        let from_orig =
            budgeted.add_records(&[], std::slice::from_ref(&extra), &mut budgeted_cache).unwrap();
        assert_eq!(from_clone, from_orig);
        assert!(!from_clone.is_empty());
    }

    #[test]
    fn posting_a_record_twice_fails_and_leaves_the_index_unchanged() {
        let record = |id: u64, title: &str| Record::new(RecordId(id)).with("title", title);
        let left = [record(1, "ant bee"), record(2, "bee cat")];
        let right = [record(10, "bee"), record(11, "cat elk")];
        let mut index = TokenBlocker::new("title", Tokenizer::Words).incremental();
        let mut cache = TokenCache::new();
        index.add_records(&left, &right, &mut cache).unwrap();
        let (mut untouched, mut untouched_cache) = (index.clone(), cache.clone());
        let fresh = record(3, "ant cat");
        let failing: [(Vec<Record>, Vec<Record>); 5] = [
            // An id repeated within one batch.
            (vec![fresh.clone(), fresh.clone()], vec![]),
            // The first copy has no text, so both look up the second's tokens.
            (vec![Record::new(RecordId(4)), record(4, "elk")], vec![]),
            // Ids posted by the earlier batch, after a fresh one whose mark
            // must be undone.
            (vec![fresh.clone(), left[1].clone()], vec![]),
            (vec![fresh.clone()], vec![right[0].clone()]),
            (vec![], vec![record(12, "ant"), right[1].clone()]),
        ];
        for (l, r) in &failing {
            let err = index.add_records(l, r, &mut cache).unwrap_err();
            assert!(matches!(err, ErError::InvalidArgument(_)), "{err:?}");
        }
        // The failed calls posted nothing: the next delta is the one the
        // index would have returned without them.
        let (l, r) = ([fresh, record(4, "elk")], [record(12, "ant"), record(13, "elk")]);
        let delta = index.add_records(&l, &r, &mut cache).unwrap();
        assert_eq!(delta, untouched.add_records(&l, &r, &mut untouched_cache).unwrap());
        assert!(delta.contains(&Candidate { left: RecordId(3), right: RecordId(12), shared: 1 }));
        assert!(delta.contains(&Candidate { left: RecordId(1), right: RecordId(12), shared: 1 }));
        // Equal ids on the two sides are different records.
        let same_id = [record(20, "ant")];
        assert_eq!(index.add_records(&same_id, &same_id, &mut cache).unwrap().len(), 4);
    }

    #[test]
    fn generation_fields_past_u32_fail_instead_of_wrapping() {
        assert_eq!(generation_u32(u32::MAX as usize, "entry offset").unwrap(), u32::MAX);
        let err = generation_u32(u32::MAX as usize + 1, "entry offset").unwrap_err();
        assert!(matches!(err, ErError::Spill(_)), "{err:?}");
    }

    /// An index over 40 left and 40 right records whose posting budget froze
    /// several generations, its token cache, and a right record sharing the
    /// token every left record holds.
    fn spilled_index() -> (IncrementalTokenIndex, TokenCache, Record) {
        let mut index = TokenBlocker::new("title", Tokenizer::Words).incremental();
        let mut cache = TokenCache::new();
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
            let (l, r) = (&left[i * 10..(i + 1) * 10], &right[i * 10..(i + 1) * 10]);
            index.add_records(l, r, &mut cache).unwrap();
        }
        // Several generations, so probes span more than one of them.
        assert!(index.generations.len() >= 2, "only {} generations froze", index.generations.len());
        (index, cache, Record::new(RecordId(5_000)).with("title", "shared"))
    }

    /// Rewrites every generation of `index` as a corrupted copy: `corrupt`
    /// edits the chunk bytes given each entry's byte offset, and the copy is
    /// appended to the same spill file in place of the original.
    fn corrupt_generations(index: &mut IncrementalTokenIndex, corrupt: impl Fn(&mut [u8], usize)) {
        for generation in &mut index.generations {
            let mut bytes = generation.spill.read_chunk(generation.handle).unwrap();
            for &(_, start, _) in generation.directory.iter().flatten() {
                corrupt(&mut bytes, start as usize);
            }
            generation.handle = generation.spill.append(&bytes).unwrap();
        }
    }

    #[test]
    fn corrupt_posting_generations_fail_without_panicking() {
        let (healthy, cache, probe) = spilled_index();
        let probe_with = |mut index: IncrementalTokenIndex| {
            index.add_records(&[], std::slice::from_ref(&probe), &mut cache.clone())
        };
        let expected = probe_with(healthy.clone()).unwrap();
        assert_eq!(expected.len(), 40, "the probe pairs with every left record");

        // An `HPG2` entry is `side u8, token_id u32, n u32, n × u64`.
        // A flipped token-id byte: the entry is not the one the directory
        // points at.
        let mut index = healthy.clone();
        corrupt_generations(&mut index, |bytes, start| bytes[start + 1] ^= 0x01);
        let err = probe_with(index).unwrap_err();
        assert!(matches!(err, ErError::Spill(_)), "{err:?}");

        // A posting count running past the entry.
        let mut index = healthy.clone();
        corrupt_generations(&mut index, |bytes, start| {
            bytes[start + 5..start + 9].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let err = probe_with(index).unwrap_err();
        assert!(matches!(err, ErError::Spill(_)), "{err:?}");

        // A generation whose bytes cannot be read back at all.
        let mut index = healthy.clone();
        for generation in &mut index.generations {
            generation.handle.offset = u64::MAX / 2;
        }
        let err = probe_with(index).unwrap_err();
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
            // Random batch sizes, then even splits into 1 to 4 batches.
            let mut splits = vec![(random_batches(&left, &mut state), random_batches(&right, &mut state))];
            splits.extend((1..=4).map(|n| (batched(&left, n), batched(&right, n))));
            // A cache pre-warmed with a random subset of the records, so its
            // slots and token ids follow another order than a fresh cache's.
            let mut warm = TokenCache::new();
            let admitted = |records: &[Record], state: &mut u64| -> Vec<Record> {
                records.iter().filter(|_| next(state).is_multiple_of(2)).cloned().collect()
            };
            warm.admit("title", tokenizer, LEFT, &admitted(&left, &mut state));
            warm.admit("title", tokenizer, RIGHT, &admitted(&right, &mut state));
            let blocker = TokenBlocker::new("title", tokenizer);
            // The new pairs with their distinct shared tokens, in pair order.
            let reference = |seen: (usize, usize), old: (usize, usize)| -> Vec<Candidate> {
                let mut candidates = Vec::new();
                for (i, a) in left[..seen.0].iter().enumerate() {
                    for (j, b) in right[..seen.1].iter().enumerate() {
                        let shared = token_set(a).intersection(&token_set(b)).count() as u32;
                        if (i >= old.0 || j >= old.1) && shared > 0 {
                            candidates.push(Candidate { left: a.id(), right: b.id(), shared });
                        }
                    }
                }
                candidates.sort_unstable();
                candidates
            };
            for (split, (left_batches, right_batches)) in splits.iter().enumerate() {
                for budget in [0usize, 3] {
                    for prewarmed in [false, true] {
                        let mut index = blocker.incremental();
                        let mut cache = if prewarmed { warm.clone() } else { TokenCache::new() };
                        index
                            .set_memory_budget(MemoryBudget { resident_postings: budget, ..MemoryBudget::default() })
                            .unwrap();
                        let (mut seen_left, mut seen_right) = (0, 0);
                        for step in 0..left_batches.len().max(right_batches.len()) {
                            let l = left_batches.get(step).copied().unwrap_or(&[]);
                            let r = right_batches.get(step).copied().unwrap_or(&[]);
                            let delta = index.add_records(l, r, &mut cache).unwrap();
                            prop_assert!(
                                delta.windows(2).all(|w| w[0].pair() < w[1].pair()),
                                "split {} budget {} step {}: not strictly increasing: {:?}",
                                split, budget, step, delta
                            );
                            let old = (seen_left, seen_right);
                            seen_left += l.len();
                            seen_right += r.len();
                            let reference = reference((seen_left, seen_right), old);
                            prop_assert!(
                                delta == reference,
                                "split {} budget {} prewarmed {} step {}: {:?} != {:?}",
                                split, budget, prewarmed, step, delta, reference
                            );
                        }
                        if budget > 0 {
                            prop_assert!(index.resident_postings() <= budget);
                        }
                    }
                }
            }
            // The one-batch blocker over the full record sets.
            let dataset = |name: &str, records: &[Record]| {
                let mut ds = Dataset::new(name, Schema::new(["title"]));
                records.iter().for_each(|r| ds.push(r.clone()).unwrap());
                ds
            };
            let candidates =
                blocker.candidates(&dataset("a", &left), &dataset("b", &right)).unwrap();
            let pairs: Vec<_> = reference((left.len(), right.len()), (0, 0)).iter().map(Candidate::pair).collect();
            prop_assert_eq!(candidates, pairs);
        }
    }
}
