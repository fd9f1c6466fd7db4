//! The ER workload model: similarity-scored instance pairs with ground truth,
//! label assignments, quality metrics and equal-count subset partitioning.
//!
//! This is the data structure every HUMO optimizer operates on. A [`Workload`]
//! keeps its pairs sorted by ascending machine-metric value (pair similarity in
//! the paper, but any monotone classification metric works), which is what makes
//! interval-based reasoning — "move `v⁻` left", "move `v⁺` right", "subset `D_i`
//! dominates subset `D_j`" — well defined.
//!
//! # Storage layout
//!
//! Pairs are stored column-wise (structure-of-arrays: one column each for
//! similarities, pair ids, record ids and label flags) in chunked segments of
//! roughly [`SEGMENT_TARGET`] pairs, in the one canonical order of the
//! private `PairKey`. The segmented layout is what makes the streaming path
//! scale: [`Workload::insert_sorted`] merges a sorted batch of columns into
//! only the segments it touches, instead of re-merging one giant sorted
//! `Vec`, and [`Workload::from_pairs`] is that insert into an empty workload;
//! under a [`MemoryBudget`] the coldest (lowest-similarity) segments overflow
//! into an out-of-core [`SpillFile`] through the documented `HSG1` byte codec
//! (see [`crate::spill`]), with an LRU cache pinning recently read segments.
//! The columns are the only in-memory copy of a pair: accessors such as
//! [`Workload::pair`] decode owned values from them, and a spilled segment's
//! decoded columns live only in the LRU cache. Residency is invisible to
//! every accessor: spilled and resident workloads return bit-identical values.

use crate::codec::{ByteReader, ByteWriter};
use crate::record::RecordId;
use crate::spill::{ChunkHandle, MemoryBudget, SpillFile, SpillStats};
use crate::{ErError, Result};
use er_obs::ObsHandle;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Target number of pairs per workload segment. Merged segments that grow past
/// twice this target are split back into target-sized chunks.
pub const SEGMENT_TARGET: usize = 4096;

/// Identifier of an instance pair inside a workload.
///
/// Pair ids are dense indices assigned at workload construction; they are stable
/// across sorting because they are attached to the pair, not to its position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairId(pub u64);

impl std::fmt::Display for PairId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Binary ER label for an instance pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The two records are declared to refer to the same real-world entity.
    Match,
    /// The two records are declared to refer to different entities.
    Unmatch,
}

impl Label {
    /// Converts a boolean match flag into a label.
    pub fn from_bool(is_match: bool) -> Self {
        if is_match {
            Label::Match
        } else {
            Label::Unmatch
        }
    }

    /// Whether this label is `Match`.
    pub fn is_match(&self) -> bool {
        matches!(self, Label::Match)
    }
}

/// An instance pair: two records (optionally), a machine-metric value and the
/// hidden ground-truth label.
#[derive(Debug, Clone, PartialEq)]
pub struct InstancePair {
    id: PairId,
    left: Option<RecordId>,
    right: Option<RecordId>,
    similarity: f64,
    ground_truth: Label,
}

impl InstancePair {
    /// Creates a pair without record provenance (used by pair-level generators).
    pub fn new(id: PairId, similarity: f64, ground_truth: Label) -> Self {
        Self { id, left: None, right: None, similarity, ground_truth }
    }

    /// Creates a pair carrying the ids of the two underlying records.
    pub fn with_records(
        id: PairId,
        left: RecordId,
        right: RecordId,
        similarity: f64,
        ground_truth: Label,
    ) -> Self {
        Self { id, left: Some(left), right: Some(right), similarity, ground_truth }
    }

    /// The pair id.
    pub fn id(&self) -> PairId {
        self.id
    }

    /// Id of the left record, when known.
    pub fn left(&self) -> Option<RecordId> {
        self.left
    }

    /// Id of the right record, when known.
    pub fn right(&self) -> Option<RecordId> {
        self.right
    }

    /// The machine-metric value (pair similarity) of this pair.
    pub fn similarity(&self) -> f64 {
        self.similarity
    }

    /// The ground-truth label.
    ///
    /// Machine-side algorithms must not consult this directly; it is exposed for
    /// the human oracle, for evaluation, and for dataset generators.
    pub fn ground_truth(&self) -> Label {
        self.ground_truth
    }

    /// Whether the pair is a true match according to the ground truth.
    pub fn is_match(&self) -> bool {
        self.ground_truth.is_match()
    }
}

/// Flag bit: the pair is a ground-truth match.
const FLAG_MATCH: u8 = 1;
/// Flag bit: the pair carries record ids (`left`/`right` columns are meaningful).
const FLAG_RECORDS: u8 = 1 << 1;

/// The canonical sort key of a pair; its derived lexicographic `Ord` is the
/// workload order: similarity bits (monotone on validated `[0, 1]` values
/// once `-0.0` is normalized to `0.0`, so `-0.0` and `0.0` tie), then each
/// record id as a `(tag, value)` pair (record-less pairs first), then the
/// pair id. See [`Workload::insert_sorted`] for why ties break this way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PairKey {
    sim_bits: u64,
    left: (u8, u64),
    right: (u8, u64),
    id: u64,
}

fn sim_key_bits(sim: f64) -> u64 {
    if sim == 0.0 {
        0 // normalize -0.0: partial_cmp treats it as equal to 0.0
    } else {
        sim.to_bits()
    }
}

fn record_key(id: Option<RecordId>) -> (u8, u64) {
    match id {
        None => (0, 0),
        Some(r) => (1, r.0),
    }
}

fn pair_key(p: &InstancePair) -> PairKey {
    PairKey {
        sim_bits: sim_key_bits(p.similarity()),
        left: record_key(p.left()),
        right: record_key(p.right()),
        id: p.id().0,
    }
}

/// Column-wise storage of one segment of pairs, in canonical order.
#[derive(Debug, Clone, PartialEq)]
struct Columns {
    sims: Vec<f64>,
    ids: Vec<u64>,
    lefts: Vec<u64>,
    rights: Vec<u64>,
    flags: Vec<u8>,
}

impl Columns {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            sims: Vec::with_capacity(capacity),
            ids: Vec::with_capacity(capacity),
            lefts: Vec::with_capacity(capacity),
            rights: Vec::with_capacity(capacity),
            flags: Vec::with_capacity(capacity),
        }
    }

    fn len(&self) -> usize {
        self.sims.len()
    }

    fn push(&mut self, p: &InstancePair) {
        self.sims.push(p.similarity());
        self.ids.push(p.id().0);
        let mut flags = 0u8;
        if p.is_match() {
            flags |= FLAG_MATCH;
        }
        match (p.left(), p.right()) {
            (Some(l), Some(r)) => {
                flags |= FLAG_RECORDS;
                self.lefts.push(l.0);
                self.rights.push(r.0);
            }
            _ => {
                self.lefts.push(0);
                self.rights.push(0);
            }
        }
        self.flags.push(flags);
    }

    /// Appends entry `i` of `src`.
    fn push_from(&mut self, src: &Columns, i: usize) {
        self.sims.push(src.sims[i]);
        self.ids.push(src.ids[i]);
        self.lefts.push(src.lefts[i]);
        self.rights.push(src.rights[i]);
        self.flags.push(src.flags[i]);
    }

    /// A copy of the entries in `range`.
    fn slice(&self, range: std::ops::Range<usize>) -> Columns {
        Columns {
            sims: self.sims[range.clone()].to_vec(),
            ids: self.ids[range.clone()].to_vec(),
            lefts: self.lefts[range.clone()].to_vec(),
            rights: self.rights[range.clone()].to_vec(),
            flags: self.flags[range].to_vec(),
        }
    }

    fn pair_at(&self, i: usize) -> InstancePair {
        let id = PairId(self.ids[i]);
        let sim = self.sims[i];
        let truth = Label::from_bool(self.flags[i] & FLAG_MATCH != 0);
        if self.flags[i] & FLAG_RECORDS != 0 {
            InstancePair::with_records(
                id,
                RecordId(self.lefts[i]),
                RecordId(self.rights[i]),
                sim,
                truth,
            )
        } else {
            InstancePair::new(id, sim, truth)
        }
    }

    fn key_at(&self, i: usize) -> PairKey {
        let tag = u8::from(self.flags[i] & FLAG_RECORDS != 0);
        let (l, r) = if tag == 1 { (self.lefts[i], self.rights[i]) } else { (0, 0) };
        PairKey {
            sim_bits: sim_key_bits(self.sims[i]),
            left: (tag, l),
            right: (tag, r),
            id: self.ids[i],
        }
    }

    fn match_count(&self) -> usize {
        self.flags.iter().filter(|&&f| f & FLAG_MATCH != 0).count()
    }
}

const SEGMENT_MAGIC: [u8; 4] = *b"HSG1";

/// Encodes a segment into the documented `HSG1` spill chunk format (see the
/// [`crate::spill`] module docs). Similarities are written as raw `f64` bits,
/// so `-0.0` and every other value round-trip bit-exactly.
fn encode_segment(cols: &Columns) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(4 + 4 + cols.len() * 33 + 8);
    w.put_bytes(&SEGMENT_MAGIC);
    w.put_u32(cols.len() as u32);
    for i in 0..cols.len() {
        w.put_u64(cols.sims[i].to_bits());
        w.put_u64(cols.ids[i]);
        w.put_u64(cols.lefts[i]);
        w.put_u64(cols.rights[i]);
        w.put_u8(cols.flags[i]);
    }
    w.finish()
}

/// Decodes a `HSG1` chunk back into segment columns, verifying magic and checksum.
fn decode_segment(chunk: &[u8]) -> Result<Columns> {
    let mut r = ByteReader::checked(chunk)?;
    if r.take_bytes(4)? != SEGMENT_MAGIC {
        return Err(ErError::Spill("bad segment magic".to_string()));
    }
    let count = r.take_u32()? as usize;
    let mut cols = Columns::with_capacity(count);
    for _ in 0..count {
        cols.sims.push(f64::from_bits(r.take_u64()?));
        cols.ids.push(r.take_u64()?);
        cols.lefts.push(r.take_u64()?);
        cols.rights.push(r.take_u64()?);
        cols.flags.push(r.take_u8()?);
    }
    if r.remaining() != 0 {
        return Err(ErError::Spill("trailing bytes in segment chunk".to_string()));
    }
    Ok(cols)
}

/// Where a segment's columns currently live.
#[derive(Debug, Clone)]
enum SegmentData {
    /// Columns resident in memory (shared so readers can hold them lock-free).
    Resident(Arc<Columns>),
    /// Columns spilled to the workload's [`SpillFile`].
    Spilled(ChunkHandle),
}

/// One sorted chunk of the workload, plus the summary stats that let range
/// queries skip loading it: its length, ground-truth match count and maximum
/// canonical key. Its columns are the only in-memory copy of its pairs; a
/// spilled segment's decoded columns live only in the workload's LRU cache.
#[derive(Debug, Clone)]
struct Segment {
    len: usize,
    match_count: usize,
    max_key: PairKey,
    data: SegmentData,
}

impl Segment {
    fn from_columns(cols: Columns) -> Self {
        debug_assert!(cols.len() > 0, "segments are never empty");
        Self {
            len: cols.len(),
            match_count: cols.match_count(),
            max_key: cols.key_at(cols.len() - 1),
            data: SegmentData::Resident(Arc::new(cols)),
        }
    }

    fn max_sim(&self) -> f64 {
        f64::from_bits(self.max_key.sim_bits)
    }

    fn is_resident(&self) -> bool {
        matches!(self.data, SegmentData::Resident(_))
    }
}

/// LRU cache of decoded spilled segments, keyed by their chunk offset.
/// Alongside the entries it keeps the always-on lookup tallies surfaced
/// through [`Workload::spill_stats`] (the cache lock already serializes
/// every lookup, so plain fields suffice).
#[derive(Debug)]
struct SegCache {
    entries: HashMap<u64, (Arc<Columns>, u64)>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    bytes_loaded: u64,
}

impl SegCache {
    fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            bytes_loaded: 0,
        }
    }

    fn get(&mut self, offset: u64) -> Option<Arc<Columns>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&offset).map(|(cols, last)| {
            *last = tick;
            Arc::clone(cols)
        })
    }

    fn insert(&mut self, offset: u64, cols: Arc<Columns>) {
        self.tick += 1;
        if self.entries.len() >= self.capacity {
            if let Some(&oldest) =
                self.entries.iter().min_by_key(|(_, (_, tick))| *tick).map(|(k, _)| k)
            {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.entries.insert(offset, (cols, self.tick));
    }
}

/// An ER workload: instance pairs sorted by ascending similarity, stored
/// column-wise in chunked segments that can spill out of core (see the module
/// docs for the layout).
#[derive(Debug)]
pub struct Workload {
    segments: Vec<Segment>,
    /// Workload index at which each segment starts.
    starts: Vec<usize>,
    len: usize,
    budget: MemoryBudget,
    spill: Option<Arc<SpillFile>>,
    cache: Mutex<SegCache>,
    segments_spilled: u64,
    bytes_spilled: u64,
    obs: ObsHandle,
}

impl Clone for Workload {
    fn clone(&self) -> Self {
        // The read cache (and its lookup tallies) restart empty in the clone;
        // the spill-side tallies describe data the clone still references, so
        // they carry over, as does the observability handle.
        Self {
            segments: self.segments.clone(),
            starts: self.starts.clone(),
            len: self.len,
            budget: self.budget.clone(),
            spill: self.spill.clone(),
            cache: Mutex::new(SegCache::new(self.budget.cached_segments)),
            segments_spilled: self.segments_spilled,
            bytes_spilled: self.bytes_spilled,
            obs: self.obs.clone(),
        }
    }
}

impl Workload {
    /// Rejects similarities that are NaN, infinite or outside `[0, 1]` — letting
    /// a non-finite value reach the similarity sort or `lower_bound_index` would
    /// silently break the ordering invariant every optimizer relies on.
    fn validate_pairs(pairs: &[InstancePair]) -> Result<()> {
        for p in pairs {
            if !p.similarity.is_finite() || !(0.0..=1.0).contains(&p.similarity) {
                return Err(ErError::InvalidWorkload(format!(
                    "pair {} has similarity {} outside [0,1]",
                    p.id, p.similarity
                )));
            }
        }
        Ok(())
    }

    fn empty() -> Self {
        Self {
            segments: Vec::new(),
            starts: Vec::new(),
            len: 0,
            budget: MemoryBudget::default(),
            spill: None,
            cache: Mutex::new(SegCache::new(MemoryBudget::default().cached_segments)),
            segments_spilled: 0,
            bytes_spilled: 0,
            obs: ObsHandle::default(),
        }
    }

    fn rebuild_starts(&mut self) {
        self.starts.clear();
        let mut cursor = 0usize;
        for seg in &self.segments {
            self.starts.push(cursor);
            cursor += seg.len;
        }
        self.len = cursor;
    }

    /// Builds a workload from pairs, sorting them by ascending similarity:
    /// a [`Workload::insert_sorted`] into an empty workload.
    ///
    /// Returns an error if any similarity is not a finite number in `[0, 1]`.
    pub fn from_pairs(pairs: Vec<InstancePair>) -> Result<Self> {
        let mut w = Self::empty();
        w.insert_sorted(pairs)?;
        Ok(w)
    }

    /// Merges new pairs into the workload, preserving the canonical order
    /// without re-sorting the existing pairs.
    ///
    /// The order is ascending similarity, ties broken by the underlying
    /// record ids and finally the pair id. Keying ties on record ids makes
    /// the order of record-backed workloads independent of the order in
    /// which pairs were scored (batch and incremental ingestion assign
    /// different pair ids); record-less pairs fall back to the pair id.
    /// Pairs with equal keys (a repeated pair id) keep their arrival order:
    /// the incoming sort is stable and existing pairs come first.
    ///
    /// The incoming pairs are sorted once into one batch of columns; each
    /// segment takes the contiguous run of it with keys up to the segment's
    /// maximum key, and only touched segments are re-merged
    /// (`O(touched + new·log new)`). The rest becomes [`SEGMENT_TARGET`]-sized
    /// tail segments; merges past twice the target split into balanced chunks.
    ///
    /// This is the insertion path of the streaming resolution engine: a batch of
    /// freshly scored delta pairs is sorted on its own and then merged with the
    /// already-sorted workload, so ingesting records in any batch split yields
    /// exactly the same workload as one batch rebuild over the union.
    ///
    /// Returns an error (leaving the workload untouched) if any new similarity
    /// is not a finite number in `[0, 1]`.
    pub fn insert_sorted(&mut self, mut pairs: Vec<InstancePair>) -> Result<()> {
        Self::validate_pairs(&pairs)?;
        if pairs.is_empty() {
            return Ok(());
        }
        pairs.sort_by_cached_key(pair_key);
        // `pairs` is freed on return, not here: freed before the segments
        // are cut, glibc placed their columns where dropping the workload
        // later cost about 1.5× as long.
        let mut incoming = Columns::with_capacity(pairs.len());
        for p in &pairs {
            incoming.push(p);
        }
        let old = std::mem::take(&mut self.segments);
        let mut rebuilt: Vec<Segment> =
            Vec::with_capacity(old.len() + incoming.len() / SEGMENT_TARGET + 1);
        let mut next = 0usize; // first incoming entry not yet placed
        for segment in old {
            let mut end = next;
            while end < incoming.len() && incoming.key_at(end) <= segment.max_key {
                end += 1;
            }
            if end == next {
                rebuilt.push(segment);
                continue;
            }
            let cols = self.load_segment(&segment);
            Self::push_split(&mut rebuilt, Self::merge(&cols, &incoming, next..end));
            next = end;
        }
        for start in (next..incoming.len()).step_by(SEGMENT_TARGET) {
            let end = (start + SEGMENT_TARGET).min(incoming.len());
            rebuilt.push(Segment::from_columns(incoming.slice(start..end)));
        }
        self.segments = rebuilt;
        self.rebuild_starts();
        self.enforce_budget()
    }

    /// Merges one segment's columns with a sorted run of incoming entries.
    /// Incoming entries win only on strictly smaller keys, so existing pairs
    /// come first on ties.
    fn merge(existing: &Columns, incoming: &Columns, run: std::ops::Range<usize>) -> Columns {
        let mut out = Columns::with_capacity(existing.len() + run.len());
        let (mut i, mut j) = (0usize, run.start);
        while i < existing.len() && j < run.end {
            if incoming.key_at(j) < existing.key_at(i) {
                out.push_from(incoming, j);
                j += 1;
            } else {
                out.push_from(existing, i);
                i += 1;
            }
        }
        for i in i..existing.len() {
            out.push_from(existing, i);
        }
        for j in j..run.end {
            out.push_from(incoming, j);
        }
        out
    }

    /// Pushes merged columns, splitting into balanced target-sized chunks
    /// when the merge outgrew twice the segment target.
    fn push_split(rebuilt: &mut Vec<Segment>, merged: Columns) {
        if merged.len() <= 2 * SEGMENT_TARGET {
            rebuilt.push(Segment::from_columns(merged));
            return;
        }
        let chunks = merged.len().div_ceil(SEGMENT_TARGET);
        let mut start = 0usize;
        for c in 0..chunks {
            let size = (merged.len() - start).div_ceil(chunks - c);
            rebuilt.push(Segment::from_columns(merged.slice(start..start + size)));
            start += size;
        }
    }

    /// Builds a workload from `(similarity, is_match)` tuples, assigning dense pair ids.
    pub fn from_scores(scores: impl IntoIterator<Item = (f64, bool)>) -> Result<Self> {
        let pairs = scores
            .into_iter()
            .enumerate()
            .map(|(i, (sim, is_match))| {
                InstancePair::new(PairId(i as u64), sim, Label::from_bool(is_match))
            })
            .collect();
        Self::from_pairs(pairs)
    }

    /// Loads a segment's columns, reading through the LRU cache when spilled.
    ///
    /// Reads happen on `&self` accessor paths, so I/O failures on the
    /// workload's own unlinked spill file panic rather than surface as errors;
    /// the chunk checksum turns corruption into a loud failure too.
    fn load_segment(&self, segment: &Segment) -> Arc<Columns> {
        match &segment.data {
            SegmentData::Resident(cols) => Arc::clone(cols),
            SegmentData::Spilled(handle) => {
                let mut cache = self.cache.lock().expect("segment cache lock poisoned");
                if let Some(cols) = cache.get(handle.offset) {
                    cache.hits += 1;
                    self.obs.counter("spill.segcache.hits", 1);
                    return cols;
                }
                let spill = self.spill.as_ref().expect("spilled segment without a spill file");
                let chunk = spill.read_chunk(*handle).expect("spill read failed");
                let cols = Arc::new(decode_segment(&chunk).expect("spill chunk decode failed"));
                cache.misses += 1;
                cache.bytes_loaded += handle.len;
                let evictions_before = cache.evictions;
                cache.insert(handle.offset, Arc::clone(&cols));
                let evicted = cache.evictions - evictions_before;
                drop(cache);
                self.obs.counter("spill.segcache.misses", 1);
                self.obs.counter("spill.workload.bytes_loaded", handle.len);
                if evicted > 0 {
                    self.obs.counter("spill.segcache.evictions", evicted);
                }
                cols
            }
        }
    }

    fn columns(&self, seg: usize) -> Arc<Columns> {
        self.load_segment(&self.segments[seg])
    }

    /// Segment containing the workload index (index must be `< len`).
    fn segment_of(&self, index: usize) -> usize {
        assert!(index < self.len, "pair index {index} out of bounds (len {})", self.len);
        self.starts.partition_point(|&s| s <= index) - 1
    }

    /// Applies the configured memory budget: while more pairs are resident
    /// than allowed, the lowest-similarity resident segments are encoded and
    /// appended to the spill file. The spill file is an append-only arena —
    /// re-merged segments abandon their old chunks — and deterministic:
    /// residency never affects any value an accessor returns.
    fn enforce_budget(&mut self) -> Result<()> {
        let budget = self.budget.resident_pairs;
        if budget == 0 {
            return Ok(());
        }
        let mut resident: usize =
            self.segments.iter().filter(|s| s.is_resident()).map(|s| s.len).sum();
        if resident <= budget {
            return Ok(());
        }
        if self.spill.is_none() {
            self.spill = Some(Arc::new(SpillFile::create_in(self.budget.spill_dir.as_deref())?));
        }
        let spill = self.spill.as_ref().expect("spill file just ensured");
        let mut spilled_segments = 0u64;
        let mut spilled_bytes = 0u64;
        for segment in &mut self.segments {
            if resident <= budget {
                break;
            }
            if let SegmentData::Resident(cols) = &segment.data {
                let handle = spill.append(&encode_segment(cols))?;
                resident -= segment.len;
                segment.data = SegmentData::Spilled(handle);
                spilled_segments += 1;
                spilled_bytes += handle.len;
            }
        }
        if spilled_segments > 0 {
            self.segments_spilled += spilled_segments;
            self.bytes_spilled += spilled_bytes;
            self.obs.counter("spill.workload.segments_spilled", spilled_segments);
            self.obs.counter("spill.workload.bytes_spilled", spilled_bytes);
        }
        Ok(())
    }

    /// Sets the memory budget and immediately enforces it, spilling the
    /// coldest segments if the workload is over it. An unbounded budget stops
    /// future spilling but does not pull already-spilled segments back in.
    pub fn set_memory_budget(&mut self, budget: MemoryBudget) -> Result<()> {
        let cache_cap = budget.cached_segments;
        self.budget = budget;
        self.cache = Mutex::new(SegCache::new(cache_cap));
        self.enforce_budget()
    }

    /// The configured memory budget.
    pub fn memory_budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Number of pairs currently resident in memory (in columnar segments).
    pub fn resident_pairs(&self) -> usize {
        self.segments.iter().filter(|s| s.is_resident()).map(|s| s.len).sum()
    }

    /// Number of pairs currently spilled out of core.
    pub fn spilled_pairs(&self) -> usize {
        self.segments.iter().filter(|s| !s.is_resident()).map(|s| s.len).sum()
    }

    /// Total bytes appended to the spill file so far (0 without spilling).
    pub fn spilled_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.bytes_written())
    }

    /// Number of storage segments (exposed for diagnostics and tests).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Always-on spill and segment-cache tallies for this workload. The
    /// spill-side counts accumulate over the workload's whole life; the
    /// cache-side counts restart when the cache is rebuilt (on clone or
    /// [`Workload::set_memory_budget`]).
    pub fn spill_stats(&self) -> SpillStats {
        let cache = self.cache.lock().expect("segment cache lock poisoned");
        SpillStats {
            segments_spilled: self.segments_spilled,
            segments_loaded: cache.misses,
            bytes_spilled: self.bytes_spilled,
            bytes_loaded: cache.bytes_loaded,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
        }
    }

    /// Attaches an observability handle; spill, cache and session events on
    /// this workload are recorded through it from then on.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The attached observability handle (no-op unless [`Workload::set_obs`]
    /// was called). Optimizers reach the recorder through this so session
    /// events and engine events share one sink.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Number of pairs in the workload.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Streams the pairs in ascending similarity order without materializing
    /// the whole workload; spilled segments are read through the cache one at
    /// a time. Prefer this over [`Workload::pairs`] on large workloads.
    pub fn iter(&self) -> impl Iterator<Item = InstancePair> + '_ {
        (0..self.segments.len()).flat_map(move |seg| {
            let cols = self.columns(seg);
            (0..cols.len()).map(move |i| cols.pair_at(i))
        })
    }

    /// The pairs, sorted by ascending similarity, materialized into one
    /// vector. On budgeted workloads this temporarily decodes every spilled
    /// segment — use [`Workload::iter`] to stream instead.
    pub fn pairs(&self) -> Vec<InstancePair> {
        self.iter().collect()
    }

    /// The pair at a position in similarity order, decoded from its segment's
    /// columns. Resident columns are read in place; a spilled segment is read
    /// through the LRU cache.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    pub fn pair(&self, index: usize) -> InstancePair {
        let seg = self.segment_of(index);
        let offset = index - self.starts[seg];
        match &self.segments[seg].data {
            SegmentData::Resident(cols) => cols.pair_at(offset),
            SegmentData::Spilled(_) => self.columns(seg).pair_at(offset),
        }
    }

    /// Total number of ground-truth matching pairs.
    pub fn total_matches(&self) -> usize {
        self.segments.iter().map(|s| s.match_count).sum()
    }

    /// Number of ground-truth matching pairs within an index range.
    pub fn matches_in_range(&self, range: std::ops::Range<usize>) -> usize {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "range {range:?} out of bounds (len {})",
            self.len
        );
        if range.is_empty() {
            return 0;
        }
        let mut count = 0usize;
        for seg in 0..self.segments.len() {
            let seg_start = self.starts[seg];
            let seg_end = seg_start + self.segments[seg].len;
            if seg_end <= range.start {
                continue;
            }
            if seg_start >= range.end {
                break;
            }
            if range.start <= seg_start && seg_end <= range.end {
                // Fully covered: the summary count avoids loading the segment.
                count += self.segments[seg].match_count;
            } else {
                let cols = self.columns(seg);
                let from = range.start.max(seg_start) - seg_start;
                let to = range.end.min(seg_end) - seg_start;
                count += cols.flags[from..to].iter().filter(|&&f| f & FLAG_MATCH != 0).count();
            }
        }
        count
    }

    /// Ground-truth match proportion within an index range (`0` for an empty range).
    pub fn match_proportion(&self, range: std::ops::Range<usize>) -> f64 {
        let len = range.len();
        if len == 0 {
            return 0.0;
        }
        self.matches_in_range(range) as f64 / len as f64
    }

    /// Similarity value at a position in similarity order.
    pub fn similarity_at(&self, index: usize) -> f64 {
        let seg = self.segment_of(index);
        self.columns(seg).sims[index - self.starts[seg]]
    }

    /// Sum of similarities over an index range, accumulated strictly left to
    /// right — bit-identical to summing the flat pair array, which the subset
    /// partition's mean similarities (and therefore the GP inputs) rely on.
    fn sim_sum_range(&self, range: std::ops::Range<usize>) -> f64 {
        let mut acc = 0.0f64;
        for seg in 0..self.segments.len() {
            let seg_start = self.starts[seg];
            let seg_end = seg_start + self.segments[seg].len;
            if seg_end <= range.start {
                continue;
            }
            if seg_start >= range.end {
                break;
            }
            let cols = self.columns(seg);
            let from = range.start.max(seg_start) - seg_start;
            let to = range.end.min(seg_end) - seg_start;
            for &s in &cols.sims[from..to] {
                acc += s;
            }
        }
        acc
    }

    /// Index of the first pair whose similarity is `>= threshold`
    /// (equals `len()` when every pair is below the threshold).
    pub fn lower_bound_index(&self, threshold: f64) -> usize {
        // Skip whole segments by their max similarity, then binary-search the
        // first segment that can contain the boundary. Element predicate and
        // order match the flat `partition_point`, so results are identical.
        let seg = self.segments.partition_point(|s| s.max_sim() < threshold);
        if seg == self.segments.len() {
            return self.len;
        }
        let cols = self.columns(seg);
        self.starts[seg] + cols.sims.partition_point(|&s| s < threshold)
    }

    /// Partitions the workload into consecutive subsets of `unit_size` pairs each
    /// (the last subset absorbs the remainder). This is the subset structure used
    /// by the sampling-based and hybrid optimizers; the paper uses `unit_size = 200`.
    pub fn partition(&self, unit_size: usize) -> Result<SubsetPartition> {
        SubsetPartition::new(self, unit_size)
    }

    /// Evaluates a label assignment against the ground truth.
    pub fn evaluate(&self, assignment: &LabelAssignment) -> Result<QualityMetrics> {
        if assignment.len() != self.len() {
            return Err(ErError::InvalidArgument(format!(
                "label assignment covers {} pairs but the workload has {}",
                assignment.len(),
                self.len()
            )));
        }
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        let mut tn = 0usize;
        for (pair, label) in self.iter().zip(assignment.labels()) {
            match (pair.is_match(), label.is_match()) {
                (true, true) => tp += 1,
                (false, true) => fp += 1,
                (true, false) => fn_ += 1,
                (false, false) => tn += 1,
            }
        }
        Ok(QualityMetrics::from_counts(tp, fp, fn_, tn))
    }
}

/// A dense label assignment: one label per pair, aligned with the workload's
/// similarity order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelAssignment {
    labels: Vec<Label>,
}

impl LabelAssignment {
    /// Creates an assignment from a vector of labels aligned with the workload order.
    pub fn new(labels: Vec<Label>) -> Self {
        Self { labels }
    }

    /// Creates an assignment that labels every pair `Unmatch`.
    pub fn all_unmatch(len: usize) -> Self {
        Self { labels: vec![Label::Unmatch; len] }
    }

    /// Creates a threshold assignment: pairs at or above `threshold_index` (in
    /// similarity order) are labeled `Match`, the rest `Unmatch`.
    pub fn from_threshold_index(len: usize, threshold_index: usize) -> Self {
        let labels = (0..len)
            .map(|i| if i >= threshold_index { Label::Match } else { Label::Unmatch })
            .collect();
        Self { labels }
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The labels in workload order.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Sets the label at a position.
    pub fn set(&mut self, index: usize, label: Label) {
        self.labels[index] = label;
    }

    /// Number of pairs labeled `Match`.
    pub fn match_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_match()).count()
    }
}

/// Standard ER quality metrics derived from a confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityMetrics {
    /// True positives: matching pairs labeled match.
    pub true_positives: usize,
    /// False positives: unmatching pairs labeled match.
    pub false_positives: usize,
    /// False negatives: matching pairs labeled unmatch.
    pub false_negatives: usize,
    /// True negatives: unmatching pairs labeled unmatch.
    pub true_negatives: usize,
}

impl QualityMetrics {
    /// Builds metrics directly from confusion-matrix counts.
    pub fn from_counts(
        true_positives: usize,
        false_positives: usize,
        false_negatives: usize,
        true_negatives: usize,
    ) -> Self {
        Self { true_positives, false_positives, false_negatives, true_negatives }
    }

    /// Precision `tp / (tp + fp)`; `1` when nothing was labeled match
    /// (the empty prediction makes no false claims).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall `tp / (tp + fn)`; `1` when the workload contains no matching pairs.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// F1 score, the harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Total number of pairs covered by the confusion matrix.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }
}

/// One subset of an equal-count workload partition.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSubset {
    index: usize,
    range: std::ops::Range<usize>,
    mean_similarity: f64,
}

impl WorkloadSubset {
    /// Position of the subset in the partition (0 = lowest similarities).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The workload index range covered by this subset.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.range.clone()
    }

    /// Number of pairs in the subset.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the subset is empty (never true for partitions built by [`SubsetPartition::new`]).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Mean similarity of the pairs in the subset — the `v_i` the Gaussian process
    /// regresses over.
    pub fn mean_similarity(&self) -> f64 {
        self.mean_similarity
    }
}

/// An equal-count partition of a workload into similarity-ordered subsets.
#[derive(Debug, Clone)]
pub struct SubsetPartition {
    unit_size: usize,
    subsets: Vec<WorkloadSubset>,
    workload_len: usize,
}

impl SubsetPartition {
    /// Partitions a workload into consecutive subsets of `unit_size` pairs
    /// (the final subset absorbs any remainder so no subset is smaller than
    /// `unit_size` except when the workload itself is smaller).
    pub fn new(workload: &Workload, unit_size: usize) -> Result<Self> {
        if unit_size == 0 {
            return Err(ErError::InvalidArgument("subset unit size must be positive".to_string()));
        }
        if workload.is_empty() {
            return Err(ErError::InvalidWorkload("cannot partition an empty workload".to_string()));
        }
        let n = workload.len();
        let full_subsets = (n / unit_size).max(1);
        let mut subsets = Vec::with_capacity(full_subsets);
        for i in 0..full_subsets {
            let start = i * unit_size;
            let end = if i + 1 == full_subsets { n } else { (i + 1) * unit_size };
            let range = start..end;
            let mean_similarity = workload.sim_sum_range(range.clone()) / range.len() as f64;
            subsets.push(WorkloadSubset { index: i, range, mean_similarity });
        }
        Ok(Self { unit_size, subsets, workload_len: n })
    }

    /// The requested unit size.
    pub fn unit_size(&self) -> usize {
        self.unit_size
    }

    /// Number of subsets.
    pub fn len(&self) -> usize {
        self.subsets.len()
    }

    /// Whether the partition has no subsets (never true for successfully built partitions).
    pub fn is_empty(&self) -> bool {
        self.subsets.is_empty()
    }

    /// The subsets in ascending similarity order.
    pub fn subsets(&self) -> &[WorkloadSubset] {
        &self.subsets
    }

    /// The subset at a given position.
    pub fn subset(&self, index: usize) -> &WorkloadSubset {
        &self.subsets[index]
    }

    /// Total number of pairs covered (equals the workload length).
    pub fn total_pairs(&self) -> usize {
        self.workload_len
    }

    /// The workload index range spanned by the subsets `[from, to]` (inclusive).
    pub fn range_of(&self, from: usize, to: usize) -> std::ops::Range<usize> {
        assert!(from <= to && to < self.subsets.len(), "invalid subset range {from}..={to}");
        self.subsets[from].range().start..self.subsets[to].range().end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn simple_workload() -> Workload {
        // Matches concentrated at high similarity.
        Workload::from_scores(vec![
            (0.1, false),
            (0.2, false),
            (0.35, false),
            (0.5, true),
            (0.55, false),
            (0.7, true),
            (0.8, true),
            (0.9, true),
        ])
        .unwrap()
    }

    /// The construction path the workload had before it built on columns:
    /// a comparator sort, incoming pairs routed into per-segment groups, and
    /// merges and splits through decoded [`InstancePair`]s. The layout
    /// proptest pins the column path to it.
    mod reference {
        use super::*;

        fn canonical_order(a: &InstancePair, b: &InstancePair) -> std::cmp::Ordering {
            a.similarity
                .partial_cmp(&b.similarity)
                .expect("similarities are validated finite")
                .then_with(|| a.left.cmp(&b.left))
                .then_with(|| a.right.cmp(&b.right))
                .then_with(|| a.id.cmp(&b.id))
        }

        fn segments_from_sorted(pairs: &[InstancePair]) -> Vec<Segment> {
            pairs
                .chunks(SEGMENT_TARGET)
                .map(|chunk| {
                    let mut cols = Columns::with_capacity(chunk.len());
                    for p in chunk {
                        cols.push(p);
                    }
                    Segment::from_columns(cols)
                })
                .collect()
        }

        pub fn from_pairs(mut pairs: Vec<InstancePair>) -> Result<Workload> {
            Workload::validate_pairs(&pairs)?;
            pairs.sort_by(canonical_order);
            let mut w = Workload::empty();
            w.segments = segments_from_sorted(&pairs);
            w.rebuild_starts();
            Ok(w)
        }

        pub fn insert_sorted(w: &mut Workload, pairs: Vec<InstancePair>) -> Result<()> {
            Workload::validate_pairs(&pairs)?;
            if pairs.is_empty() {
                return Ok(());
            }
            let mut incoming = pairs;
            incoming.sort_by(canonical_order);
            if w.len == 0 {
                w.segments = segments_from_sorted(&incoming);
                w.rebuild_starts();
                return w.enforce_budget();
            }
            let mut groups: Vec<Vec<InstancePair>> = vec![Vec::new(); w.segments.len()];
            let mut tail: Vec<InstancePair> = Vec::new();
            let mut seg = 0usize;
            for p in incoming {
                let key = pair_key(&p);
                while seg < w.segments.len() && w.segments[seg].max_key < key {
                    seg += 1;
                }
                if seg == w.segments.len() {
                    tail.push(p);
                } else {
                    groups[seg].push(p);
                }
            }
            let old = std::mem::take(&mut w.segments);
            let mut rebuilt: Vec<Segment> = Vec::new();
            for (i, segment) in old.into_iter().enumerate() {
                let group = std::mem::take(&mut groups[i]);
                if group.is_empty() {
                    rebuilt.push(segment);
                    continue;
                }
                let cols = w.load_segment(&segment);
                push_split(&mut rebuilt, merge_columns(&cols, &group));
            }
            rebuilt.extend(segments_from_sorted(&tail));
            w.segments = rebuilt;
            w.rebuild_starts();
            w.enforce_budget()
        }

        fn merge_columns(existing: &Columns, incoming: &[InstancePair]) -> Columns {
            let mut out = Columns::with_capacity(existing.len() + incoming.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < existing.len() && j < incoming.len() {
                if pair_key(&incoming[j]) < existing.key_at(i) {
                    out.push(&incoming[j]);
                    j += 1;
                } else {
                    out.push(&existing.pair_at(i));
                    i += 1;
                }
            }
            for i in i..existing.len() {
                out.push(&existing.pair_at(i));
            }
            for p in &incoming[j..] {
                out.push(p);
            }
            out
        }

        fn push_split(rebuilt: &mut Vec<Segment>, merged: Columns) {
            if merged.len() <= 2 * SEGMENT_TARGET {
                rebuilt.push(Segment::from_columns(merged));
                return;
            }
            let chunks = merged.len().div_ceil(SEGMENT_TARGET);
            let mut start = 0usize;
            for c in 0..chunks {
                let size = (merged.len() - start).div_ceil(chunks - c);
                let mut cols = Columns::with_capacity(size);
                for i in start..start + size {
                    cols.push(&merged.pair_at(i));
                }
                rebuilt.push(Segment::from_columns(cols));
                start += size;
            }
        }
    }

    /// Builds the same pairs through the column path and the reference path
    /// (first chunk through `from_pairs`, then the budget, then one
    /// `insert_sorted` per further chunk) and asserts the two layouts agree
    /// segment by segment.
    fn assert_layout_matches_reference(
        chunks: &[Vec<InstancePair>],
        budget: MemoryBudget,
    ) -> std::result::Result<Workload, String> {
        let mut built = Workload::from_pairs(chunks[0].clone()).unwrap();
        let mut reference = reference::from_pairs(chunks[0].clone()).unwrap();
        built.set_memory_budget(budget.clone()).unwrap();
        reference.set_memory_budget(budget).unwrap();
        for chunk in &chunks[1..] {
            built.insert_sorted(chunk.clone()).unwrap();
            reference::insert_sorted(&mut reference, chunk.clone()).unwrap();
        }
        let summary = |w: &Workload| -> Vec<(usize, usize, PairKey)> {
            w.segments.iter().map(|s| (s.len, s.match_count, s.max_key)).collect()
        };
        let checks = [
            (summary(&built) == summary(&reference), "segment summaries"),
            (built.starts == reference.starts && built.len() == reference.len(), "starts"),
            (built.pairs() == reference.pairs(), "pairs()"),
            (built.resident_pairs() == reference.resident_pairs(), "resident_pairs()"),
            (built.spilled_bytes() == reference.spilled_bytes(), "spilled_bytes()"),
        ];
        for (ok, what) in checks {
            if !ok {
                return Err(format!("{what} differ from the reference path"));
            }
        }
        // Bit patterns too: `-0.0 == 0.0` would hide a swapped zero.
        for (a, b) in built.iter().zip(reference.iter()) {
            if a.similarity().to_bits() != b.similarity().to_bits() {
                return Err(format!("similarity bits of {} differ", a.id()));
            }
        }
        Ok(built)
    }

    #[test]
    fn an_oversized_merge_splits_like_the_reference() {
        // One full segment, then more than a segment's worth of pairs inside
        // its key range: the merge outgrows 2 × SEGMENT_TARGET and splits.
        let first: Vec<InstancePair> = (0..SEGMENT_TARGET)
            .map(|i| InstancePair::new(PairId(i as u64), (i % 50) as f64 / 100.0, Label::Match))
            .collect();
        let second: Vec<InstancePair> = (0..SEGMENT_TARGET + 300)
            .map(|i| {
                let id = PairId((SEGMENT_TARGET + i) as u64);
                InstancePair::new(id, (i % 49) as f64 / 100.0, Label::from_bool(i % 3 == 0))
            })
            .collect();
        let w = assert_layout_matches_reference(&[first, second], MemoryBudget::default()).unwrap();
        let lens: Vec<usize> = w.segments.iter().map(|s| s.len).collect();
        assert_eq!(lens, vec![2831, 2831, 2830], "balanced split of 2 × 4096 + 300 pairs");
    }

    /// A multi-segment workload with deterministic pseudo-random pairs.
    fn scrambled_pairs(n: usize, salt: u64) -> Vec<InstancePair> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(salt);
                let sim = (h % 1009) as f64 / 1008.0;
                InstancePair::with_records(
                    PairId(i as u64),
                    RecordId(h % 97),
                    RecordId(1_000 + (h % 53)),
                    sim,
                    Label::from_bool(h.is_multiple_of(3)),
                )
            })
            .collect()
    }

    #[test]
    fn workload_sorts_by_similarity() {
        let w = Workload::from_scores(vec![(0.9, true), (0.1, false), (0.5, false)]).unwrap();
        let sims: Vec<f64> = w.pairs().iter().map(|p| p.similarity()).collect();
        assert_eq!(sims, vec![0.1, 0.5, 0.9]);
    }

    #[test]
    fn workload_rejects_out_of_range_similarity() {
        assert!(Workload::from_scores(vec![(1.5, true)]).is_err());
        assert!(Workload::from_scores(vec![(-0.1, false)]).is_err());
        assert!(Workload::from_scores(vec![(f64::NAN, false)]).is_err());
    }

    #[test]
    fn workload_rejects_non_finite_similarities_with_proper_error() {
        // NaN and the two infinities must all be rejected with an InvalidWorkload
        // error on every construction path — none of them may reach the
        // similarity sort, where NaN breaks the ordering invariant silently.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Workload::from_scores(vec![(0.5, true), (bad, false)]).unwrap_err();
            assert!(matches!(err, crate::ErError::InvalidWorkload(_)), "from_scores: {err}");
            let pairs = vec![InstancePair::new(PairId(0), bad, Label::Unmatch)];
            let err = Workload::from_pairs(pairs).unwrap_err();
            assert!(matches!(err, crate::ErError::InvalidWorkload(_)), "from_pairs: {err}");
        }
    }

    #[test]
    fn insert_sorted_rejects_non_finite_and_leaves_workload_untouched() {
        let mut w = simple_workload();
        let before: Vec<f64> = w.pairs().iter().map(|p| p.similarity()).collect();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -0.2] {
            let err = w
                .insert_sorted(vec![InstancePair::new(PairId(99), bad, Label::Match)])
                .unwrap_err();
            assert!(matches!(err, crate::ErError::InvalidWorkload(_)), "insert_sorted: {err}");
            let after: Vec<f64> = w.pairs().iter().map(|p| p.similarity()).collect();
            assert_eq!(before, after, "rejected insert must not modify the workload");
        }
    }

    #[test]
    fn insert_sorted_merges_into_similarity_order() {
        let mut w = Workload::from_scores(vec![(0.2, false), (0.6, true)]).unwrap();
        w.insert_sorted(vec![
            InstancePair::new(PairId(10), 0.4, Label::Unmatch),
            InstancePair::new(PairId(11), 0.1, Label::Unmatch),
            InstancePair::new(PairId(12), 0.9, Label::Match),
        ])
        .unwrap();
        let sims: Vec<f64> = w.pairs().iter().map(|p| p.similarity()).collect();
        assert_eq!(sims, vec![0.1, 0.2, 0.4, 0.6, 0.9]);
        // Inserting into an empty workload also works.
        let mut empty = Workload::from_pairs(vec![]).unwrap();
        empty.insert_sorted(vec![InstancePair::new(PairId(0), 0.5, Label::Match)]).unwrap();
        assert_eq!(empty.len(), 1);
        empty.insert_sorted(vec![]).unwrap();
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn negative_zero_similarity_round_trips() {
        // Validation admits -0.0 (it is within [0, 1] under partial_cmp); the
        // columnar store and the spill codec must both preserve its bit pattern.
        let mut w = Workload::from_pairs(vec![
            InstancePair::new(PairId(0), -0.0, Label::Unmatch),
            InstancePair::new(PairId(1), 0.5, Label::Match),
        ])
        .unwrap();
        assert_eq!(w.similarity_at(0).to_bits(), (-0.0f64).to_bits());
        w.set_memory_budget(MemoryBudget::bounded(1, 0)).unwrap();
        assert_eq!(w.similarity_at(0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(w.lower_bound_index(0.0), 0); // -0.0 is not < 0.0
    }

    #[test]
    fn match_counting_and_proportion() {
        let w = simple_workload();
        assert_eq!(w.total_matches(), 4);
        assert_eq!(w.matches_in_range(0..4), 1);
        assert!((w.match_proportion(4..8) - 0.75).abs() < 1e-12);
        assert_eq!(w.match_proportion(3..3), 0.0);
    }

    #[test]
    fn lower_bound_index_finds_threshold() {
        let w = simple_workload();
        assert_eq!(w.lower_bound_index(0.0), 0);
        assert_eq!(w.lower_bound_index(0.5), 3);
        assert_eq!(w.lower_bound_index(0.95), 8);
    }

    #[test]
    fn evaluate_threshold_assignment() {
        let w = simple_workload();
        // Label everything with similarity >= 0.5 as match (index 3 onwards).
        let assignment = LabelAssignment::from_threshold_index(w.len(), 3);
        let m = w.evaluate(&assignment).unwrap();
        assert_eq!(m.true_positives, 4);
        assert_eq!(m.false_positives, 1);
        assert_eq!(m.false_negatives, 0);
        assert_eq!(m.true_negatives, 3);
        assert!((m.precision() - 0.8).abs() < 1e-12);
        assert!((m.recall() - 1.0).abs() < 1e-12);
        assert!((m.f1() - 2.0 * 0.8 / 1.8).abs() < 1e-12);
    }

    #[test]
    fn evaluate_rejects_wrong_length() {
        let w = simple_workload();
        assert!(w.evaluate(&LabelAssignment::all_unmatch(3)).is_err());
    }

    #[test]
    fn metrics_degenerate_cases() {
        // No predictions at all → precision 1 by convention.
        let m = QualityMetrics::from_counts(0, 0, 5, 10);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
        // No matches in the workload → recall 1 by convention.
        let m = QualityMetrics::from_counts(0, 0, 0, 10);
        assert_eq!(m.recall(), 1.0);
    }

    #[test]
    fn partition_equal_counts_with_remainder() {
        let w = Workload::from_scores((0..10).map(|i| (i as f64 / 10.0, false))).unwrap();
        let p = w.partition(3).unwrap();
        // 10 pairs, unit 3 → subsets of sizes 3, 3, 4 (last absorbs remainder).
        assert_eq!(p.len(), 3);
        assert_eq!(p.subset(0).len(), 3);
        assert_eq!(p.subset(1).len(), 3);
        assert_eq!(p.subset(2).len(), 4);
        assert_eq!(p.total_pairs(), 10);
        assert_eq!(p.range_of(0, 2), 0..10);
        assert_eq!(p.range_of(1, 1), 3..6);
    }

    #[test]
    fn partition_mean_similarities_are_monotone() {
        let w = Workload::from_scores((0..100).map(|i| (i as f64 / 100.0, false))).unwrap();
        let p = w.partition(10).unwrap();
        let means: Vec<f64> = p.subsets().iter().map(|s| s.mean_similarity()).collect();
        for pair in means.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn partition_rejects_invalid_input() {
        let w = simple_workload();
        assert!(w.partition(0).is_err());
        let empty = Workload::from_pairs(vec![]).unwrap();
        assert!(empty.partition(10).is_err());
    }

    #[test]
    fn label_assignment_helpers() {
        let mut a = LabelAssignment::all_unmatch(4);
        assert_eq!(a.match_count(), 0);
        a.set(2, Label::Match);
        assert_eq!(a.match_count(), 1);
        let t = LabelAssignment::from_threshold_index(4, 2);
        assert_eq!(t.labels(), &[Label::Unmatch, Label::Unmatch, Label::Match, Label::Match]);
    }

    #[test]
    fn multi_segment_accessors_match_flat_reference() {
        // Enough pairs for several segments; every accessor must agree with a
        // flat re-computation over the materialized pair vector.
        let n = 3 * SEGMENT_TARGET + 123;
        let w = Workload::from_pairs(scrambled_pairs(n, 7)).unwrap();
        assert!(w.segment_count() >= 3, "expected multiple segments");
        let flat = w.pairs();
        assert_eq!(flat.len(), n);
        for win in flat.windows(2) {
            assert!(pair_key(&win[0]) <= pair_key(&win[1]));
        }
        assert_eq!(w.total_matches(), flat.iter().filter(|p| p.is_match()).count());
        for (start, end) in [(0, n), (100, SEGMENT_TARGET + 50), (n - 10, n), (77, 77)] {
            let expect = flat[start..end].iter().filter(|p| p.is_match()).count();
            assert_eq!(w.matches_in_range(start..end), expect, "range {start}..{end}");
        }
        for idx in [0, 1, SEGMENT_TARGET - 1, SEGMENT_TARGET, 2 * SEGMENT_TARGET + 17, n - 1] {
            assert_eq!(w.pair(idx), flat[idx], "pair({idx})");
            assert_eq!(w.similarity_at(idx).to_bits(), flat[idx].similarity().to_bits());
        }
        for threshold in [0.0, 0.25, 0.5004, 0.99, 1.0, 1.5] {
            let expect = flat.partition_point(|p| p.similarity() < threshold);
            assert_eq!(w.lower_bound_index(threshold), expect, "threshold {threshold}");
        }
        // Segment-wise subset means equal the flat left-to-right sums exactly.
        let p = w.partition(997).unwrap();
        for s in p.subsets() {
            let expect =
                flat[s.range()].iter().map(|q| q.similarity()).sum::<f64>() / s.len() as f64;
            assert_eq!(s.mean_similarity().to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn segment_wise_insert_matches_batch_across_segments() {
        let all = scrambled_pairs(2 * SEGMENT_TARGET + 500, 11);
        let batch = Workload::from_pairs(all.clone()).unwrap();
        let mut incremental = Workload::from_pairs(vec![]).unwrap();
        for part in all.chunks(1237) {
            incremental.insert_sorted(part.to_vec()).unwrap();
        }
        assert_eq!(incremental.pairs(), batch.pairs());
    }

    #[test]
    fn spilled_workload_is_byte_identical_and_bounded() {
        let n = 2 * SEGMENT_TARGET + 777;
        let all = scrambled_pairs(n, 23);
        let reference = Workload::from_pairs(all.clone()).unwrap();
        let mut budgeted = Workload::from_pairs(vec![]).unwrap();
        let budget = SEGMENT_TARGET; // forces most segments out of core
        budgeted
            .set_memory_budget(MemoryBudget { resident_pairs: budget, ..MemoryBudget::default() })
            .unwrap();
        for part in all.chunks(999) {
            budgeted.insert_sorted(part.to_vec()).unwrap();
            assert!(
                budgeted.resident_pairs() <= budget,
                "resident {} over budget {budget}",
                budgeted.resident_pairs()
            );
        }
        assert!(budgeted.spilled_pairs() > 0, "spill must engage");
        assert!(budgeted.spilled_bytes() > 0);
        // Bit-identical contents and identical derived values.
        for (a, b) in budgeted.iter().zip(reference.iter()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.left(), b.left());
            assert_eq!(a.right(), b.right());
            assert_eq!(a.similarity().to_bits(), b.similarity().to_bits());
            assert_eq!(a.ground_truth(), b.ground_truth());
        }
        assert_eq!(budgeted.total_matches(), reference.total_matches());
        assert_eq!(budgeted.lower_bound_index(0.5), reference.lower_bound_index(0.5));
        let pb = budgeted.partition(500).unwrap();
        let pr = reference.partition(500).unwrap();
        for (a, b) in pb.subsets().iter().zip(pr.subsets()) {
            assert_eq!(a.mean_similarity().to_bits(), b.mean_similarity().to_bits());
        }
        // pair() works on spilled segments too (it rehydrates through the codec).
        assert_eq!(budgeted.pair(3), reference.pairs()[3]);
        // Clones share the spill file and stay readable.
        let clone = budgeted.clone();
        assert_eq!(clone.pairs(), reference.pairs());
    }

    #[test]
    fn pair_reads_spilled_segments_only_through_the_lru() {
        // With one cache slot, reading spilled segment A, then B, then A again
        // must miss three times: no decoded copy of A may outlive its eviction.
        let all = scrambled_pairs(3 * SEGMENT_TARGET, 31);
        let reference = Workload::from_pairs(all.clone()).unwrap();
        let mut w = Workload::from_pairs(all).unwrap();
        w.set_memory_budget(MemoryBudget {
            resident_pairs: SEGMENT_TARGET,
            cached_segments: 1,
            ..MemoryBudget::default()
        })
        .unwrap();
        assert_eq!(w.spilled_pairs(), 2 * SEGMENT_TARGET, "segments A and B spill");
        for idx in [0, SEGMENT_TARGET, 1] {
            assert_eq!(w.pair(idx), reference.pair(idx), "pair({idx})");
        }
        let stats = w.spill_stats();
        assert_eq!(stats.cache_misses, 3);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_evictions, 2);
    }

    #[test]
    fn segment_codec_round_trips() {
        let pairs = vec![
            InstancePair::new(PairId(0), -0.0, Label::Unmatch),
            InstancePair::new(PairId(u64::MAX), 1.0, Label::Match),
            InstancePair::with_records(
                PairId(7),
                RecordId(u64::MAX),
                RecordId(0),
                0.25,
                Label::Match,
            ),
        ];
        let mut cols = Columns::with_capacity(pairs.len());
        for p in &pairs {
            cols.push(p);
        }
        let chunk = encode_segment(&cols);
        let decoded = decode_segment(&chunk).unwrap();
        assert_eq!(decoded, cols);
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(&decoded.pair_at(i), p);
            assert_eq!(decoded.pair_at(i).similarity().to_bits(), p.similarity().to_bits());
        }
        // Corruption and bad magic are detected.
        let mut bad = chunk.clone();
        bad[10] ^= 0xff;
        assert!(decode_segment(&bad).is_err());
        let mut wrong_magic = chunk.clone();
        wrong_magic[0] = b'X';
        assert!(decode_segment(&wrong_magic).is_err());
    }

    proptest! {
        #[test]
        fn partition_covers_workload_without_overlap(
            n in 1usize..500,
            unit in 1usize..80,
        ) {
            let w = Workload::from_scores((0..n).map(|i| (i as f64 / n as f64, i % 7 == 0))).unwrap();
            let p = w.partition(unit).unwrap();
            // Ranges are contiguous, non-overlapping and cover 0..n.
            let mut cursor = 0usize;
            for s in p.subsets() {
                prop_assert_eq!(s.range().start, cursor);
                prop_assert!(!s.is_empty());
                cursor = s.range().end;
            }
            prop_assert_eq!(cursor, n);
        }

        #[test]
        fn insert_sorted_any_split_equals_batch_sort(
            n in 1usize..200,
            split in 1usize..6,
            salt in 0u64..1_000,
        ) {
            // Identical pairs (ids included) arriving in any chunking must
            // produce a workload identical to the one-shot batch sort. A coarse
            // similarity grid forces plenty of ties so the tie-break matters.
            let all: Vec<InstancePair> = (0..n)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(2654435761).wrapping_add(salt);
                    let sim = (h % 11) as f64 / 10.0;
                    let left = RecordId(h % 13);
                    let right = RecordId(1_000 + (h % 7));
                    InstancePair::with_records(
                        PairId(i as u64),
                        left,
                        right,
                        sim,
                        Label::from_bool(h.is_multiple_of(3)),
                    )
                })
                .collect();
            let batch = Workload::from_pairs(all.clone()).unwrap();
            let mut incremental = Workload::from_pairs(vec![]).unwrap();
            let chunk = n.div_ceil(split).max(1);
            for part in all.chunks(chunk) {
                incremental.insert_sorted(part.to_vec()).unwrap();
            }
            prop_assert_eq!(incremental.pairs(), batch.pairs());
            // The merge preserves the sort invariant.
            for w in incremental.pairs().windows(2) {
                prop_assert!(w[0].similarity() <= w[1].similarity());
            }
        }

        #[test]
        fn layout_matches_the_pair_path_reference(
            n in 1usize..3 * SEGMENT_TARGET,
            chunks in 1usize..7,
            grid in 1u64..12,
            budget in 0usize..2 * SEGMENT_TARGET,
            salt in 0u64..1_000,
        ) {
            // A coarse similarity grid (ties are common), -0.0 beside 0.0,
            // record-less and record-backed pairs, and repeated pair ids with
            // different labels (equal keys: only stability orders them),
            // inserted in one to six chunks under a budget that may spill
            // (0 = unbounded).
            let pairs: Vec<InstancePair> = (0..n)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(2654435761).wrapping_add(salt);
                    let sim = if h % 13 == 0 { -0.0 } else { (h % (grid + 1)) as f64 / grid as f64 };
                    let id = PairId(if (h >> 5) % 4 == 0 { i as u64 / 2 } else { i as u64 });
                    let truth = Label::from_bool((h >> 9) % 3 == 0);
                    if (h >> 3) % 3 == 0 {
                        InstancePair::new(id, sim, truth)
                    } else {
                        let (left, right) = (RecordId((h >> 12) % 5), RecordId((h >> 15) % 3));
                        InstancePair::with_records(id, left, right, sim, truth)
                    }
                })
                .collect();
            let size = n.div_ceil(chunks);
            let parts: Vec<Vec<InstancePair>> = pairs.chunks(size).map(<[_]>::to_vec).collect();
            let budget = MemoryBudget { resident_pairs: budget, ..MemoryBudget::default() };
            if let Err(message) = assert_layout_matches_reference(&parts, budget) {
                return Err(TestCaseError::fail(message));
            }
        }

        #[test]
        fn spill_round_trip_is_byte_identical(
            n in 1usize..400,
            split in 1usize..5,
            budget in 1usize..64,
            salt in 0u64..1_000,
        ) {
            // Any workload, any insert chunking, any (tiny) resident budget:
            // pushing segments through the spill codec and reading them back
            // must reproduce the in-memory workload bit for bit.
            let all = scrambled_pairs(n, salt);
            let reference = Workload::from_pairs(all.clone()).unwrap();
            let mut budgeted = Workload::from_pairs(vec![]).unwrap();
            budgeted.set_memory_budget(MemoryBudget {
                resident_pairs: budget,
                cached_segments: 2,
                ..MemoryBudget::default()
            }).unwrap();
            let chunk = n.div_ceil(split).max(1);
            for part in all.chunks(chunk) {
                budgeted.insert_sorted(part.to_vec()).unwrap();
            }
            prop_assert_eq!(budgeted.len(), reference.len());
            for (a, b) in budgeted.iter().zip(reference.iter()) {
                prop_assert_eq!(a.id(), b.id());
                prop_assert_eq!(a.similarity().to_bits(), b.similarity().to_bits());
                prop_assert_eq!(a.left(), b.left());
                prop_assert_eq!(a.right(), b.right());
                prop_assert_eq!(a.ground_truth(), b.ground_truth());
            }
        }

        #[test]
        fn threshold_assignments_have_monotone_recall(
            n in 2usize..200,
        ) {
            let w = Workload::from_scores((0..n).map(|i| (i as f64 / n as f64, i % 3 == 0))).unwrap();
            // Lowering the threshold index can only increase recall.
            let mut last_recall = 0.0;
            for idx in (0..=n).rev() {
                let m = w.evaluate(&LabelAssignment::from_threshold_index(n, idx)).unwrap();
                prop_assert!(m.recall() + 1e-12 >= last_recall);
                last_recall = m.recall();
            }
        }
    }
}
