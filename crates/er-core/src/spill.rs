//! Out-of-core spill: an append-only, chunked, file-backed byte store the
//! blocking index and the workload use to push cold data past a configurable
//! resident budget.
//!
//! Every structure spilled through this module is written in a hand-rolled,
//! documented, little-endian byte format with the [`crate::codec`] primitives
//! and verified with an FNV-1a checksum on read. The two on-disk chunk layouts are:
//!
//! **Workload segment** (`HSG1`, written by [`crate::workload::Workload`]):
//!
//! ```text
//! magic   4 bytes  "HSG1"
//! count   u32      number of pairs in the segment
//! pair    count ×  { sim_bits u64, pair_id u64, left u64, right u64, flags u8 }
//! check   u64      FNV-1a of every preceding byte
//! ```
//!
//! `flags` bit 0 is the ground-truth match bit and bit 1 records whether the
//! pair carries record ids (so `left`/`right` are meaningful); `sim_bits` is
//! the raw `f64::to_bits` of the similarity, making round trips bit-exact.
//!
//! **Posting generation** (`HPG2`, written by
//! [`crate::blocking::IncrementalTokenIndex`]):
//!
//! ```text
//! magic   4 bytes  "HPG2"
//! count   u32      number of posting entries
//! entry   count ×  { side u8, token_id u32, n u32, n × u64 ids }
//! check   u64      FNV-1a of every preceding byte
//! ```
//!
//! `token_id` is the blocking attribute's interned token id in the index's
//! [`crate::aggregate::TokenCache`]; entries are written side by side, in
//! token-id order. A frozen generation keeps a small resident directory per
//! side, its `(token_id, byte range)` pairs sorted by id, so a probe finds its
//! entry by binary search and reads exactly that entry instead of decoding the
//! generation. An entry whose side or id differs from the probed key is
//! reported as corrupt.
//!
//! The [`SpillFile`] itself is an anonymous temporary: it is unlinked right
//! after creation, so the space is reclaimed by the OS when the last handle
//! drops, even on a crash. Chunks are append-only — rewriting a segment
//! abandons its old chunk (the store is an arena, not a heap), which keeps
//! every previously returned [`ChunkHandle`] valid for the file's lifetime.

use crate::{ErError, Result};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How much of the pipeline's working set may stay resident in memory; the
/// rest overflows into a [`SpillFile`]. The default is fully unbounded (no
/// spilling), which keeps the in-memory fast path allocation-identical to the
/// pre-spill implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Maximum number of workload pairs kept in resident segment columns
    /// (`0` = unbounded). Coldest (lowest-similarity) segments spill first.
    pub resident_pairs: usize,
    /// Maximum number of resident posting-list entries in the blocking index
    /// (`0` = unbounded). Exceeding it freezes the resident postings into an
    /// on-disk generation.
    pub resident_postings: usize,
    /// Capacity (in segments) of the read cache that pins recently touched
    /// spilled segments; at least one entry is always cached.
    pub cached_segments: usize,
    /// Directory for the spill file; `None` uses the system temp directory.
    pub spill_dir: Option<PathBuf>,
}

impl MemoryBudget {
    /// A budget that never spills (the default).
    pub fn unbounded() -> Self {
        Self { resident_pairs: 0, resident_postings: 0, cached_segments: 8, spill_dir: None }
    }

    /// A bounded budget: at most `resident_pairs` workload pairs and
    /// `resident_postings` posting entries stay in memory.
    pub fn bounded(resident_pairs: usize, resident_postings: usize) -> Self {
        Self { resident_pairs, resident_postings, ..Self::unbounded() }
    }

    /// Whether this budget can ever trigger spilling.
    pub fn is_unbounded(&self) -> bool {
        self.resident_pairs == 0 && self.resident_postings == 0
    }
}

impl Default for MemoryBudget {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// The location of one immutable chunk inside a [`SpillFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHandle {
    /// Byte offset of the chunk in the file.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

/// An append-only spill file. Appends serialize on an internal offset lock;
/// reads are positioned (`pread`) and run concurrently from shared
/// references.
#[derive(Debug)]
pub struct SpillFile {
    file: File,
    tail: Mutex<u64>,
}

fn io_err(context: &str, e: std::io::Error) -> ErError {
    ErError::Spill(format!("{context}: {e}"))
}

impl SpillFile {
    /// Creates an anonymous spill file in `dir` (or the system temp directory)
    /// and unlinks it immediately, so the space is freed when the last handle
    /// drops.
    pub fn create_in(dir: Option<&Path>) -> Result<Self> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = dir.map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
        let pid = std::process::id();
        for _ in 0..1024 {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!(".humo-spill-{pid}-{n}"));
            match std::fs::OpenOptions::new().read(true).write(true).create_new(true).open(&path) {
                Ok(file) => {
                    // Unlink-after-open: the fd keeps the inode alive, the
                    // name disappears, and a crash leaks nothing.
                    std::fs::remove_file(&path).map_err(|e| io_err("unlink spill file", e))?;
                    return Ok(Self { file, tail: Mutex::new(0) });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(io_err("create spill file", e)),
            }
        }
        Err(ErError::Spill("could not find a free spill file name".to_string()))
    }

    /// Appends a chunk and returns its handle.
    pub fn append(&self, bytes: &[u8]) -> Result<ChunkHandle> {
        let mut tail = self.tail.lock().expect("spill tail lock poisoned");
        let offset = *tail;
        self.file.write_all_at(bytes, offset).map_err(|e| io_err("append spill chunk", e))?;
        *tail += bytes.len() as u64;
        Ok(ChunkHandle { offset, len: bytes.len() as u64 })
    }

    /// Reads `len` bytes at an absolute offset (positioned read, no seek).
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.file.read_exact_at(&mut buf, offset).map_err(|e| io_err("read spill chunk", e))?;
        Ok(buf)
    }

    /// Reads a whole chunk back.
    pub fn read_chunk(&self, handle: ChunkHandle) -> Result<Vec<u8>> {
        self.read_at(handle.offset, handle.len as usize)
    }

    /// Total bytes appended so far.
    pub fn bytes_written(&self) -> u64 {
        *self.tail.lock().expect("spill tail lock poisoned")
    }
}

/// Always-on spill and segment-cache tallies for one [`crate::workload::Workload`].
///
/// These are plain integer counters kept regardless of any
/// [`er_obs::Recorder`], so reports can expose spill behaviour with
/// observability off. Rates are derived, not stored, keeping the struct
/// `Copy + Eq` for embedding in report types.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Segments written out to the spill file.
    pub segments_spilled: u64,
    /// Segments read back (decoded) from the spill file.
    pub segments_loaded: u64,
    /// Bytes written to the spill file for spilled segments.
    pub bytes_spilled: u64,
    /// Bytes read back from the spill file for segment loads.
    pub bytes_loaded: u64,
    /// Segment lookups answered by the read cache.
    pub cache_hits: u64,
    /// Segment lookups that had to hit the spill file.
    pub cache_misses: u64,
    /// Cache entries evicted to admit newer segments.
    pub cache_evictions: u64,
}

impl SpillStats {
    /// Fraction of spilled-segment lookups served from the cache
    /// (0 when no spilled segment was ever touched).
    pub fn cache_hit_rate(&self) -> f64 {
        let touches = self.cache_hits + self.cache_misses;
        if touches == 0 {
            0.0
        } else {
            self.cache_hits as f64 / touches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_defaults_are_unbounded() {
        assert!(MemoryBudget::default().is_unbounded());
        assert!(!MemoryBudget::bounded(10, 0).is_unbounded());
        assert!(!MemoryBudget::bounded(0, 10).is_unbounded());
    }

    #[test]
    fn spill_file_round_trips_chunks() {
        let file = SpillFile::create_in(None).unwrap();
        let a = file.append(b"hello").unwrap();
        let b = file.append(&[0u8; 1000]).unwrap();
        let c = file.append(b"world").unwrap();
        assert_eq!(file.read_chunk(a).unwrap(), b"hello");
        assert_eq!(file.read_chunk(c).unwrap(), b"world");
        assert_eq!(file.read_chunk(b).unwrap(), vec![0u8; 1000]);
        // Sub-range reads address into a chunk.
        assert_eq!(file.read_at(c.offset + 1, 3).unwrap(), b"orl");
        assert_eq!(file.bytes_written(), 1010);
        // Reading past the end fails instead of returning short data.
        assert!(file.read_at(1005, 100).is_err());
    }
}
