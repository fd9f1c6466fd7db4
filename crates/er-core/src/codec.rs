//! Shared byte-codec primitives for every hand-rolled on-disk format in the
//! workspace.
//!
//! The build environment is offline, so there is no serde: each persistent
//! structure is written in a documented, little-endian byte format and
//! verified with an FNV-1a checksum on read. Three formats ride on these
//! primitives today:
//!
//! - `HSG1` workload segments and `HPG2` posting generations, written by
//!   [`crate::spill`] (formats documented there),
//! - `HAL1` answered-label logs, written by `humo::wal` (format documented
//!   there).
//!
//! Two layers live here:
//!
//! **Chunk layer** — [`ByteWriter`] / [`ByteReader`]: a chunk is a body
//! followed by an 8-byte FNV-1a trailer over the body ([`ByteWriter::finish`]
//! appends it, [`ByteReader::checked`] verifies and strips it). Chunks are
//! written whole; a spill store addresses them by `(offset, len)`.
//!
//! **Frame layer** — [`frame`] / [`FrameScan`]: for *append-only logs* whose
//! readers discover record boundaries from the bytes alone. Each frame is
//!
//! ```text
//! body_len    u32   length of the body in bytes
//! head_check  u32   low 32 bits of FNV-1a over the 4 `body_len` bytes
//! body        body_len bytes — a checksummed chunk (payload + FNV trailer)
//! ```
//!
//! The `head_check` makes a corrupted length field deterministically
//! detectable: without it, a bit flip in `body_len` would be
//! indistinguishable from a torn tail and could silently swallow the rest of
//! the log. With it, scanning distinguishes three outcomes — a complete valid
//! frame, a *torn tail* (the file ends before the frame does: clean truncation
//! point), and *corruption* (a complete frame whose header check or body
//! checksum fails: an error, never silent data loss).

use crate::{ErError, Result};
use std::hash::Hasher;

/// FNV-1a 64-bit hash — the platform-independent hash used for posting
/// directories and chunk checksums.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(bytes);
    hash.finish()
}

/// Incremental FNV-1a: feeding byte slices one after another hashes their
/// concatenation, so composite keys need no scratch buffer. As a [`Hasher`]
/// it is also the cheap in-memory hash of the token cache's maps (those
/// hashes never reach disk).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Little-endian byte writer for the on-disk codecs; [`ByteWriter::finish`]
/// appends the FNV-1a checksum trailer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates a writer with a capacity hint.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity) }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far (before the checksum trailer).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends the FNV-1a checksum of everything written and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let checksum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// Little-endian byte reader over a chunk; construction verifies the FNV-1a
/// checksum trailer and every `take_*` bounds-checks, so a truncated or
/// corrupted chunk surfaces as [`ErError::Spill`] instead of garbage data.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a checksummed chunk, verifying and stripping the trailer.
    pub fn checked(chunk: &'a [u8]) -> Result<Self> {
        if chunk.len() < 8 {
            return Err(ErError::Spill(format!("chunk too short: {} bytes", chunk.len())));
        }
        let (body, trailer) = chunk.split_at(chunk.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(ErError::Spill(format!(
                "chunk checksum mismatch (stored {stored:#x}, computed {computed:#x})"
            )));
        }
        Ok(Self { buf: body, pos: 0 })
    }

    /// Wraps raw bytes without a checksum trailer (for sub-entry reads whose
    /// enclosing chunk was already verified at write time).
    pub fn unchecked(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end =
            self.pos.checked_add(n).filter(|&end| end <= self.buf.len()).ok_or_else(|| {
                ErError::Spill(format!("chunk underrun at byte {} (+{n})", self.pos))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Size of a frame header: `body_len u32` + `head_check u32`.
pub const FRAME_HEADER_LEN: usize = 8;

/// The header check for a frame body length: the low 32 bits of FNV-1a over
/// the 4 little-endian `body_len` bytes.
pub fn frame_check(body_len: u32) -> u32 {
    fnv1a(&body_len.to_le_bytes()) as u32
}

/// Wraps a finished chunk (from [`ByteWriter::finish`]) in a frame header,
/// producing one appendable log record.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let body_len = u32::try_from(body.len()).expect("frame body fits in u32");
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(&frame_check(body_len).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Forward scanner over a concatenation of [`frame`]s, with torn-tail
/// recovery.
///
/// [`FrameScan::next_frame`] yields checksum-verified [`ByteReader`]s for each
/// complete frame. A file that ends mid-frame (a torn append) yields
/// `Ok(None)` with [`FrameScan::torn_tail`] set — [`FrameScan::consumed`] is
/// then the clean truncation point. A *complete* frame that fails its header
/// check or body checksum is corruption and yields an error.
#[derive(Debug)]
pub struct FrameScan<'a> {
    buf: &'a [u8],
    pos: usize,
    torn: bool,
}

impl<'a> FrameScan<'a> {
    /// Starts scanning at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, torn: false }
    }

    /// Yields the next complete frame's verified body reader, `Ok(None)` at a
    /// clean end or a torn tail, or an error on corruption.
    pub fn next_frame(&mut self) -> Result<Option<ByteReader<'a>>> {
        if self.torn {
            return Ok(None);
        }
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return Ok(None);
        }
        if rest.len() < FRAME_HEADER_LEN {
            // Not even a whole header: a torn append.
            self.torn = true;
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        let stored_check = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let body_end = FRAME_HEADER_LEN + body_len as usize;
        if stored_check != frame_check(body_len) {
            // The length field itself is damaged. If the file could not hold
            // the claimed body anyway we cannot distinguish this from a torn
            // header, but a corrupt header in front of enough bytes is
            // unambiguous corruption.
            if rest.len() >= body_end {
                return Err(ErError::Spill(format!(
                    "frame header check mismatch at byte {} (stored {stored_check:#x})",
                    self.pos
                )));
            }
            self.torn = true;
            return Ok(None);
        }
        if rest.len() < body_end {
            // Valid header, incomplete body: a torn append.
            self.torn = true;
            return Ok(None);
        }
        let reader = ByteReader::checked(&rest[FRAME_HEADER_LEN..body_end])?;
        self.pos += body_end;
        Ok(Some(reader))
    }

    /// Bytes consumed by complete frames so far — after a torn tail, the
    /// offset a recovering writer should truncate the log to.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Whether the scan stopped at an incomplete trailing frame.
    pub fn torn_tail(&self) -> bool {
        self.torn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip_with_checksum() {
        let mut w = ByteWriter::with_capacity(64);
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_bytes(b"token");
        let chunk = w.finish();
        let mut r = ByteReader::checked(&chunk).unwrap();
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_bytes(5).unwrap(), b"token");
        assert_eq!(r.remaining(), 0);
        assert!(r.take_u8().is_err());
    }

    #[test]
    fn corrupted_chunks_are_rejected() {
        let mut w = ByteWriter::default();
        w.put_u64(42);
        let mut chunk = w.finish();
        chunk[3] ^= 1;
        assert!(matches!(ByteReader::checked(&chunk), Err(ErError::Spill(_))));
        assert!(matches!(ByteReader::checked(&chunk[..4]), Err(ErError::Spill(_))));
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned reference values: the hash checksums on-disk chunks (it
        // also hashes in-memory maps), so it must never drift across
        // platforms.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    fn chunk(payload: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::default();
        w.put_bytes(payload);
        w.finish()
    }

    #[test]
    fn frame_scan_round_trips_a_log() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame(&chunk(b"alpha")));
        log.extend_from_slice(&frame(&chunk(b"")));
        log.extend_from_slice(&frame(&chunk(b"gamma-longer-record")));
        let mut scan = FrameScan::new(&log);
        let mut bodies = Vec::new();
        while let Some(mut r) = scan.next_frame().unwrap() {
            bodies.push(r.take_bytes(r.remaining()).unwrap().to_vec());
        }
        assert_eq!(bodies, vec![b"alpha".to_vec(), Vec::new(), b"gamma-longer-record".to_vec()]);
        assert!(!scan.torn_tail());
        assert_eq!(scan.consumed(), log.len());
    }

    #[test]
    fn frame_scan_recovers_torn_tails() {
        let first = frame(&chunk(b"kept"));
        let second = frame(&chunk(b"torn-away"));
        // Truncate at every point strictly inside the second frame.
        for cut in 0..second.len() {
            let mut log = first.clone();
            log.extend_from_slice(&second[..cut]);
            let mut scan = FrameScan::new(&log);
            let mut count = 0;
            while let Some(_r) = scan.next_frame().unwrap() {
                count += 1;
            }
            assert_eq!(count, 1, "cut at {cut}");
            assert_eq!(scan.consumed(), first.len(), "cut at {cut}");
            assert_eq!(scan.torn_tail(), cut > 0, "cut at {cut}");
        }
    }

    #[test]
    fn frame_scan_rejects_corrupt_complete_frames() {
        let log = frame(&chunk(b"payload-bytes"));
        // Flip one bit at every byte position of a complete frame: always an
        // error (header check or body checksum), never a silent wrong read.
        for i in 0..log.len() {
            let mut bad = log.clone();
            bad[i] ^= 0x10;
            let mut scan = FrameScan::new(&bad);
            let mut outcome = scan.next_frame();
            // A header corruption that inflates the length can masquerade as
            // a torn tail only when the file is too short to disprove it;
            // with a single frame that case is still not a *wrong read*.
            if let Ok(Some(ref mut r)) = outcome {
                panic!("bit flip at byte {i} yielded a frame with {} bytes", r.remaining());
            }
            if let Ok(None) = outcome {
                assert!(scan.torn_tail(), "bit flip at byte {i} read as clean end");
            }
        }
    }
}
