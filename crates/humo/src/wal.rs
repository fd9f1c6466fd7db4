//! Write-ahead label logs: the versioned `HAL1` on-disk format for answered
//! labels and session configurations, plus the [`DurableSession`] wrapper
//! that makes a [`LabelingSession`] crash-safe.
//!
//! Manual labels are the one irreplaceable (and billable) resource in the
//! whole framework, and [`SessionState::answered_log`] is a complete
//! checkpoint: the same configuration, workload and warm start plus the log
//! replay to the same outcome. This module persists exactly those inputs,
//! append-only, written to the operating system *before* the labels are
//! replayed — so a process killed at any instant never re-buys a label.
//!
//! Fsyncs are group-committed ([`write_ahead_step`]): the log is fsynced
//! once per label round, before any replay that can emit a new batch or
//! complete, not after every step. The guarantee is exact:
//!
//! - process death (a crash, `SIGKILL`) loses nothing;
//! - an OS crash or a power loss loses at most the labels absorbed since
//!   the last completed round — part of the one outstanding batch — and a
//!   resume asks for them again;
//! - no label and no outcome is ever wrong.
//!
//! `SessionBegin` and `Commit` records are durable when the call that
//! writes them returns.
//!
//! # The `HAL1` byte format
//!
//! Like its siblings `HSG1`/`HPG2` (see [`er_core::spill`]), `HAL1` is a
//! hand-rolled, documented, little-endian format with FNV-1a checksums — no
//! serde in the offline build environment. Unlike them it is an *append log*,
//! not a chunk store: records are discovered by scanning, and a file whose
//! last append was torn by a crash is readable up to the last complete frame.
//!
//! ```text
//! magic   4 bytes  "HAL1"
//! frame   ×        one per record, concatenated:
//!   body_len    u32   length of `body`
//!   head_check  u32   low 32 bits of FNV-1a over the 4 `body_len` bytes
//!   body        body_len bytes = payload ++ FNV-1a-64(payload)
//! ```
//!
//! (the frame layer is [`er_core::codec::frame`] / [`er_core::codec::FrameScan`]).
//! A torn tail — the file ends mid-frame — truncates cleanly on recovery;
//! corruption *inside* a complete frame (header check or body checksum
//! mismatch) is a [`HumoError::Wal`], never a panic or a silently wrong
//! label. Each payload is a tagged record:
//!
//! ```text
//! kind    u8
//! 0 = SessionBegin:
//!     workload_len  u64     sanity check against the resuming workload
//!     config        …       SessionConfig (below)
//!     has_warm      u8      1 ⇒ followed by a WarmStart
//! 1 = Labels:
//!     count         u32
//!     entry         count × { pair_id u64, label u8 (1 = match, 0 = unmatch) }
//! 2 = Commit:
//!     has_warm      u8      1 ⇒ followed by the WarmStart for the next epoch
//! ```
//!
//! `SessionConfig` is a tagged union (`0` BASE, `1` ALL, `2` SAMP, `3` HYBR,
//! `4` all-human) of the plain config structs; every `f64` is stored as
//! `f64::to_bits`, every `usize` widened to `u64`, every `bool`/enum as one
//! byte, making round trips bit-exact. The SAMP config (HYBR's too, ahead of
//! its `estimation_units`) carries one reserved byte between its tail
//! calibration and its seed. It is written as 0. Older logs stored a GP
//! refit-strategy tag there whose two values, 0 and 1, replay to the same
//! outcome, so a reader accepts both and refuses any other value. A
//! `WarmStart` is its observation list (`count u32`, then `{ similarity
//! u64-bits, sample_size u64, positives u64 }` each) plus the optional human
//! interval (`has u8`, two `f64`-bits). A payload with bytes left over after
//! its record is corrupt.
//!
//! # Log grammar
//!
//! A well-formed log is `SessionBegin (Labels)* (Commit)?`, repeated — one
//! group per epoch when an engine logs several sessions into one file (see
//! `er_pipeline::ResolutionEngine::attach_wal`). Only the last epoch may lack
//! its `Commit`. [`WalWriter`] does not enforce the grammar (it appends what
//! it is told). One reader does: [`WalRecovery::epochs`] folds the records
//! into [`WalEpoch`]s and rejects any log that breaks the grammar, and every
//! resume ([`DurableSession::resume`], `er_pipeline::ResolutionEngine::resume`)
//! reads the log through it.

use crate::sampling::{
    AllSamplingConfig, PartialSamplingConfig, PriorObservation, ShortfallBaseline, TailCalibration,
    WarmStart,
};
use crate::session::{LabelResponse, LabelingSession, SessionState, Step};
use crate::{
    BaselineConfig, HumoError, HybridConfig, InitialBoundary, QualityRequirement, Result,
    SessionConfig,
};
use er_core::codec::{frame, ByteReader, ByteWriter, FrameScan};
use er_core::workload::{Label, PairId, Workload};
use er_obs::ObsHandle;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The 4-byte magic that opens every `HAL1` file.
pub const HAL1_MAGIC: &[u8; 4] = b"HAL1";

fn wal_err(context: &str, e: impl std::fmt::Display) -> HumoError {
    HumoError::Wal(format!("{context}: {e}"))
}

/// One record of a `HAL1` write-ahead label log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A session started: its full configuration, the workload size it ran
    /// over (a cheap wrong-workload guard on resume) and its warm start.
    SessionBegin {
        /// `workload.len()` of the session's workload.
        workload_len: u64,
        /// The optimizer configuration the session runs.
        config: SessionConfig,
        /// The warm start the session was seeded with, if any.
        warm: Option<WarmStart>,
    },
    /// A batch of newly absorbed answered labels, in answered-log order.
    Labels(Vec<LabelResponse>),
    /// The session completed; carries the warm start it produced for the
    /// next epoch, if any.
    Commit {
        /// Warm-start state handed to the next epoch.
        warm: Option<WarmStart>,
    },
}

const KIND_SESSION_BEGIN: u8 = 0;
const KIND_LABELS: u8 = 1;
const KIND_COMMIT: u8 = 2;

fn put_f64(w: &mut ByteWriter, v: f64) {
    w.put_u64(v.to_bits());
}

fn take_f64(r: &mut ByteReader<'_>) -> Result<f64> {
    Ok(f64::from_bits(r.take_u64().map_err(|e| wal_err("decode f64", e))?))
}

fn take_u8(r: &mut ByteReader<'_>) -> Result<u8> {
    r.take_u8().map_err(|e| wal_err("decode u8", e))
}

fn take_u32(r: &mut ByteReader<'_>) -> Result<u32> {
    r.take_u32().map_err(|e| wal_err("decode u32", e))
}

fn take_u64(r: &mut ByteReader<'_>) -> Result<u64> {
    r.take_u64().map_err(|e| wal_err("decode u64", e))
}

fn take_usize(r: &mut ByteReader<'_>) -> Result<usize> {
    usize::try_from(take_u64(r)?).map_err(|e| wal_err("usize overflow", e))
}

fn take_bool(r: &mut ByteReader<'_>) -> Result<bool> {
    match take_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(HumoError::Wal(format!("invalid boolean byte {v:#x}"))),
    }
}

fn put_requirement(w: &mut ByteWriter, req: &QualityRequirement) {
    put_f64(w, req.precision());
    put_f64(w, req.recall());
    put_f64(w, req.confidence());
}

fn take_requirement(r: &mut ByteReader<'_>) -> Result<QualityRequirement> {
    let precision = take_f64(r)?;
    let recall = take_f64(r)?;
    let confidence = take_f64(r)?;
    QualityRequirement::new(precision, recall, confidence)
        .map_err(|e| wal_err("decoded requirement is invalid", e))
}

fn put_tail_calibration(w: &mut ByteWriter, tc: &TailCalibration) {
    w.put_u8(tc.enabled as u8);
    put_f64(w, tc.distance_strength);
    w.put_u8(tc.calibrate_lower as u8);
    w.put_u8(match tc.shortfall_baseline {
        ShortfallBaseline::Estimate => 0,
        ShortfallBaseline::UpperBound => 1,
    });
    put_f64(w, tc.quiet_fraction);
}

fn take_tail_calibration(r: &mut ByteReader<'_>) -> Result<TailCalibration> {
    let enabled = take_bool(r)?;
    let distance_strength = take_f64(r)?;
    let calibrate_lower = take_bool(r)?;
    let shortfall_baseline = match take_u8(r)? {
        0 => ShortfallBaseline::Estimate,
        1 => ShortfallBaseline::UpperBound,
        v => return Err(HumoError::Wal(format!("invalid shortfall-baseline tag {v:#x}"))),
    };
    let quiet_fraction = take_f64(r)?;
    Ok(TailCalibration {
        enabled,
        distance_strength,
        calibrate_lower,
        shortfall_baseline,
        quiet_fraction,
    })
}

fn put_partial_sampling(w: &mut ByteWriter, cfg: &PartialSamplingConfig) {
    put_requirement(w, &cfg.requirement);
    w.put_u64(cfg.unit_size as u64);
    w.put_u64(cfg.samples_per_subset as u64);
    put_f64(w, cfg.sampling_range.0);
    put_f64(w, cfg.sampling_range.1);
    put_f64(w, cfg.gp_error_threshold);
    w.put_u8(cfg.conservative_noise as u8);
    put_tail_calibration(w, &cfg.tail_calibration);
    w.put_u8(0); // reserved
    w.put_u64(cfg.seed);
}

fn take_partial_sampling(r: &mut ByteReader<'_>) -> Result<PartialSamplingConfig> {
    let requirement = take_requirement(r)?;
    let unit_size = take_usize(r)?;
    let samples_per_subset = take_usize(r)?;
    let sampling_range = (take_f64(r)?, take_f64(r)?);
    let gp_error_threshold = take_f64(r)?;
    let conservative_noise = take_bool(r)?;
    let tail_calibration = take_tail_calibration(r)?;
    // Reserved: 0, or 1 in older logs (see the module docs).
    let reserved = take_u8(r)?;
    if reserved > 1 {
        return Err(HumoError::Wal(format!("invalid reserved byte {reserved:#x}")));
    }
    let seed = take_u64(r)?;
    Ok(PartialSamplingConfig {
        requirement,
        unit_size,
        samples_per_subset,
        sampling_range,
        gp_error_threshold,
        conservative_noise,
        tail_calibration,
        seed,
    })
}

fn put_session_config(w: &mut ByteWriter, config: &SessionConfig) {
    match config {
        SessionConfig::Baseline(cfg) => {
            w.put_u8(0);
            put_requirement(w, &cfg.requirement);
            w.put_u64(cfg.unit_size as u64);
            w.put_u64(cfg.estimation_units as u64);
            match cfg.initial_boundary {
                InitialBoundary::Similarity(v) => {
                    w.put_u8(0);
                    put_f64(w, v);
                }
                InitialBoundary::MedianIndex => w.put_u8(1),
                InitialBoundary::Index(i) => {
                    w.put_u8(2);
                    w.put_u64(i as u64);
                }
            }
        }
        SessionConfig::AllSampling(cfg) => {
            w.put_u8(1);
            put_requirement(w, &cfg.requirement);
            w.put_u64(cfg.unit_size as u64);
            w.put_u64(cfg.samples_per_subset as u64);
            put_tail_calibration(w, &cfg.tail_calibration);
            w.put_u64(cfg.seed);
        }
        SessionConfig::PartialSampling(cfg) => {
            w.put_u8(2);
            put_partial_sampling(w, cfg);
        }
        SessionConfig::Hybrid(cfg) => {
            w.put_u8(3);
            put_partial_sampling(w, &cfg.sampling);
            w.put_u64(cfg.estimation_units as u64);
        }
        SessionConfig::AllHuman => w.put_u8(4),
    }
}

fn take_session_config(r: &mut ByteReader<'_>) -> Result<SessionConfig> {
    match take_u8(r)? {
        0 => {
            let requirement = take_requirement(r)?;
            let unit_size = take_usize(r)?;
            let estimation_units = take_usize(r)?;
            let initial_boundary = match take_u8(r)? {
                0 => InitialBoundary::Similarity(take_f64(r)?),
                1 => InitialBoundary::MedianIndex,
                2 => InitialBoundary::Index(take_usize(r)?),
                v => return Err(HumoError::Wal(format!("invalid initial-boundary tag {v:#x}"))),
            };
            Ok(SessionConfig::Baseline(BaselineConfig {
                requirement,
                unit_size,
                estimation_units,
                initial_boundary,
            }))
        }
        1 => {
            let requirement = take_requirement(r)?;
            let unit_size = take_usize(r)?;
            let samples_per_subset = take_usize(r)?;
            let tail_calibration = take_tail_calibration(r)?;
            let seed = take_u64(r)?;
            Ok(SessionConfig::AllSampling(AllSamplingConfig {
                requirement,
                unit_size,
                samples_per_subset,
                tail_calibration,
                seed,
            }))
        }
        2 => Ok(SessionConfig::PartialSampling(take_partial_sampling(r)?)),
        3 => {
            let sampling = take_partial_sampling(r)?;
            let estimation_units = take_usize(r)?;
            Ok(SessionConfig::Hybrid(HybridConfig { sampling, estimation_units }))
        }
        4 => Ok(SessionConfig::AllHuman),
        v => Err(HumoError::Wal(format!("invalid session-config tag {v:#x}"))),
    }
}

fn put_warm_start(w: &mut ByteWriter, warm: &WarmStart) {
    w.put_u32(warm.observations.len() as u32);
    for obs in &warm.observations {
        put_f64(w, obs.similarity);
        w.put_u64(obs.sample_size as u64);
        w.put_u64(obs.positives as u64);
    }
    match warm.human_interval {
        Some((lo, hi)) => {
            w.put_u8(1);
            put_f64(w, lo);
            put_f64(w, hi);
        }
        None => w.put_u8(0),
    }
}

fn take_warm_start(r: &mut ByteReader<'_>) -> Result<WarmStart> {
    let count = take_u32(r)? as usize;
    let mut observations = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let similarity = take_f64(r)?;
        let sample_size = take_usize(r)?;
        let positives = take_usize(r)?;
        observations.push(PriorObservation { similarity, sample_size, positives });
    }
    let human_interval = if take_bool(r)? { Some((take_f64(r)?, take_f64(r)?)) } else { None };
    Ok(WarmStart { observations, human_interval })
}

fn put_opt_warm_start(w: &mut ByteWriter, warm: Option<&WarmStart>) {
    match warm {
        Some(warm) => {
            w.put_u8(1);
            put_warm_start(w, warm);
        }
        None => w.put_u8(0),
    }
}

fn take_opt_warm_start(r: &mut ByteReader<'_>) -> Result<Option<WarmStart>> {
    Ok(if take_bool(r)? { Some(take_warm_start(r)?) } else { None })
}

/// Encodes one record as a complete appendable frame (header + checksummed
/// body) — the exact bytes [`WalWriter::write`] writes.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64);
    match record {
        WalRecord::SessionBegin { workload_len, config, warm } => {
            w.put_u8(KIND_SESSION_BEGIN);
            w.put_u64(*workload_len);
            put_session_config(&mut w, config);
            put_opt_warm_start(&mut w, warm.as_ref());
        }
        WalRecord::Labels(responses) => {
            w.put_u8(KIND_LABELS);
            w.put_u32(responses.len() as u32);
            for response in responses {
                w.put_u64(response.pair_id.0);
                w.put_u8(response.label.is_match() as u8);
            }
        }
        WalRecord::Commit { warm } => {
            w.put_u8(KIND_COMMIT);
            put_opt_warm_start(&mut w, warm.as_ref());
        }
    }
    frame(&w.finish())
}

/// Decodes one frame's payload. A payload longer than its record is
/// [`HumoError::Wal`].
fn decode_record(r: &mut ByteReader<'_>) -> Result<WalRecord> {
    let record = match take_u8(r)? {
        KIND_SESSION_BEGIN => {
            let workload_len = take_u64(r)?;
            let config = take_session_config(r)?;
            let warm = take_opt_warm_start(r)?;
            WalRecord::SessionBegin { workload_len, config, warm }
        }
        KIND_LABELS => {
            let count = take_u32(r)? as usize;
            let mut responses = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                let pair_id = PairId(take_u64(r)?);
                let label = Label::from_bool(take_bool(r)?);
                responses.push(LabelResponse { pair_id, label });
            }
            WalRecord::Labels(responses)
        }
        KIND_COMMIT => WalRecord::Commit { warm: take_opt_warm_start(r)? },
        v => return Err(HumoError::Wal(format!("invalid record kind {v:#x}"))),
    };
    match r.remaining() {
        0 => Ok(record),
        n => Err(HumoError::Wal(format!("{n} unread payload bytes after a record"))),
    }
}

/// What reading a `HAL1` file (with recovery) produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecovery {
    /// Every complete, checksum-verified record, in append order.
    pub records: Vec<WalRecord>,
    /// Whether the file ended in an incomplete frame (a torn append).
    pub torn_tail: bool,
    /// The clean length of the log — past it lie only torn-tail bytes.
    /// Recovery truncates the file back to this offset before appending.
    pub valid_len: u64,
}

/// One epoch of a `HAL1` log: a `SessionBegin` record, the labels logged
/// after it and its `Commit`, if it got that far.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEpoch {
    /// `workload.len()` of the epoch's workload.
    pub workload_len: u64,
    /// The optimizer configuration the epoch's session ran.
    pub config: SessionConfig,
    /// The warm start the session was seeded with.
    pub warm: Option<WarmStart>,
    /// The epoch's answered log, in logged order.
    pub log: Vec<LabelResponse>,
    /// `Some` once the epoch committed, carrying the warm start it handed
    /// to the next epoch; `None` while it is in flight.
    pub commit: Option<Option<WarmStart>>,
}

impl WalRecovery {
    /// Folds the records into epochs under the log grammar
    /// `(SessionBegin (Labels)* Commit?)*`, in which only the last epoch may
    /// lack its commit. Labels or a commit outside a session, and a
    /// `SessionBegin` while an epoch is still open, are [`HumoError::Wal`].
    pub fn epochs(self) -> Result<Vec<WalEpoch>> {
        let mut epochs: Vec<WalEpoch> = Vec::new();
        for record in self.records {
            let open = epochs.last_mut().filter(|epoch| epoch.commit.is_none());
            match (record, open) {
                (WalRecord::SessionBegin { workload_len, config, warm }, None) => {
                    let log = Vec::new();
                    epochs.push(WalEpoch { workload_len, config, warm, log, commit: None });
                }
                (WalRecord::Labels(responses), Some(epoch)) => epoch.log.extend(responses),
                (WalRecord::Commit { warm }, Some(epoch)) => epoch.commit = Some(warm),
                (record, _) => {
                    let misplaced = match record {
                        WalRecord::SessionBegin { .. } => {
                            "opens a session before committing the previous one"
                        }
                        WalRecord::Labels(_) => "holds labels outside any session",
                        WalRecord::Commit { .. } => "holds a commit outside any session",
                    };
                    return Err(HumoError::Wal(format!("log {misplaced}")));
                }
            }
        }
        Ok(epochs)
    }
}

impl WalEpoch {
    /// Rebuilds the epoch's session over `workload` with its configuration,
    /// logged labels and warm start (see [`SessionState::resume`]). A
    /// workload of another length than the epoch's is [`HumoError::Wal`].
    pub fn resume(self, workload: &Workload) -> Result<SessionState> {
        if self.workload_len != workload.len() as u64 {
            return Err(HumoError::Wal(format!(
                "logged session ran over a {}-pair workload, got {} pairs \
                 — re-ingest the same batches first",
                self.workload_len,
                workload.len()
            )));
        }
        Ok(SessionState::resume(self.config, workload, &self.log)?.with_warm_start(self.warm))
    }
}

/// Decodes a full in-memory `HAL1` image (magic included), recovering from a
/// torn tail. Corruption inside a complete frame is an error.
pub fn decode_log(bytes: &[u8]) -> Result<WalRecovery> {
    if bytes.len() < HAL1_MAGIC.len() {
        // Even the magic was torn: an empty log.
        return Ok(WalRecovery { records: Vec::new(), torn_tail: !bytes.is_empty(), valid_len: 0 });
    }
    if &bytes[..HAL1_MAGIC.len()] != HAL1_MAGIC {
        return Err(HumoError::Wal(format!(
            "bad magic {:02x?} (expected {HAL1_MAGIC:02x?})",
            &bytes[..HAL1_MAGIC.len()]
        )));
    }
    let mut scan = FrameScan::new(&bytes[HAL1_MAGIC.len()..]);
    let mut records = Vec::new();
    loop {
        match scan.next_frame() {
            Ok(Some(mut reader)) => records.push(decode_record(&mut reader)?),
            Ok(None) => break,
            Err(e) => return Err(wal_err("corrupt frame", e)),
        }
    }
    Ok(WalRecovery {
        records,
        torn_tail: scan.torn_tail(),
        valid_len: (HAL1_MAGIC.len() + scan.consumed()) as u64,
    })
}

/// Reads a `HAL1` file with torn-tail recovery, without modifying it.
pub fn read_log(path: impl AsRef<Path>) -> Result<WalRecovery> {
    let bytes = std::fs::read(path.as_ref())
        .map_err(|e| wal_err(&format!("read {}", path.as_ref().display()), e))?;
    decode_log(&bytes)
}

/// An append-only `HAL1` writer with group commit.
///
/// [`WalWriter::write`] hands one complete frame to the operating system
/// with no buffering in the process, so a record survives process death as
/// soon as the call returns. [`WalWriter::sync`] fsyncs everything written
/// since the previous sync, so it survives an OS crash or a power loss too;
/// [`WalWriter::synced_len`] is the length known to be durable.
/// [`WalWriter::append`] is a write followed by a sync. [`write_ahead_step`]
/// decides when a session's log must sync.
///
/// The first failed write or sync poisons the writer: every later call
/// returns [`HumoError::Wal`] without touching the file. A failed write can
/// leave a partial frame at the tail, and a record appended after it would
/// be unreadable; after a failed fsync the kernel may have dropped the dirty
/// pages, so a later fsync that succeeds would claim durability falsely.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    appended: u64,
    /// Bytes handed to the operating system: the length of the log.
    written: u64,
    /// Bytes known to be durable: `written` as of the last sync.
    synced: u64,
    /// The failure that poisoned the writer, if any.
    poisoned: Option<String>,
}

impl WalWriter {
    /// Creates (truncating) a fresh log at `path` and durably writes the
    /// magic. On Unix the parent directory is fsynced too, so the new
    /// directory entry survives a power loss.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path).map_err(|e| wal_err("create wal", e))?;
        file.write_all(HAL1_MAGIC).map_err(|e| wal_err("write magic", e))?;
        file.sync_data().map_err(|e| wal_err("sync magic", e))?;
        #[cfg(unix)]
        sync_parent_dir(&path)?;
        let len = HAL1_MAGIC.len() as u64;
        Ok(Self { file, path, appended: 0, written: len, synced: len, poisoned: None })
    }

    /// Opens an existing log for appending, recovering its records first: a
    /// torn tail is truncated away so the next append starts at a clean frame
    /// boundary. Corruption inside a complete frame is an error.
    pub fn recover(path: impl AsRef<Path>) -> Result<(Self, WalRecovery)> {
        let path = path.as_ref().to_path_buf();
        let recovery = read_log(&path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| wal_err("open wal", e))?;
        file.set_len(recovery.valid_len).map_err(|e| wal_err("truncate torn tail", e))?;
        let mut len = recovery.valid_len;
        if len < HAL1_MAGIC.len() as u64 {
            // The magic itself was torn: rewrite it.
            file.write_all(HAL1_MAGIC).map_err(|e| wal_err("write magic", e))?;
            len = HAL1_MAGIC.len() as u64;
        } else {
            use std::io::Seek;
            file.seek(std::io::SeekFrom::End(0)).map_err(|e| wal_err("seek to tail", e))?;
        }
        file.sync_data().map_err(|e| wal_err("sync recovery", e))?;
        let writer = Self { file, path, appended: 0, written: len, synced: len, poisoned: None };
        Ok((writer, recovery))
    }

    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(cause) => Err(HumoError::Wal(format!(
                "{} refuses I/O after an earlier failure ({cause})",
                self.path.display()
            ))),
            None => Ok(()),
        }
    }

    fn poison(&mut self, err: HumoError) -> HumoError {
        self.poisoned = Some(err.to_string());
        err
    }

    /// Writes one record as a complete frame to the operating system — it
    /// survives process death on return, but not yet an OS crash. Returns
    /// the number of bytes written.
    pub fn write(&mut self, record: &WalRecord) -> Result<u64> {
        self.check_poisoned()?;
        let bytes = encode_record(record);
        if let Err(e) = self.file.write_all(&bytes) {
            return Err(self.poison(wal_err("write record", e)));
        }
        self.written += bytes.len() as u64;
        self.appended += 1;
        Ok(bytes.len() as u64)
    }

    /// Makes every record written so far durable with one fsync. Returns
    /// whether it fsynced: a log with nothing written since the last sync
    /// is left alone.
    pub fn sync(&mut self) -> Result<bool> {
        self.check_poisoned()?;
        if self.synced == self.written {
            return Ok(false);
        }
        if let Err(e) = self.file.sync_data() {
            return Err(self.poison(wal_err("sync records", e)));
        }
        self.synced = self.written;
        Ok(true)
    }

    /// Appends one record, written and fsynced — durable on return.
    /// Returns the number of bytes written.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let bytes = self.write(record)?;
        self.sync()?;
        Ok(bytes)
    }

    /// [`WalWriter::write`] inside a `resolve.wal_append` span, counting the
    /// record in `session.wal.appends`, `.bytes`, `.labels` and `.commits`.
    fn write_observed(&mut self, record: &WalRecord, obs: &ObsHandle) -> Result<()> {
        let _span = obs.span("resolve.wal_append");
        let bytes = self.write(record)?;
        obs.counter("session.wal.appends", 1);
        obs.counter("session.wal.bytes", bytes);
        match record {
            WalRecord::Labels(responses) => {
                obs.counter("session.wal.labels", responses.len() as u64)
            }
            WalRecord::Commit { .. } => obs.counter("session.wal.commits", 1),
            WalRecord::SessionBegin { .. } => {}
        }
        Ok(())
    }

    /// [`WalWriter::sync`] inside a `resolve.wal_sync` span, counting each
    /// fsync in `session.wal.syncs`. A log with nothing to sync emits
    /// nothing.
    fn sync_observed(&mut self, obs: &ObsHandle) -> Result<()> {
        self.check_poisoned()?;
        if self.synced == self.written {
            return Ok(());
        }
        let _span = obs.span("resolve.wal_sync");
        self.sync()?;
        obs.counter("session.wal.syncs", 1);
        Ok(())
    }

    /// [`WalWriter::append`] inside `resolve.wal_append` (the write) and
    /// `resolve.wal_sync` (the fsync) spans, counting the record in
    /// `session.wal.appends`, `.bytes`, `.labels` and `.commits` and the
    /// fsync in `session.wal.syncs`.
    pub fn append_observed(&mut self, record: &WalRecord, obs: &ObsHandle) -> Result<()> {
        self.write_observed(record, obs)?;
        self.sync_observed(obs)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this writer (not counting recovered ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The length of the log's prefix known to be durable, in bytes: what an
    /// OS crash or a power loss leaves at least. Past it lie records written
    /// since the last sync, which only survive process death.
    pub fn synced_len(&self) -> u64 {
        self.synced
    }
}

/// Fsyncs the directory holding `path`, so a newly created entry in it is
/// durable.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir).and_then(|dir| dir.sync_all()).map_err(|e| wal_err("sync wal directory", e))
}

/// One step of a session under the write-ahead rule — the rule both
/// [`DurableSession::step`] and `er_pipeline::ResolutionSession::step` run.
///
/// It absorbs `responses`, writes the newly logged tail to `wal` as one
/// `Labels` record, and then polls. It fsyncs before the poll only when the
/// outstanding batch has no missing pair left, since only then can the poll
/// emit a new batch or complete. A step that leaves the batch partly
/// answered re-emits the rest of it, whatever the new labels say, so its
/// output depends on no unsynced label; its records still reach the
/// operating system before it returns. The log is therefore fsynced about
/// once per label round, not once per step.
///
/// Process death loses nothing. An OS crash or a power loss loses at most
/// the labels absorbed since the last completed round: the batch that was
/// outstanding, which a resume asks for again. No label and no outcome is
/// ever wrong. Without a `wal` this is exactly [`SessionState::step`].
pub fn write_ahead_step(
    state: &mut SessionState,
    workload: &Workload,
    responses: &[LabelResponse],
    wal: Option<&mut WalWriter>,
) -> Result<Step> {
    let absorbed = state.absorb_responses(responses)?;
    if let Some(wal) = wal {
        if !absorbed.is_empty() {
            wal.write_observed(&WalRecord::Labels(absorbed.to_vec()), workload.obs())?;
        }
        if state.pending().is_empty() {
            wal.sync_observed(workload.obs())?;
        }
    }
    state.poll(workload)
}

/// A [`LabelingSession`] whose answered log is written ahead to a `HAL1`
/// file: every absorbed response batch reaches the log *before* it is
/// replayed, and [`DurableSession::resume`] rebuilds the session —
/// mid-flight or completed — from the file alone (plus the workload).
///
/// The log is fsynced once per label round (see [`write_ahead_step`]).
/// Process death loses nothing; an OS crash or a power loss loses at most
/// the labels absorbed since the last completed round, which the resumed
/// session asks for again. No label and no outcome is ever wrong.
///
/// ```no_run
/// use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
/// use humo::wal::DurableSession;
/// use humo::{OptimizerKind, QualityRequirement, SessionConfig, Step};
///
/// let workload = SyntheticGenerator::new(SyntheticConfig::new(8_000, 14.0, 0.1)).generate();
/// let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
/// let config = SessionConfig::for_kind(OptimizerKind::Hybrid, requirement);
///
/// let mut session = DurableSession::create(config, &workload, "epoch.hal1").unwrap();
/// // … drive it, crash at any point, then in a new process:
/// let mut resumed = DurableSession::resume(&workload, "epoch.hal1").unwrap();
/// let step = resumed.step(&[]).unwrap(); // picks up exactly where the log ends
/// ```
#[derive(Debug)]
pub struct DurableSession<'w> {
    session: LabelingSession<'w>,
    wal: WalWriter,
    committed: bool,
}

impl<'w> DurableSession<'w> {
    /// Creates a fresh durable session, writing the `SessionBegin` record.
    pub fn create(
        config: SessionConfig,
        workload: &'w Workload,
        path: impl AsRef<Path>,
    ) -> Result<Self> {
        Self::create_with_warm_start(config, workload, None, path)
    }

    /// Creates a fresh warm-started durable session; the warm start is
    /// persisted in the `SessionBegin` record so resume re-seeds it
    /// automatically.
    pub fn create_with_warm_start(
        config: SessionConfig,
        workload: &'w Workload,
        warm: Option<WarmStart>,
        path: impl AsRef<Path>,
    ) -> Result<Self> {
        let state = SessionState::new(config, workload)?.with_warm_start(warm.clone());
        let session = LabelingSession::from_state(state, workload);
        let mut wal = WalWriter::create(path)?;
        let begin = WalRecord::SessionBegin { workload_len: workload.len() as u64, config, warm };
        wal.append_observed(&begin, workload.obs())?;
        Ok(Self { session, wal, committed: false })
    }

    /// Rebuilds a session from its log: the `SessionBegin` record supplies
    /// the configuration and warm start, the `Labels` records replay the
    /// answered log, and a torn tail is truncated away. The file must hold
    /// exactly one epoch (see [`WalRecovery::epochs`]); engines multiplexing
    /// epochs use `er_pipeline::ResolutionEngine::resume`.
    pub fn resume(workload: &'w Workload, path: impl AsRef<Path>) -> Result<Self> {
        let (wal, recovery) = WalWriter::recover(path)?;
        let [epoch] = <[WalEpoch; 1]>::try_from(recovery.epochs()?).map_err(|epochs| {
            HumoError::Wal(format!("log holds {} sessions, expected one", epochs.len()))
        })?;
        let committed = epoch.commit.is_some();
        let session = LabelingSession::from_state(epoch.resume(workload)?, workload);
        Ok(Self { session, wal, committed })
    }

    /// Advances the session under the write-ahead rule of
    /// [`write_ahead_step`]: the newly absorbed responses reach the log
    /// before the replay consumes them, and the log is fsynced before any
    /// poll that can open a new round or complete. Completion appends the
    /// `Commit` record, durable on return. Exactly [`LabelingSession::step`]
    /// semantics otherwise.
    ///
    /// Process death at any point loses nothing. An OS crash or a power loss
    /// loses at most the labels absorbed since the last completed round;
    /// [`DurableSession::resume`] asks for them again. The `session.wal.*`
    /// counters and the `resolve.wal_append`/`resolve.wal_sync` spans go to
    /// the workload's recorder.
    pub fn step(&mut self, responses: &[LabelResponse]) -> Result<Step> {
        let workload = self.session.workload();
        let step =
            write_ahead_step(self.session.state_mut(), workload, responses, Some(&mut self.wal))?;
        if let Step::Done(_) = &step {
            if !self.committed {
                let warm = self.session.next_warm_start().cloned();
                self.wal.append_observed(&WalRecord::Commit { warm }, workload.obs())?;
                self.committed = true;
            }
        }
        Ok(step)
    }

    /// The wrapped session, for inspection.
    pub fn session(&self) -> &LabelingSession<'w> {
        &self.session
    }

    /// The underlying log writer.
    pub fn wal(&self) -> &WalWriter {
        &self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptimizerKind;
    use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn workload(n: usize) -> Workload {
        SyntheticGenerator::new(SyntheticConfig {
            num_pairs: n,
            tau: 14.0,
            sigma: 0.1,
            subset_size: 200,
            seed: 7,
        })
        .generate()
    }

    /// A path unique per call: PID plus a per-process counter, so tests on
    /// parallel threads never share a log.
    fn temp_path(name: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(".humo-wal-test-{}-{n}-{name}", std::process::id()))
    }

    fn sample_configs() -> Vec<SessionConfig> {
        let requirement = QualityRequirement::new(0.9, 0.85, 0.92).unwrap();
        let mut configs: Vec<SessionConfig> = OptimizerKind::all()
            .iter()
            .map(|&kind| SessionConfig::for_kind(kind, requirement))
            .collect();
        configs.push(SessionConfig::AllHuman);
        // Non-default corners: an explicit boundary index, conservative noise.
        configs.push(SessionConfig::Baseline(BaselineConfig {
            requirement,
            unit_size: 37,
            estimation_units: 2,
            initial_boundary: InitialBoundary::Index(11),
        }));
        let mut samp = PartialSamplingConfig::new(requirement);
        samp.conservative_noise = true;
        samp.tail_calibration.shortfall_baseline = ShortfallBaseline::UpperBound;
        configs.push(SessionConfig::PartialSampling(samp));
        configs
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let warm = WarmStart {
            observations: vec![
                PriorObservation { similarity: 0.25, sample_size: 100, positives: 3 },
                PriorObservation { similarity: 0.75, sample_size: 100, positives: 97 },
            ],
            human_interval: Some((0.4, 0.6)),
        };
        let mut records: Vec<WalRecord> = sample_configs()
            .into_iter()
            .enumerate()
            .map(|(i, config)| WalRecord::SessionBegin {
                workload_len: 1000 + i as u64,
                config,
                warm: if i % 2 == 0 { Some(warm.clone()) } else { None },
            })
            .collect();
        records.push(WalRecord::Labels(vec![
            LabelResponse { pair_id: PairId(0), label: Label::Match },
            LabelResponse { pair_id: PairId(u64::MAX - 1), label: Label::Unmatch },
        ]));
        records.push(WalRecord::Labels(Vec::new()));
        records.push(WalRecord::Commit { warm: Some(warm) });
        records.push(WalRecord::Commit { warm: None });

        let mut image = HAL1_MAGIC.to_vec();
        for record in &records {
            image.extend_from_slice(&encode_record(record));
        }
        let recovery = decode_log(&image).unwrap();
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.valid_len, image.len() as u64);
        assert_eq!(recovery.records, records);
    }

    #[test]
    fn wal_writer_appends_and_recovers() {
        let path = temp_path("append");
        let mut writer = WalWriter::create(&path).unwrap();
        let begin = WalRecord::SessionBegin {
            workload_len: 5,
            config: SessionConfig::AllHuman,
            warm: None,
        };
        let labels =
            WalRecord::Labels(vec![LabelResponse { pair_id: PairId(3), label: Label::Match }]);
        writer.append(&begin).unwrap();
        writer.append(&labels).unwrap();
        drop(writer);

        // Clean recovery sees both records and appends cleanly after them.
        let (mut writer, recovery) = WalWriter::recover(&path).unwrap();
        assert_eq!(recovery.records, vec![begin.clone(), labels.clone()]);
        assert!(!recovery.torn_tail);
        writer.append(&WalRecord::Commit { warm: None }).unwrap();
        drop(writer);
        let recovery = read_log(&path).unwrap();
        assert_eq!(recovery.records.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writes_defer_durability_until_sync() {
        let path = temp_path("group");
        let mut writer = WalWriter::create(&path).unwrap();
        let magic = HAL1_MAGIC.len() as u64;
        assert_eq!(writer.synced_len(), magic);
        // Nothing written since the magic was synced: no fsync to make.
        assert!(!writer.sync().unwrap());
        let labels =
            WalRecord::Labels(vec![LabelResponse { pair_id: PairId(3), label: Label::Match }]);
        let first = writer.write(&labels).unwrap();
        let second = writer.write(&labels).unwrap();
        // Written records are in the file (they survive process death) but
        // not yet counted as durable.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), magic + first + second);
        assert_eq!(writer.synced_len(), magic);
        assert!(writer.sync().unwrap());
        assert_eq!(writer.synced_len(), magic + first + second);
        assert!(!writer.sync().unwrap());
        let commit = writer.append(&WalRecord::Commit { warm: None }).unwrap();
        assert_eq!(writer.synced_len(), magic + first + second + commit);
        assert_eq!(writer.appended(), 3);
        drop(writer);

        let (writer, recovery) = WalWriter::recover(&path).unwrap();
        assert_eq!(writer.synced_len(), recovery.valid_len);
        assert_eq!(recovery.records.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    /// A failed write poisons the writer: a later sync must not claim
    /// durability, and a later write must not land after a partial frame.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_write_poisons_the_writer() {
        let path = PathBuf::from("/dev/full");
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        let mut writer =
            WalWriter { file, path, appended: 0, written: 0, synced: 0, poisoned: None };
        let record = WalRecord::Commit { warm: None };
        let first = writer.write(&record).unwrap_err().to_string();
        assert!(first.contains("os error 28"), "expected ENOSPC, got {first}");
        assert!(matches!(writer.sync(), Err(HumoError::Wal(_))));
        assert!(matches!(writer.write(&record), Err(HumoError::Wal(_))));
        assert!(matches!(writer.append(&record), Err(HumoError::Wal(_))));
        let obs = ObsHandle::default();
        assert!(matches!(writer.sync_observed(&obs), Err(HumoError::Wal(_))));
        assert_eq!((writer.appended(), writer.synced_len()), (0, 0));
    }

    #[test]
    fn torn_tails_truncate_cleanly_on_recovery() {
        let path = temp_path("torn");
        let mut writer = WalWriter::create(&path).unwrap();
        let begin = WalRecord::SessionBegin {
            workload_len: 5,
            config: SessionConfig::AllHuman,
            warm: None,
        };
        writer.append(&begin).unwrap();
        drop(writer);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a torn append: half a labels record.
        let torn = encode_record(&WalRecord::Labels(vec![LabelResponse {
            pair_id: PairId(1),
            label: Label::Unmatch,
        }]));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut writer, recovery) = WalWriter::recover(&path).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.valid_len, clean_len);
        assert_eq!(recovery.records, vec![begin]);
        // The file is physically truncated and the next append reads back.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        writer.append(&WalRecord::Commit { warm: None }).unwrap();
        drop(writer);
        let recovery = read_log(&path).unwrap();
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    /// Frames `payload` the way [`encode_record`] frames a record.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(payload.len());
        w.put_bytes(payload);
        frame(&w.finish())
    }

    /// The payload of one [`encode_record`] frame: no header, no checksum.
    fn payload_of(record: &WalRecord) -> Vec<u8> {
        let frame = encode_record(record);
        frame[er_core::codec::FRAME_HEADER_LEN..frame.len() - 8].to_vec()
    }

    #[test]
    fn a_payload_longer_than_its_record_is_corrupt() {
        let mut payload = payload_of(&WalRecord::Commit { warm: None });
        let mut image = HAL1_MAGIC.to_vec();
        image.extend_from_slice(&framed(&payload));
        assert_eq!(decode_log(&image).unwrap().records, vec![WalRecord::Commit { warm: None }]);

        payload.push(0);
        let mut image = HAL1_MAGIC.to_vec();
        image.extend_from_slice(&framed(&payload));
        match decode_log(&image) {
            Err(HumoError::Wal(message)) => {
                assert_eq!(message, "1 unread payload bytes after a record")
            }
            other => panic!("a payload with a trailing byte decoded: {other:?}"),
        }
    }

    #[test]
    fn the_reserved_byte_reads_old_refit_tags() {
        let w = workload(4_000);
        let requirement = QualityRequirement::new(0.85, 0.85, 0.9).unwrap();
        let config = SessionConfig::for_kind(OptimizerKind::PartialSampling, requirement);
        let path = temp_path("reserved");
        let mut session = DurableSession::create(config, &w, &path).unwrap();
        let mut oracle = crate::GroundTruthOracle::new();
        let mut responses = Vec::new();
        let expected = loop {
            match session.step(&responses).unwrap() {
                Step::Done(outcome) => break outcome,
                Step::NeedLabels(requests) => {
                    responses = crate::answer_requests(&w, &requests, &mut oracle)
                }
            }
        };
        drop(session);

        // Rewrite the log's `SessionBegin` with each value of the reserved
        // byte: the one before the 8-byte seed and the 1-byte `has_warm`.
        let log = std::fs::read(&path).unwrap();
        let begin = WalRecord::SessionBegin { workload_len: w.len() as u64, config, warm: None };
        let begin_frame = encode_record(&begin);
        assert!(log[HAL1_MAGIC.len()..].starts_with(&begin_frame));
        let rest = &log[HAL1_MAGIC.len() + begin_frame.len()..];
        for (tag, outcome) in [(0, Ok(())), (1, Ok(())), (2, Err("invalid reserved byte 0x2"))] {
            let mut payload = payload_of(&begin);
            let reserved = payload.len() - 10;
            assert_eq!(payload[reserved], 0, "the writer writes the reserved byte as 0");
            payload[reserved] = tag;
            let mut image = HAL1_MAGIC.to_vec();
            image.extend_from_slice(&framed(&payload));
            image.extend_from_slice(rest);
            std::fs::write(&path, &image).unwrap();
            match (DurableSession::resume(&w, &path), outcome) {
                (Ok(mut resumed), Ok(())) => {
                    let Step::Done(again) = resumed.step(&[]).unwrap() else {
                        panic!("tag {tag}: a completed log resumed unfinished")
                    };
                    assert_eq!(again.solution, expected.solution, "tag {tag}");
                    assert_eq!(again.assignment, expected.assignment, "tag {tag}");
                    assert_eq!(again.total_human_cost, expected.total_human_cost, "tag {tag}");
                }
                (Err(HumoError::Wal(message)), Err(expected)) => assert_eq!(message, expected),
                (other, _) => panic!("tag {tag} resumed to {:?}", other.map(|_| ())),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_epoch_fold_enforces_the_log_grammar() {
        let begin = |workload_len| WalRecord::SessionBegin {
            workload_len,
            config: SessionConfig::AllHuman,
            warm: None,
        };
        let labels = |id| {
            WalRecord::Labels(vec![LabelResponse { pair_id: PairId(id), label: Label::Match }])
        };
        let commit = || WalRecord::Commit { warm: None };
        let cases: Vec<(Vec<WalRecord>, &str)> = vec![
            (vec![labels(1)], "log holds labels outside any session"),
            (vec![begin(5), commit(), labels(1)], "log holds labels outside any session"),
            (vec![commit()], "log holds a commit outside any session"),
            (vec![begin(5), commit(), commit()], "log holds a commit outside any session"),
            (
                vec![begin(5), labels(1), begin(5)],
                "log opens a session before committing the previous one",
            ),
        ];
        for (records, expected) in cases {
            let recovery = WalRecovery { records: records.clone(), torn_tail: false, valid_len: 0 };
            match recovery.epochs() {
                Err(HumoError::Wal(message)) => assert_eq!(message, expected, "{records:?}"),
                other => panic!("{records:?} folded to {other:?}"),
            }
        }
        // A well-formed log: a committed epoch, then one still in flight.
        let records = vec![begin(5), labels(1), labels(2), commit(), begin(6), labels(3)];
        let epochs = WalRecovery { records, torn_tail: false, valid_len: 0 }.epochs().unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(
            (epochs[0].workload_len, epochs[0].log.len(), epochs[0].commit.clone()),
            (5, 2, Some(None))
        );
        assert_eq!(
            (epochs[1].workload_len, epochs[1].log.len(), epochs[1].commit.clone()),
            (6, 1, None)
        );

        // A durable session owns exactly one epoch: a two-epoch log is refused.
        let w = workload(400);
        let path = temp_path("two-epochs");
        let mut writer = WalWriter::create(&path).unwrap();
        for record in [begin(w.len() as u64), commit(), begin(w.len() as u64)] {
            writer.append(&record).unwrap();
        }
        drop(writer);
        match DurableSession::resume(&w, &path) {
            Err(HumoError::Wal(message)) => {
                assert_eq!(message, "log holds 2 sessions, expected one")
            }
            other => panic!("a two-epoch log resumed: {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_session_survives_arbitrary_kill_points() {
        let w = workload(4_000);
        let requirement = QualityRequirement::new(0.85, 0.85, 0.9).unwrap();
        let config = SessionConfig::for_kind(OptimizerKind::PartialSampling, requirement);
        let path = temp_path("durable");

        // Reference: an uninterrupted durable run.
        let mut reference = DurableSession::create(config, &w, &path).unwrap();
        let mut responses = Vec::new();
        let reference_outcome = loop {
            match reference.step(&responses).unwrap() {
                Step::Done(outcome) => break outcome,
                Step::NeedLabels(requests) => {
                    responses = requests
                        .iter()
                        .map(|req| LabelResponse {
                            pair_id: req.pair_id,
                            label: w.pair(req.index).ground_truth(),
                        })
                        .collect();
                }
            }
        };
        let reference_log = reference.session().answered_log().to_vec();
        drop(reference);

        // "Kill" after 2 steps: drop the session object without any shutdown
        // path, then resume purely from the file.
        let mut session = DurableSession::create(config, &w, &path).unwrap();
        let mut responses = Vec::new();
        for _ in 0..2 {
            match session.step(&responses).unwrap() {
                Step::Done(_) => break,
                Step::NeedLabels(requests) => {
                    responses = requests
                        .iter()
                        .map(|req| LabelResponse {
                            pair_id: req.pair_id,
                            label: w.pair(req.index).ground_truth(),
                        })
                        .collect();
                }
            }
        }
        drop(session);

        let mut resumed = DurableSession::resume(&w, &path).unwrap();
        let mut responses = Vec::new();
        let outcome = loop {
            match resumed.step(&responses).unwrap() {
                Step::Done(outcome) => break outcome,
                Step::NeedLabels(requests) => {
                    responses = requests
                        .iter()
                        .map(|req| LabelResponse {
                            pair_id: req.pair_id,
                            label: w.pair(req.index).ground_truth(),
                        })
                        .collect();
                }
            }
        };
        assert_eq!(outcome.solution, reference_outcome.solution);
        assert_eq!(outcome.assignment, reference_outcome.assignment);
        assert_eq!(outcome.total_human_cost, reference_outcome.total_human_cost);
        assert_eq!(resumed.session().answered_log(), &reference_log[..]);

        // Resuming the *completed* log returns the same outcome immediately.
        let mut done = DurableSession::resume(&w, &path).unwrap();
        let Step::Done(again) = done.step(&[]).unwrap() else { panic!("expected done") };
        assert_eq!(again.solution, reference_outcome.solution);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_validates_the_logged_configuration() {
        let w = workload(400);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let mut hybr = HybridConfig::new(requirement);
        hybr.sampling.tail_calibration.quiet_fraction = 0.7;
        for config in [
            SessionConfig::PartialSampling(PartialSamplingConfig {
                unit_size: 0,
                ..PartialSamplingConfig::new(requirement)
            }),
            SessionConfig::Hybrid(hybr),
        ] {
            // The codec writes and reads any configuration; only the session
            // built from it validates.
            let path = temp_path("invalid-config");
            let mut writer = WalWriter::create(&path).unwrap();
            let workload_len = w.len() as u64;
            writer.append(&WalRecord::SessionBegin { workload_len, config, warm: None }).unwrap();
            drop(writer);
            assert!(matches!(DurableSession::resume(&w, &path), Err(HumoError::InvalidConfig(_))));
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn resume_rejects_wrong_workloads_and_headerless_logs() {
        let w = workload(400);
        let other = workload(800);
        let path = temp_path("reject");
        let mut session = DurableSession::create(SessionConfig::AllHuman, &w, &path).unwrap();
        let _ = session.step(&[]).unwrap();
        drop(session);
        assert!(matches!(DurableSession::resume(&other, &path), Err(HumoError::Wal(_))));

        // A log that never wrote SessionBegin is rejected.
        let mut writer = WalWriter::create(&path).unwrap();
        writer.append(&WalRecord::Labels(Vec::new())).unwrap();
        drop(writer);
        assert!(matches!(DurableSession::resume(&w, &path), Err(HumoError::Wal(_))));
        std::fs::remove_file(&path).unwrap();
    }
}
