//! Versioned, checksummed tracker checkpoints on an append-only log.
//!
//! # Record format (DESIGN.md §16)
//!
//! Every record is self-framing and self-verifying:
//!
//! ```text
//! +------+---------+-------------+------------+-------------+
//! | MLCK | version | payload_len |  payload   |  checksum   |
//! | 4 B  | u32 LE  |   u64 LE    | len bytes  |   u64 LE    |
//! +------+---------+-------------+------------+-------------+
//! ```
//!
//! The checksum is FNV-1a over everything before it (magic, version,
//! length, payload) — the same hash family as the determinism digest,
//! so a single bit flip anywhere in the record is detected. Records
//! are appended; the log is never rewritten in place. Compaction
//! writes the surviving record to a temporary file and atomically
//! renames it over the log, so a crash mid-compaction leaves either
//! the old log or the new one, never a hybrid.
//!
//! # Recovery contract
//!
//! [`read_log`] scans records front to back and stops at the first
//! byte that fails verification: a torn tail (truncated header or
//! payload), a flipped bit (checksum mismatch), a foreign file (bad
//! magic), or a future version. What was rejected is *classified and
//! reported*, never silently accepted — the session resumes from the
//! last record that verified end to end.
//!
//! # Payload
//!
//! The payload is the complete [`CheckpointState`]: ingest/delivery
//! cursors, the reorder watermark and statistics, the live-update
//! database epoch the session was serving from, the tracker's
//! retained posterior (location ids plus raw IEEE-754 probability
//! bits), its degradation flags, and the parked out-of-order events.
//! Restoring it and replaying the arrival stream from the `ingested`
//! cursor is bit-identical to never having crashed (proof sketch in
//! DESIGN.md §16; enforced by the kill-matrix tests).

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use moloc_core::error::DegradationFlags;
use moloc_geometry::LocationId;

use crate::event::{take_u32, take_u64, ScanEvent};
use crate::reorder::ReorderStats;

/// Leading bytes of every checkpoint record.
pub const MAGIC: [u8; 4] = *b"MLCK";
/// Current record format version. Version 2 added the database epoch
/// (the live-update snapshot generation the session was serving from)
/// between the watermark and the reorder statistics.
pub const VERSION: u32 = 2;

const HEADER_LEN: usize = 4 + 4 + 8;
const CHECKSUM_LEN: usize = 8;
/// Upper bound on a single payload — anything larger is corruption,
/// not a checkpoint (guards recovery against allocating a bogus
/// multi-gigabyte length from a torn header).
const MAX_PAYLOAD: u64 = 64 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Why a record (and everything after it) was rejected during
/// recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Fewer bytes than a record header at the end of the log (torn
    /// header write).
    TruncatedHeader,
    /// The header promises more payload bytes than the file holds
    /// (torn payload write), or a length beyond the sanity bound.
    TruncatedPayload,
    /// The record does not start with `MLCK`.
    BadMagic,
    /// A version this build does not understand.
    BadVersion,
    /// The FNV-1a checksum does not match the record bytes (bit rot /
    /// targeted flip).
    ChecksumMismatch,
    /// Framing verified but the payload does not decode to a
    /// [`CheckpointState`] (e.g. a checksum-colliding mutation).
    Undecodable,
}

impl std::fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CorruptionKind::TruncatedHeader => "truncated-header",
            CorruptionKind::TruncatedPayload => "truncated-payload",
            CorruptionKind::BadMagic => "bad-magic",
            CorruptionKind::BadVersion => "bad-version",
            CorruptionKind::ChecksumMismatch => "checksum-mismatch",
            CorruptionKind::Undecodable => "undecodable-payload",
        };
        write!(f, "{name}")
    }
}

/// A checkpoint could not be serialized or persisted.
#[derive(Debug)]
pub enum CheckpointError {
    /// A variable-length field holds more entries than the record
    /// format's `u32` length prefix can carry. A format limit, not an
    /// I/O failure — previously this panicked inside `encode`.
    TooLarge {
        /// Which field overflowed (`"posterior"`, `"pending"`,
        /// `"scan"`).
        field: &'static str,
        /// The offending length.
        len: usize,
    },
    /// The underlying log I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::TooLarge { field, len } => {
                write!(f, "checkpoint field `{field}` has {len} entries, exceeding the u32 record format limit")
            }
            CheckpointError::Io(e) => write!(f, "checkpoint log I/O failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::TooLarge { .. } => None,
            CheckpointError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// What recovery found while scanning a checkpoint log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records that verified end to end (framing + checksum).
    pub valid_records: usize,
    /// Bytes covered by the valid prefix.
    pub valid_bytes: u64,
    /// The defect that terminated the scan, if any. Corruption is
    /// always surfaced here — never silently skipped.
    pub corruption: Option<CorruptionKind>,
    /// Valid-framing records whose payload nevertheless failed to
    /// decode (skipped in favor of an earlier record).
    pub undecodable_records: usize,
}

/// The complete streaming-session state captured by one checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// Arrival events consumed from the stream so far. Replay resumes
    /// from this cursor.
    pub ingested: u64,
    /// Events released to the tracker so far.
    pub delivered: u64,
    /// The reorder buffer's watermark.
    pub watermark: u64,
    /// The live-update database epoch the session was serving from
    /// (0 for sessions running over a static database). Recovery
    /// restores it so the resumed session reports — and the operator
    /// can audit — which snapshot generation produced its estimates.
    pub epoch: u64,
    /// Reorder statistics at checkpoint time.
    pub stats: ReorderStats,
    /// Whether the tracker held a retained posterior.
    pub has_previous: bool,
    /// The tracker's degradation flags from its last estimate.
    pub flags: DegradationFlags,
    /// The retained posterior, exactly as `BatchLocalizer::posterior`
    /// returned it (empty when `has_previous` is false).
    pub posterior: Vec<(LocationId, f64)>,
    /// Out-of-order events parked in the reorder window.
    pub pending: Vec<ScanEvent>,
}

impl CheckpointState {
    /// Serializes the state into a record payload (little-endian,
    /// probabilities as raw IEEE-754 bits).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::TooLarge`] when a variable-length
    /// field exceeds the format's `u32` length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut out = Vec::with_capacity(
            8 * 4
                + 8 * 4
                + 2
                + 4
                + 12 * self.posterior.len()
                + 4
                + self
                    .pending
                    .iter()
                    .map(ScanEvent::encoded_len)
                    .sum::<usize>(),
        );
        out.extend_from_slice(&self.ingested.to_le_bytes());
        out.extend_from_slice(&self.delivered.to_le_bytes());
        out.extend_from_slice(&self.watermark.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.stats.delivered.to_le_bytes());
        out.extend_from_slice(&self.stats.duplicates_dropped.to_le_bytes());
        out.extend_from_slice(&self.stats.late_dropped.to_le_bytes());
        out.extend_from_slice(&self.stats.gaps_skipped.to_le_bytes());
        out.push(u8::from(self.has_previous));
        out.push(self.flags.bits());
        let plen = u32::try_from(self.posterior.len()).map_err(|_| CheckpointError::TooLarge {
            field: "posterior",
            len: self.posterior.len(),
        })?;
        out.extend_from_slice(&plen.to_le_bytes());
        for &(id, p) in &self.posterior {
            out.extend_from_slice(&id.get().to_le_bytes());
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        let elen = u32::try_from(self.pending.len()).map_err(|_| CheckpointError::TooLarge {
            field: "pending",
            len: self.pending.len(),
        })?;
        out.extend_from_slice(&elen.to_le_bytes());
        for event in &self.pending {
            event.encode_into(&mut out)?;
        }
        Ok(out)
    }

    /// Deserializes a record payload. `None` on any structural
    /// violation (short buffer, zero location id, a posterior
    /// probability that is NaN, infinite or negative, a parked event
    /// below the watermark or at `u64::MAX`, trailing garbage) —
    /// recovery treats that as
    /// [`CorruptionKind::Undecodable`].
    pub fn decode(bytes: &[u8]) -> Option<CheckpointState> {
        let mut pos = 0;
        let ingested = take_u64(bytes, &mut pos)?;
        let delivered = take_u64(bytes, &mut pos)?;
        let watermark = take_u64(bytes, &mut pos)?;
        let epoch = take_u64(bytes, &mut pos)?;
        let stats = ReorderStats {
            delivered: take_u64(bytes, &mut pos)?,
            duplicates_dropped: take_u64(bytes, &mut pos)?,
            late_dropped: take_u64(bytes, &mut pos)?,
            gaps_skipped: take_u64(bytes, &mut pos)?,
        };
        let has_previous = match *bytes.get(pos)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        pos += 1;
        let flags = DegradationFlags::from_bits(*bytes.get(pos)?);
        pos += 1;
        let plen = take_u32(bytes, &mut pos)? as usize;
        if bytes.len().saturating_sub(pos) < 12 * plen {
            return None;
        }
        // Clamp the preallocation like the `pending` path below: `plen`
        // is a corruption-controlled u32, and although the length guard
        // above bounds it by the record size today, the allocation must
        // not depend on that coupling staying intact.
        let mut posterior = Vec::with_capacity(plen.min(1024));
        for _ in 0..plen {
            let raw = take_u32(bytes, &mut pos)?;
            if raw == 0 {
                return None; // LocationId is 1-based; 0 is corruption.
            }
            let p = f64::from_bits(take_u64(bytes, &mut pos)?);
            if !(p.is_finite() && p >= 0.0) {
                return None; // restore would seed Eq. 7 with a poisoned prior.
            }
            posterior.push((LocationId::new(raw), p));
        }
        if has_previous == posterior.is_empty() {
            return None;
        }
        let elen = take_u32(bytes, &mut pos)? as usize;
        let mut pending = Vec::with_capacity(elen.min(1024));
        for _ in 0..elen {
            let event = ScanEvent::decode_from(bytes, &mut pos)?;
            if event.seq < watermark || event.seq == u64::MAX {
                // Parked events are always ahead of the watermark, and
                // the reorder buffer never parks the last sequence number.
                return None;
            }
            pending.push(event);
        }
        if pos != bytes.len() {
            return None; // trailing garbage inside a framed payload.
        }
        Some(CheckpointState {
            ingested,
            delivered,
            watermark,
            epoch,
            stats,
            has_previous,
            flags,
            posterior,
            pending,
        })
    }
}

/// Frames a payload into a complete record (header + checksum).
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    record.extend_from_slice(&MAGIC);
    record.extend_from_slice(&VERSION.to_le_bytes());
    record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    record.extend_from_slice(payload);
    let checksum = fnv1a(&record);
    record.extend_from_slice(&checksum.to_le_bytes());
    record
}

/// Scans a record stream front to back, returning every payload that
/// verified and a report describing where (and why) the scan stopped.
pub fn scan_records(bytes: &[u8]) -> (Vec<Vec<u8>>, RecoveryReport) {
    let mut payloads = Vec::new();
    let mut report = RecoveryReport::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < HEADER_LEN {
            report.corruption = Some(CorruptionKind::TruncatedHeader);
            break;
        }
        if rest[..4] != MAGIC {
            report.corruption = Some(CorruptionKind::BadMagic);
            break;
        }
        let version = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            report.corruption = Some(CorruptionKind::BadVersion);
            break;
        }
        let payload_len = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        if payload_len > MAX_PAYLOAD {
            report.corruption = Some(CorruptionKind::TruncatedPayload);
            break;
        }
        let payload_len = payload_len as usize;
        let total = HEADER_LEN + payload_len + CHECKSUM_LEN;
        if rest.len() < total {
            report.corruption = Some(CorruptionKind::TruncatedPayload);
            break;
        }
        let body = &rest[..HEADER_LEN + payload_len];
        let stored = u64::from_le_bytes(
            rest[HEADER_LEN + payload_len..total]
                .try_into()
                .expect("8 bytes"),
        );
        if fnv1a(body) != stored {
            report.corruption = Some(CorruptionKind::ChecksumMismatch);
            break;
        }
        payloads.push(body[HEADER_LEN..].to_vec());
        pos += total;
        report.valid_records += 1;
        report.valid_bytes = pos as u64;
    }
    (payloads, report)
}

/// Reads a checkpoint log and returns the most recent state that both
/// verified and decoded, plus the scan report. `Ok((None, report))`
/// when the log exists but holds no usable record; missing files are
/// an empty log.
///
/// # Errors
///
/// Returns the underlying I/O error when the log cannot be read.
pub fn read_log(path: &Path) -> std::io::Result<(Option<CheckpointState>, RecoveryReport)> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let (payloads, mut report) = scan_records(&bytes);
    // Most recent first: a verified-but-undecodable payload falls back
    // to the previous record rather than aborting recovery.
    for payload in payloads.iter().rev() {
        match CheckpointState::decode(payload) {
            Some(state) => return Ok((Some(state), report)),
            None => {
                report.undecodable_records += 1;
                report.corruption.get_or_insert(CorruptionKind::Undecodable);
            }
        }
    }
    Ok((None, report))
}

/// An append-only checkpoint log bound to one session.
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    file: File,
    fsync: bool,
    records_written: u64,
    bytes_written: u64,
}

impl CheckpointLog {
    /// Opens (creating if absent) the log at `path` for appending.
    /// With `fsync`, every append is followed by `sync_data` so the
    /// record survives power loss, not just process death.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be
    /// opened.
    pub fn open(path: impl Into<PathBuf>, fsync: bool) -> std::io::Result<CheckpointLog> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(CheckpointLog {
            path,
            file,
            fsync,
            records_written: 0,
            bytes_written: 0,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Appends one checkpoint record.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::TooLarge`] when the state cannot be
    /// serialized, and [`CheckpointError::Io`] when the write (or
    /// fsync) fails; the log may then hold a torn record, which
    /// recovery detects and skips.
    pub fn append(&mut self, state: &CheckpointState) -> Result<(), CheckpointError> {
        let record = frame_record(&state.encode()?);
        self.file.write_all(&record)?;
        self.file.flush()?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.records_written += 1;
        self.bytes_written += record.len() as u64;
        moloc_obs::counter_add("session.checkpoint.writes", 1);
        moloc_obs::counter_add("session.checkpoint.bytes", record.len() as u64);
        Ok(())
    }

    /// Rewrites the log to hold only `state`, via a temporary file and
    /// an atomic rename — a crash mid-compaction leaves either the old
    /// log or the new one intact, never a torn hybrid.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::TooLarge`] when the state cannot be
    /// serialized, and [`CheckpointError::Io`] on I/O failure; on
    /// failure the original log is untouched.
    pub fn compact(&mut self, state: &CheckpointState) -> Result<(), CheckpointError> {
        let record = frame_record(&state.encode()?);
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&record)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        if self.fsync {
            self.file.sync_data()?;
        }
        moloc_obs::counter_add("session.checkpoint.compactions", 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_core::tracker::MotionMeasurement;

    fn sample_state() -> CheckpointState {
        CheckpointState {
            ingested: 42,
            delivered: 40,
            watermark: 41,
            epoch: 6,
            stats: ReorderStats {
                delivered: 40,
                duplicates_dropped: 3,
                late_dropped: 1,
                gaps_skipped: 2,
            },
            has_previous: true,
            flags: DegradationFlags::MASKED_QUERY,
            posterior: vec![
                (LocationId::new(3), 0.625),
                (LocationId::new(9), f64::from_bits(0.375f64.to_bits() + 1)),
            ],
            pending: vec![ScanEvent {
                event_id: 77,
                seq: 43,
                scan: vec![-50.0, f64::NAN],
                motion: Some(MotionMeasurement {
                    direction_deg: 180.0,
                    offset_m: 2.5,
                }),
            }],
        }
    }

    #[test]
    fn state_round_trips_bit_identically() {
        let state = sample_state();
        let back =
            CheckpointState::decode(&state.encode().expect("encodes")).expect("decodes");
        assert_eq!(back.ingested, state.ingested);
        assert_eq!(back.watermark, state.watermark);
        assert_eq!(back.epoch, state.epoch);
        assert_eq!(back.stats, state.stats);
        assert_eq!(back.flags, state.flags);
        let bits =
            |p: &[(LocationId, f64)]| p.iter().map(|&(l, v)| (l, v.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&back.posterior), bits(&state.posterior));
        assert_eq!(back.pending.len(), 1);
        assert_eq!(back.pending[0].seq, 43);
    }

    #[test]
    fn framing_round_trips_and_reports_clean() {
        let state = sample_state();
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(&state.encode().expect("encodes")));
        log.extend_from_slice(&frame_record(&state.encode().expect("encodes")));
        let (payloads, report) = scan_records(&log);
        assert_eq!(payloads.len(), 2);
        assert_eq!(report.valid_records, 2);
        assert_eq!(report.corruption, None);
        assert_eq!(report.valid_bytes, log.len() as u64);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let record = frame_record(&sample_state().encode().expect("encodes"));
        for byte in 0..record.len() {
            for bit in 0..8 {
                let mut mutated = record.clone();
                mutated[byte] ^= 1 << bit;
                let (payloads, report) = scan_records(&mutated);
                let survived = payloads
                    .first()
                    .is_some_and(|p| CheckpointState::decode(p).is_some());
                assert!(
                    !survived || report.corruption.is_none(),
                    "flip at byte {byte} bit {bit} slipped through"
                );
                // FNV over the full record catches any single flip:
                // either the record is rejected outright or (flip in
                // the checksum field) the checksum no longer matches.
                assert!(
                    report.corruption.is_some(),
                    "flip at byte {byte} bit {bit} not reported"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected_and_prior_records_survive() {
        let state = sample_state();
        let first = frame_record(&state.encode().expect("encodes"));
        let second = frame_record(&state.encode().expect("encodes"));
        let mut log = first.clone();
        log.extend_from_slice(&second);
        for cut in first.len() + 1..log.len() {
            let (payloads, report) = scan_records(&log[..cut]);
            assert_eq!(payloads.len(), 1, "first record survives a torn second");
            assert!(
                matches!(
                    report.corruption,
                    Some(CorruptionKind::TruncatedHeader | CorruptionKind::TruncatedPayload)
                ),
                "cut at {cut}: {:?}",
                report.corruption
            );
        }
    }

    #[test]
    fn foreign_and_future_records_are_classified() {
        let mut foreign = frame_record(&sample_state().encode().expect("encodes"));
        foreign[0] = b'X';
        assert_eq!(
            scan_records(&foreign).1.corruption,
            Some(CorruptionKind::BadMagic)
        );

        let payload = sample_state().encode().expect("encodes");
        let mut future = Vec::new();
        future.extend_from_slice(&MAGIC);
        future.extend_from_slice(&(VERSION + 1).to_le_bytes());
        future.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        future.extend_from_slice(&payload);
        let checksum = fnv1a(&future);
        future.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            scan_records(&future).1.corruption,
            Some(CorruptionKind::BadVersion)
        );
    }

    #[test]
    fn undecodable_payload_falls_back_to_the_previous_record() {
        let good = sample_state();
        let mut log = frame_record(&good.encode().expect("encodes"));
        // A framed record whose payload is garbage: framing verifies,
        // decode fails, recovery must fall back, and the defect must
        // be reported.
        log.extend_from_slice(&frame_record(&[0xAB; 7]));
        let dir = std::env::temp_dir().join("moloc-session-undecodable-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("log.mlck");
        std::fs::write(&path, &log).expect("write log");
        let (state, report) = read_log(&path).expect("read");
        std::fs::remove_file(&path).ok();
        let state = state.expect("previous record recovered");
        assert_eq!(state.ingested, good.ingested);
        assert_eq!(report.undecodable_records, 1);
        assert_eq!(report.corruption, Some(CorruptionKind::Undecodable));
    }

    #[test]
    fn append_then_read_recovers_the_latest_state() {
        let dir = std::env::temp_dir().join("moloc-session-append-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("log.mlck");
        std::fs::remove_file(&path).ok();
        let mut log = CheckpointLog::open(&path, false).expect("open");
        let mut state = sample_state();
        log.append(&state).expect("append 1");
        state.ingested = 100;
        state.delivered = 97;
        log.append(&state).expect("append 2");
        assert_eq!(log.records_written(), 2);
        let (recovered, report) = read_log(&path).expect("read");
        assert_eq!(recovered.expect("state").ingested, 100);
        assert_eq!(report.valid_records, 2);
        assert_eq!(report.corruption, None);

        // Compaction keeps only the latest record, atomically.
        log.compact(&state).expect("compact");
        let (recovered, report) = read_log(&path).expect("read after compact");
        assert_eq!(recovered.expect("state").ingested, 100);
        assert_eq!(report.valid_records, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_error_names_field_and_wraps_io() {
        let too_large = CheckpointError::TooLarge {
            field: "posterior",
            len: usize::MAX,
        };
        let msg = too_large.to_string();
        assert!(msg.contains("posterior"), "message names the field: {msg}");
        assert!(msg.contains("u32"), "message names the limit: {msg}");
        let io: CheckpointError =
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "torn").into();
        assert!(matches!(io, CheckpointError::Io(_)));
        assert!(std::error::Error::source(&io).is_some());
    }
}
