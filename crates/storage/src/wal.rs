//! Crash-safe append-only mutation log (WAL) with CRC-per-record framing,
//! torn-tail truncation on recovery, and snapshot + replay compaction.
//!
//! The log is payload-agnostic: callers append opaque byte records (the
//! serving layer encodes profile mutations with the wire codec) and get
//! back a monotone sequence number. Durability is explicit — [`Wal::append`]
//! buffers in the OS, [`Wal::sync`] makes everything appended so far
//! durable — so callers choose their ack point.
//!
//! # On-disk layout
//!
//! A WAL directory holds two files:
//!
//! - `wal.log` — the record log. Each record is framed as
//!   `len:u32be | crc:u32be | seq:u64be | payload`, where `len` counts the
//!   `seq + payload` bytes and `crc` is the IEEE CRC-32 of those bytes.
//!   Sequence numbers start at 1 and are contiguous.
//! - `snapshot.bin` — an optional compaction point, framed as
//!   `crc:u32be | last_seq:u64be | data`, written to a temp file and
//!   atomically renamed. It captures the state after applying records
//!   `1..=last_seq`; the log then restarts at `last_seq + 1`.
//!
//! # Recovery
//!
//! [`Wal::open`] loads the snapshot (if any), then scans the log from the
//! start. The scan stops at the first frame that is short, oversized,
//! fails its CRC, or breaks sequence contiguity; everything from that
//! offset on is truncated (the torn tail of an interrupted append — or a
//! corrupted suffix, which is indistinguishable and equally untrusted).
//! Everything before the truncation point is intact and replayable. A
//! snapshot that fails its own CRC is unrecoverable state and surfaces as
//! [`StorageError::Corrupt`] — it is never silently dropped.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::{Result, StorageError};

/// The record log file name inside a WAL directory.
pub const WAL_FILE: &str = "wal.log";
/// The snapshot file name inside a WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Ceiling on a single record's framed length (seq + payload). A `len`
/// field above this is treated as corruption, not an allocation request.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Bytes of record framing before the payload: `len:u32 | crc:u32`.
const FRAME_HEADER: usize = 8;
/// Bytes of the sequence number inside the CRC-protected region.
const SEQ_BYTES: usize = 8;

// ---- CRC-32 (IEEE, reflected) ---------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 (the zlib/gzip polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---- records ---------------------------------------------------------------

/// One recovered log record: its sequence number and opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's log sequence number (1-based, contiguous).
    pub seq: u64,
    /// The caller's opaque payload bytes.
    pub payload: Vec<u8>,
}

/// A loaded snapshot: the state after applying records `1..=last_seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSnapshot {
    /// The last sequence number the snapshot covers.
    pub last_seq: u64,
    /// The caller's opaque snapshot bytes.
    pub data: Vec<u8>,
}

/// What [`Wal::open`] found on disk: replay the snapshot first (if any),
/// then every record, in order.
#[derive(Debug, Clone)]
pub struct WalRecovery {
    /// The compaction point, if a snapshot was installed.
    pub snapshot: Option<WalSnapshot>,
    /// Intact records after the snapshot point, in sequence order.
    pub records: Vec<WalRecord>,
    /// Bytes dropped from the tail of the log (torn final append or a
    /// corrupted suffix). Zero on a clean shutdown.
    pub truncated_bytes: u64,
}

/// The crash-safe append-only log. One writer per directory; see the
/// module docs for the framing and recovery contract.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    /// Sequence the next append receives.
    next_seq: u64,
    /// The snapshot's `last_seq` (0 = no snapshot); the log holds
    /// `base_seq + 1 ..= last_seq()`.
    base_seq: u64,
    /// Highest sequence number known durable (covered by a completed
    /// [`Wal::sync`]). The snapshot point is always durable.
    synced_seq: u64,
    /// Current byte length of the log file.
    log_bytes: u64,
    /// Start offset of each live record: `offsets[i]` is the file offset
    /// of record `base_seq + 1 + i`, so [`Wal::truncate_from`] cuts a
    /// suffix without rescanning the log.
    offsets: Vec<u64>,
}

impl Wal {
    /// Open (or create) the WAL in `dir`, recovering whatever an earlier
    /// process left behind. The directory is created if missing. Returns
    /// the writable log positioned after the last intact record, plus the
    /// recovery view to replay.
    pub fn open(dir: &Path) -> Result<(Wal, WalRecovery)> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create wal dir", e))?;
        let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let base_seq = snapshot.as_ref().map_or(0, |s| s.last_seq);

        let log_path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)
            .map_err(|e| io_err("open wal.log", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err("read wal.log", e))?;

        let (records, offsets, good_bytes) = scan_records(&bytes, base_seq);
        let truncated_bytes = bytes.len() as u64 - good_bytes;
        if truncated_bytes > 0 {
            file.set_len(good_bytes).map_err(|e| io_err("truncate torn wal tail", e))?;
            file.sync_data().map_err(|e| io_err("sync truncated wal", e))?;
        }
        file.seek(SeekFrom::Start(good_bytes)).map_err(|e| io_err("seek wal end", e))?;

        let last_seq = records.last().map_or(base_seq, |r| r.seq);
        let wal = Wal {
            dir: dir.to_path_buf(),
            file,
            next_seq: last_seq + 1,
            base_seq,
            // Everything that survived recovery is on disk by definition.
            synced_seq: last_seq,
            log_bytes: good_bytes,
            offsets,
        };
        Ok((wal, WalRecovery { snapshot, records, truncated_bytes }))
    }

    /// The directory this WAL lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The last appended sequence number (0 = empty log, no snapshot).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The highest sequence number known durable (see [`Wal::sync`]).
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// The snapshot compaction point (0 = no snapshot). Records at or
    /// below this are only available through the snapshot.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Current byte length of the log file.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Append one record, returning its sequence number. The record is
    /// *not* durable until the next [`Wal::sync`] completes.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        let framed_len = SEQ_BYTES + payload.len();
        if framed_len > MAX_RECORD_LEN as usize {
            return Err(StorageError::Io(format!(
                "wal record of {framed_len} bytes exceeds the {MAX_RECORD_LEN}-byte limit"
            )));
        }
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(FRAME_HEADER + framed_len);
        frame.extend_from_slice(&(framed_len as u32).to_be_bytes());
        frame.extend_from_slice(&[0u8; 4]); // crc placeholder
        frame.extend_from_slice(&seq.to_be_bytes());
        frame.extend_from_slice(payload);
        let crc = crc32(&frame[FRAME_HEADER..]);
        frame[4..8].copy_from_slice(&crc.to_be_bytes());
        self.file.write_all(&frame).map_err(|e| io_err("append wal record", e))?;
        self.next_seq += 1;
        self.offsets.push(self.log_bytes);
        self.log_bytes += frame.len() as u64;
        Ok(seq)
    }

    /// Make every appended record durable (`fdatasync`). After `Ok`,
    /// [`Wal::synced_seq`] equals [`Wal::last_seq`].
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(|e| io_err("fsync wal", e))?;
        self.synced_seq = self.last_seq();
        Ok(())
    }

    /// Drop every record with sequence `>= from` (log-conflict resolution:
    /// a follower discovered its suffix diverges from the new leader's
    /// log). Returns the number of records removed. Truncating into the
    /// snapshot (`from <= base_seq`) is refused — the caller must fall
    /// back to a full snapshot transfer.
    pub fn truncate_from(&mut self, from: u64) -> Result<u64> {
        if from <= self.base_seq {
            return Err(StorageError::Io(format!(
                "cannot truncate log from seq {from}: records at or below the snapshot \
                 point {} exist only in the snapshot",
                self.base_seq
            )));
        }
        if from > self.last_seq() {
            return Ok(0);
        }
        let removed = self.last_seq() - from + 1;
        let offset = self.offsets[(from - self.base_seq - 1) as usize];
        self.file.set_len(offset).map_err(|e| io_err("truncate wal suffix", e))?;
        self.file.sync_data().map_err(|e| io_err("sync truncated wal", e))?;
        self.file.seek(SeekFrom::Start(offset)).map_err(|e| io_err("seek wal end", e))?;
        self.offsets.truncate((from - self.base_seq - 1) as usize);
        self.next_seq = from;
        self.synced_seq = self.synced_seq.min(from - 1);
        self.log_bytes = offset;
        Ok(removed)
    }

    /// Re-read the snapshot file (`None` when no snapshot is installed).
    /// Used to rebuild in-memory state after a conflict truncation.
    pub fn read_snapshot(&self) -> Result<Option<WalSnapshot>> {
        read_snapshot(&self.dir.join(SNAPSHOT_FILE))
    }

    /// Install a snapshot covering everything appended so far and truncate
    /// the log: `data` must capture the state after applying records
    /// `1..=last_seq()`. The snapshot is written to a temp file, synced,
    /// and atomically renamed before the log is cut.
    pub fn install_snapshot(&mut self, data: &[u8]) -> Result<()> {
        let last = self.last_seq();
        self.write_snapshot_files(last, data)?;
        self.base_seq = last;
        self.synced_seq = last;
        Ok(())
    }

    /// Replace this WAL's entire state with a snapshot received from a
    /// peer: install `data` at `last_seq` and restart the (empty) log at
    /// `last_seq + 1`. Used by a follower too far behind to catch up from
    /// the leader's log.
    pub fn reset_to(&mut self, last_seq: u64, data: &[u8]) -> Result<()> {
        self.write_snapshot_files(last_seq, data)?;
        self.base_seq = last_seq;
        self.next_seq = last_seq + 1;
        self.synced_seq = last_seq;
        Ok(())
    }

    fn write_snapshot_files(&mut self, last_seq: u64, data: &[u8]) -> Result<()> {
        let mut body = Vec::with_capacity(SEQ_BYTES + data.len());
        body.extend_from_slice(&last_seq.to_be_bytes());
        body.extend_from_slice(data);
        let crc = crc32(&body);
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create snapshot.tmp", e))?;
            f.write_all(&crc.to_be_bytes()).map_err(|e| io_err("write snapshot crc", e))?;
            f.write_all(&body).map_err(|e| io_err("write snapshot body", e))?;
            f.sync_data().map_err(|e| io_err("sync snapshot", e))?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))
            .map_err(|e| io_err("rename snapshot", e))?;
        self.file.set_len(0).map_err(|e| io_err("truncate wal after snapshot", e))?;
        self.file.seek(SeekFrom::Start(0)).map_err(|e| io_err("seek wal start", e))?;
        self.file.sync_data().map_err(|e| io_err("sync truncated wal", e))?;
        self.log_bytes = 0;
        self.offsets.clear();
        Ok(())
    }
}

/// Scan `bytes` for intact, contiguous records following `base_seq`.
/// Returns the records, their start offsets within `bytes`, and the byte
/// offset of the first frame that is torn, corrupt, or out of sequence
/// (== `bytes.len()` on a clean log).
fn scan_records(bytes: &[u8], base_seq: u64) -> (Vec<WalRecord>, Vec<u64>, u64) {
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = 0usize;
    let mut expected = base_seq + 1;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_be_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc =
            u32::from_be_bytes([bytes[pos + 4], bytes[pos + 5], bytes[pos + 6], bytes[pos + 7]]);
        if len < SEQ_BYTES || len > MAX_RECORD_LEN as usize {
            break; // corrupt length field
        }
        let body_start = pos + FRAME_HEADER;
        if bytes.len() - body_start < len {
            break; // torn tail: record announced more bytes than exist
        }
        let body = &bytes[body_start..body_start + len];
        if crc32(body) != crc {
            break; // checksum mismatch: bit rot or a torn overwrite
        }
        let seq = u64::from_be_bytes([
            body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
        ]);
        if seq != expected {
            break; // sequence discontinuity: the suffix is not trustworthy
        }
        records.push(WalRecord { seq, payload: body[SEQ_BYTES..].to_vec() });
        offsets.push(pos as u64);
        expected += 1;
        pos = body_start + len;
    }
    (records, offsets, pos as u64)
}

fn read_snapshot(path: &Path) -> Result<Option<WalSnapshot>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read snapshot", e)),
    };
    if bytes.len() < 4 + SEQ_BYTES {
        return Err(StorageError::Corrupt(format!(
            "wal snapshot too short: {} bytes",
            bytes.len()
        )));
    }
    let crc = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let body = &bytes[4..];
    if crc32(body) != crc {
        return Err(StorageError::Corrupt("wal snapshot checksum mismatch".to_string()));
    }
    let last_seq = u64::from_be_bytes([
        body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
    ]);
    Ok(Some(WalSnapshot { last_seq, data: body[SEQ_BYTES..].to_vec() }))
}

fn io_err(what: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pqp-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_sync_reopen_replays_everything() {
        let dir = tmpdir("replay");
        {
            let (mut wal, rec) = Wal::open(&dir).unwrap();
            assert!(rec.snapshot.is_none());
            assert!(rec.records.is_empty());
            assert_eq!(rec.truncated_bytes, 0);
            assert_eq!(wal.append(b"one").unwrap(), 1);
            assert_eq!(wal.append(b"two").unwrap(), 2);
            assert_eq!(wal.synced_seq(), 0);
            wal.sync().unwrap();
            assert_eq!(wal.synced_seq(), 2);
        }
        let (wal, rec) = Wal::open(&dir).unwrap();
        assert_eq!(wal.last_seq(), 2);
        assert_eq!(rec.truncated_bytes, 0);
        let payloads: Vec<&[u8]> = rec.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"one".as_slice(), b"two".as_slice()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(b"keep-1").unwrap();
            wal.append(b"keep-2").unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: a partial frame at the tail.
        let log = dir.join(WAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[0x00, 0x00, 0x00, 0x20, 0xDE, 0xAD]).unwrap();
        drop(f);

        let (mut wal, rec) = Wal::open(&dir).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.truncated_bytes, 6);
        // The log is whole again: appends continue from the next seq.
        assert_eq!(wal.append(b"keep-3").unwrap(), 3);
        wal.sync().unwrap();
        let (_, rec) = Wal::open(&dir).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_cuts_recovery_at_the_corrupt_record() {
        let dir = tmpdir("bitflip");
        let second_record_offset;
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(b"intact").unwrap();
            second_record_offset = wal.log_bytes();
            wal.append(b"corrupted").unwrap();
            wal.append(b"unreachable").unwrap();
            wal.sync().unwrap();
        }
        let log = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&log).unwrap();
        // Flip one bit inside the second record's payload.
        let idx = second_record_offset as usize + FRAME_HEADER + SEQ_BYTES;
        bytes[idx] ^= 0x01;
        std::fs::write(&log, &bytes).unwrap();

        let (wal, rec) = Wal::open(&dir).unwrap();
        // Recovery keeps the intact prefix and drops the corrupt suffix
        // (including the record *after* the flipped one — nothing past the
        // first bad frame is trusted).
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"intact");
        assert!(rec.truncated_bytes > 0);
        assert_eq!(wal.last_seq(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_recovery_replays_snapshot_plus_tail() {
        let dir = tmpdir("snapshot");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for i in 0..5u32 {
                wal.append(format!("r{i}").as_bytes()).unwrap();
            }
            wal.sync().unwrap();
            wal.install_snapshot(b"state-after-5").unwrap();
            assert_eq!(wal.base_seq(), 5);
            assert_eq!(wal.log_bytes(), 0);
            assert_eq!(wal.append(b"r5").unwrap(), 6);
            wal.sync().unwrap();
        }
        let (wal, rec) = Wal::open(&dir).unwrap();
        let snap = rec.snapshot.expect("snapshot present");
        assert_eq!(snap.last_seq, 5);
        assert_eq!(snap.data, b"state-after-5");
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].seq, 6);
        assert_eq!(wal.last_seq(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_from_cuts_the_suffix_and_the_log_stays_appendable() {
        let dir = tmpdir("truncfrom");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            for i in 0..5u32 {
                wal.append(format!("r{i}").as_bytes()).unwrap();
            }
            wal.sync().unwrap();
            assert_eq!(wal.truncate_from(6).unwrap(), 0, "past-tip truncation is a no-op");
            assert_eq!(wal.truncate_from(3).unwrap(), 3);
            assert_eq!(wal.last_seq(), 2);
            assert_eq!(wal.synced_seq(), 2);
            // Appends resume at the truncation point with fresh payloads.
            assert_eq!(wal.append(b"r2'").unwrap(), 3);
            wal.sync().unwrap();
        }
        let (wal, rec) = Wal::open(&dir).unwrap();
        assert_eq!(wal.last_seq(), 3);
        assert_eq!(rec.truncated_bytes, 0, "truncation left a clean log");
        let payloads: Vec<&[u8]> = rec.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(payloads, [b"r0".as_slice(), b"r1", b"r2'"]);
        // The offset index is rebuilt on reopen: a cut still lands on a
        // record boundary.
        let (mut wal, _) = Wal::open(&dir).unwrap();
        assert_eq!(wal.truncate_from(2).unwrap(), 2);
        drop(wal);
        let (_, rec) = Wal::open(&dir).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_into_the_snapshot_is_refused() {
        let dir = tmpdir("truncsnap");
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(b"a").unwrap();
        wal.sync().unwrap();
        wal.install_snapshot(b"s").unwrap();
        assert!(matches!(wal.truncate_from(1), Err(StorageError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error_never_silent() {
        let dir = tmpdir("badsnap");
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append(b"x").unwrap();
            wal.sync().unwrap();
            wal.install_snapshot(b"good").unwrap();
        }
        let snap = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        match Wal::open(&dir) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("checksum")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_to_adopts_a_peer_snapshot() {
        let dir = tmpdir("reset");
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(b"stale").unwrap();
        wal.sync().unwrap();
        wal.reset_to(42, b"leader-state").unwrap();
        assert_eq!(wal.last_seq(), 42);
        assert_eq!(wal.base_seq(), 42);
        assert_eq!(wal.append(b"next").unwrap(), 43);
        wal.sync().unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir).unwrap();
        assert_eq!(rec.snapshot.expect("snapshot").last_seq, 42);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].seq, 43);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
