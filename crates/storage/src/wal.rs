//! Write-ahead log with checksummed records and redo recovery support.
//!
//! Paper Fig. 2 places logging ("Log Services") in the storage layer. The
//! WAL is deliberately simple: an append-only file of framed records, each
//! protected by a CRC32, with a scan that stops cleanly at the first
//! torn/corrupt record (the usual crash-tail semantics).
//!
//! Record frame (little-endian):
//! ```text
//! lsn: u64 | kind: u8 | len: u32 | payload: [u8; len] | crc: u32
//! ```
//! The CRC covers everything before it.
//!
//! The log lives on a [`BackendFile`], so the same code runs over real
//! files and over the deterministic [`sim`](crate::sim) device used by
//! the crash torture suite. Appends are buffered in memory;
//! [`Wal::sync`] flushes them and issues the durability barrier — and is
//! a fast no-op when the log is already fully synced, which matters
//! because the buffer pool calls it before every data-page write-back.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sbdms_kernel::error::{Result, ServiceError};

use crate::backend::{BackendFile, RealFile};

/// Log sequence number: byte offset of the record in the log file.
pub type Lsn = u64;

/// Frame header bytes (lsn + kind + len) preceding the payload.
const FRAME_HEADER: usize = 13;
/// Frame trailer bytes (the CRC).
const FRAME_TRAILER: usize = 4;

/// One recovered log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// This record's LSN.
    pub lsn: Lsn,
    /// Application-defined record kind.
    pub kind: u8,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// The CRC-32 (IEEE 802.3) lookup table, built at compile time. Each
/// entry is the CRC of its index byte; the byte-at-a-time loop in
/// [`crc32`] folds input through it eight bits per step instead of one.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3), table-driven: one lookup per input byte instead
/// of eight shift/xor steps. Measured against the old bitwise version in
/// the E10 report; the bitwise form survives as a test oracle.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

struct WalInner {
    /// Appended frames not yet written to the backend file.
    pending: Vec<u8>,
    /// Bytes written to the backend file (pending excluded).
    flushed_len: u64,
    /// Bytes covered by the last durability barrier.
    synced_len: u64,
    next_lsn: Lsn,
}

/// Group-commit coordination: at most one *leader* thread flushes and
/// issues the durability barrier at a time; committers that arrive while
/// a leader is in flight wait on the condvar, and return without issuing
/// their own sync when the leader's barrier already covers their record.
struct GroupCommit {
    /// True while some thread is flushing + syncing as the leader.
    /// (std primitives: the vendored `parking_lot` shim has no condvar.)
    leader_active: std::sync::Mutex<bool>,
    cond: std::sync::Condvar,
}

/// An append-only, checksummed write-ahead log.
pub struct Wal {
    inner: Mutex<WalInner>,
    group: GroupCommit,
    file: Arc<dyn BackendFile>,
    path: PathBuf,
}

impl Wal {
    /// Open (or create) the log at `path`, positioning the append cursor
    /// after the last *valid* record (a torn tail is truncated away).
    pub fn open(path: impl AsRef<Path>) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let file: Arc<dyn BackendFile> = Arc::new(RealFile::open(&path)?);
        Wal::open_backend_at(file, path)
    }

    /// Open over an already-opened backend file (the sim seam). The torn
    /// tail, if any, is truncated exactly as for real files.
    pub fn open_backend(file: Arc<dyn BackendFile>) -> Result<Wal> {
        Wal::open_backend_at(file, PathBuf::from("<backend>"))
    }

    fn open_backend_at(file: Arc<dyn BackendFile>, path: PathBuf) -> Result<Wal> {
        let valid_len = scan_file(file.as_ref(), SCAN_CHUNK, |_, _, _| Ok(()))?;
        file.set_len(valid_len)?;
        Ok(Wal {
            inner: Mutex::new(WalInner {
                pending: Vec::new(),
                flushed_len: valid_len,
                synced_len: valid_len,
                next_lsn: valid_len,
            }),
            group: GroupCommit {
                leader_active: std::sync::Mutex::new(false),
                cond: std::sync::Condvar::new(),
            },
            file,
            path,
        })
    }

    /// Path of the backing file (informational; `<backend>` when opened
    /// over a non-filesystem backend).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record; returns its LSN. Buffered — call [`Wal::sync`]
    /// for durability.
    pub fn append(&self, kind: u8, payload: &[u8]) -> Result<Lsn> {
        if payload.len() > u32::MAX as usize {
            return Err(ServiceError::Storage("wal payload too large".into()));
        }
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        inner.pending.reserve(FRAME_HEADER + payload.len() + FRAME_TRAILER);
        let start = inner.pending.len();
        inner.pending.extend_from_slice(&lsn.to_le_bytes());
        inner.pending.push(kind);
        inner
            .pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        inner.pending.extend_from_slice(payload);
        let crc = crc32(&inner.pending[start..]);
        inner.pending.extend_from_slice(&crc.to_le_bytes());
        inner.next_lsn += (inner.pending.len() - start) as u64;
        Ok(lsn)
    }

    /// Write buffered frames to the backend file (without a barrier).
    fn flush_pending(&self, inner: &mut WalInner) -> Result<()> {
        if inner.pending.is_empty() {
            return Ok(());
        }
        self.file.write_at(inner.flushed_len, &inner.pending)?;
        inner.flushed_len += inner.pending.len() as u64;
        inner.pending.clear();
        Ok(())
    }

    /// Flush buffered records to stable storage. A fast no-op when the
    /// log is already fully durable — callers (the buffer pool's
    /// WAL-before-data hook in particular) may invoke it liberally.
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.pending.is_empty() && inner.synced_len == inner.flushed_len {
            return Ok(());
        }
        self.flush_pending(&mut inner)?;
        self.file.sync()?;
        inner.synced_len = inner.flushed_len;
        Ok(())
    }

    /// Bytes covered by the last durability barrier. A record whose
    /// frame ends at or before this offset survives any crash.
    pub fn synced_lsn(&self) -> Lsn {
        self.inner.lock().synced_len
    }

    /// Group-commit sync: make the log durable at least up to byte
    /// offset `upto` (callers pass [`Wal::next_lsn`] captured after
    /// appending their commit record), amortizing the barrier across
    /// concurrent committers.
    ///
    /// The first committer to arrive becomes the *leader*: it may hold
    /// the commit window open for `window` so committers landing in the
    /// meantime get their records flushed under the same barrier, then
    /// it flushes + syncs everything pending. Committers that arrive
    /// while a leader is in flight wait on a condvar; when the leader's
    /// barrier already covers their record they return without issuing
    /// a sync of their own, otherwise one of them takes over as the
    /// next leader. With `window == 0` and a single thread this is
    /// byte-for-byte identical to [`Wal::sync`] — which keeps the
    /// deterministic torture schedules unchanged.
    pub fn sync_coalesced(&self, upto: Lsn, window: Duration) -> Result<()> {
        if self.inner.lock().synced_len >= upto {
            return Ok(());
        }
        let mut leader_active = self.group.leader_active.lock().unwrap();
        loop {
            if self.inner.lock().synced_len >= upto {
                return Ok(());
            }
            if !*leader_active {
                break;
            }
            leader_active = self.group.cond.wait(leader_active).unwrap();
        }
        *leader_active = true;
        drop(leader_active);

        // Leader: hold the window open so concurrent committers can
        // append and ride this barrier, then issue one sync for all.
        if !window.is_zero() {
            std::thread::sleep(window);
        }
        let result = self.sync();
        let mut leader_active = self.group.leader_active.lock().unwrap();
        *leader_active = false;
        self.group.cond.notify_all();
        drop(leader_active);
        result
    }

    /// Read every valid record from the start of the log. Scanning stops
    /// silently at the first torn or corrupt frame.
    pub fn records(&self) -> Result<Vec<WalRecord>> {
        let mut records = Vec::new();
        self.for_each_record(|lsn, kind, payload| {
            records.push(WalRecord {
                lsn,
                kind,
                payload: payload.to_vec(),
            });
            Ok(())
        })?;
        Ok(records)
    }

    /// Stream every valid record from the start of the log to
    /// `visit(lsn, kind, payload)`, reading the file a chunk at a time:
    /// memory stays at one chunk (or the largest frame) however long the
    /// log is, and no payload is copied out. Stops silently at the first
    /// torn or corrupt frame, as [`Wal::records`] does; an error from
    /// `visit` ends the scan and is returned.
    pub fn for_each_record(&self, visit: impl FnMut(Lsn, u8, &[u8]) -> Result<()>) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_pending(&mut inner)?;
        drop(inner);
        scan_file(self.file.as_ref(), SCAN_CHUNK, visit).map(|_| ())
    }

    /// Truncate the log (checkpoint): all records are discarded and the
    /// LSN counter restarts at zero.
    pub fn reset(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.pending.clear();
        self.file.set_len(0)?;
        self.file.sync()?;
        inner.flushed_len = 0;
        inner.synced_len = 0;
        inner.next_lsn = 0;
        Ok(())
    }

    /// Next LSN to be assigned (== current log length in bytes).
    pub fn next_lsn(&self) -> Lsn {
        self.inner.lock().next_lsn
    }
}

/// Bytes the log scan reads per backend call: frames that fit are
/// parsed out of one chunk, a longer frame is read whole.
const SCAN_CHUNK: usize = 64 * 1024;

/// What [`parse_frame`] found at the start of a byte window.
enum Frame {
    /// A valid frame of `len` bytes; its payload is
    /// `window[FRAME_HEADER..len - FRAME_TRAILER]`.
    Valid { kind: u8, len: usize },
    /// The frame may be valid but needs `need` bytes of window.
    Short { need: usize },
    /// The log ends here: LSN disagrees with the offset, or CRC fails.
    End,
}

/// The one frame parser behind [`scan_bytes`] and the chunked file
/// scan: inspect the frame starting at log offset `lsn`, the first byte
/// of `window`.
fn parse_frame(window: &[u8], lsn: Lsn) -> Frame {
    if window.len() < FRAME_HEADER + FRAME_TRAILER {
        return Frame::Short {
            need: FRAME_HEADER + FRAME_TRAILER,
        };
    }
    let stored_lsn = u64::from_le_bytes(window[0..8].try_into().unwrap());
    let kind = window[8];
    let payload = u32::from_le_bytes(window[9..13].try_into().unwrap()) as usize;
    if stored_lsn != lsn {
        return Frame::End;
    }
    let Some(len) = payload.checked_add(FRAME_HEADER + FRAME_TRAILER) else {
        return Frame::End;
    };
    if window.len() < len {
        return Frame::Short { need: len };
    }
    let crc_stored = u32::from_le_bytes(window[len - FRAME_TRAILER..len].try_into().unwrap());
    if crc32(&window[..len - FRAME_TRAILER]) != crc_stored {
        return Frame::End; // corrupt record
    }
    Frame::Valid { kind, len }
}

/// Stream the valid frame prefix of `file` to `visit(lsn, kind,
/// payload)`, reading `chunk` bytes at a time (a frame longer than a
/// chunk is read whole), and return the valid length. A frame that would
/// run past the end of the file is the torn tail: the scan stops there
/// without reading it, so a hostile length field costs nothing.
fn scan_file(
    file: &dyn BackendFile,
    chunk: usize,
    mut visit: impl FnMut(Lsn, u8, &[u8]) -> Result<()>,
) -> Result<u64> {
    let file_len = file.len()?;
    // `buf` holds the file bytes from offset `base`; `start` is the
    // next frame's position in it.
    let mut buf: Vec<u8> = Vec::new();
    let mut base: u64 = 0;
    let mut start = 0usize;
    loop {
        let lsn = base + start as u64;
        match parse_frame(&buf[start..], lsn) {
            Frame::Valid { kind, len } => {
                visit(lsn, kind, &buf[start + FRAME_HEADER..start + len - FRAME_TRAILER])?;
                start += len;
            }
            Frame::End => return Ok(lsn),
            Frame::Short { need } => {
                let need = need as u64;
                if lsn + need > file_len {
                    return Ok(lsn); // torn tail, or the clean end
                }
                let want = need.max(chunk as u64).min(file_len - lsn) as usize;
                buf.drain(..start);
                base = lsn;
                start = 0;
                let have = buf.len();
                buf.resize(want, 0);
                file.read_at(base + have as u64, &mut buf[have..])?;
            }
        }
    }
}

/// Parse a raw log image into its valid record prefix. Stops at the
/// first frame whose LSN disagrees with its offset, that runs past the
/// end of the image, or whose CRC fails — never panics, never yields a
/// phantom record.
pub fn scan_bytes(data: &[u8]) -> Vec<WalRecord> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Frame::Valid { kind, len } = parse_frame(&data[pos..], pos as Lsn) {
        records.push(WalRecord {
            lsn: pos as Lsn,
            kind,
            payload: data[pos + FRAME_HEADER..pos + len - FRAME_TRAILER].to_vec(),
        });
        pos += len;
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimBackend, SimConfig};
    use crate::backend::StorageBackend;
    use proptest::prelude::*;

    fn tmpwal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sbdms-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// The old bitwise CRC-32, kept as a test oracle for the table-driven
    /// implementation.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_answer_vectors() {
        // Standard IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"abcdefghijklmnopqrstuvwxyz"), 0x4C27_50BD);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn crc32_matches_bitwise_reference() {
        let mut data = Vec::new();
        for i in 0..1024u32 {
            data.push((i.wrapping_mul(2654435761) >> 13) as u8);
            assert_eq!(crc32(&data), crc32_bitwise(&data), "length {}", data.len());
        }
    }

    #[test]
    fn append_and_read_back() {
        let wal = Wal::open(tmpwal("basic")).unwrap();
        let l1 = wal.append(1, b"first").unwrap();
        let l2 = wal.append(2, b"second").unwrap();
        assert!(l2 > l1);
        let records = wal.records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].payload, b"first");
        assert_eq!(records[0].kind, 1);
        assert_eq!(records[1].payload, b"second");
    }

    #[test]
    fn survives_reopen() {
        let path = tmpwal("reopen");
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(1, b"persisted").unwrap();
            wal.sync().unwrap();
        }
        let wal = Wal::open(&path).unwrap();
        let records = wal.records().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"persisted");
        // New appends continue after the existing tail.
        let lsn = wal.append(1, b"more").unwrap();
        assert!(lsn > 0);
        assert_eq!(wal.records().unwrap().len(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmpwal("torn");
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(1, b"good").unwrap();
            wal.append(1, b"will be torn").unwrap();
            wal.sync().unwrap();
        }
        // Chop the last 5 bytes, simulating a crash mid-write.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let wal = Wal::open(&path).unwrap();
        let records = wal.records().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"good");
        // Appending after recovery produces a valid log.
        wal.append(2, b"after crash").unwrap();
        assert_eq!(wal.records().unwrap().len(), 2);
    }

    #[test]
    fn corrupt_record_stops_scan() {
        let path = tmpwal("corrupt");
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(1, b"ok").unwrap();
            wal.append(1, b"bad").unwrap();
            wal.append(1, b"unreachable").unwrap();
            wal.sync().unwrap();
        }
        // Flip a payload byte of the middle record.
        let mut data = std::fs::read(&path).unwrap();
        let second_payload_start = 17 + 2 + 13; // frame1 (13+2+4=19) + header2
        data[second_payload_start] ^= 0xFF;

        let records = scan_bytes(&data);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"ok");
    }

    fn frame_end(record: &WalRecord) -> u64 {
        record.lsn + (FRAME_HEADER + record.payload.len() + FRAME_TRAILER) as u64
    }

    /// The chunked file scan over `image` with the given chunk size:
    /// the records it streams and the valid length it reports.
    fn scan_chunked(image: &[u8], chunk: usize) -> (Vec<WalRecord>, u64) {
        let sim = SimBackend::new(SimConfig::seeded(4));
        let file = sim.open("wal.log").unwrap();
        file.write_at(0, image).unwrap();
        let mut records = Vec::new();
        let valid = scan_file(file.as_ref(), chunk, |lsn, kind, payload| {
            records.push(WalRecord { lsn, kind, payload: payload.to_vec() });
            Ok(())
        })
        .unwrap();
        (records, valid)
    }

    /// The chunked scan must agree with [`scan_bytes`] on `image` at
    /// every chunk size: the same records and the valid length their
    /// frames end at.
    fn assert_chunked_matches(image: &[u8], what: &str) {
        let want = scan_bytes(image);
        let want_len = want.last().map(frame_end).unwrap_or(0);
        for chunk in [1, 2, 7, 16, 17, 31, 64, 4096, SCAN_CHUNK] {
            let (got, valid) = scan_chunked(image, chunk);
            assert_eq!(got, want, "{what}, chunk {chunk}");
            assert_eq!(valid, want_len, "{what}, chunk {chunk}");
        }
    }

    #[test]
    fn chunked_scan_matches_scan_bytes_across_chunk_boundaries() {
        // Frames of every size from empty to several chunks long, so
        // frames straddle every small chunk size and some exceed it.
        let sim = SimBackend::new(SimConfig::seeded(6));
        let wal = Wal::open_backend(sim.open("wal.log").unwrap()).unwrap();
        for i in 0..40usize {
            let payload: Vec<u8> = (0..i * i * 3).map(|b| (b * 31 + i) as u8).collect();
            wal.append((i % 7) as u8, &payload).unwrap();
        }
        wal.sync().unwrap();
        let image = sim.durable_bytes("wal.log").unwrap();
        assert_chunked_matches(&image, "full log");
        assert_eq!(scan_bytes(&image).len(), 40);
        // Every torn cut and every single-byte mangle of the reference
        // images, as in the scan_bytes tests below.
        let (full, _) = reference_log();
        for cut in 0..=full.len() {
            assert_chunked_matches(&full[..cut], &format!("cut at {cut}"));
        }
        for pos in 0..full.len() {
            let mut mangled = full.clone();
            mangled[pos] ^= 0xFF;
            assert_chunked_matches(&mangled, &format!("mangled byte {pos}"));
        }
        // A hostile length field stops the scan without a read past
        // the file.
        let mut hostile = vec![0u8; 32];
        hostile[8] = 1;
        hostile[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_chunked_matches(&hostile, "hostile length");
    }

    /// Build a reference log image with three records and return
    /// `(bytes, length of the first two frames)`.
    fn reference_log() -> (Vec<u8>, usize) {
        let sim = SimBackend::new(SimConfig::seeded(1));
        let file = sim.open("wal.log").unwrap();
        let wal = Wal::open_backend(file.clone()).unwrap();
        wal.append(1, b"first record").unwrap();
        wal.append(2, b"second").unwrap();
        wal.append(3, b"the final record, about to be mangled").unwrap();
        wal.sync().unwrap();
        let records = wal.records().unwrap();
        let keep = frame_end(&records[1]) as usize;
        (sim.durable_bytes("wal.log").unwrap(), keep)
    }

    /// Reopen a WAL over an arbitrary byte image via the sim backend.
    fn wal_over(bytes: &[u8]) -> (Arc<SimBackend>, Wal) {
        let sim = SimBackend::new(SimConfig::seeded(2));
        let file = sim.open("wal.log").unwrap();
        file.write_at(0, bytes).unwrap();
        file.sync().unwrap();
        let wal = Wal::open_backend(file).unwrap();
        (sim, wal)
    }

    #[test]
    fn truncation_at_every_byte_of_final_frame_stops_cleanly() {
        let (full, keep) = reference_log();
        for cut in keep..full.len() {
            let records = scan_bytes(&full[..cut]);
            assert_eq!(records.len(), 2, "cut at byte {cut}: phantom record");
            assert_eq!(records[1].payload, b"second");

            // Reopening truncates to the valid prefix and appends cleanly.
            let (_sim, wal) = wal_over(&full[..cut]);
            assert_eq!(wal.next_lsn() as usize, keep, "cut at byte {cut}");
            wal.append(9, b"after recovery").unwrap();
            let after = wal.records().unwrap();
            assert_eq!(after.len(), 3, "cut at byte {cut}");
            assert_eq!(after[2].payload, b"after recovery");
        }
    }

    #[test]
    fn corruption_at_every_byte_of_final_frame_stops_cleanly() {
        let (full, keep) = reference_log();
        for pos in keep..full.len() {
            let mut mangled = full.clone();
            mangled[pos] ^= 0xFF;
            let records = scan_bytes(&mangled);
            assert_eq!(
                records.len(),
                2,
                "corruption at byte {pos} not detected (or earlier records lost)"
            );

            let (_sim, wal) = wal_over(&mangled);
            wal.append(9, b"after recovery").unwrap();
            let after = wal.records().unwrap();
            assert_eq!(after.len(), 3, "corruption at byte {pos}");
            assert_eq!(after[2].payload, b"after recovery");
        }
    }

    #[test]
    fn scan_handles_hostile_length_field() {
        // A length field of u32::MAX must not overflow or allocate.
        let mut data = vec![0u8; 32];
        data[0..8].copy_from_slice(&0u64.to_le_bytes());
        data[8] = 1;
        data[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(scan_bytes(&data).is_empty());
    }

    #[test]
    fn sync_is_noop_when_fully_durable() {
        let sim = SimBackend::new(SimConfig::seeded(3));
        let wal = Wal::open_backend(sim.open("wal.log").unwrap()).unwrap();
        wal.append(1, b"x").unwrap();
        wal.sync().unwrap();
        let syncs_before = sim.stats().syncs;
        for _ in 0..10 {
            wal.sync().unwrap();
        }
        assert_eq!(sim.stats().syncs, syncs_before, "redundant syncs issued");
        wal.append(1, b"y").unwrap();
        wal.sync().unwrap();
        assert_eq!(sim.stats().syncs, syncs_before + 1);
    }

    #[test]
    fn unsynced_records_can_vanish_at_power_loss() {
        // Synced records always survive; the unsynced tail survives only
        // when the sim chooses to persist it — and for some seed it must
        // vanish.
        let mut vanished = false;
        for seed in 0..16 {
            let sim = SimBackend::new(SimConfig::seeded(seed));
            let file = sim.open("wal.log").unwrap();
            {
                let wal = Wal::open_backend(file.clone()).unwrap();
                wal.append(1, b"durable").unwrap();
                wal.sync().unwrap();
                wal.append(1, b"volatile").unwrap();
                // Flush to the device but do not sync.
                wal.records().unwrap();
            }
            sim.power_cycle();
            let wal = Wal::open_backend(file).unwrap();
            let records = wal.records().unwrap();
            assert!(!records.is_empty(), "seed {seed}: synced record lost");
            assert_eq!(records[0].payload, b"durable", "seed {seed}");
            if records.len() == 1 {
                vanished = true;
            }
        }
        assert!(vanished, "no seed ever dropped the unsynced tail");
    }

    #[test]
    fn sync_coalesced_zero_window_matches_sync() {
        let sim = SimBackend::new(SimConfig::seeded(7));
        let wal = Wal::open_backend(sim.open("wal.log").unwrap()).unwrap();
        wal.append(1, b"commit").unwrap();
        let upto = wal.next_lsn();
        wal.sync_coalesced(upto, Duration::ZERO).unwrap();
        assert!(wal.synced_lsn() >= upto);
        let syncs = sim.stats().syncs;
        // Already durable: a second coalesced sync is a no-op.
        wal.sync_coalesced(upto, Duration::ZERO).unwrap();
        assert_eq!(sim.stats().syncs, syncs);
    }

    #[test]
    fn concurrent_committers_share_barriers() {
        // 8 threads each append a commit record and demand durability
        // through the group-commit path. Every record must be durable at
        // the end, and the barrier count must come in under one sync per
        // committer (the whole point of the commit window).
        let sim = SimBackend::new(SimConfig::seeded(8));
        let wal = Arc::new(Wal::open_backend(sim.open("wal.log").unwrap()).unwrap());
        let syncs_before = sim.stats().syncs;
        const COMMITTERS: usize = 8;
        std::thread::scope(|scope| {
            for i in 0..COMMITTERS {
                let wal = Arc::clone(&wal);
                scope.spawn(move || {
                    let payload = format!("commit-{i}");
                    wal.append(2, payload.as_bytes()).unwrap();
                    let upto = wal.next_lsn();
                    wal.sync_coalesced(upto, Duration::from_millis(2)).unwrap();
                    assert!(wal.synced_lsn() >= upto, "committer {i} not durable");
                });
            }
        });
        let records = wal.records().unwrap();
        assert_eq!(records.len(), COMMITTERS);
        let syncs = sim.stats().syncs - syncs_before;
        assert!(
            (1..COMMITTERS as u64).contains(&syncs),
            "expected coalesced barriers, got {syncs} syncs for {COMMITTERS} commits"
        );
    }

    #[test]
    fn reset_clears_log() {
        let wal = Wal::open(tmpwal("reset")).unwrap();
        wal.append(1, b"x").unwrap();
        wal.reset().unwrap();
        assert!(wal.records().unwrap().is_empty());
        assert_eq!(wal.next_lsn(), 0);
        wal.append(1, b"fresh").unwrap();
        assert_eq!(wal.records().unwrap().len(), 1);
    }

    #[test]
    fn empty_payload_allowed() {
        let wal = Wal::open(tmpwal("empty")).unwrap();
        wal.append(7, b"").unwrap();
        let records = wal.records().unwrap();
        assert_eq!(records[0].kind, 7);
        assert!(records[0].payload.is_empty());
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_payloads(payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..20
        )) {
            let sim = SimBackend::new(SimConfig::seeded(5));
            let wal = Wal::open_backend(sim.open("wal.log").unwrap()).unwrap();
            for (i, p) in payloads.iter().enumerate() {
                wal.append((i % 250) as u8, p).unwrap();
            }
            let records = wal.records().unwrap();
            prop_assert_eq!(records.len(), payloads.len());
            for (r, p) in records.iter().zip(&payloads) {
                prop_assert_eq!(&r.payload, p);
            }
        }

        #[test]
        fn prop_table_crc_equals_bitwise(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }
}
