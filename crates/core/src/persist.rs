//! The persistent report store: an append-only on-disk tier behind
//! [`crate::ReportCache`].
//!
//! The in-memory LRU answers repeats within one process; this module makes
//! the cache survive restarts. A [`DiskStore`] is a single append-only file
//! (`reports.sbc` inside the `--cache-dir`) of checksummed records keyed by
//! [`crate::job_digest`]:
//!
//! ```text
//! header:  "SBRC" magic (4 bytes) | format version (u32 LE)
//! record:  digest (u64 LE) | payload length (u32 LE) | FNV-1a of payload (u64 LE) | payload
//! ```
//!
//! The payload is a fixed little-endian encoding of the trace-free
//! [`EmulationReport`] fields (see `encode_report`). On open, the store
//! scans the file and indexes `digest → (offset, len)`; the first record
//! whose header is short, whose length is implausible or whose checksum
//! does not match ends the scan and the file is truncated there
//! (*corrupt-tail truncation*) — a crash mid-append never poisons the
//! store, it just loses the tail. Appends are write-through and
//! deduplicated on digest; lookups re-verify the checksum, so a record
//! that rots in place is dropped rather than served.
//!
//! Two deliberate scope limits, both part of the cache contract
//! (DESIGN.md §10): **traced reports are never persisted** (the trace flag
//! is part of the digest, so traced jobs simply never disk-hit — a hit
//! stays bit-identical to a fresh run), and the store trusts its directory
//! no more than the LRU trusts its process: a digest collision is accepted
//! at the same ~`n²/2⁶⁵` odds.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use segbus_model::digest::Fnv64;
use segbus_model::ids::SegmentId;
use segbus_model::platform::BorderUnitRef;
use segbus_model::time::{ClockDomain, Picos};

use crate::counters::{BuCounters, CaCounters, FuTimes, SaCounters};
use crate::report::EmulationReport;

const MAGIC: [u8; 4] = *b"SBRC";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
/// digest (8) + payload length (4) + checksum (8).
const RECORD_HEADER_LEN: u64 = 20;
/// Defensive bound on one record's payload, so a corrupt length field
/// cannot trigger a multi-gigabyte allocation during the load scan.
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// The append-only on-disk report store. See the module docs for the file
/// format and the corruption policy.
pub struct DiskStore {
    file: File,
    path: PathBuf,
    /// `digest → (record offset, payload length)`.
    index: HashMap<u64, (u64, u32)>,
    /// Append position (end of the last valid record).
    end: u64,
    /// Records dropped by corrupt-tail truncation at open.
    truncated: u64,
    /// Dead records (corrupt-in-place or superseded) found at open and
    /// removed by the compact-on-open pass.
    dead_on_load: u64,
    /// Bytes reclaimed by the compact-on-open pass.
    reclaimed_on_load: u64,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("path", &self.path)
            .field("entries", &self.index.len())
            .field("end", &self.end)
            .finish()
    }
}

impl DiskStore {
    /// Open (or create) the store under `dir`, creating the directory if
    /// needed. An existing `reports.sbc` is scanned and indexed; a file
    /// with the wrong magic or version is replaced by a fresh store, and
    /// a corrupt tail is truncated away.
    pub fn open(dir: &Path) -> io::Result<DiskStore> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("reports.sbc");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut store = DiskStore {
            file,
            path,
            index: HashMap::new(),
            end: HEADER_LEN,
            truncated: 0,
            dead_on_load: 0,
            reclaimed_on_load: 0,
        };
        store.load()?;
        Ok(store)
    }

    /// Number of reports on disk.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if the store holds no reports.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Records dropped by corrupt-tail truncation when the store was
    /// opened (0 for a clean file).
    pub fn truncated_on_load(&self) -> u64 {
        self.truncated
    }

    /// Dead records (corrupt-in-place or superseded by a later record for
    /// the same digest) found when the store was opened and rewritten away
    /// by the compact-on-open pass (0 for a clean file).
    pub fn dead_on_load(&self) -> u64 {
        self.dead_on_load
    }

    /// Bytes reclaimed by the compact-on-open pass (0 for a clean file).
    pub fn reclaimed_on_load(&self) -> u64 {
        self.reclaimed_on_load
    }

    /// Size of the backing file in bytes (header plus live records).
    pub fn file_bytes(&self) -> u64 {
        self.end
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `true` if `digest` is stored (index only; the payload is verified
    /// on [`DiskStore::get`]).
    pub fn contains(&self, digest: u64) -> bool {
        self.index.contains_key(&digest)
    }

    /// Read the report stored under `digest`, re-verifying the record
    /// checksum. A record that fails verification is dropped from the
    /// index and `None` is returned (the caller re-emulates).
    pub fn get(&mut self, digest: u64) -> Option<EmulationReport> {
        let (offset, len) = *self.index.get(&digest)?;
        match self.read_record(offset, len, digest) {
            Some(report) => Some(report),
            None => {
                self.index.remove(&digest);
                None
            }
        }
    }

    /// Append `report` under `digest` unless it is already stored or
    /// carries a trace (traced reports are memory-only — module docs).
    /// Returns `true` if a record was written.
    pub fn append(&mut self, digest: u64, report: &EmulationReport) -> io::Result<bool> {
        if report.trace.is_some() || self.index.contains_key(&digest) {
            return Ok(false);
        }
        let payload = encode_report(report);
        debug_assert!(payload.len() as u64 <= MAX_PAYLOAD as u64);
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        record.extend_from_slice(&digest.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&fnv_of(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&record)?;
        self.file.flush()?;
        self.index.insert(digest, (self.end, payload.len() as u32));
        self.end += record.len() as u64;
        Ok(true)
    }

    // -- internals ---------------------------------------------------------

    /// Scan the file into the index. A record whose *frame* is plausible
    /// (length within bounds, record fully inside the file) but whose
    /// payload fails the checksum or decode is a *dead* record: it is
    /// skipped and the scan continues, so one record rotting in place no
    /// longer takes every record after it down with the tail. A record
    /// whose frame itself is implausible (short header, overlong length)
    /// ends the scan and the file is truncated there, exactly as before —
    /// that is the crash-mid-append case, where nothing after the tear can
    /// be framed. When the scan found dead records (or superseded
    /// duplicates), a compact pass rewrites the file keeping only live
    /// records. An empty or foreign file is reinitialised.
    fn load(&mut self) -> io::Result<()> {
        let file_len = self.file.seek(SeekFrom::End(0))?;
        let mut header = [0u8; HEADER_LEN as usize];
        let valid_header = file_len >= HEADER_LEN && {
            self.file.seek(SeekFrom::Start(0))?;
            self.file.read_exact(&mut header)?;
            header[..4] == MAGIC && u32::from_le_bytes(header[4..8].try_into().unwrap()) == VERSION
        };
        if !valid_header {
            self.file.set_len(0)?;
            self.file.seek(SeekFrom::Start(0))?;
            self.file.write_all(&MAGIC)?;
            self.file.write_all(&VERSION.to_le_bytes())?;
            self.file.flush()?;
            self.end = HEADER_LEN;
            return Ok(());
        }
        let mut at = HEADER_LEN;
        let mut dead = 0u64;
        let mut rec_header = [0u8; RECORD_HEADER_LEN as usize];
        while at + RECORD_HEADER_LEN <= file_len {
            self.file.seek(SeekFrom::Start(at))?;
            self.file.read_exact(&mut rec_header)?;
            let digest = u64::from_le_bytes(rec_header[0..8].try_into().unwrap());
            let len = u32::from_le_bytes(rec_header[8..12].try_into().unwrap());
            let checksum = u64::from_le_bytes(rec_header[12..20].try_into().unwrap());
            let next = at + RECORD_HEADER_LEN + len as u64;
            if len > MAX_PAYLOAD || next > file_len {
                break;
            }
            let mut payload = vec![0u8; len as usize];
            self.file.read_exact(&mut payload)?;
            if fnv_of(&payload) != checksum || decode_report(&payload).is_none() {
                // Dead in place: framing is intact, content is not. Skip
                // it — the compact pass below reclaims the bytes.
                dead += 1;
                at = next;
                continue;
            }
            if self.index.insert(digest, (at, len)).is_some() {
                // Superseded duplicate (a foreign or hand-merged file —
                // append itself dedupes): the later record wins, the
                // earlier one is dead space.
                dead += 1;
            }
            at = next;
        }
        if at < file_len {
            // Corrupt or partial tail: cut it off so the next append
            // starts from a clean boundary.
            self.truncated = 1;
            self.file.set_len(at)?;
        }
        self.end = at;
        if dead > 0 {
            self.dead_on_load = dead;
            self.reclaimed_on_load = self.compact()?;
        }
        Ok(())
    }

    /// Rewrite the backing file keeping only the live (indexed) records,
    /// reclaiming the space of dead or superseded ones. Returns the number
    /// of bytes reclaimed (0 when the store was already compact).
    ///
    /// The rewrite happens in place on the open handle (portable across
    /// the CI OS matrix, where rename-over-open-file is not): live
    /// payloads are staged in memory first, so a crash mid-compact can
    /// lose records — the same corrupt-tail contract as a crash
    /// mid-append, and the records are by definition reproducible cache
    /// entries.
    pub fn compact(&mut self) -> io::Result<u64> {
        let live_bytes: u64 = self
            .index
            .values()
            .map(|&(_, len)| RECORD_HEADER_LEN + len as u64)
            .sum();
        let compact_end = HEADER_LEN + live_bytes;
        if compact_end == self.end {
            return Ok(0);
        }
        // Stage the live records in file order, then rewrite from scratch.
        let mut entries: Vec<(u64, u64, u32)> = self
            .index
            .iter()
            .map(|(&digest, &(offset, len))| (digest, offset, len))
            .collect();
        entries.sort_by_key(|&(_, offset, _)| offset);
        let mut staged = Vec::with_capacity(entries.len());
        for &(digest, offset, len) in &entries {
            self.file
                .seek(SeekFrom::Start(offset + RECORD_HEADER_LEN))?;
            let mut payload = vec![0u8; len as usize];
            self.file.read_exact(&mut payload)?;
            staged.push((digest, payload));
        }
        let reclaimed = self.end - compact_end;
        self.file.set_len(HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&MAGIC)?;
        self.file.write_all(&VERSION.to_le_bytes())?;
        self.index.clear();
        self.end = HEADER_LEN;
        for (digest, payload) in staged {
            let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
            record.extend_from_slice(&digest.to_le_bytes());
            record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            record.extend_from_slice(&fnv_of(&payload).to_le_bytes());
            record.extend_from_slice(&payload);
            self.file.write_all(&record)?;
            self.index.insert(digest, (self.end, payload.len() as u32));
            self.end += record.len() as u64;
        }
        self.file.flush()?;
        debug_assert_eq!(self.end, compact_end);
        Ok(reclaimed)
    }

    fn read_record(&mut self, offset: u64, len: u32, digest: u64) -> Option<EmulationReport> {
        let mut rec_header = [0u8; RECORD_HEADER_LEN as usize];
        self.file.seek(SeekFrom::Start(offset)).ok()?;
        self.file.read_exact(&mut rec_header).ok()?;
        let stored_digest = u64::from_le_bytes(rec_header[0..8].try_into().unwrap());
        let stored_len = u32::from_le_bytes(rec_header[8..12].try_into().unwrap());
        let checksum = u64::from_le_bytes(rec_header[12..20].try_into().unwrap());
        if stored_digest != digest || stored_len != len {
            return None;
        }
        let mut payload = vec![0u8; len as usize];
        self.file.read_exact(&mut payload).ok()?;
        if fnv_of(&payload) != checksum {
            return None;
        }
        decode_report(&payload)
    }
}

fn fnv_of(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    for &b in bytes {
        h.write_u8(b);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// payload encoding

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode the trace-free fields of `report`. The layout is fixed (no
/// tags): every field in struct order, lengths as `u32`, optional instants
/// as a presence bitmask plus the present values.
fn encode_report(report: &EmulationReport) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(64 + 64 * (report.sas.len() + report.bus.len() + report.fus.len()));
    put_u32(&mut out, report.package_size);
    put_u64(&mut out, report.makespan.0);
    put_u64(&mut out, report.ca_clock.period_ps());
    for v in [
        report.ca.tct,
        report.ca.inter_requests,
        report.ca.grants,
        report.ca.releases,
        report.ca.busy_ticks,
    ] {
        put_u64(&mut out, v);
    }
    put_u32(&mut out, report.sas.len() as u32);
    for (sa, clk) in report.sas.iter().zip(&report.segment_clocks) {
        put_u64(&mut out, clk.period_ps());
        for v in [
            sa.tct,
            sa.intra_requests,
            sa.inter_requests,
            sa.packets_to_left,
            sa.packets_to_right,
            sa.busy_ticks,
            sa.last_activity.0,
        ] {
            put_u64(&mut out, v);
        }
    }
    put_u32(&mut out, report.bus.len() as u32);
    for (bu, r) in report.bus.iter().zip(&report.bu_refs) {
        put_u16(&mut out, r.left.0);
        put_u16(&mut out, r.right.0);
        for v in [
            bu.received_from_left,
            bu.received_from_right,
            bu.transferred_to_left,
            bu.transferred_to_right,
            bu.tct,
            bu.waiting_ticks,
        ] {
            put_u64(&mut out, v);
        }
    }
    put_u32(&mut out, report.fus.len() as u32);
    for fu in &report.fus {
        let mask = fu.start.is_some() as u8
            | (fu.end.is_some() as u8) << 1
            | (fu.last_received.is_some() as u8) << 2
            | (fu.flag as u8) << 3;
        out.push(mask);
        for t in [fu.start, fu.end, fu.last_received].into_iter().flatten() {
            put_u64(&mut out, t.0);
        }
        for v in [fu.packages_sent, fu.compute_ticks, fu.packages_received] {
            put_u64(&mut out, v);
        }
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(slice)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn clock(&mut self) -> Option<ClockDomain> {
        ClockDomain::try_from_period_ps(self.u64()?)
    }
    /// Length field, bounded so a corrupt value cannot drive a huge
    /// allocation (the payload is at most `MAX_PAYLOAD` bytes anyway).
    fn len(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        (n <= self.bytes.len()).then_some(n)
    }
}

/// Decode a payload produced by [`encode_report`]; `None` on any
/// truncation or invalid field (treated as corruption by the caller).
fn decode_report(payload: &[u8]) -> Option<EmulationReport> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let package_size = c.u32()?;
    let makespan = Picos(c.u64()?);
    let ca_clock = c.clock()?;
    let ca = CaCounters {
        tct: c.u64()?,
        inter_requests: c.u64()?,
        grants: c.u64()?,
        releases: c.u64()?,
        busy_ticks: c.u64()?,
    };
    let nseg = c.len()?;
    let mut segment_clocks = Vec::with_capacity(nseg);
    let mut sas = Vec::with_capacity(nseg);
    for _ in 0..nseg {
        segment_clocks.push(c.clock()?);
        sas.push(SaCounters {
            tct: c.u64()?,
            intra_requests: c.u64()?,
            inter_requests: c.u64()?,
            packets_to_left: c.u64()?,
            packets_to_right: c.u64()?,
            busy_ticks: c.u64()?,
            last_activity: Picos(c.u64()?),
        });
    }
    let nbu = c.len()?;
    let mut bu_refs = Vec::with_capacity(nbu);
    let mut bus = Vec::with_capacity(nbu);
    for _ in 0..nbu {
        bu_refs.push(BorderUnitRef {
            left: SegmentId(c.u16()?),
            right: SegmentId(c.u16()?),
        });
        bus.push(BuCounters {
            received_from_left: c.u64()?,
            received_from_right: c.u64()?,
            transferred_to_left: c.u64()?,
            transferred_to_right: c.u64()?,
            tct: c.u64()?,
            waiting_ticks: c.u64()?,
        });
    }
    let nfu = c.len()?;
    let mut fus = Vec::with_capacity(nfu);
    for _ in 0..nfu {
        let mask = c.u8()?;
        let start = (mask & 1 != 0).then(|| c.u64()).flatten().map(Picos);
        if mask & 1 != 0 && start.is_none() {
            return None;
        }
        let end = (mask & 2 != 0).then(|| c.u64()).flatten().map(Picos);
        if mask & 2 != 0 && end.is_none() {
            return None;
        }
        let last_received = (mask & 4 != 0).then(|| c.u64()).flatten().map(Picos);
        if mask & 4 != 0 && last_received.is_none() {
            return None;
        }
        fus.push(FuTimes {
            start,
            end,
            last_received,
            packages_sent: c.u64()?,
            compute_ticks: c.u64()?,
            packages_received: c.u64()?,
            flag: mask & 8 != 0,
        });
    }
    if c.at != payload.len() {
        return None; // trailing bytes: not a payload this version wrote
    }
    Some(EmulationReport {
        sas,
        ca,
        bus,
        bu_refs,
        fus,
        segment_clocks,
        ca_clock,
        package_size,
        makespan,
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmulatorConfig;
    use crate::engine::Emulator;
    use segbus_model::mapping::{Allocation, Psm};
    use segbus_model::platform::Platform;
    use segbus_model::psdf::{Application, Flow, Process};
    use segbus_model::time::ClockDomain;

    fn psm(items: u64) -> Psm {
        let mut app = Application::new("p");
        let a = app.add_process(Process::initial("A"));
        let b = app.add_process(Process::final_("B"));
        app.add_flow(Flow::new(a, b, items, 1, 50)).unwrap();
        let mut alloc = Allocation::new(2);
        alloc.assign(a, SegmentId(0));
        alloc.assign(b, SegmentId(1));
        let platform = Platform::builder("t")
            .uniform_segments(2, ClockDomain::from_mhz(100.0))
            .build()
            .unwrap();
        Psm::new(platform, app, alloc).unwrap()
    }

    fn report(items: u64) -> EmulationReport {
        Emulator::new(EmulatorConfig::default())
            .try_run(&psm(items))
            .unwrap()
    }

    fn assert_same(a: &EmulationReport, b: &EmulationReport) {
        assert_eq!(a.sas, b.sas);
        assert_eq!(a.ca, b.ca);
        assert_eq!(a.bus, b.bus);
        assert_eq!(a.bu_refs, b.bu_refs);
        assert_eq!(a.fus, b.fus);
        assert_eq!(a.segment_clocks, b.segment_clocks);
        assert_eq!(a.ca_clock, b.ca_clock);
        assert_eq!(a.package_size, b.package_size);
        assert_eq!(a.makespan, b.makespan);
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "segbus-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn payload_round_trips() {
        let r = report(72);
        let decoded = decode_report(&encode_report(&r)).unwrap();
        assert_same(&r, &decoded);
    }

    #[test]
    fn store_survives_reopen() {
        let dir = tmpdir("reopen");
        let r36 = report(36);
        let r72 = report(72);
        {
            let mut store = DiskStore::open(&dir).unwrap();
            assert!(store.is_empty());
            assert!(store.append(1, &r36).unwrap());
            assert!(store.append(2, &r72).unwrap());
            assert!(!store.append(1, &r36).unwrap(), "dedupe on digest");
        }
        let mut store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.truncated_on_load(), 0);
        assert!(store.contains(1) && store.contains(2));
        assert_same(&store.get(1).unwrap(), &r36);
        assert_same(&store.get(2).unwrap(), &r72);
        assert!(store.get(3).is_none());
    }

    #[test]
    fn corrupt_tail_is_truncated_and_store_stays_usable() {
        let dir = tmpdir("tail");
        {
            let mut store = DiskStore::open(&dir).unwrap();
            store.append(1, &report(36)).unwrap();
            store.append(2, &report(72)).unwrap();
        }
        // Chop the last record in half: record 1 must survive, record 2 go.
        let path = dir.join("reports.sbc");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        {
            let mut store = DiskStore::open(&dir).unwrap();
            assert_eq!(store.len(), 1);
            assert_eq!(store.truncated_on_load(), 1);
            assert!(store.get(1).is_some());
            assert!(store.get(2).is_none());
            // Appending after truncation lands on the clean boundary.
            store.append(2, &report(72)).unwrap();
        }
        let mut store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.get(2).is_some());
    }

    #[test]
    fn flipped_byte_fails_verification_on_read() {
        let dir = tmpdir("flip");
        {
            let mut store = DiskStore::open(&dir).unwrap();
            store.append(7, &report(36)).unwrap();
        }
        let path = dir.join("reports.sbc");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // corrupt the payload in place
        std::fs::write(&path, &bytes).unwrap();
        // The open-time scan already rejects the record…
        let mut store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.get(7).is_none());
        let _ = store;
    }

    #[test]
    fn foreign_file_is_reinitialised() {
        let dir = tmpdir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("reports.sbc"), b"not a segbus cache").unwrap();
        let mut store = DiskStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert!(store.append(1, &report(36)).unwrap());
        drop(store);
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
    }

    /// Offset of record `i`'s payload (0-based), parsed from the file's
    /// own framing.
    fn payload_offset(bytes: &[u8], i: usize) -> usize {
        let mut at = HEADER_LEN as usize;
        for _ in 0..i {
            let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
            at += RECORD_HEADER_LEN as usize + len;
        }
        at + RECORD_HEADER_LEN as usize
    }

    #[test]
    fn dead_middle_record_is_compacted_away_and_survivors_kept() {
        let dir = tmpdir("compact");
        let (r36, r72, r108) = (report(36), report(72), report(108));
        {
            let mut store = DiskStore::open(&dir).unwrap();
            store.append(1, &r36).unwrap();
            store.append(2, &r72).unwrap();
            store.append(3, &r108).unwrap();
        }
        // Rot the middle record's payload in place.
        let path = dir.join("reports.sbc");
        let mut bytes = std::fs::read(&path).unwrap();
        let bloated = bytes.len() as u64;
        let at = payload_offset(&bytes, 1);
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        {
            // The records on either side survive (the pre-compaction store
            // would have truncated record 3 away with the tail), the dead
            // one is rewritten out, and the file shrinks.
            let mut store = DiskStore::open(&dir).unwrap();
            assert_eq!(store.len(), 2);
            assert_eq!(store.dead_on_load(), 1);
            assert!(store.reclaimed_on_load() > 0);
            assert!(store.file_bytes() < bloated, "bloated store must shrink");
            assert_same(&store.get(1).unwrap(), &r36);
            assert!(store.get(2).is_none());
            assert_same(&store.get(3).unwrap(), &r108);
            // The freed digest can be re-appended onto the compact file.
            assert!(store.append(2, &r72).unwrap());
        }
        // …and the compacted store survives reopen, clean.
        let mut store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.dead_on_load(), 0);
        assert_eq!(store.truncated_on_load(), 0);
        assert_same(&store.get(2).unwrap(), &r72);
    }

    #[test]
    fn compact_is_a_noop_on_a_clean_store() {
        let dir = tmpdir("compact-noop");
        let mut store = DiskStore::open(&dir).unwrap();
        store.append(1, &report(36)).unwrap();
        store.append(2, &report(72)).unwrap();
        let before = store.file_bytes();
        assert_eq!(store.compact().unwrap(), 0);
        assert_eq!(store.file_bytes(), before);
        assert_eq!(store.len(), 2);
        assert_same(&store.get(1).unwrap(), &report(36));
    }

    #[test]
    fn traced_reports_are_not_persisted() {
        let dir = tmpdir("traced");
        let traced = Emulator::new(EmulatorConfig::traced())
            .try_run(&psm(36))
            .unwrap();
        let mut store = DiskStore::open(&dir).unwrap();
        assert!(!store.append(9, &traced).unwrap());
        assert!(store.is_empty());
    }
}
