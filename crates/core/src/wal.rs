//! Write-ahead log and checksummed checkpoints for engine state.
//!
//! A sharded plane treats each shard's density state (ObjectTable
//! reports, DH counts, Chebyshev coefficient grids) as state that must
//! survive faults: every record the shard ingests is appended to its
//! [`Wal`] segment *before* it is applied, and the shard's checkpoints
//! are sealed with [`seal_checkpoint`]. Shard-local recovery restores
//! the latest checkpoint and replays the segment tail; because every
//! engine mutation is deterministic (integer histogram counters,
//! order-preserving batches) the recovered engine answers queries
//! **bit-identically** to one that never crashed — asserted by the
//! crash-point sweep test.
//!
//! Both layers are checksummed so corruption is detected, not
//! consumed:
//!
//! * each WAL record is framed `[len u32][crc32 u32][payload]`; replay
//!   stops cleanly at a torn tail (a record whose frame is incomplete
//!   or whose checksum fails), reporting how many bytes it dropped;
//! * a checkpoint is wrapped `PDCK` + version + length + crc32 by
//!   [`seal_checkpoint`] and verified by [`open_checkpoint`].
//!
//! Records use one columnar codec (`codec2`): a batch stores all ids,
//! then all timestamps, then the kind column, then the motion columns —
//! LEB128 varints with delta coding for ids, delta-of-delta for
//! `t_now`, `t_ref` relative to its row's `t_now`, run-length coding
//! for the (alternating) kind column, and XOR-predicted raw-bits f64
//! columns (see [`crate::colcodec`]). A payload tag other than the
//! codec's two (advance, batch) is a format error, never a torn tail.

use crate::colcodec::{get_xor_column_classed, put_xor_column_classed};
use pdr_mobject::{MotionState, ObjectId, Timestamp, Update, UpdateKind};
use pdr_storage::{crc32, unzigzag64, zigzag64, ByteReader, ByteWriter, CodecError};
use std::fmt;

/// Record payload tags of codec2. Tags 1 and 2 belonged to a retired
/// row-oriented codec and now decode as unknown tags.
const TAG_ADVANCE: u8 = 3;
const TAG_BATCH: u8 = 4;

/// The WAL record codec. Codec2 is the only one: this one-variant enum
/// remains only because the repository benchmark (`perfbench/`) calls
/// [`Wal::with_codec`]; ROADMAP item 6 deletes both with the next
/// benchmark revision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WalCodec {
    /// Columnar delta/varint/XOR-predicted records (`codec2`).
    V2,
}

/// One logical WAL record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// `advance_to(t)` was about to run.
    Advance(Timestamp),
    /// `apply_batch(updates)` was about to run.
    Batch(Vec<Update>),
}

/// An in-memory write-ahead log of the update protocol. Records are
/// appended *before* the corresponding engine mutation runs.
#[derive(Clone, Debug, Default)]
pub struct Wal {
    log: ByteWriter,
    records: u64,
    allocs: u64,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// An empty log; the same as [`Wal::new`] (see [`WalCodec`]).
    pub fn with_codec(_codec: WalCodec) -> Self {
        Wal::new()
    }

    /// The raw encoded log (what would be on disk).
    pub fn bytes(&self) -> &[u8] {
        self.log.as_slice()
    }

    /// Current end offset — a checkpoint taken now replays from here.
    pub fn offset(&self) -> usize {
        self.log.len()
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends that grew the log's heap allocation. Appends frame
    /// records directly into the log buffer, so growth is the only
    /// allocation on this path and amortizes to O(log bytes) events.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Appends an `advance_to(t)` record.
    pub fn append_advance(&mut self, t: Timestamp) {
        self.frame_with(|w| {
            w.put_u8(TAG_ADVANCE);
            w.put_uvarint(t);
        });
    }

    /// Appends an `apply_batch` record.
    pub fn append_batch(&mut self, updates: &[Update]) {
        self.frame_with(|w| encode_batch(w, updates));
    }

    /// Appends already-framed record bytes — a segment tail shipped
    /// from a primary log whose frames were verified by [`replay`].
    /// `records` is the number of whole frames in `bytes`.
    pub fn append_framed(&mut self, bytes: &[u8], records: u64) {
        let cap = self.log.capacity();
        self.log.put_bytes(bytes);
        if self.log.capacity() != cap {
            self.allocs += 1;
        }
        self.records += records;
    }

    /// Frames one record: writes a placeholder length/crc header,
    /// lets `encode` append the payload *directly into the log
    /// buffer*, then patches the header in place. No temporary
    /// payload buffer, no copy — the only allocation is buffer
    /// growth, which [`Wal::allocs`] counts.
    fn frame_with(&mut self, encode: impl FnOnce(&mut ByteWriter)) {
        let cap = self.log.capacity();
        let start = self.log.len();
        self.log.put_u64(0); // len + crc placeholders
        encode(&mut self.log);
        let payload = &self.log.as_slice()[start + 8..];
        let len = u32::try_from(payload.len()).expect("record exceeds u32");
        let crc = crc32(payload);
        self.log.patch_u32(start, len);
        self.log.patch_u32(start + 4, crc);
        if self.log.capacity() != cap {
            self.allocs += 1;
        }
        self.records += 1;
    }
}

/// Outcome of replaying (a prefix of) a WAL byte stream.
#[derive(Clone, Debug, PartialEq)]
pub struct WalReplay {
    /// The complete, checksum-verified records, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes at the tail that did not form a verified record (torn
    /// final write, or a truncated copy). `0` for a clean log.
    pub torn_bytes: usize,
}

/// Decodes `bytes` record by record, stopping cleanly at a torn tail.
/// A record that passes its checksum but fails to decode (an unknown
/// tag included) is a format error, not a torn write, and is reported
/// as `Err`.
pub fn replay(bytes: &[u8]) -> Result<WalReplay, CodecError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = &bytes[pos..];
        if remaining.len() < 8 {
            break; // torn frame header
        }
        let len = u32::from_le_bytes(remaining[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(remaining[4..8].try_into().expect("4 bytes"));
        if remaining.len() < 8 + len {
            break; // torn payload
        }
        let payload = &remaining[8..8 + len];
        if crc32(payload) != crc {
            break; // half-written record: checksum catches it
        }
        records.push(decode_record(payload)?);
        pos += 8 + len;
    }
    Ok(WalReplay {
        records,
        torn_bytes: bytes.len() - pos,
    })
}

/// Byte offsets of every record boundary in `bytes` (0, after record
/// 1, after record 2, …). The crash-point sweep kills the log at each
/// of these and at points in between.
pub fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0usize];
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if pos + 8 + len > bytes.len() {
            break;
        }
        pos += 8 + len;
        offsets.push(pos);
    }
    offsets
}

#[allow(clippy::too_many_arguments)]
fn build_update(
    id: ObjectId,
    t_now: Timestamp,
    kind: u8,
    ox: f64,
    oy: f64,
    vx: f64,
    vy: f64,
    t_ref: Timestamp,
) -> Result<Update, CodecError> {
    if !(ox.is_finite() && oy.is_finite() && vx.is_finite() && vy.is_finite()) {
        return Err(CodecError::Corrupt("non-finite motion in WAL"));
    }
    let motion = MotionState {
        origin: pdr_geometry::Point::new(ox, oy),
        velocity: pdr_geometry::Point::new(vx, vy),
        t_ref,
    };
    match kind {
        0 => Ok(Update {
            id,
            t_now,
            kind: UpdateKind::Insert { motion },
        }),
        1 => Ok(Update {
            id,
            t_now,
            kind: UpdateKind::Delete { old_motion: motion },
        }),
        _ => Err(CodecError::Corrupt("unknown update kind in WAL")),
    }
}

// ---------------------------------------------------------------------
// Batch records
// ---------------------------------------------------------------------
//
// Batch layout (after the tag):
//
//   n            uvarint   row count
//   ids          uvarint first, then ivarint deltas (wrapping)
//   t_now        uvarint first, ivarint first delta, then the
//                delta-of-delta stream zero-run encoded: repeated
//                (uvarint zero-run-length, then — if rows remain —
//                one non-zero ivarint). A tick's batch is
//                constant-time, so the whole column is ~3 bytes
//   kinds        u8 first kind, then RLE runs over the XOR-diff
//                stream kind[i]^kind[i-1] — the workload's
//                delete/insert pairs alternate every row, which is
//                RLE's worst case raw but a single all-ones run after
//                the diff transform
//   t_ref        zigzag(t_ref - t_now) nibble-packed two per byte;
//                nibble 15 escapes to a full uvarint appended after
//                the nibble block in row order. Inserts report
//                t_ref == t_now (nibble 0) and delete ages are small,
//                so this column is ~0.5 bytes/row
//   vx vy        sign-separated f64 bit columns: ceil(n/8) bytes of
//                packed sign bits (LSB-first), then the magnitude
//                bits (sign masked off) as a class-coded XOR column
//                (colcodec) predicted from the previous row's
//                magnitude. Re-reports flip heading sign freely; the
//                magnitudes' exponents stay close, so stripping the
//                sign saves most of the top residual byte
//   ox oy        class-coded XOR f64 bit columns. Origins predict the
//                previous row's value — except when a row is the
//                insert half of a delete/insert pair for the same id
//                at the same t_now, where the prediction is the
//                deleted motion dead-reckoned to t_now
//                (`origin + velocity * dt`, matching
//                `MotionState::position_at`): a timeout re-report's
//                origin is near (often exactly) that point
//
// Velocity columns come before origin columns because the origin
// prediction for row i reads the already-decoded velocity of row i-1
// (full bits, sign included).

const SIGN_BIT: u64 = 1 << 63;

/// Writes a velocity column: packed sign bits, then the class-coded
/// XOR column of the magnitude bits predicted from the previous row's
/// magnitude.
fn put_velocity_column(w: &mut ByteWriter, col: &[u64]) {
    let n = col.len();
    let mut i = 0;
    while i < n {
        let mut byte = 0u8;
        for j in 0..8 {
            if i + j < n && col[i + j] & SIGN_BIT != 0 {
                byte |= 1 << j;
            }
        }
        w.put_u8(byte);
        i += 8;
    }
    let mags: Vec<u64> = col.iter().map(|&v| v & !SIGN_BIT).collect();
    let preds: Vec<u64> = std::iter::once(0)
        .chain(mags[..n - 1].iter().copied())
        .collect();
    put_xor_column_classed(w, &mags, &preds);
}

/// Reads a column written by [`put_velocity_column`], returning full
/// bits (sign restored).
fn get_velocity_column(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<u64>, CodecError> {
    let sign_bytes = r.get_bytes(n.div_ceil(8))?.to_vec();
    let prev = |i: usize, done: &[u64]| if i == 0 { 0 } else { done[i - 1] };
    let mags = get_xor_column_classed(r, n, prev)?;
    Ok(mags
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let sign = (sign_bytes[i / 8] >> (i % 8)) & 1;
            m | (u64::from(sign) << 63)
        })
        .collect())
}

/// Marks rows that are the insert half of a same-id, same-timestamp
/// delete/insert pair (the shape `ObjectTable::report` emits).
fn pair_flags(ids: &[u64], t_now: &[u64], kinds: &[u8]) -> Vec<bool> {
    (0..ids.len())
        .map(|i| {
            i > 0
                && kinds[i] == 0
                && kinds[i - 1] == 1
                && ids[i] == ids[i - 1]
                && t_now[i] == t_now[i - 1]
        })
        .collect()
}

/// Dead-reckons a deleted motion's coordinate to `t_now` — the codec2
/// origin prediction for pair rows. Must stay bit-identical between
/// encoder and decoder (it is: both call this), and matches
/// `MotionState::position_at` so simulator timeout re-reports predict
/// exactly.
fn predict_coord(coord_bits: u64, vel_bits: u64, t_now: u64, t_ref: u64) -> u64 {
    let dt = t_now as f64 - t_ref as f64;
    (f64::from_bits(coord_bits) + f64::from_bits(vel_bits) * dt).to_bits()
}

fn encode_batch(w: &mut ByteWriter, updates: &[Update]) {
    w.put_u8(TAG_BATCH);
    w.put_uvarint(updates.len() as u64);
    let n = updates.len();
    if n == 0 {
        return;
    }
    let ids: Vec<u64> = updates.iter().map(|u| u.id.0).collect();
    let t_now: Vec<u64> = updates.iter().map(|u| u.t_now).collect();
    let mut kinds = Vec::with_capacity(n);
    let mut motions = Vec::with_capacity(n);
    for u in updates {
        let (k, m) = match u.kind {
            UpdateKind::Insert { motion } => (0u8, motion),
            UpdateKind::Delete { old_motion } => (1u8, old_motion),
        };
        kinds.push(k);
        motions.push(m);
    }

    // id column: first value, then wrapping deltas.
    w.put_uvarint(ids[0]);
    for i in 1..n {
        w.put_ivarint(ids[i].wrapping_sub(ids[i - 1]) as i64);
    }

    // t_now column: delta-of-delta, zero-run encoded.
    w.put_uvarint(t_now[0]);
    if n >= 2 {
        let mut prev = t_now[1].wrapping_sub(t_now[0]) as i64;
        w.put_ivarint(prev);
        let mut dod = Vec::with_capacity(n - 2);
        for i in 2..n {
            let d = t_now[i].wrapping_sub(t_now[i - 1]) as i64;
            dod.push(d.wrapping_sub(prev));
            prev = d;
        }
        let mut i = 0;
        while i < dod.len() {
            let mut zeros = 0;
            while i + zeros < dod.len() && dod[i + zeros] == 0 {
                zeros += 1;
            }
            w.put_uvarint(zeros as u64);
            i += zeros;
            if i < dod.len() {
                w.put_ivarint(dod[i]);
                i += 1;
            }
        }
    }

    // kind column: first kind, then RLE over the XOR-diff stream.
    w.put_u8(kinds[0]);
    let mut runs: Vec<(u8, u64)> = Vec::new();
    for i in 1..n {
        let d = kinds[i] ^ kinds[i - 1];
        match runs.last_mut() {
            Some((bit, len)) if *bit == d => *len += 1,
            _ => runs.push((d, 1)),
        }
    }
    w.put_uvarint(runs.len() as u64);
    for (bit, len) in runs {
        w.put_u8(bit);
        w.put_uvarint(len);
    }

    // t_ref column: zigzag deltas against the row's t_now, nibble
    // packed; 15 escapes to a trailing uvarint.
    let rels: Vec<u64> = updates
        .iter()
        .zip(&motions)
        .map(|(u, m)| zigzag64(m.t_ref.wrapping_sub(u.t_now) as i64))
        .collect();
    let mut i = 0;
    while i < n {
        let nib = |k: usize| if k < n { rels[k].min(15) as u8 } else { 0 };
        w.put_u8(nib(i) | (nib(i + 1) << 4));
        i += 2;
    }
    for &rel in &rels {
        if rel >= 15 {
            w.put_uvarint(rel);
        }
    }

    // Motion columns.
    let t_ref: Vec<u64> = motions.iter().map(|m| m.t_ref).collect();
    let vx: Vec<u64> = motions.iter().map(|m| m.velocity.x.to_bits()).collect();
    let vy: Vec<u64> = motions.iter().map(|m| m.velocity.y.to_bits()).collect();
    let ox: Vec<u64> = motions.iter().map(|m| m.origin.x.to_bits()).collect();
    let oy: Vec<u64> = motions.iter().map(|m| m.origin.y.to_bits()).collect();
    let pairs = pair_flags(&ids, &t_now, &kinds);
    put_velocity_column(w, &vx);
    put_velocity_column(w, &vy);
    let origin_preds = |coord: &[u64], vel: &[u64]| -> Vec<u64> {
        (0..n)
            .map(|i| {
                if i == 0 {
                    0
                } else if pairs[i] {
                    predict_coord(coord[i - 1], vel[i - 1], t_now[i], t_ref[i - 1])
                } else {
                    coord[i - 1]
                }
            })
            .collect()
    };
    put_xor_column_classed(w, &ox, &origin_preds(&ox, &vx));
    put_xor_column_classed(w, &oy, &origin_preds(&oy, &vy));
}

fn decode_batch(r: &mut ByteReader<'_>) -> Result<Vec<Update>, CodecError> {
    let n = r.get_uvarint()? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    if n > r.remaining() {
        return Err(CodecError::Corrupt("batch count exceeds payload"));
    }

    let mut ids = Vec::with_capacity(n);
    ids.push(r.get_uvarint()?);
    for i in 1..n {
        let d = r.get_ivarint()?;
        ids.push(ids[i - 1].wrapping_add(d as u64));
    }

    let mut t_now = Vec::with_capacity(n);
    t_now.push(r.get_uvarint()?);
    if n >= 2 {
        let mut prev = r.get_ivarint()?;
        t_now.push(t_now[0].wrapping_add(prev as u64));
        let m = n - 2;
        let mut dod = Vec::with_capacity(m);
        while dod.len() < m {
            let zeros = r.get_uvarint()? as usize;
            if zeros > m - dod.len() {
                return Err(CodecError::Corrupt("t_now zero run exceeds batch"));
            }
            dod.resize(dod.len() + zeros, 0i64);
            if dod.len() < m {
                dod.push(r.get_ivarint()?);
            }
        }
        for (i, &dd) in dod.iter().enumerate() {
            let d = prev.wrapping_add(dd);
            t_now.push(t_now[i + 1].wrapping_add(d as u64));
            prev = d;
        }
    }

    let first_kind = r.get_u8()?;
    if first_kind > 1 {
        return Err(CodecError::Corrupt("unknown update kind in WAL"));
    }
    let num_runs = r.get_uvarint()? as usize;
    if num_runs > r.remaining() {
        return Err(CodecError::Corrupt("kind run count exceeds payload"));
    }
    let mut kinds = Vec::with_capacity(n);
    kinds.push(first_kind);
    for _ in 0..num_runs {
        let bit = r.get_u8()?;
        if bit > 1 {
            return Err(CodecError::Corrupt("kind diff bit out of range"));
        }
        let len = r.get_uvarint()?;
        if len as u128 > (n - kinds.len()) as u128 {
            return Err(CodecError::Corrupt("kind runs exceed batch"));
        }
        for _ in 0..len {
            kinds.push(kinds.last().expect("non-empty") ^ bit);
        }
    }
    if kinds.len() != n {
        return Err(CodecError::Corrupt("kind runs shorter than batch"));
    }

    let packed = r.get_bytes(n.div_ceil(2))?.to_vec();
    let mut rel_nibbles = Vec::with_capacity(n);
    for byte in packed {
        for nibble in [byte & 0x0F, byte >> 4] {
            if rel_nibbles.len() == n {
                break;
            }
            rel_nibbles.push(nibble);
        }
    }
    let mut t_ref = Vec::with_capacity(n);
    for i in 0..n {
        let rel = if rel_nibbles[i] == 15 {
            r.get_uvarint()?
        } else {
            u64::from(rel_nibbles[i])
        };
        t_ref.push(t_now[i].wrapping_add(unzigzag64(rel) as u64));
    }

    let vx = get_velocity_column(r, n)?;
    let vy = get_velocity_column(r, n)?;
    let pairs = pair_flags(&ids, &t_now, &kinds);
    let ox = get_xor_column_classed(r, n, |i, done| {
        if i == 0 {
            0
        } else if pairs[i] {
            predict_coord(done[i - 1], vx[i - 1], t_now[i], t_ref[i - 1])
        } else {
            done[i - 1]
        }
    })?;
    let oy = get_xor_column_classed(r, n, |i, done| {
        if i == 0 {
            0
        } else if pairs[i] {
            predict_coord(done[i - 1], vy[i - 1], t_now[i], t_ref[i - 1])
        } else {
            done[i - 1]
        }
    })?;

    let mut updates = Vec::with_capacity(n);
    for i in 0..n {
        updates.push(build_update(
            ObjectId(ids[i]),
            t_now[i],
            kinds[i],
            f64::from_bits(ox[i]),
            f64::from_bits(oy[i]),
            f64::from_bits(vx[i]),
            f64::from_bits(vy[i]),
            t_ref[i],
        )?);
    }
    Ok(updates)
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut r = ByteReader::new(payload);
    match r.get_u8()? {
        TAG_ADVANCE => Ok(WalRecord::Advance(r.get_uvarint()?)),
        TAG_BATCH => Ok(WalRecord::Batch(decode_batch(&mut r)?)),
        _ => Err(CodecError::Corrupt("unknown WAL record tag")),
    }
}

// ---------------------------------------------------------------------
// Per-shard WAL segments
// ---------------------------------------------------------------------

/// Magic prefix and version of a per-shard WAL segment header.
const SEG_MAGIC: &[u8; 4] = b"PDWS";
const SEG_VERSION: u16 = 1;

/// Identity of one per-shard WAL segment, stored in its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Index of the shard that owns this segment.
    pub shard: u32,
    /// Total shard count of the plane that wrote it (a rebuilt plane
    /// with a different shard grid must not replay foreign segments).
    pub shards: u32,
}

/// Encoded byte length of a segment header: records start here.
pub const SEGMENT_HEADER_LEN: usize = 4 + 2 + 4 + 4;

/// File name of shard `shard`'s WAL segment: a zero-padded shard index
/// behind a `.seg` infix, distinct for every shard.
pub fn segment_name(shard: u32) -> String {
    format!("journal.seg{shard:04}.wal")
}

impl Wal {
    /// An empty per-shard segment: its byte stream starts with the
    /// encoded [`SegmentHeader`] (`PDWS`, version, shard, shard count),
    /// and its records start at [`SEGMENT_HEADER_LEN`].
    pub fn new_segment(header: SegmentHeader) -> Self {
        let mut log = ByteWriter::with_capacity(SEGMENT_HEADER_LEN);
        log.put_bytes(SEG_MAGIC);
        log.put_u16(SEG_VERSION);
        log.put_u32(header.shard);
        log.put_u32(header.shards);
        Wal {
            log,
            ..Wal::default()
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint container
// ---------------------------------------------------------------------

const CKPT_MAGIC: &[u8; 4] = b"PDCK";
const CKPT_VERSION: u16 = 1;

/// Wraps an engine-specific checkpoint payload in a checksummed,
/// versioned container.
pub fn seal_checkpoint(payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(payload.len() + 18);
    w.put_bytes(CKPT_MAGIC);
    w.put_u16(CKPT_VERSION);
    w.put_u64(payload.len() as u64);
    w.put_u32(crc32(payload));
    w.put_bytes(payload);
    w.into_bytes()
}

/// Verifies a sealed checkpoint and returns the payload slice.
pub fn open_checkpoint(bytes: &[u8]) -> Result<&[u8], CodecError> {
    let mut r = ByteReader::new(bytes);
    r.expect_magic(CKPT_MAGIC)?;
    let version = r.get_u16()?;
    if version != CKPT_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let len = r.get_u64()? as usize;
    let crc = r.get_u32()?;
    let header = bytes.len() - r.remaining();
    // `len` comes straight from (possibly bitrotted or hostile) input:
    // the end offset must be computed without overflow.
    let end = header
        .checked_add(len)
        .ok_or(CodecError::Corrupt("checkpoint length overflows"))?;
    let payload = bytes.get(header..end).ok_or(CodecError::UnexpectedEof)?;
    if crc32(payload) != crc {
        return Err(CodecError::Corrupt("checkpoint checksum mismatch"));
    }
    Ok(payload)
}

/// Why a [`DensityEngine::restore_from`](crate::DensityEngine::restore_from)
/// call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoverError {
    /// The engine does not support checkpoint/restore.
    Unsupported,
    /// The checkpoint bytes failed verification or decoding.
    Codec(CodecError),
    /// The checkpoint is valid but belongs to a differently configured
    /// engine.
    Mismatch(&'static str),
    /// The shipment was cut under a replication epoch older than the
    /// receiver's — the sender is a deposed primary and must be fenced
    /// off, never silently merged.
    Fenced {
        /// The stale sender's replication epoch.
        stale: u64,
        /// The receiver's current replication epoch.
        current: u64,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Unsupported => write!(f, "engine does not support checkpoints"),
            RecoverError::Codec(e) => write!(f, "checkpoint rejected: {e}"),
            RecoverError::Mismatch(what) => {
                write!(f, "checkpoint belongs to a different engine: {what}")
            }
            RecoverError::Fenced { stale, current } => write!(
                f,
                "fenced: shipment from stale replication epoch {stale} (current epoch {current})"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<CodecError> for RecoverError {
    fn from(e: CodecError) -> Self {
        RecoverError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_geometry::Point;

    fn sample_updates() -> Vec<Update> {
        let m = MotionState::new(Point::new(10.0, 20.0), Point::new(1.0, -1.0), 5);
        vec![
            Update::delete(ObjectId(3), 5, m),
            Update::insert(ObjectId(3), 5, m),
            Update::insert(ObjectId(9), 5, m),
        ]
    }

    #[test]
    fn wal_round_trip() {
        let mut wal = Wal::new();
        wal.append_advance(5);
        let batch = sample_updates();
        wal.append_batch(&batch);
        wal.append_advance(6);
        assert_eq!(wal.records(), 3);

        let replay = replay(wal.bytes()).expect("clean log decodes");
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0], WalRecord::Advance(5));
        assert_eq!(replay.records[2], WalRecord::Advance(6));
        let WalRecord::Batch(got) = &replay.records[1] else {
            panic!("expected batch");
        };
        assert_eq!(got, &batch);
    }

    /// Bytes one update takes in a fixed-width row layout: id, t_now,
    /// kind, four f64 motion fields and t_ref.
    const ROW_BYTES_PER_UPDATE: usize = 8 + 8 + 1 + 4 * 8 + 8;

    #[test]
    fn codec2_batches_decode_bit_identically_and_smaller() {
        // A serve-shaped batch: delete/insert pairs per object at one
        // timestamp, with the insert origin exactly the dead-reckoned
        // deleted position (the simulator's timeout re-report shape).
        let t_now = 1_000u64;
        let mut batch = Vec::new();
        for i in 0..64u64 {
            let old = MotionState::new(
                Point::new(10.0 + i as f64, 20.0 + i as f64 * 0.5),
                Point::new(0.9, -0.4),
                t_now - 10,
            );
            let new = MotionState::new(old.position_at(t_now), Point::new(0.9, -0.4), t_now);
            batch.push(Update::delete(ObjectId(100 + i), t_now, old));
            batch.push(Update::insert(ObjectId(100 + i), t_now, new));
        }
        let mut wal = Wal::new();
        wal.append_batch(&batch);

        let rep = replay(wal.bytes()).expect("codec2 decodes");
        assert_eq!(rep.records, vec![WalRecord::Batch(batch.clone())]);
        // The same record as one fixed-width row per update: frame,
        // tag, u32 count, then the rows.
        let row_log = 8 + 1 + 4 + ROW_BYTES_PER_UPDATE * batch.len();
        assert!(
            wal.offset() * 2 <= row_log,
            "codec2 should be at least 2x smaller than fixed-width rows on \
             the pair-shaped workload: rows={row_log} codec2={}",
            wal.offset()
        );
    }

    #[test]
    fn codec2_handles_empty_and_single_row_batches() {
        let mut wal = Wal::new();
        wal.append_batch(&[]);
        let one = vec![sample_updates().remove(2)];
        wal.append_batch(&one);
        let rep = replay(wal.bytes()).expect("decodes");
        assert_eq!(rep.records[0], WalRecord::Batch(Vec::new()));
        assert_eq!(rep.records[1], WalRecord::Batch(one));
    }

    #[test]
    fn retired_row_codec_tags_decode_as_corrupt() {
        // Tags 1 and 2 framed with a valid checksum: a format error,
        // never a torn tail and never decoded.
        for tag in [1u8, 2] {
            let mut w = ByteWriter::new();
            let payload = [tag, 0, 0, 0, 0, 0, 0, 0, 0];
            w.put_u32(payload.len() as u32);
            w.put_u32(crc32(&payload));
            w.put_bytes(&payload);
            assert_eq!(
                replay(w.as_slice()).unwrap_err(),
                CodecError::Corrupt("unknown WAL record tag"),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn torn_tail_is_tolerated_not_consumed() {
        let mut wal = Wal::new();
        wal.append_advance(1);
        let advance_frame = wal.offset();
        wal.append_batch(&sample_updates());
        let full = wal.bytes().to_vec();
        let boundaries = record_boundaries(&full);
        assert_eq!(boundaries, vec![0, advance_frame, full.len()]);

        // Truncate mid-record: only the first record survives.
        let torn = &full[..boundaries[1] + 5];
        let replay_torn = replay(torn).expect("torn tail is not a format error");
        assert_eq!(replay_torn.records, vec![WalRecord::Advance(1)]);
        assert_eq!(replay_torn.torn_bytes, 5);

        // Corrupt a byte inside the last record's payload: the
        // checksum rejects the record instead of decoding garbage.
        let mut bitrot = full.clone();
        let last = bitrot.len() - 3;
        bitrot[last] ^= 0xFF;
        let replay_rot = replay(&bitrot).expect("checksum failure is a torn tail");
        assert_eq!(replay_rot.records, vec![WalRecord::Advance(1)]);
        assert!(replay_rot.torn_bytes > 0);
    }

    #[test]
    fn framing_appends_do_not_allocate_per_record() {
        // Records are framed directly into the log buffer: the only
        // allocations are Vec growth, which amortizes to O(log n)
        // events — not one per append.
        let mut wal = Wal::new();
        let batch = sample_updates();
        for t in 0..1000u64 {
            wal.append_advance(t);
            wal.append_batch(&batch);
        }
        assert_eq!(wal.records(), 2000);
        let cap = wal.bytes().len().next_power_of_two();
        let bound = (cap.ilog2() + 2) as u64;
        assert!(
            wal.allocs() <= bound,
            "{} allocs for {} bytes (bound {})",
            wal.allocs(),
            wal.offset(),
            bound
        );
    }

    #[test]
    fn segment_names_are_distinct() {
        // Sweep a generous shard range: every segment name is distinct.
        let mut seen = std::collections::HashSet::new();
        for shard in 0..4096u32 {
            assert!(
                seen.insert(segment_name(shard)),
                "duplicate segment name for {shard}"
            );
        }
    }

    #[test]
    fn segment_header_bytes_are_pinned_and_records_follow_it() {
        let mut seg = Wal::new_segment(SegmentHeader {
            shard: 3,
            shards: 8,
        });
        assert_eq!(
            seg.bytes(),
            b"PDWS\x01\x00\x03\x00\x00\x00\x08\x00\x00\x00",
            "shipped offsets depend on these bytes"
        );
        assert_eq!(seg.offset(), SEGMENT_HEADER_LEN);
        seg.append_advance(7);
        seg.append_batch(&sample_updates());
        let rep = replay(&seg.bytes()[SEGMENT_HEADER_LEN..]).expect("records decode");
        assert_eq!(
            rep.records,
            vec![WalRecord::Advance(7), WalRecord::Batch(sample_updates())]
        );
    }

    #[test]
    fn checkpoint_seal_and_open() {
        let payload = b"engine state bytes".to_vec();
        let sealed = seal_checkpoint(&payload);
        assert_eq!(open_checkpoint(&sealed).expect("verifies"), &payload[..]);

        let mut flipped = sealed.clone();
        let n = flipped.len();
        flipped[n - 1] ^= 1;
        assert_eq!(
            open_checkpoint(&flipped).unwrap_err(),
            CodecError::Corrupt("checkpoint checksum mismatch")
        );

        let mut truncated = sealed.clone();
        truncated.truncate(n - 4);
        assert_eq!(
            open_checkpoint(&truncated).unwrap_err(),
            CodecError::UnexpectedEof
        );
        assert_eq!(open_checkpoint(b"XXXX").unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn checkpoint_with_hostile_length_is_rejected_not_overflowed() {
        // A bitrotted/hostile length of u64::MAX must come back as a
        // codec error; the unchecked `header + len` add used to
        // overflow (a debug-build panic) before being bounds-checked.
        let mut w = ByteWriter::new();
        w.put_bytes(CKPT_MAGIC);
        w.put_u16(CKPT_VERSION);
        w.put_u64(u64::MAX);
        w.put_u32(0);
        let hostile = w.into_bytes();
        assert_eq!(
            open_checkpoint(&hostile).unwrap_err(),
            CodecError::Corrupt("checkpoint length overflows")
        );

        // Near-overflow lengths that don't wrap still report EOF.
        let mut w = ByteWriter::new();
        w.put_bytes(CKPT_MAGIC);
        w.put_u16(CKPT_VERSION);
        w.put_u64(u64::MAX / 2);
        w.put_u32(0);
        assert_eq!(
            open_checkpoint(&w.into_bytes()).unwrap_err(),
            CodecError::UnexpectedEof
        );
    }
}
