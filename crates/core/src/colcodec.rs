//! Columnar compression primitives shared by the codec2 WAL record
//! format and the one motion-table encoding, used by FR checkpoints and
//! by the sharded plane's router table.
//!
//! The workload's numeric columns are highly predictable: object ids
//! are dense and batch-local, timestamps are monotone (often constant
//! within a batch), and consecutive motion rows share sign, exponent
//! and high-mantissa bits. Each f64 column is therefore stored as the
//! XOR of every value's raw bits against a caller-chosen *prediction*;
//! the residual keeps only its significant low bytes, with per-value
//! byte counts packed two-per-byte in a nibble header. A perfect
//! prediction costs zero payload bytes (only its half-nibble).
//!
//! Correctness never depends on prediction quality: encoder and
//! decoder must merely compute the *same* prediction for each row, and
//! XOR makes the round trip bit-exact for every `f64` pattern
//! (including `-0.0`, subnormals and non-finite bits).

use pdr_mobject::MotionState;
use pdr_storage::{ByteReader, ByteWriter, CodecError};

/// Number of low bytes of `x` that carry information (0 for `x == 0`,
/// 8 when the top byte is non-zero).
fn significant_bytes(x: u64) -> u8 {
    (8 - x.leading_zeros() / 8) as u8
}

/// Writes one XOR-residual column: `values[i] ^ preds[i]` encoded as a
/// nibble-packed significant-byte-count header followed by the
/// concatenated significant low bytes.
pub(crate) fn put_xor_column(w: &mut ByteWriter, values: &[u64], preds: &[u64]) {
    debug_assert_eq!(values.len(), preds.len());
    let resid: Vec<u64> = values.iter().zip(preds).map(|(v, p)| v ^ p).collect();
    let mut i = 0;
    while i < resid.len() {
        let lo = significant_bytes(resid[i]);
        let hi = if i + 1 < resid.len() {
            significant_bytes(resid[i + 1])
        } else {
            0
        };
        w.put_u8(lo | (hi << 4));
        i += 2;
    }
    for &r in &resid {
        let n = significant_bytes(r) as usize;
        w.put_bytes(&r.to_le_bytes()[..n]);
    }
}

/// Reads a column written by [`put_xor_column`]. `pred` is called with
/// the row index and the values decoded so far *in this column*; it
/// must reproduce the encoder's prediction exactly.
pub(crate) fn get_xor_column<F>(
    r: &mut ByteReader<'_>,
    n: usize,
    mut pred: F,
) -> Result<Vec<u64>, CodecError>
where
    F: FnMut(usize, &[u64]) -> u64,
{
    let packed = r.get_bytes(n.div_ceil(2))?.to_vec();
    let mut counts = Vec::with_capacity(n);
    for byte in packed {
        for nibble in [byte & 0x0F, byte >> 4] {
            if counts.len() == n {
                break;
            }
            if nibble > 8 {
                return Err(CodecError::Corrupt("column byte count exceeds 8"));
            }
            counts.push(nibble as usize);
        }
    }
    let mut out = Vec::with_capacity(n);
    for (i, &count) in counts.iter().enumerate() {
        let mut le = [0u8; 8];
        le[..count].copy_from_slice(r.get_bytes(count)?);
        let resid = u64::from_le_bytes(le);
        let p = pred(i, &out);
        out.push(resid ^ p);
    }
    Ok(out)
}

/// Writes one XOR-residual column with *class-coded* byte counts: the
/// three most frequent significant-byte counts of the batch become a
/// 2-byte class table, each value then costs 2 bits of class code
/// (code 3 = escape to an explicit nibble). On real traffic the count
/// distribution is sharply concentrated (velocity residuals are almost
/// all 7–8 bytes, origin residuals 5–7), so this halves the per-value
/// header cost of [`put_xor_column`] from 4 bits to ~2.
pub(crate) fn put_xor_column_classed(w: &mut ByteWriter, values: &[u64], preds: &[u64]) {
    debug_assert_eq!(values.len(), preds.len());
    if values.is_empty() {
        return;
    }
    let resid: Vec<u64> = values.iter().zip(preds).map(|(v, p)| v ^ p).collect();
    let counts: Vec<u8> = resid.iter().map(|&r| significant_bytes(r)).collect();
    let mut hist = [0usize; 9];
    for &c in &counts {
        hist[c as usize] += 1;
    }
    let mut order: Vec<u8> = (0..=8).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(hist[c as usize]), c));
    let classes = [order[0], order[1], order[2]];
    w.put_u8(classes[0] | (classes[1] << 4));
    w.put_u8(classes[2]); // high nibble reserved, must be zero
    let code = |c: u8| classes.iter().position(|&k| k == c).unwrap_or(3) as u8;
    let mut i = 0;
    while i < counts.len() {
        let mut byte = 0u8;
        for j in 0..4 {
            if i + j < counts.len() {
                byte |= code(counts[i + j]) << (2 * j);
            }
        }
        w.put_u8(byte);
        i += 4;
    }
    let escapes: Vec<u8> = counts.iter().copied().filter(|&c| code(c) == 3).collect();
    let mut i = 0;
    while i < escapes.len() {
        let hi = if i + 1 < escapes.len() {
            escapes[i + 1]
        } else {
            0
        };
        w.put_u8(escapes[i] | (hi << 4));
        i += 2;
    }
    for (&r, &c) in resid.iter().zip(&counts) {
        w.put_bytes(&r.to_le_bytes()[..c as usize]);
    }
}

/// Reads a column written by [`put_xor_column_classed`]. `pred` has
/// the same contract as in [`get_xor_column`].
pub(crate) fn get_xor_column_classed<F>(
    r: &mut ByteReader<'_>,
    n: usize,
    mut pred: F,
) -> Result<Vec<u64>, CodecError>
where
    F: FnMut(usize, &[u64]) -> u64,
{
    if n == 0 {
        return Ok(Vec::new());
    }
    let b0 = r.get_u8()?;
    let b1 = r.get_u8()?;
    let classes = [b0 & 0x0F, b0 >> 4, b1 & 0x0F];
    if classes.iter().any(|&c| c > 8) || b1 >> 4 != 0 {
        return Err(CodecError::Corrupt("column class table out of range"));
    }
    let code_bytes = r.get_bytes(n.div_ceil(4))?.to_vec();
    let mut codes = Vec::with_capacity(n);
    for byte in code_bytes {
        for j in 0..4 {
            if codes.len() == n {
                break;
            }
            codes.push((byte >> (2 * j)) & 3);
        }
    }
    let num_escapes = codes.iter().filter(|&&c| c == 3).count();
    let escape_bytes = r.get_bytes(num_escapes.div_ceil(2))?.to_vec();
    let mut escapes = Vec::with_capacity(num_escapes);
    for byte in escape_bytes {
        for nibble in [byte & 0x0F, byte >> 4] {
            if escapes.len() == num_escapes {
                break;
            }
            if nibble > 8 {
                return Err(CodecError::Corrupt("column byte count exceeds 8"));
            }
            escapes.push(nibble as usize);
        }
    }
    let mut next_escape = 0;
    let mut out = Vec::with_capacity(n);
    for (i, &code) in codes.iter().enumerate() {
        let count = if code == 3 {
            let c = escapes[next_escape];
            next_escape += 1;
            c
        } else {
            classes[code as usize] as usize
        };
        let mut le = [0u8; 8];
        le[..count].copy_from_slice(r.get_bytes(count)?);
        let resid = u64::from_le_bytes(le);
        let p = pred(i, &out);
        out.push(resid ^ p);
    }
    Ok(out)
}

/// Writes a motion table (id plus [`MotionState`] per row) in columnar
/// form: delta-varint ids, delta-varint `t_ref`, then the four f64
/// columns XOR-predicted from the previous row. Callers are expected
/// to pass rows sorted by id (checkpoints do), but any order
/// round-trips.
pub(crate) fn put_motion_table(w: &mut ByteWriter, rows: &[(u64, MotionState)]) {
    w.put_uvarint(rows.len() as u64);
    if rows.is_empty() {
        return;
    }
    w.put_uvarint(rows[0].0);
    for pair in rows.windows(2) {
        w.put_ivarint(pair[1].0.wrapping_sub(pair[0].0) as i64);
    }
    w.put_uvarint(rows[0].1.t_ref);
    for pair in rows.windows(2) {
        w.put_ivarint(pair[1].1.t_ref.wrapping_sub(pair[0].1.t_ref) as i64);
    }
    let columns: [Vec<u64>; 4] = [
        rows.iter().map(|r| r.1.origin.x.to_bits()).collect(),
        rows.iter().map(|r| r.1.origin.y.to_bits()).collect(),
        rows.iter().map(|r| r.1.velocity.x.to_bits()).collect(),
        rows.iter().map(|r| r.1.velocity.y.to_bits()).collect(),
    ];
    for col in &columns {
        let preds: Vec<u64> = std::iter::once(0)
            .chain(col[..col.len() - 1].iter().copied())
            .collect();
        put_xor_column(w, col, &preds);
    }
}

/// Reads a motion table written by [`put_motion_table`]. Returns raw
/// rows; the caller validates finiteness (e.g. via
/// `MotionState::try_new`).
pub(crate) fn get_motion_table(
    r: &mut ByteReader<'_>,
) -> Result<Vec<(u64, MotionState)>, CodecError> {
    let n = r.get_uvarint()? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    if n > r.remaining() {
        return Err(CodecError::Corrupt("motion table count exceeds payload"));
    }
    let mut ids = Vec::with_capacity(n);
    ids.push(r.get_uvarint()?);
    for i in 1..n {
        let d = r.get_ivarint()?;
        ids.push(ids[i - 1].wrapping_add(d as u64));
    }
    let mut t_ref = Vec::with_capacity(n);
    t_ref.push(r.get_uvarint()?);
    for i in 1..n {
        let d = r.get_ivarint()?;
        t_ref.push(t_ref[i - 1].wrapping_add(d as u64));
    }
    let prev = |i: usize, done: &[u64]| if i == 0 { 0 } else { done[i - 1] };
    let ox = get_xor_column(r, n, prev)?;
    let oy = get_xor_column(r, n, prev)?;
    let vx = get_xor_column(r, n, prev)?;
    let vy = get_xor_column(r, n, prev)?;
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        rows.push((
            ids[i],
            MotionState {
                origin: pdr_geometry::Point::new(f64::from_bits(ox[i]), f64::from_bits(oy[i])),
                velocity: pdr_geometry::Point::new(f64::from_bits(vx[i]), f64::from_bits(vy[i])),
                t_ref: t_ref[i],
            },
        ));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_geometry::Point;

    #[test]
    fn xor_column_round_trips_exotic_bit_patterns() {
        let values: Vec<u64> = vec![
            0,
            1,
            u64::MAX,
            f64::to_bits(-0.0),
            f64::to_bits(f64::INFINITY),
            f64::to_bits(f64::NAN),
            f64::to_bits(5e-324), // smallest subnormal
            f64::to_bits(1.0),
            f64::to_bits(1.0 + f64::EPSILON),
        ];
        let preds: Vec<u64> = std::iter::once(0)
            .chain(values[..values.len() - 1].iter().copied())
            .collect();
        let mut w = ByteWriter::new();
        put_xor_column(&mut w, &values, &preds);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let got = get_xor_column(
            &mut r,
            values.len(),
            |i, done| {
                if i == 0 {
                    0
                } else {
                    done[i - 1]
                }
            },
        )
        .expect("decodes");
        assert_eq!(got, values);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn perfect_prediction_costs_only_nibbles() {
        let values = vec![f64::to_bits(42.5); 100];
        let preds = values.clone();
        let mut w = ByteWriter::new();
        put_xor_column(&mut w, &values, &preds);
        assert_eq!(w.len(), 50); // 100 nibbles, zero payload bytes
    }

    #[test]
    fn classed_column_round_trips_exotic_bit_patterns() {
        let values: Vec<u64> = vec![
            0,
            1,
            u64::MAX,
            f64::to_bits(-0.0),
            f64::to_bits(f64::INFINITY),
            f64::to_bits(f64::NAN),
            f64::to_bits(5e-324),
            f64::to_bits(1.0),
            f64::to_bits(1.0 + f64::EPSILON),
            0x1234,
            0x0056_0000_0000,
        ];
        let preds: Vec<u64> = std::iter::once(0)
            .chain(values[..values.len() - 1].iter().copied())
            .collect();
        let mut w = ByteWriter::new();
        put_xor_column_classed(&mut w, &values, &preds);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let got =
            get_xor_column_classed(
                &mut r,
                values.len(),
                |i, done| {
                    if i == 0 {
                        0
                    } else {
                        done[i - 1]
                    }
                },
            )
            .expect("decodes");
        assert_eq!(got, values);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn classed_column_concentrated_counts_cost_two_bits_each() {
        // All residuals the same width: every value hits class 0, so
        // the header is 2 table bytes + 2 bits/value and no escapes.
        let values: Vec<u64> = (0..100u64).map(|i| 0x4030_0000_0000_0000 | i).collect();
        let preds = vec![0u64; values.len()];
        let mut w = ByteWriter::new();
        put_xor_column_classed(&mut w, &values, &preds);
        assert_eq!(w.len(), 2 + 25 + 100 * 8);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let got = get_xor_column_classed(&mut r, values.len(), |_, _| 0).expect("decodes");
        assert_eq!(got, values);
    }

    #[test]
    fn classed_column_rejects_corrupt_headers() {
        // Class nibble 9 in the table.
        let mut r = ByteReader::new(&[0x09u8, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            get_xor_column_classed(&mut r, 2, |_, _| 0),
            Err(CodecError::Corrupt(_))
        ));
        // Reserved high nibble of the second table byte set.
        let mut r = ByteReader::new(&[0x00u8, 0x10, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            get_xor_column_classed(&mut r, 2, |_, _| 0),
            Err(CodecError::Corrupt(_))
        ));
        // Escape nibble 9.
        // Table {0,1,2}, both values coded 3 (escape), escape nibble 9.
        let mut r = ByteReader::new(&[0x10u8, 0x02, 0x0F, 0x09, 0, 0, 0, 0]);
        assert!(matches!(
            get_xor_column_classed(&mut r, 2, |_, _| 0),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn motion_table_round_trips() {
        let rows: Vec<(u64, MotionState)> = (0..57)
            .map(|i| {
                (
                    (i * 3) as u64,
                    MotionState {
                        origin: Point::new(10.0 + i as f64 * 0.25, 90.0 - i as f64),
                        velocity: Point::new(1.0 / (i + 1) as f64, -0.5),
                        t_ref: 1000 + (i % 7) as u64,
                    },
                )
            })
            .collect();
        let mut w = ByteWriter::new();
        put_motion_table(&mut w, &rows);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let got = get_motion_table(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0);
        assert_eq!(got.len(), rows.len());
        for (a, b) in rows.iter().zip(&got) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.t_ref, b.1.t_ref);
            assert_eq!(a.1.origin.x.to_bits(), b.1.origin.x.to_bits());
            assert_eq!(a.1.origin.y.to_bits(), b.1.origin.y.to_bits());
            assert_eq!(a.1.velocity.x.to_bits(), b.1.velocity.x.to_bits());
            assert_eq!(a.1.velocity.y.to_bits(), b.1.velocity.y.to_bits());
        }

        let empty: Vec<(u64, MotionState)> = Vec::new();
        let mut w = ByteWriter::new();
        put_motion_table(&mut w, &empty);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(get_motion_table(&mut r).expect("decodes").is_empty());
    }

    #[test]
    fn corrupt_nibble_rejected() {
        // count=9 in the low nibble of the header byte.
        let bytes = [0x09u8, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            get_xor_column(&mut r, 2, |_, _| 0),
            Err(CodecError::Corrupt(_))
        ));
    }
}
