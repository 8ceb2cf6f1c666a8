//! Sequential read access to a chain.

use crate::chain::MbufChain;
use crate::meter::CopyMeter;

/// A read cursor over an [`MbufChain`], used by the XDR dissector.
///
/// Header-sized reads through the cursor are not charged to a copy meter:
/// the real kernel's `nfsm_disect` reads fields in place, and the CPU cost
/// of protocol decoding is priced per-RPC by the host model instead.
///
/// # Examples
///
/// ```
/// use renofs_mbuf::{CopyMeter, Cursor, MbufChain};
///
/// let mut meter = CopyMeter::new();
/// let chain = MbufChain::from_slice(b"abcdef", &mut meter);
/// let mut cur = Cursor::new(&chain);
/// let mut buf = [0u8; 3];
/// cur.read_exact(&mut buf).unwrap();
/// assert_eq!(&buf, b"abc");
/// assert_eq!(cur.remaining(), 3);
/// ```
pub struct Cursor<'a> {
    chain: &'a MbufChain,
    pos: usize,
    /// A segment at or before the one holding `pos`, and the chain offset
    /// at which it starts: reads walk on from here, not from segment 0.
    seg: usize,
    seg_start: usize,
}

// A short read has exactly one cause (not enough bytes), so the unit
// error carries full information; callers map it to their protocol's
// truncation error.
#[allow(clippy::result_unit_err)]
impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of the chain.
    pub fn new(chain: &'a MbufChain) -> Self {
        Cursor {
            chain,
            pos: 0,
            seg: 0,
            seg_start: 0,
        }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.chain.len() - self.pos
    }

    /// Whether the cursor is at the end.
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads exactly `buf.len()` bytes, advancing the cursor.
    ///
    /// Returns `Err(())` (leaving the cursor unchanged) if fewer bytes
    /// remain — the dissector turns this into a garbled-RPC error.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), ()> {
        if buf.len() > self.remaining() {
            return Err(());
        }
        let mut done = 0;
        while done < buf.len() {
            let src = self.here();
            let take = src.len().min(buf.len() - done);
            buf[done..done + take].copy_from_slice(&src[..take]);
            done += take;
            self.pos += take;
        }
        Ok(())
    }

    /// The rest of the segment holding `pos`, which must lie before the
    /// end of the chain; moves the memo up to that segment.
    fn here(&mut self) -> &'a [u8] {
        let segs = self.chain.segs();
        loop {
            let data = segs[self.seg].data();
            match data.get(self.pos - self.seg_start..) {
                Some(rest) if !rest.is_empty() => return rest,
                _ => {}
            }
            self.seg_start += data.len();
            self.seg += 1;
        }
    }

    /// Reads `N` bytes (a run of XDR words; `N > 0`) with one segment
    /// lookup: in place when they lie in one segment, cursor unchanged
    /// on a short read.
    pub fn read_array<const N: usize>(&mut self) -> Result<[u8; N], ()> {
        const { assert!(N > 0) };
        if self.remaining() < N {
            return Err(());
        }
        if let Some(b) = self.here().first_chunk() {
            self.pos += N;
            return Ok(*b);
        }
        let mut b = [0u8; N];
        self.read_exact(&mut b)?;
        Ok(b)
    }

    /// Reads a big-endian `u32` (the XDR unit).
    pub fn read_u32(&mut self) -> Result<u32, ()> {
        self.read_array().map(u32::from_be_bytes)
    }

    /// The next `n` bytes as a chain sharing this one's clusters (small-
    /// mbuf bytes are copied and metered, as [`MbufChain::share_range`]
    /// does), advancing past them.
    pub fn share(&mut self, n: usize, meter: &mut CopyMeter) -> Result<MbufChain, ()> {
        if n > self.remaining() {
            return Err(());
        }
        let out = self.chain.share_range(self.pos, n, meter);
        self.pos += n;
        Ok(out)
    }

    /// Skips `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<(), ()> {
        if n > self.remaining() {
            return Err(());
        }
        self.pos += n;
        Ok(())
    }

    /// Reads `n` bytes into a fresh `Vec`.
    pub fn read_vec(&mut self, n: usize) -> Result<Vec<u8>, ()> {
        // `n` is a length off the wire: bound it before allocating for it.
        if n > self.remaining() {
            return Err(());
        }
        let mut v = vec![0u8; n];
        self.read_exact(&mut v)?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reads() {
        let mut m = CopyMeter::new();
        let chain = MbufChain::from_slice(&[0, 0, 0, 7, 0, 0, 1, 0], &mut m);
        let mut cur = Cursor::new(&chain);
        assert_eq!(cur.read_u32().unwrap(), 7);
        assert_eq!(cur.read_u32().unwrap(), 256);
        assert!(cur.is_at_end());
        assert!(cur.read_u32().is_err());
    }

    #[test]
    fn short_read_leaves_cursor() {
        let mut m = CopyMeter::new();
        let chain = MbufChain::from_slice(b"abc", &mut m);
        let mut cur = Cursor::new(&chain);
        let mut buf = [0u8; 5];
        assert!(cur.read_exact(&mut buf).is_err());
        assert_eq!(cur.position(), 0, "failed read must not advance");
        let mut ok = [0u8; 3];
        cur.read_exact(&mut ok).unwrap();
        assert_eq!(&ok, b"abc");
    }

    #[test]
    fn skip_and_read_vec() {
        let mut m = CopyMeter::new();
        let data: Vec<u8> = (0..100).collect();
        let chain = MbufChain::from_slice(&data, &mut m);
        let mut cur = Cursor::new(&chain);
        cur.skip(40).unwrap();
        assert_eq!(cur.read_vec(5).unwrap(), &data[40..45]);
        assert!(cur.skip(100).is_err());
    }

    #[test]
    fn reads_across_segment_boundaries() {
        let mut m = CopyMeter::new();
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 256) as u8).collect();
        let chain = MbufChain::from_slice(&data, &mut m);
        let mut cur = Cursor::new(&chain);
        cur.skip(2040).unwrap();
        // This read straddles the first/second cluster boundary at 2048.
        let v = cur.read_vec(32).unwrap();
        assert_eq!(v, &data[2040..2072]);
    }
}
