//! External Data Representation (XDR, RFC 1014) directly over mbuf chains.
//!
//! The Sun reference port of NFS ran a ported user-mode RPC/XDR library
//! inside the kernel; the 4.3BSD Reno implementation instead encodes and
//! decodes RPC messages *in place* in mbuf data areas with the
//! `nfsm_build` / `nfsm_disect` macros, avoiding an intermediate buffer
//! that would have to be copied into an mbuf list. [`XdrEncoder`] and
//! [`XdrDecoder`] are the Rust equivalents: the encoder appends XDR units
//! straight onto an [`MbufChain`], the decoder reads them through a
//! [`Cursor`] without flattening the chain.
//!
//! `nfsm_build` takes space in the mbuf once per header and stores the
//! words in place, where the ported library made a call per item. So
//! does [`XdrEncoder`]: words and short opaques gather in an [`MLEN`]-byte
//! stage that is handed to the chain in one append — when it fills,
//! before a chain is spliced in or an opaque longer than `MLEN` goes
//! straight through, and when the encoder is dropped. The chain cannot
//! tell: an append of at most `MLEN` bytes fills the last mbuf's trailing
//! space and then opens a *small* mbuf whatever it is made of, so the
//! mbuf layout and the meter's bytes and cluster count are those of
//! word-at-a-time appends (`tests/proptests.rs` holds the two against
//! each other); only [`CopyMeter::ops`] falls. The decoder's counterpart
//! is [`XdrDecoder::get_array`], a run of words for one segment lookup.
//!
//! All XDR items occupy a multiple of 4 bytes; integers are big-endian.

use std::fmt;

use renofs_mbuf::{CopyMeter, Cursor, MbufChain, MLEN};

/// Decoding failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XdrError {
    /// The message ended before the item was complete (a garbled RPC).
    Truncated,
    /// A length field exceeded the caller's stated maximum.
    TooLong {
        /// The length found on the wire.
        got: u32,
        /// The caller's maximum.
        max: u32,
    },
    /// A discriminant or boolean had an out-of-range value.
    Invalid,
    /// A string was not valid UTF-8 (the simulation generates only ASCII
    /// names, so this indicates corruption).
    BadString,
}

impl fmt::Display for XdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrError::Truncated => write!(f, "XDR item truncated"),
            XdrError::TooLong { got, max } => {
                write!(f, "XDR length {got} exceeds maximum {max}")
            }
            XdrError::Invalid => write!(f, "invalid XDR discriminant"),
            XdrError::BadString => write!(f, "XDR string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for XdrError {}

/// Result alias for decoding.
pub type Result<T> = std::result::Result<T, XdrError>;

fn pad_len(n: usize) -> usize {
    (4 - (n % 4)) % 4
}

/// The `i`-th big-endian word of `bytes` (as [`XdrDecoder::get_array`]
/// returns them).
#[inline]
pub fn be_word(bytes: &[u8], i: usize) -> u32 {
    u32::from_be_bytes(*bytes[4 * i..].first_chunk().expect("a whole word"))
}

/// Longest string an [`InlineStr`] holds: the limit of an NFS file name
/// and of an AUTH_UNIX machine name alike.
pub const INLINE_STR_MAX: usize = 255;

/// A counted string of at most [`INLINE_STR_MAX`] bytes stored inline, so
/// decoding one — credentials and a LOOKUP's name, once per RPC —
/// never allocates.
#[derive(Clone, Copy)]
pub struct InlineStr {
    len: u8,
    buf: [u8; INLINE_STR_MAX],
}

impl InlineStr {
    /// Creates an inline copy of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` exceeds [`INLINE_STR_MAX`] bytes.
    pub fn new(s: &str) -> Self {
        assert!(s.len() <= INLINE_STR_MAX, "inline string too long");
        let mut buf = [0u8; INLINE_STR_MAX];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        InlineStr {
            len: s.len() as u8,
            buf,
        }
    }

    /// The string's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// The string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("constructed from valid UTF-8")
    }
}

impl std::ops::Deref for InlineStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for InlineStr {
    fn from(s: &str) -> Self {
        InlineStr::new(s)
    }
}

impl PartialEq for InlineStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for InlineStr {}

impl PartialEq<&str> for InlineStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for InlineStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for InlineStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Appends XDR items onto an mbuf chain (the `nfsm_build` role).
///
/// # Examples
///
/// ```
/// use renofs_mbuf::{CopyMeter, MbufChain};
/// use renofs_xdr::{XdrDecoder, XdrEncoder};
///
/// let mut meter = CopyMeter::new();
/// let mut chain = MbufChain::new();
/// let mut enc = XdrEncoder::new(&mut chain, &mut meter);
/// enc.put_u32(7);
/// enc.put_string("file.txt");
/// drop(enc);
/// let mut dec = XdrDecoder::new(&chain);
/// assert_eq!(dec.get_u32().unwrap(), 7);
/// assert_eq!(dec.get_string(255).unwrap(), "file.txt");
/// ```
pub struct XdrEncoder<'a> {
    chain: &'a mut MbufChain,
    meter: &'a mut CopyMeter,
    /// Items not yet appended to the chain: `buf[..staged]`.
    buf: [u8; MLEN],
    staged: usize,
}

impl Drop for XdrEncoder<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl<'a> XdrEncoder<'a> {
    /// Wraps a chain for appending. The chain holds every item once the
    /// encoder is dropped.
    pub fn new(chain: &'a mut MbufChain, meter: &'a mut CopyMeter) -> Self {
        XdrEncoder {
            chain,
            meter,
            buf: [0; MLEN],
            staged: 0,
        }
    }

    /// Hands the staged bytes to the chain in one append.
    fn flush(&mut self) {
        self.chain
            .append_bytes(&self.buf[..self.staged], self.meter);
        self.staged = 0;
    }

    /// Stages `src`, which is at most `MLEN` bytes.
    fn stage(&mut self, src: &[u8]) {
        if self.staged + src.len() > MLEN {
            self.flush();
        }
        self.buf[self.staged..self.staged + src.len()].copy_from_slice(src);
        self.staged += src.len();
    }

    /// Encodes an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) {
        self.stage(&v.to_be_bytes());
    }

    /// Encodes a signed 32-bit integer.
    pub fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }

    /// Encodes an unsigned 64-bit integer (XDR hyper).
    pub fn put_u64(&mut self, v: u64) {
        self.stage(&v.to_be_bytes());
    }

    /// Encodes a boolean as 0/1.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Encodes fixed-length opaque data, padding to 4 bytes.
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        if data.len() > MLEN {
            // Unstaged, so the chain's cluster-or-small choice sees the
            // whole length.
            self.flush();
            self.chain.append_bytes(data, self.meter);
        } else {
            self.stage(data);
        }
        self.stage(&[0u8; 3][..pad_len(data.len())]);
    }

    /// Encodes variable-length opaque data (length prefix + padding).
    pub fn put_opaque_var(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data);
    }

    /// Encodes a counted string.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque_var(s.as_bytes());
    }

    /// Appends a whole chain as the opaque *body* of a variable-length
    /// item without copying cluster data — this is how an NFS read reply
    /// carries file data: length word, then the loaned/cat'ed data chain,
    /// then padding.
    pub fn put_opaque_chain(&mut self, data: MbufChain) {
        let len = data.len();
        self.put_u32(len as u32);
        self.flush();
        self.chain.append_chain(data);
        self.stage(&[0u8; 3][..pad_len(len)]);
    }
}

/// Reads XDR items from an mbuf chain (the `nfsm_disect` role).
pub struct XdrDecoder<'a> {
    cursor: Cursor<'a>,
}

impl<'a> XdrDecoder<'a> {
    /// Wraps a chain for reading from its start.
    pub fn new(chain: &'a MbufChain) -> Self {
        XdrDecoder {
            cursor: Cursor::new(chain),
        }
    }

    /// Wraps an existing cursor (e.g. positioned past the RPC header).
    pub fn from_cursor(cursor: Cursor<'a>) -> Self {
        XdrDecoder { cursor }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.cursor.remaining()
    }

    /// Current byte position.
    pub fn position(&self) -> usize {
        self.cursor.position()
    }

    /// Decodes an unsigned 32-bit integer.
    pub fn get_u32(&mut self) -> Result<u32> {
        self.cursor.read_u32().map_err(|_| XdrError::Truncated)
    }

    /// Decodes `N` bytes — a run of `N / 4` words, to be picked apart
    /// with [`be_word`] — for one segment lookup instead of one per word.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        const { assert!(N.is_multiple_of(4)) };
        self.cursor.read_array().map_err(|_| XdrError::Truncated)
    }

    /// Decodes a signed 32-bit integer.
    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Decodes an unsigned 64-bit integer.
    pub fn get_u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.cursor
            .read_exact(&mut b)
            .map_err(|_| XdrError::Truncated)?;
        Ok(u64::from_be_bytes(b))
    }

    /// Decodes a boolean; values other than 0/1 are invalid.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(XdrError::Invalid),
        }
    }

    /// Decodes `n` bytes of fixed opaque data, consuming padding.
    pub fn get_opaque_fixed(&mut self, n: usize) -> Result<Vec<u8>> {
        let data = self.cursor.read_vec(n).map_err(|_| XdrError::Truncated)?;
        self.cursor
            .skip(pad_len(n))
            .map_err(|_| XdrError::Truncated)?;
        Ok(data)
    }

    /// Decodes `dst.len()` bytes of fixed opaque data into a caller
    /// buffer (no allocation), consuming padding.
    pub fn get_opaque_fixed_into(&mut self, dst: &mut [u8]) -> Result<()> {
        self.cursor
            .read_exact(dst)
            .map_err(|_| XdrError::Truncated)?;
        self.cursor
            .skip(pad_len(dst.len()))
            .map_err(|_| XdrError::Truncated)?;
        Ok(())
    }

    /// Skips `n` bytes of fixed opaque data plus its padding.
    pub fn skip_opaque_fixed(&mut self, n: usize) -> Result<()> {
        self.cursor
            .skip(n + pad_len(n))
            .map_err(|_| XdrError::Truncated)
    }

    /// Decodes variable opaque data, rejecting lengths above `max`.
    pub fn get_opaque_var(&mut self, max: u32) -> Result<Vec<u8>> {
        let len = self.get_u32()?;
        if len > max {
            return Err(XdrError::TooLong { got: len, max });
        }
        self.get_opaque_fixed(len as usize)
    }

    /// Decodes variable opaque data into the front of a caller buffer
    /// (no allocation), returning the item's length. Lengths above
    /// `max` or beyond `dst.len()` are rejected.
    pub fn get_opaque_var_into(&mut self, dst: &mut [u8], max: u32) -> Result<usize> {
        let len = self.get_u32()?;
        if len > max || len as usize > dst.len() {
            return Err(XdrError::TooLong {
                got: len,
                max: max.min(dst.len() as u32),
            });
        }
        self.get_opaque_fixed_into(&mut dst[..len as usize])?;
        Ok(len as usize)
    }

    /// Decodes variable opaque data as a chain sharing the message's
    /// clusters — [`XdrEncoder::put_opaque_chain`]'s mirror, and how a
    /// WRITE's data leaves the request without being copied. Small-mbuf
    /// bytes are copied and charged to `meter`.
    pub fn get_opaque_chain(&mut self, max: u32, meter: &mut CopyMeter) -> Result<MbufChain> {
        let len = self.get_u32()?;
        if len > max {
            return Err(XdrError::TooLong { got: len, max });
        }
        let data = self
            .cursor
            .share(len as usize, meter)
            .map_err(|_| XdrError::Truncated)?;
        self.cursor
            .skip(pad_len(len as usize))
            .map_err(|_| XdrError::Truncated)?;
        Ok(data)
    }

    /// Decodes a counted string of at most `max` bytes into inline
    /// storage (no allocation).
    pub fn get_inline_str(&mut self, max: u32) -> Result<InlineStr> {
        let mut s = InlineStr {
            len: 0,
            buf: [0; INLINE_STR_MAX],
        };
        let n = self.get_opaque_var_into(&mut s.buf, max)?;
        std::str::from_utf8(&s.buf[..n]).map_err(|_| XdrError::BadString)?;
        s.len = n as u8;
        Ok(s)
    }

    /// Decodes a counted string, rejecting lengths above `max`.
    pub fn get_string(&mut self, max: u32) -> Result<String> {
        let bytes = self.get_opaque_var(max)?;
        String::from_utf8(bytes).map_err(|_| XdrError::BadString)
    }

    /// Skips one variable opaque item, returning its length.
    pub fn skip_opaque_var(&mut self, max: u32) -> Result<usize> {
        let len = self.get_u32()?;
        if len > max {
            return Err(XdrError::TooLong { got: len, max });
        }
        let total = len as usize + pad_len(len as usize);
        self.cursor.skip(total).map_err(|_| XdrError::Truncated)?;
        Ok(len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(f: impl FnOnce(&mut XdrEncoder<'_>)) -> MbufChain {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        f(&mut XdrEncoder::new(&mut chain, &mut meter));
        chain
    }

    #[test]
    fn u32_round_trip() {
        let chain = encode(|e| {
            e.put_u32(0);
            e.put_u32(u32::MAX);
            e.put_u32(0xDEAD_BEEF);
        });
        assert_eq!(chain.len(), 12, "three XDR units");
        let mut d = XdrDecoder::new(&chain);
        assert_eq!(d.get_u32().unwrap(), 0);
        assert_eq!(d.get_u32().unwrap(), u32::MAX);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u32(), Err(XdrError::Truncated));
    }

    #[test]
    fn i32_and_u64_round_trip() {
        let chain = encode(|e| {
            e.put_i32(-1);
            e.put_i32(i32::MIN);
            e.put_u64(0x0123_4567_89AB_CDEF);
        });
        let mut d = XdrDecoder::new(&chain);
        assert_eq!(d.get_i32().unwrap(), -1);
        assert_eq!(d.get_i32().unwrap(), i32::MIN);
        assert_eq!(d.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn bool_round_trip_and_validation() {
        let chain = encode(|e| {
            e.put_bool(true);
            e.put_bool(false);
            e.put_u32(2);
        });
        let mut d = XdrDecoder::new(&chain);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        assert_eq!(d.get_bool(), Err(XdrError::Invalid));
    }

    #[test]
    fn opaque_padding_alignment() {
        for n in 0..9usize {
            let data: Vec<u8> = (0..n as u8).collect();
            let chain = encode(|e| {
                e.put_opaque_var(&data);
                e.put_u32(0xCAFE);
            });
            assert_eq!(chain.len() % 4, 0, "XDR stream stays aligned (n={n})");
            let mut d = XdrDecoder::new(&chain);
            assert_eq!(d.get_opaque_var(64).unwrap(), data);
            assert_eq!(d.get_u32().unwrap(), 0xCAFE, "marker after pad (n={n})");
        }
    }

    #[test]
    fn string_round_trip() {
        let chain = encode(|e| e.put_string("hello.c"));
        let mut d = XdrDecoder::new(&chain);
        assert_eq!(d.get_string(255).unwrap(), "hello.c");
    }

    #[test]
    fn length_limit_enforced() {
        let chain = encode(|e| e.put_opaque_var(&[0u8; 100]));
        let mut d = XdrDecoder::new(&chain);
        assert_eq!(
            d.get_opaque_var(64),
            Err(XdrError::TooLong { got: 100, max: 64 })
        );
    }

    #[test]
    fn truncated_opaque_detected() {
        let chain = encode(|e| e.put_u32(1000));
        let mut d = XdrDecoder::new(&chain);
        assert_eq!(d.get_opaque_var(2000), Err(XdrError::Truncated));
    }

    #[test]
    fn skip_opaque_var_advances_correctly() {
        let chain = encode(|e| {
            e.put_opaque_var(b"abcde");
            e.put_u32(42);
        });
        let mut d = XdrDecoder::new(&chain);
        assert_eq!(d.skip_opaque_var(255).unwrap(), 5);
        assert_eq!(d.get_u32().unwrap(), 42);
    }

    #[test]
    fn opaque_chain_shares_data() {
        let mut meter = CopyMeter::new();
        let payload = vec![0xABu8; 8192];
        let data_chain = MbufChain::from_slice(&payload, &mut meter);
        meter.take();
        let mut chain = MbufChain::new();
        let mut enc = XdrEncoder::new(&mut chain, &mut meter);
        enc.put_u32(99);
        enc.put_opaque_chain(data_chain);
        drop(enc);
        // Only the two u32s were copied; the 8K rode along by reference.
        assert!(meter.bytes() < 16, "metered {} bytes", meter.bytes());
        let mut d = XdrDecoder::new(&chain);
        assert_eq!(d.get_u32().unwrap(), 99);
        assert_eq!(d.get_opaque_var(16384).unwrap(), payload);
    }

    #[test]
    fn error_display() {
        assert_eq!(XdrError::Truncated.to_string(), "XDR item truncated");
        assert!(XdrError::TooLong { got: 9, max: 4 }
            .to_string()
            .contains("exceeds"));
    }
}
