//! RPC call and reply headers.

use std::fmt;

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_xdr::{be_word, InlineStr, XdrDecoder, XdrEncoder, XdrError};

use crate::RPC_VERSION;

const MSG_CALL: u32 = 0;
const MSG_REPLY: u32 = 1;
const REPLY_ACCEPTED: u32 = 0;
const REPLY_DENIED: u32 = 1;
const AUTH_NULL: u32 = 0;
const AUTH_UNIX: u32 = 1;

/// Errors raised while parsing or matching RPC messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// The XDR stream was malformed.
    Xdr(XdrError),
    /// The message type or a discriminant was out of range.
    Garbled,
    /// The peer speaks a different RPC version.
    VersionMismatch,
    /// The reply was denied (auth failure or RPC mismatch).
    Denied,
}

impl From<XdrError> for RpcError {
    fn from(e: XdrError) -> Self {
        RpcError::Xdr(e)
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Xdr(e) => write!(f, "XDR error: {e}"),
            RpcError::Garbled => write!(f, "garbled RPC message"),
            RpcError::VersionMismatch => write!(f, "RPC version mismatch"),
            RpcError::Denied => write!(f, "RPC reply denied"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Maximum bytes of an AUTH_UNIX machine name (RFC 1057 §9.2).
pub const MACHINE_NAME_MAX: usize = renofs_xdr::INLINE_STR_MAX;

/// Maximum supplementary groups in AUTH_UNIX credentials.
pub const AUTH_UNIX_MAX_GIDS: usize = 16;

/// A machine name, stored inline so building or decoding credentials —
/// which happens once per RPC on each side — never allocates.
pub type MachineName = InlineStr;

/// Supplementary group ids stored inline (the wire format caps them at
/// [`AUTH_UNIX_MAX_GIDS`]), for the same no-allocation reason.
#[derive(Clone, Copy, Default)]
pub struct GidList {
    len: u8,
    buf: [u32; AUTH_UNIX_MAX_GIDS],
}

impl GidList {
    /// An empty list.
    pub fn new() -> Self {
        GidList::default()
    }

    /// A list holding a copy of `gids`.
    ///
    /// # Panics
    ///
    /// Panics if `gids` exceeds [`AUTH_UNIX_MAX_GIDS`] entries.
    pub fn from_slice(gids: &[u32]) -> Self {
        let mut l = GidList::new();
        for &g in gids {
            l.push(g);
        }
        l
    }

    /// Appends one gid.
    ///
    /// # Panics
    ///
    /// Panics when the list is full.
    pub fn push(&mut self, gid: u32) {
        assert!((self.len as usize) < AUTH_UNIX_MAX_GIDS, "gid list full");
        self.buf[self.len as usize] = gid;
        self.len += 1;
    }

    /// The gids as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::Deref for GidList {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        self.as_slice()
    }
}

impl PartialEq for GidList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for GidList {}

impl fmt::Debug for GidList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// AUTH_UNIX credentials (RFC 1057 §9.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuthUnix {
    /// Arbitrary stamp (traditionally seconds since boot).
    pub stamp: u32,
    /// Client machine name.
    pub machine: MachineName,
    /// Effective user id.
    pub uid: u32,
    /// Effective group id.
    pub gid: u32,
    /// Supplementary groups.
    pub gids: GidList,
}

impl AuthUnix {
    /// Root credentials from the named machine.
    pub fn root(machine: &str) -> Self {
        AuthUnix {
            stamp: 0,
            machine: MachineName::new(machine),
            uid: 0,
            gid: 0,
            gids: GidList::new(),
        }
    }

    fn encode(&self, enc: &mut XdrEncoder<'_>) {
        enc.put_u32(AUTH_UNIX);
        // Body is an opaque; encode it inline with a computed length:
        // stamp, machine name, uid, gid, gid count, gids.
        let body_len = 4 + pad4(self.machine.len()) + 4 + 4 + 4 + 4 * self.gids.len();
        enc.put_u32(body_len as u32);
        enc.put_u32(self.stamp);
        enc.put_opaque_var(self.machine.as_bytes());
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_u32(self.gids.len() as u32);
        for g in self.gids.as_slice() {
            enc.put_u32(*g);
        }
    }

    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, RpcError> {
        // Flavor and body length.
        let w = dec.get_array::<8>()?;
        if be_word(&w, 0) != AUTH_UNIX {
            // Tolerate AUTH_NULL credentials.
            dec.skip_opaque_fixed(be_word(&w, 1) as usize)?;
            return Ok(AuthUnix::root("unknown"));
        }
        let stamp = dec.get_u32()?;
        let machine = dec.get_inline_str(MACHINE_NAME_MAX as u32)?;
        let w = dec.get_array::<12>()?;
        let (uid, gid, n) = (be_word(&w, 0), be_word(&w, 1), be_word(&w, 2));
        if n as usize > AUTH_UNIX_MAX_GIDS {
            return Err(RpcError::Garbled);
        }
        let mut gids = GidList::new();
        for _ in 0..n {
            gids.push(dec.get_u32()?);
        }
        Ok(AuthUnix {
            stamp,
            machine,
            uid,
            gid,
            gids,
        })
    }
}

/// Wire size of a counted string of `n` bytes: length word and padding.
fn pad4(n: usize) -> usize {
    4 + n.div_ceil(4) * 4
}

/// What kind of message a chain holds (peeked before full decode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// An RPC call.
    Call,
    /// An RPC reply.
    Reply,
}

/// Peeks the `(xid, kind)` of a message without consuming it.
pub fn peek_xid_kind(chain: &MbufChain) -> Result<(u32, MsgKind), RpcError> {
    let mut dec = XdrDecoder::new(chain);
    let xid = dec.get_u32()?;
    let kind = match dec.get_u32()? {
        MSG_CALL => MsgKind::Call,
        MSG_REPLY => MsgKind::Reply,
        _ => return Err(RpcError::Garbled),
    };
    Ok((xid, kind))
}

/// An RPC call header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallHeader {
    /// Transaction id, matched against the reply.
    pub xid: u32,
    /// Program number (100003 for NFS).
    pub prog: u32,
    /// Program version.
    pub vers: u32,
    /// Procedure number.
    pub proc: u32,
    /// Client credentials.
    pub auth: AuthUnix,
}

impl CallHeader {
    /// Encodes the header onto a chain; procedure arguments follow.
    pub fn encode(&self, chain: &mut MbufChain, meter: &mut CopyMeter) {
        let mut enc = XdrEncoder::new(chain, meter);
        enc.put_u32(self.xid);
        enc.put_u32(MSG_CALL);
        enc.put_u32(RPC_VERSION);
        enc.put_u32(self.prog);
        enc.put_u32(self.vers);
        enc.put_u32(self.proc);
        self.auth.encode(&mut enc);
        // Verifier: AUTH_NULL.
        enc.put_u32(AUTH_NULL);
        enc.put_u32(0);
    }

    /// Decodes a call header, leaving the decoder at the arguments.
    pub fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, RpcError> {
        // xid, message type, RPC version: judged before the rest is read,
        // so a short message in another version is still a mismatch.
        let w = dec.get_array::<12>()?;
        if be_word(&w, 1) != MSG_CALL {
            return Err(RpcError::Garbled);
        }
        if be_word(&w, 2) != RPC_VERSION {
            return Err(RpcError::VersionMismatch);
        }
        // Program, version, procedure.
        let p = dec.get_array::<12>()?;
        let auth = AuthUnix::decode(dec)?;
        // Verifier: flavor and length, then a body nothing reads.
        let v = dec.get_array::<8>()?;
        dec.skip_opaque_fixed(be_word(&v, 1) as usize)?;
        Ok(CallHeader {
            xid: be_word(&w, 0),
            prog: be_word(&p, 0),
            vers: be_word(&p, 1),
            proc: be_word(&p, 2),
            auth,
        })
    }
}

/// How the server disposed of an accepted call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcceptStat {
    /// Procedure executed; results follow.
    Success,
    /// Program not exported here.
    ProgUnavail,
    /// Procedure number out of range.
    ProcUnavail,
    /// Arguments failed to decode.
    GarbageArgs,
    /// Server-side system error.
    SystemErr,
}

impl AcceptStat {
    fn to_wire(self) -> u32 {
        match self {
            AcceptStat::Success => 0,
            AcceptStat::ProgUnavail => 1,
            AcceptStat::ProcUnavail => 3,
            AcceptStat::GarbageArgs => 4,
            AcceptStat::SystemErr => 5,
        }
    }

    fn from_wire(v: u32) -> Result<Self, RpcError> {
        Ok(match v {
            0 => AcceptStat::Success,
            1 => AcceptStat::ProgUnavail,
            3 => AcceptStat::ProcUnavail,
            4 => AcceptStat::GarbageArgs,
            5 => AcceptStat::SystemErr,
            _ => return Err(RpcError::Garbled),
        })
    }
}

/// An RPC reply header (accepted replies only; the simulation's server
/// never sends RPC-level denials).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Transaction id echoed from the call.
    pub xid: u32,
    /// Disposition.
    pub stat: AcceptStat,
}

impl ReplyHeader {
    /// Encodes the header onto a chain; results follow on success.
    pub fn encode(&self, chain: &mut MbufChain, meter: &mut CopyMeter) {
        let mut enc = XdrEncoder::new(chain, meter);
        enc.put_u32(self.xid);
        enc.put_u32(MSG_REPLY);
        enc.put_u32(REPLY_ACCEPTED);
        // Verifier: AUTH_NULL.
        enc.put_u32(AUTH_NULL);
        enc.put_u32(0);
        enc.put_u32(self.stat.to_wire());
    }

    /// Decodes a reply header, leaving the decoder at the results.
    pub fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, RpcError> {
        // xid, message type, reply status; verifier flavor and length.
        let w = dec.get_array::<20>()?;
        if be_word(&w, 1) != MSG_REPLY {
            return Err(RpcError::Garbled);
        }
        match be_word(&w, 2) {
            REPLY_ACCEPTED => {}
            REPLY_DENIED => return Err(RpcError::Denied),
            _ => return Err(RpcError::Garbled),
        }
        dec.skip_opaque_fixed(be_word(&w, 4) as usize)?;
        let stat = AcceptStat::from_wire(dec.get_u32()?)?;
        Ok(ReplyHeader {
            xid: be_word(&w, 0),
            stat,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_call() -> CallHeader {
        CallHeader {
            xid: 0x1234_5678,
            prog: crate::NFS_PROGRAM,
            vers: crate::NFS_VERSION,
            proc: 4, // LOOKUP
            auth: AuthUnix {
                stamp: 99,
                machine: "uvax2".into(),
                uid: 501,
                gid: 20,
                gids: GidList::from_slice(&[20, 5]),
            },
        }
    }

    #[test]
    fn call_round_trip() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        let call = sample_call();
        call.encode(&mut chain, &mut meter);
        // Arguments follow the header.
        XdrEncoder::new(&mut chain, &mut meter).put_u32(0xAAAA);
        let mut dec = XdrDecoder::new(&chain);
        let got = CallHeader::decode(&mut dec).unwrap();
        assert_eq!(got, call);
        assert_eq!(dec.get_u32().unwrap(), 0xAAAA, "decoder sits at the args");
    }

    #[test]
    fn reply_round_trip_all_stats() {
        for stat in [
            AcceptStat::Success,
            AcceptStat::ProgUnavail,
            AcceptStat::ProcUnavail,
            AcceptStat::GarbageArgs,
            AcceptStat::SystemErr,
        ] {
            let mut meter = CopyMeter::new();
            let mut chain = MbufChain::new();
            let r = ReplyHeader { xid: 7, stat };
            r.encode(&mut chain, &mut meter);
            let mut dec = XdrDecoder::new(&chain);
            assert_eq!(ReplyHeader::decode(&mut dec).unwrap(), r);
        }
    }

    #[test]
    fn peek_distinguishes_call_and_reply() {
        let mut meter = CopyMeter::new();
        let mut call_chain = MbufChain::new();
        sample_call().encode(&mut call_chain, &mut meter);
        assert_eq!(
            peek_xid_kind(&call_chain).unwrap(),
            (0x1234_5678, MsgKind::Call)
        );
        let mut reply_chain = MbufChain::new();
        ReplyHeader {
            xid: 42,
            stat: AcceptStat::Success,
        }
        .encode(&mut reply_chain, &mut meter);
        assert_eq!(peek_xid_kind(&reply_chain).unwrap(), (42, MsgKind::Reply));
    }

    #[test]
    fn garbled_messages_rejected() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        {
            let mut enc = XdrEncoder::new(&mut chain, &mut meter);
            enc.put_u32(1); // xid
            enc.put_u32(9); // bogus msg type
        }
        assert_eq!(peek_xid_kind(&chain), Err(RpcError::Garbled));
        let mut dec = XdrDecoder::new(&chain);
        assert!(CallHeader::decode(&mut dec).is_err());
    }

    #[test]
    fn version_mismatch_detected() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        {
            let mut enc = XdrEncoder::new(&mut chain, &mut meter);
            enc.put_u32(1);
            enc.put_u32(MSG_CALL);
            enc.put_u32(3); // wrong RPC version
        }
        let mut dec = XdrDecoder::new(&chain);
        assert_eq!(CallHeader::decode(&mut dec), Err(RpcError::VersionMismatch));
    }

    #[test]
    fn truncated_header_is_xdr_error() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        sample_call().encode(&mut chain, &mut meter);
        chain.trim_back(chain.len() - 10);
        let mut dec = XdrDecoder::new(&chain);
        assert!(matches!(
            CallHeader::decode(&mut dec),
            Err(RpcError::Xdr(XdrError::Truncated))
        ));
    }
}
