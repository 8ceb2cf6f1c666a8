//! The NFS version 2 wire protocol (RFC 1094), over mbuf chains.
//!
//! Requests and replies are built and dissected directly in mbuf data
//! areas (the `nfsm_build`/`nfsm_disect` approach) using the XDR crate.
//! The types here are shared by the client and the server.

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::{SimDuration, SimTime};
use renofs_vfs::{FileType, FsError, Vattr, VnodeId};
use renofs_xdr::{be_word, InlineStr, XdrDecoder, XdrEncoder, XdrError};

pub mod build;
pub mod results;

/// Maximum NFS v2 read/write transfer size.
pub const NFS_MAXDATA: usize = 8192;

/// Maximum file name length on the wire.
pub const NFS_MAXNAMLEN: u32 = 255;

/// Maximum path length (readlink/symlink).
pub const NFS_MAXPATHLEN: u32 = 1024;

/// Size of the opaque file handle.
pub const NFS_FHSIZE: usize = 32;

/// Fixed lease term, in virtual time (NQNFS-style leases, PR 8).
///
/// Three seconds: long enough that a whole soak write burst or
/// Create-Delete iteration runs under one lease, short enough that an
/// unrenewed lease lapses well before the next soak round (8 s), so
/// conflicting access is never deferred across rounds. The soak's
/// lease worlds pair this with a *tightened* oracle grace (see
/// `StreamConfig::for_lease_soak`): a correct lease protocol
/// serializes writers behind readers, so observable staleness shrinks
/// to RPC latency rather than growing by the term.
pub const LEASE_TERM: SimDuration = SimDuration::from_secs(3);

/// [`LEASE_TERM`] on the wire (milliseconds of virtual time).
pub const LEASE_TERM_MS: u32 = (LEASE_TERM.as_nanos() / 1_000_000) as u32;

/// GETLEASE mode: shared read lease.
pub const LEASE_MODE_READ: u32 = 0;
/// GETLEASE mode: exclusive write lease.
pub const LEASE_MODE_WRITE: u32 = 1;
/// GETLEASE mode: voluntary release (vacate after a recall).
pub const LEASE_MODE_RELEASE: u32 = 2;

/// NFS v2 procedure numbers; each discriminant is the wire value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum NfsProc {
    /// Do nothing (ping).
    Null = 0,
    /// Get file attributes.
    Getattr = 1,
    /// Set file attributes.
    Setattr = 2,
    /// Obsolete (ROOT).
    Root = 3,
    /// Look up a name in a directory.
    Lookup = 4,
    /// Read a symbolic link.
    Readlink = 5,
    /// Read from a file.
    Read = 6,
    /// Obsolete (WRITECACHE).
    Writecache = 7,
    /// Write to a file.
    Write = 8,
    /// Create a file.
    Create = 9,
    /// Remove a file.
    Remove = 10,
    /// Rename a file.
    Rename = 11,
    /// Create a hard link.
    Link = 12,
    /// Create a symbolic link.
    Symlink = 13,
    /// Create a directory.
    Mkdir = 14,
    /// Remove a directory.
    Rmdir = 15,
    /// Read directory entries.
    Readdir = 16,
    /// Get filesystem statistics.
    Statfs = 17,
    /// Extension (paper's Future Directions): read directory entries
    /// *and* look up each one — "a way of doing many name lookups per
    /// RPC, possibly by adding a readdir_and_lookup_files RPC to the
    /// protocol". (NFSv3 later standardized this as READDIRPLUS.)
    ReaddirLookup = 18,
    /// Extension (NQNFS, Macklem's lease-based follow-up): acquire,
    /// renew, or release a read/write lease on a file. Only served
    /// when the caller speaks `NQNFS_VERSION`.
    Getlease = 19,
}

impl NfsProc {
    /// All real procedures (excluding the obsolete placeholders).
    pub const ALL: [NfsProc; 16] = [
        NfsProc::Null,
        NfsProc::Getattr,
        NfsProc::Setattr,
        NfsProc::Lookup,
        NfsProc::Readlink,
        NfsProc::Read,
        NfsProc::Write,
        NfsProc::Create,
        NfsProc::Remove,
        NfsProc::Rename,
        NfsProc::Link,
        NfsProc::Symlink,
        NfsProc::Mkdir,
        NfsProc::Rmdir,
        NfsProc::Readdir,
        NfsProc::Statfs,
    ];

    /// Every procedure, indexed by its wire number.
    const WIRE: [NfsProc; 20] = [
        NfsProc::Null,
        NfsProc::Getattr,
        NfsProc::Setattr,
        NfsProc::Root,
        NfsProc::Lookup,
        NfsProc::Readlink,
        NfsProc::Read,
        NfsProc::Writecache,
        NfsProc::Write,
        NfsProc::Create,
        NfsProc::Remove,
        NfsProc::Rename,
        NfsProc::Link,
        NfsProc::Symlink,
        NfsProc::Mkdir,
        NfsProc::Rmdir,
        NfsProc::Readdir,
        NfsProc::Statfs,
        NfsProc::ReaddirLookup,
        NfsProc::Getlease,
    ];

    /// Wire procedure number.
    pub fn to_wire(self) -> u32 {
        self as u32
    }

    /// Parses a wire procedure number.
    pub fn from_wire(v: u32) -> Option<Self> {
        Self::WIRE.get(v as usize).copied()
    }

    /// The transport RTO class of this procedure.
    pub fn rto_class(self) -> renofs_transport::RpcClass {
        use renofs_transport::RpcClass;
        match self {
            NfsProc::Read => RpcClass::Read,
            NfsProc::Write => RpcClass::Write,
            NfsProc::Readdir | NfsProc::ReaddirLookup => RpcClass::Readdir,
            NfsProc::Getattr => RpcClass::Getattr,
            NfsProc::Lookup => RpcClass::Lookup,
            _ => RpcClass::Other,
        }
    }

    /// Whether repeating the RPC can corrupt state on a stateless server
    /// (the `[Juszczak89]` problem the duplicate-request cache addresses).
    pub fn is_idempotent(self) -> bool {
        !matches!(
            self,
            NfsProc::Create
                | NfsProc::Remove
                | NfsProc::Rename
                | NfsProc::Link
                | NfsProc::Symlink
                | NfsProc::Mkdir
                | NfsProc::Rmdir
                | NfsProc::Setattr
        )
    }
}

// `NfsProc::WIRE` is in discriminant order, so `from_wire` inverts
// `to_wire`.
const _: () = {
    let mut i = 0;
    while i < NfsProc::WIRE.len() {
        assert!(NfsProc::WIRE[i] as usize == i);
        i += 1;
    }
};

/// Calls counted per procedure: a client's RPCs (Table 3's instrument)
/// or a server's services.
#[derive(Clone, Copy, Default)]
pub struct RpcCounts {
    counts: [u64; NfsProc::WIRE.len()],
}

/// Shown as the bare array indexed by wire number: pinned tests hash
/// `ServerStats`' `Debug` text.
impl std::fmt::Debug for RpcCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.counts.fmt(f)
    }
}

impl RpcCounts {
    pub(crate) fn inc(&mut self, proc: NfsProc) {
        self.counts[proc as usize] += 1;
    }

    /// Calls of one procedure.
    pub fn count(&self, proc: NfsProc) -> u64 {
        self.counts[proc as usize]
    }

    /// Total calls.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another counter set into this one (aggregating the mounts
    /// of a sharded fleet into one Table 3 view).
    pub fn absorb(&mut self, other: &RpcCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The "Other" row of Table 3: everything except the six listed
    /// procedures.
    pub fn other(&self) -> u64 {
        self.total()
            - self.count(NfsProc::Getattr)
            - self.count(NfsProc::Setattr)
            - self.count(NfsProc::Read)
            - self.count(NfsProc::Write)
            - self.count(NfsProc::Lookup)
            - self.count(NfsProc::Readdir)
    }
}

/// NFS v2 status codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NfsStatus {
    /// Success.
    Ok,
    /// No such file or directory.
    NoEnt,
    /// I/O error.
    Io,
    /// Permission denied.
    Acces,
    /// File exists.
    Exist,
    /// Not a directory.
    NotDir,
    /// Is a directory.
    IsDir,
    /// No space left.
    NoSpc,
    /// Name too long.
    NameTooLong,
    /// Directory not empty.
    NotEmpty,
    /// Stale file handle.
    Stale,
    /// NQNFS: a conflicting lease is being recalled — retry after a
    /// short vacate wait (the paper-era `NQNFS_TRYLATER`).
    TryLater,
}

impl NfsStatus {
    /// Wire value.
    pub fn to_wire(self) -> u32 {
        match self {
            NfsStatus::Ok => 0,
            NfsStatus::NoEnt => 2,
            NfsStatus::Io => 5,
            NfsStatus::Acces => 13,
            NfsStatus::Exist => 17,
            NfsStatus::NotDir => 20,
            NfsStatus::IsDir => 21,
            NfsStatus::NoSpc => 28,
            NfsStatus::NameTooLong => 63,
            NfsStatus::NotEmpty => 66,
            NfsStatus::Stale => 70,
            NfsStatus::TryLater => 11,
        }
    }

    /// Parses a wire value.
    pub fn from_wire(v: u32) -> Result<Self, XdrError> {
        Ok(match v {
            0 => NfsStatus::Ok,
            2 => NfsStatus::NoEnt,
            5 => NfsStatus::Io,
            13 => NfsStatus::Acces,
            17 => NfsStatus::Exist,
            20 => NfsStatus::NotDir,
            21 => NfsStatus::IsDir,
            28 => NfsStatus::NoSpc,
            63 => NfsStatus::NameTooLong,
            66 => NfsStatus::NotEmpty,
            70 => NfsStatus::Stale,
            11 => NfsStatus::TryLater,
            _ => return Err(XdrError::Invalid),
        })
    }
}

impl From<FsError> for NfsStatus {
    fn from(e: FsError) -> Self {
        match e {
            FsError::NoEnt => NfsStatus::NoEnt,
            FsError::Exist => NfsStatus::Exist,
            FsError::NotDir => NfsStatus::NotDir,
            FsError::IsDir => NfsStatus::IsDir,
            FsError::NotEmpty => NfsStatus::NotEmpty,
            FsError::Stale => NfsStatus::Stale,
            FsError::NameTooLong => NfsStatus::NameTooLong,
            FsError::NoSpace => NfsStatus::NoSpc,
            FsError::Access => NfsStatus::Acces,
        }
    }
}

/// The 32-byte opaque file handle: filesystem id, inode, generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FileHandle {
    /// Exported filesystem id.
    pub fsid: u32,
    /// Inode number.
    pub ino: u32,
    /// Inode generation (stale-handle detection).
    pub gen: u32,
}

impl FileHandle {
    /// Encodes the 32-byte opaque handle.
    pub fn encode(&self, enc: &mut XdrEncoder<'_>) {
        let mut bytes = [0u8; NFS_FHSIZE];
        bytes[0..4].copy_from_slice(&self.fsid.to_be_bytes());
        bytes[4..8].copy_from_slice(&self.ino.to_be_bytes());
        bytes[8..12].copy_from_slice(&self.gen.to_be_bytes());
        enc.put_opaque_fixed(&bytes);
    }

    /// Decodes the 32-byte opaque handle.
    pub fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let bytes = dec.get_array::<NFS_FHSIZE>()?;
        Ok(FileHandle {
            fsid: be_word(&bytes, 0),
            ino: be_word(&bytes, 1),
            gen: be_word(&bytes, 2),
        })
    }

    /// A client-side vnode identity token for this handle.
    pub fn vnode_token(&self) -> VnodeId {
        VnodeId(((self.ino as u64) << 32) | self.gen as u64)
    }
}

fn put_time(enc: &mut XdrEncoder<'_>, t: SimTime) {
    enc.put_u32((t.as_nanos() / 1_000_000_000) as u32);
    enc.put_u32(((t.as_nanos() % 1_000_000_000) / 1_000) as u32);
}

/// The `timeval` at words `i` and `i + 1` of a decoded `fattr`.
fn time_at(words: &[u8], i: usize) -> SimTime {
    let (s, us) = (be_word(words, i) as u64, be_word(words, i + 1) as u64);
    SimTime::from_nanos(s * 1_000_000_000 + us * 1_000)
}

/// Encodes an NFS v2 `fattr`.
pub fn put_fattr(enc: &mut XdrEncoder<'_>, a: &Vattr) {
    enc.put_u32(a.ftype.to_wire());
    enc.put_u32(a.mode);
    enc.put_u32(a.nlink);
    enc.put_u32(a.uid);
    enc.put_u32(a.gid);
    enc.put_u32(a.size);
    enc.put_u32(a.blocksize);
    enc.put_u32(0); // rdev
    enc.put_u32(a.blocks);
    enc.put_u32(a.fsid);
    enc.put_u32(a.fileid);
    put_time(enc, a.atime);
    put_time(enc, a.mtime);
    put_time(enc, a.ctime);
}

/// Decodes an NFS v2 `fattr`.
pub fn get_fattr(dec: &mut XdrDecoder<'_>) -> Result<Vattr, XdrError> {
    // 17 words; the eighth is rdev.
    let w = dec.get_array::<68>()?;
    Ok(Vattr {
        ftype: FileType::from_wire(be_word(&w, 0)).ok_or(XdrError::Invalid)?,
        mode: be_word(&w, 1),
        nlink: be_word(&w, 2),
        uid: be_word(&w, 3),
        gid: be_word(&w, 4),
        size: be_word(&w, 5),
        blocksize: be_word(&w, 6),
        blocks: be_word(&w, 8),
        fsid: be_word(&w, 9),
        fileid: be_word(&w, 10),
        atime: time_at(&w, 11),
        mtime: time_at(&w, 13),
        ctime: time_at(&w, 15),
    })
}

/// Settable attributes (`sattr`); `None` fields are not changed
/// (encoded as `0xFFFFFFFF` per the protocol).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sattr {
    /// New mode.
    pub mode: Option<u32>,
    /// New owner.
    pub uid: Option<u32>,
    /// New group.
    pub gid: Option<u32>,
    /// New size (truncate/extend).
    pub size: Option<u32>,
}

impl Sattr {
    /// A size-only truncation.
    pub fn truncate(size: u32) -> Self {
        Sattr {
            size: Some(size),
            ..Sattr::default()
        }
    }

    /// Encodes the sattr (times are sent as "don't set").
    pub fn encode(&self, enc: &mut XdrEncoder<'_>) {
        let put = |enc: &mut XdrEncoder<'_>, v: Option<u32>| enc.put_u32(v.unwrap_or(u32::MAX));
        put(enc, self.mode);
        put(enc, self.uid);
        put(enc, self.gid);
        put(enc, self.size);
        // atime, mtime: don't set.
        for _ in 0..4 {
            enc.put_u32(u32::MAX);
        }
    }

    /// Decodes the sattr.
    pub fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        // Eight words; the last four are the times, which are not set.
        let w = dec.get_array::<32>()?;
        let get = |i| Some(be_word(&w, i)).filter(|&v| v != u32::MAX);
        Ok(Sattr {
            mode: get(0),
            uid: get(1),
            gid: get(2),
            size: get(3),
        })
    }
}

/// Decoded call arguments for every procedure.
#[derive(Debug)]
pub enum NfsArgs {
    /// NULL.
    Null,
    /// GETATTR / READLINK / STATFS: just a handle.
    Handle(FileHandle),
    /// SETATTR.
    Setattr(FileHandle, Sattr),
    /// LOOKUP / REMOVE / RMDIR: directory + name.
    DirOp(FileHandle, InlineStr),
    /// READ: handle, offset, count.
    Read(FileHandle, u32, u32),
    /// WRITE: handle, offset, data.
    Write(FileHandle, u32, MbufChain),
    /// CREATE / MKDIR: directory + name + initial attributes.
    Create(FileHandle, InlineStr, Sattr),
    /// RENAME: from dir/name, to dir/name.
    Rename(FileHandle, String, FileHandle, String),
    /// LINK: target handle, directory + name.
    Link(FileHandle, FileHandle, String),
    /// SYMLINK: directory + name + target path.
    Symlink(FileHandle, String, String),
    /// READDIR: handle, cookie, byte count.
    Readdir(FileHandle, u32, u32),
    /// READDIRLOOKUP (extension): handle, cookie, byte count.
    ReaddirLookup(FileHandle, u32, u32),
    /// GETLEASE (NQNFS extension): handle + mode
    /// (`LEASE_MODE_READ`/`WRITE`/`RELEASE`).
    Getlease(FileHandle, u32),
}

/// One READDIR entry on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// File id.
    pub fileid: u32,
    /// Name.
    pub name: String,
    /// Cookie resuming after this entry.
    pub cookie: u32,
}

/// One READDIRLOOKUP entry: a directory entry with the handle and
/// attributes a separate LOOKUP would have fetched.
#[derive(Clone, Debug, PartialEq)]
pub struct DirEntryPlus {
    /// The plain entry.
    pub entry: DirEntry,
    /// File handle.
    pub fh: FileHandle,
    /// Attributes.
    pub attr: Vattr,
}

/// Decodes the argument side of a call (server use).
pub fn decode_args(proc: NfsProc, dec: &mut XdrDecoder<'_>) -> Result<NfsArgs, XdrError> {
    Ok(match proc {
        NfsProc::Null | NfsProc::Root | NfsProc::Writecache => NfsArgs::Null,
        NfsProc::Getattr | NfsProc::Readlink | NfsProc::Statfs => {
            NfsArgs::Handle(FileHandle::decode(dec)?)
        }
        NfsProc::Setattr => {
            let fh = FileHandle::decode(dec)?;
            let sattr = Sattr::decode(dec)?;
            NfsArgs::Setattr(fh, sattr)
        }
        NfsProc::Lookup | NfsProc::Remove | NfsProc::Rmdir => {
            let fh = FileHandle::decode(dec)?;
            let name = dec.get_inline_str(NFS_MAXNAMLEN)?;
            NfsArgs::DirOp(fh, name)
        }
        NfsProc::Read => {
            let fh = FileHandle::decode(dec)?;
            let offset = dec.get_u32()?;
            let count = dec.get_u32()?;
            let _total = dec.get_u32()?;
            NfsArgs::Read(fh, offset, count)
        }
        NfsProc::Write => {
            let fh = FileHandle::decode(dec)?;
            let _begin = dec.get_u32()?;
            let offset = dec.get_u32()?;
            let _total = dec.get_u32()?;
            // The data stays in the request's clusters; the few bytes in
            // small mbufs are copied, unpriced as decoding is.
            let data = dec.get_opaque_chain(NFS_MAXDATA as u32, &mut CopyMeter::new())?;
            NfsArgs::Write(fh, offset, data)
        }
        NfsProc::Create | NfsProc::Mkdir => {
            let fh = FileHandle::decode(dec)?;
            let name = dec.get_inline_str(NFS_MAXNAMLEN)?;
            let sattr = Sattr::decode(dec)?;
            NfsArgs::Create(fh, name, sattr)
        }
        NfsProc::Rename => {
            let fdir = FileHandle::decode(dec)?;
            let fname = dec.get_string(NFS_MAXNAMLEN)?;
            let tdir = FileHandle::decode(dec)?;
            let tname = dec.get_string(NFS_MAXNAMLEN)?;
            NfsArgs::Rename(fdir, fname, tdir, tname)
        }
        NfsProc::Link => {
            let target = FileHandle::decode(dec)?;
            let dir = FileHandle::decode(dec)?;
            let name = dec.get_string(NFS_MAXNAMLEN)?;
            NfsArgs::Link(target, dir, name)
        }
        NfsProc::Symlink => {
            let dir = FileHandle::decode(dec)?;
            let name = dec.get_string(NFS_MAXNAMLEN)?;
            let path = dec.get_string(NFS_MAXPATHLEN)?;
            let _sattr = Sattr::decode(dec)?;
            NfsArgs::Symlink(dir, name, path)
        }
        NfsProc::Readdir => {
            let fh = FileHandle::decode(dec)?;
            let cookie = dec.get_u32()?;
            let count = dec.get_u32()?;
            NfsArgs::Readdir(fh, cookie, count)
        }
        NfsProc::ReaddirLookup => {
            let fh = FileHandle::decode(dec)?;
            let cookie = dec.get_u32()?;
            let count = dec.get_u32()?;
            NfsArgs::ReaddirLookup(fh, cookie, count)
        }
        NfsProc::Getlease => {
            let fh = FileHandle::decode(dec)?;
            let mode = dec.get_u32()?;
            NfsArgs::Getlease(fh, mode)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh(ino: u32) -> FileHandle {
        FileHandle {
            fsid: 1,
            ino,
            gen: 7,
        }
    }

    fn attr() -> Vattr {
        let mut a = Vattr::empty_file(42, SimTime::from_secs(123));
        a.size = 9999;
        a
    }

    #[test]
    fn proc_wire_round_trip() {
        for p in NfsProc::ALL {
            assert_eq!(NfsProc::from_wire(p.to_wire()), Some(p));
        }
        assert_eq!(
            NfsProc::from_wire(18),
            Some(NfsProc::ReaddirLookup),
            "the extension procedure"
        );
        assert_eq!(
            NfsProc::from_wire(19),
            Some(NfsProc::Getlease),
            "the NQNFS lease procedure"
        );
        assert_eq!(NfsProc::from_wire(20), None);
    }

    #[test]
    fn idempotency_classification() {
        assert!(NfsProc::Read.is_idempotent());
        assert!(NfsProc::Lookup.is_idempotent());
        assert!(NfsProc::Write.is_idempotent(), "NFSv2 write is idempotent");
        assert!(
            NfsProc::Getlease.is_idempotent(),
            "re-granting or re-releasing a lease is harmless"
        );
        assert!(!NfsProc::Create.is_idempotent());
        assert!(!NfsProc::Remove.is_idempotent());
        assert!(!NfsProc::Rename.is_idempotent());
    }

    #[test]
    fn fhandle_round_trip() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        let h = fh(12345);
        h.encode(&mut XdrEncoder::new(&mut chain, &mut meter));
        assert_eq!(chain.len(), NFS_FHSIZE);
        let mut dec = XdrDecoder::new(&chain);
        assert_eq!(FileHandle::decode(&mut dec).unwrap(), h);
    }

    #[test]
    fn fattr_round_trip() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        let a = attr();
        put_fattr(&mut XdrEncoder::new(&mut chain, &mut meter), &a);
        assert_eq!(chain.len(), 68, "17 XDR words");
        let mut dec = XdrDecoder::new(&chain);
        let got = get_fattr(&mut dec).unwrap();
        assert_eq!(got.size, a.size);
        assert_eq!(got.fileid, a.fileid);
        assert_eq!(got.mtime, a.mtime);
    }

    #[test]
    fn sattr_round_trip() {
        let mut meter = CopyMeter::new();
        for s in [
            Sattr::default(),
            Sattr::truncate(0),
            Sattr {
                mode: Some(0o600),
                uid: Some(10),
                gid: None,
                size: Some(4096),
            },
        ] {
            let mut chain = MbufChain::new();
            s.encode(&mut XdrEncoder::new(&mut chain, &mut meter));
            let mut dec = XdrDecoder::new(&chain);
            assert_eq!(Sattr::decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn lookup_args_round_trip() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        build::dirop_args(&mut chain, &mut meter, &fh(2), "Makefile");
        let mut dec = XdrDecoder::new(&chain);
        match decode_args(NfsProc::Lookup, &mut dec).unwrap() {
            NfsArgs::DirOp(h, name) => {
                assert_eq!(h, fh(2));
                assert_eq!(name, "Makefile");
            }
            other => panic!("wrong args: {other:?}"),
        }
    }

    #[test]
    fn write_args_round_trip() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 256) as u8).collect();
        let data = MbufChain::from_slice(&payload, &mut meter);
        build::write_args(&mut chain, &mut meter, &fh(3), 16384, data);
        let mut dec = XdrDecoder::new(&chain);
        match decode_args(NfsProc::Write, &mut dec).unwrap() {
            NfsArgs::Write(h, off, data) => {
                assert_eq!(h, fh(3));
                assert_eq!(off, 16384);
                assert_eq!(data.to_vec_for_test(), payload);
            }
            other => panic!("wrong args: {other:?}"),
        }
    }

    #[test]
    fn read_args_round_trip() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        build::read_args(&mut chain, &mut meter, &fh(4), 8192, 8192);
        let mut dec = XdrDecoder::new(&chain);
        match decode_args(NfsProc::Read, &mut dec).unwrap() {
            NfsArgs::Read(h, off, count) => {
                assert_eq!(h, fh(4));
                assert_eq!(off, 8192);
                assert_eq!(count, 8192);
            }
            other => panic!("wrong args: {other:?}"),
        }
    }

    #[test]
    fn rename_and_link_args_round_trip() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        build::rename_args(&mut chain, &mut meter, &fh(1), "a", &fh(2), "b");
        let mut dec = XdrDecoder::new(&chain);
        match decode_args(NfsProc::Rename, &mut dec).unwrap() {
            NfsArgs::Rename(f, fname, t, tname) => {
                assert_eq!(
                    (f, fname.as_str(), t, tname.as_str()),
                    (fh(1), "a", fh(2), "b")
                );
            }
            other => panic!("wrong args: {other:?}"),
        }
        let mut chain = MbufChain::new();
        build::link_args(&mut chain, &mut meter, &fh(9), &fh(1), "alias");
        let mut dec = XdrDecoder::new(&chain);
        match decode_args(NfsProc::Link, &mut dec).unwrap() {
            NfsArgs::Link(target, dir, name) => {
                assert_eq!((target, dir, name.as_str()), (fh(9), fh(1), "alias"));
            }
            other => panic!("wrong args: {other:?}"),
        }
    }

    #[test]
    fn attrstat_round_trip_both_arms() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        results::put_attrstat(&mut chain, &mut meter, &Ok(attr()));
        let mut dec = XdrDecoder::new(&chain);
        assert_eq!(results::get_attrstat(&mut dec).unwrap().unwrap().size, 9999);

        let mut chain = MbufChain::new();
        results::put_attrstat(&mut chain, &mut meter, &Err(NfsStatus::Stale));
        let mut dec = XdrDecoder::new(&chain);
        assert_eq!(
            results::get_attrstat(&mut dec).unwrap(),
            Err(NfsStatus::Stale)
        );
    }

    #[test]
    fn readres_round_trip() {
        let mut meter = CopyMeter::new();
        let payload = vec![0x5Au8; 8192];
        let data = MbufChain::from_slice(&payload, &mut meter);
        let mut chain = MbufChain::new();
        results::put_readres(&mut chain, &mut meter, Ok((attr(), data)));
        let mut dec = XdrDecoder::new(&chain);
        let (a, d) = results::get_readres(&mut dec).unwrap().unwrap();
        assert_eq!(a.size, 9999);
        assert_eq!(d, payload);
    }

    #[test]
    fn readdirres_round_trip() {
        let mut meter = CopyMeter::new();
        let entries = vec![
            DirEntry {
                fileid: 3,
                name: "a.c".into(),
                cookie: 1,
            },
            DirEntry {
                fileid: 4,
                name: "b.c".into(),
                cookie: 2,
            },
        ];
        let mut chain = MbufChain::new();
        results::put_readdirres(&mut chain, &mut meter, &Ok((entries.clone(), true)));
        let mut dec = XdrDecoder::new(&chain);
        let (got, eof) = results::get_readdirres(&mut dec).unwrap().unwrap();
        assert_eq!(got, entries);
        assert!(eof);
    }

    #[test]
    fn statfs_round_trip() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        results::put_statfsres(&mut chain, &mut meter, &Ok((8192, 8192, 100, 60, 60)));
        let mut dec = XdrDecoder::new(&chain);
        assert_eq!(
            results::get_statfsres(&mut dec).unwrap().unwrap(),
            (8192, 8192, 100, 60, 60)
        );
    }

    #[test]
    fn status_wire_round_trip() {
        for s in [
            NfsStatus::Ok,
            NfsStatus::NoEnt,
            NfsStatus::Io,
            NfsStatus::Acces,
            NfsStatus::Exist,
            NfsStatus::NotDir,
            NfsStatus::IsDir,
            NfsStatus::NoSpc,
            NfsStatus::NameTooLong,
            NfsStatus::NotEmpty,
            NfsStatus::Stale,
            NfsStatus::TryLater,
        ] {
            assert_eq!(NfsStatus::from_wire(s.to_wire()).unwrap(), s);
        }
        assert!(NfsStatus::from_wire(12345).is_err());
    }

    #[test]
    fn getlease_args_and_results_round_trip() {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        build::getlease_args(&mut chain, &mut meter, &fh(7), LEASE_MODE_WRITE);
        let mut dec = XdrDecoder::new(&chain);
        match decode_args(NfsProc::Getlease, &mut dec).unwrap() {
            NfsArgs::Getlease(h, mode) => {
                assert_eq!((h, mode), (fh(7), LEASE_MODE_WRITE));
            }
            other => panic!("wrong args: {other:?}"),
        }

        // A grant carries the term and attributes.
        let mut chain = MbufChain::new();
        results::put_leaseres(&mut chain, &mut meter, &Ok((1000, Some(attr()))));
        let mut dec = XdrDecoder::new(&chain);
        let (term, a) = results::get_leaseres(&mut dec).unwrap().unwrap();
        assert_eq!(term, 1000);
        assert_eq!(a.unwrap().size, 9999);

        // A release ack carries neither.
        let mut chain = MbufChain::new();
        results::put_leaseres(&mut chain, &mut meter, &Ok((0, None)));
        let mut dec = XdrDecoder::new(&chain);
        assert_eq!(results::get_leaseres(&mut dec).unwrap(), Ok((0, None)));

        // The vacate-wait error arm.
        let mut chain = MbufChain::new();
        results::put_leaseres(&mut chain, &mut meter, &Err(NfsStatus::TryLater));
        let mut dec = XdrDecoder::new(&chain);
        assert_eq!(
            results::get_leaseres(&mut dec).unwrap(),
            Err(NfsStatus::TryLater)
        );
    }

    #[test]
    fn fs_error_mapping() {
        assert_eq!(NfsStatus::from(FsError::NoEnt), NfsStatus::NoEnt);
        assert_eq!(NfsStatus::from(FsError::Stale), NfsStatus::Stale);
        assert_eq!(NfsStatus::from(FsError::NoSpace), NfsStatus::NoSpc);
    }

    #[test]
    fn rto_class_mapping() {
        use renofs_transport::RpcClass;
        assert_eq!(NfsProc::Read.rto_class(), RpcClass::Read);
        assert_eq!(NfsProc::Write.rto_class(), RpcClass::Write);
        assert_eq!(NfsProc::Getattr.rto_class(), RpcClass::Getattr);
        assert_eq!(NfsProc::Lookup.rto_class(), RpcClass::Lookup);
        assert_eq!(NfsProc::Readdir.rto_class(), RpcClass::Readdir);
        assert_eq!(NfsProc::Create.rto_class(), RpcClass::Other);
    }
}
