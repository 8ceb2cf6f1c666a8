//! Result encoders (server use) and decoders (client use).

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_vfs::Vattr;
use renofs_xdr::{XdrDecoder, XdrEncoder, XdrError};

use super::{
    get_fattr, put_fattr, DirEntry, DirEntryPlus, FileHandle, NfsStatus, NFS_MAXDATA,
    NFS_MAXNAMLEN, NFS_MAXPATHLEN,
};

/// Encodes an `attrstat` (GETATTR, SETATTR, WRITE).
pub fn put_attrstat(chain: &mut MbufChain, meter: &mut CopyMeter, res: &Result<Vattr, NfsStatus>) {
    let mut enc = XdrEncoder::new(chain, meter);
    match res {
        Ok(attr) => {
            enc.put_u32(NfsStatus::Ok.to_wire());
            put_fattr(&mut enc, attr);
        }
        Err(s) => enc.put_u32(s.to_wire()),
    }
}

/// Decodes an `attrstat`.
pub fn get_attrstat(dec: &mut XdrDecoder<'_>) -> Result<Result<Vattr, NfsStatus>, XdrError> {
    match NfsStatus::from_wire(dec.get_u32()?)? {
        NfsStatus::Ok => Ok(Ok(get_fattr(dec)?)),
        s => Ok(Err(s)),
    }
}

/// Encodes a `diropres` (LOOKUP, CREATE, MKDIR).
pub fn put_diropres(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    res: &Result<(FileHandle, Vattr), NfsStatus>,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    match res {
        Ok((fh, attr)) => {
            enc.put_u32(NfsStatus::Ok.to_wire());
            fh.encode(&mut enc);
            put_fattr(&mut enc, attr);
        }
        Err(s) => enc.put_u32(s.to_wire()),
    }
}

/// Decodes a `diropres`.
pub fn get_diropres(
    dec: &mut XdrDecoder<'_>,
) -> Result<Result<(FileHandle, Vattr), NfsStatus>, XdrError> {
    match NfsStatus::from_wire(dec.get_u32()?)? {
        NfsStatus::Ok => {
            let fh = FileHandle::decode(dec)?;
            let attr = get_fattr(dec)?;
            Ok(Ok((fh, attr)))
        }
        s => Ok(Err(s)),
    }
}

/// Encodes a bare status (REMOVE, RENAME, LINK, SYMLINK, RMDIR).
pub fn put_stat(chain: &mut MbufChain, meter: &mut CopyMeter, s: NfsStatus) {
    XdrEncoder::new(chain, meter).put_u32(s.to_wire());
}

/// Decodes a bare status.
pub fn get_stat(dec: &mut XdrDecoder<'_>) -> Result<NfsStatus, XdrError> {
    NfsStatus::from_wire(dec.get_u32()?)
}

/// Encodes a READ result; `data` rides as a shared chain (this is
/// the path where loaned buffer-cache pages would avoid a copy).
pub fn put_readres(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    res: Result<(Vattr, MbufChain), NfsStatus>,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    match res {
        Ok((attr, data)) => {
            enc.put_u32(NfsStatus::Ok.to_wire());
            put_fattr(&mut enc, &attr);
            enc.put_opaque_chain(data);
        }
        Err(s) => enc.put_u32(s.to_wire()),
    }
}

/// Decodes a READ result.
pub fn get_readres(
    dec: &mut XdrDecoder<'_>,
) -> Result<Result<(Vattr, Vec<u8>), NfsStatus>, XdrError> {
    let mut data = vec![0; NFS_MAXDATA];
    let res = get_readres_into(dec, &mut data)?;
    Ok(res.map(|(attr, n)| {
        data.truncate(n);
        (attr, data)
    }))
}

/// Decodes a READ result with the data landing at the front of `dst`
/// (no allocation); returns the attributes and the data's length.
/// Data longer than `dst` is rejected like data past `NFS_MAXDATA`.
pub fn get_readres_into(
    dec: &mut XdrDecoder<'_>,
    dst: &mut [u8],
) -> Result<Result<(Vattr, usize), NfsStatus>, XdrError> {
    match NfsStatus::from_wire(dec.get_u32()?)? {
        NfsStatus::Ok => {
            let attr = get_fattr(dec)?;
            let n = dec.get_opaque_var_into(dst, NFS_MAXDATA as u32)?;
            Ok(Ok((attr, n)))
        }
        s => Ok(Err(s)),
    }
}

/// Encodes a READLINK result.
pub fn put_readlinkres(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    res: &Result<String, NfsStatus>,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    match res {
        Ok(path) => {
            enc.put_u32(NfsStatus::Ok.to_wire());
            enc.put_string(path);
        }
        Err(s) => enc.put_u32(s.to_wire()),
    }
}

/// Decodes a READLINK result.
pub fn get_readlinkres(dec: &mut XdrDecoder<'_>) -> Result<Result<String, NfsStatus>, XdrError> {
    match NfsStatus::from_wire(dec.get_u32()?)? {
        NfsStatus::Ok => Ok(Ok(dec.get_string(NFS_MAXPATHLEN)?)),
        s => Ok(Err(s)),
    }
}

/// Encodes a READDIR result.
pub fn put_readdirres(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    res: &Result<(Vec<DirEntry>, bool), NfsStatus>,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    match res {
        Ok((entries, eof)) => {
            enc.put_u32(NfsStatus::Ok.to_wire());
            for e in entries {
                enc.put_bool(true); // another entry follows
                enc.put_u32(e.fileid);
                enc.put_string(&e.name);
                enc.put_u32(e.cookie);
            }
            enc.put_bool(false);
            enc.put_bool(*eof);
        }
        Err(s) => enc.put_u32(s.to_wire()),
    }
}

/// Decoded READDIR result: entries + eof, or an NFS error.
pub type ReaddirRes = Result<(Vec<DirEntry>, bool), NfsStatus>;

/// Decoded STATFS result: `(tsize, bsize, blocks, bfree, bavail)` or
/// an NFS error.
pub type StatfsRes = Result<(u32, u32, u32, u32, u32), NfsStatus>;

/// Decodes a READDIR result.
pub fn get_readdirres(dec: &mut XdrDecoder<'_>) -> Result<ReaddirRes, XdrError> {
    match NfsStatus::from_wire(dec.get_u32()?)? {
        NfsStatus::Ok => {
            let mut entries = Vec::new();
            while dec.get_bool()? {
                let fileid = dec.get_u32()?;
                let name = dec.get_string(NFS_MAXNAMLEN)?;
                let cookie = dec.get_u32()?;
                entries.push(DirEntry {
                    fileid,
                    name,
                    cookie,
                });
            }
            let eof = dec.get_bool()?;
            Ok(Ok((entries, eof)))
        }
        s => Ok(Err(s)),
    }
}

/// Encodes a READDIRLOOKUP result.
pub fn put_readdirplusres(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    res: &Result<(Vec<DirEntryPlus>, bool), NfsStatus>,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    match res {
        Ok((entries, eof)) => {
            enc.put_u32(NfsStatus::Ok.to_wire());
            for e in entries {
                enc.put_bool(true);
                enc.put_u32(e.entry.fileid);
                enc.put_string(&e.entry.name);
                enc.put_u32(e.entry.cookie);
                e.fh.encode(&mut enc);
                put_fattr(&mut enc, &e.attr);
            }
            enc.put_bool(false);
            enc.put_bool(*eof);
        }
        Err(s) => enc.put_u32(s.to_wire()),
    }
}

/// Decoded READDIRLOOKUP result.
pub type ReaddirPlusRes = Result<(Vec<DirEntryPlus>, bool), NfsStatus>;

/// Decodes a READDIRLOOKUP result.
pub fn get_readdirplusres(dec: &mut XdrDecoder<'_>) -> Result<ReaddirPlusRes, XdrError> {
    match NfsStatus::from_wire(dec.get_u32()?)? {
        NfsStatus::Ok => {
            let mut entries = Vec::new();
            while dec.get_bool()? {
                let fileid = dec.get_u32()?;
                let name = dec.get_string(NFS_MAXNAMLEN)?;
                let cookie = dec.get_u32()?;
                let fh = FileHandle::decode(dec)?;
                let attr = get_fattr(dec)?;
                entries.push(DirEntryPlus {
                    entry: DirEntry {
                        fileid,
                        name,
                        cookie,
                    },
                    fh,
                    attr,
                });
            }
            let eof = dec.get_bool()?;
            Ok(Ok((entries, eof)))
        }
        s => Ok(Err(s)),
    }
}

/// Encodes a GETLEASE result: on success, the granted term in
/// milliseconds of virtual time plus (for acquire/renew grants) the
/// file's current attributes — the grant doubles as a GETATTR, so
/// lease acquisition never costs an extra revalidation RPC.
/// Release acks carry `term == 0` and no attributes.
pub fn put_leaseres(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    res: &Result<(u32, Option<Vattr>), NfsStatus>,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    match res {
        Ok((term_ms, attr)) => {
            enc.put_u32(NfsStatus::Ok.to_wire());
            enc.put_u32(*term_ms);
            match attr {
                Some(a) => {
                    enc.put_bool(true);
                    put_fattr(&mut enc, a);
                }
                None => enc.put_bool(false),
            }
        }
        Err(s) => enc.put_u32(s.to_wire()),
    }
}

/// Decoded GETLEASE result: `(term_ms, attrs)` or an NFS error.
pub type LeaseRes = Result<(u32, Option<Vattr>), NfsStatus>;

/// Decodes a GETLEASE result.
pub fn get_leaseres(dec: &mut XdrDecoder<'_>) -> Result<LeaseRes, XdrError> {
    match NfsStatus::from_wire(dec.get_u32()?)? {
        NfsStatus::Ok => {
            let term_ms = dec.get_u32()?;
            let attr = if dec.get_bool()? {
                Some(get_fattr(dec)?)
            } else {
                None
            };
            Ok(Ok((term_ms, attr)))
        }
        s => Ok(Err(s)),
    }
}

/// Encodes a STATFS result: `(tsize, bsize, blocks, bfree, bavail)`.
pub fn put_statfsres(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    res: &Result<(u32, u32, u32, u32, u32), NfsStatus>,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    match res {
        Ok((tsize, bsize, blocks, bfree, bavail)) => {
            enc.put_u32(NfsStatus::Ok.to_wire());
            for v in [tsize, bsize, blocks, bfree, bavail] {
                enc.put_u32(*v);
            }
        }
        Err(s) => enc.put_u32(s.to_wire()),
    }
}

/// Decodes a STATFS result.
pub fn get_statfsres(dec: &mut XdrDecoder<'_>) -> Result<StatfsRes, XdrError> {
    match NfsStatus::from_wire(dec.get_u32()?)? {
        NfsStatus::Ok => {
            let mut v = [0u32; 5];
            for slot in &mut v {
                *slot = dec.get_u32()?;
            }
            Ok(Ok((v[0], v[1], v[2], v[3], v[4])))
        }
        s => Ok(Err(s)),
    }
}
