//! Builders for the argument side of each call (client use).

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_xdr::XdrEncoder;

use super::{FileHandle, Sattr};

/// GETATTR / READLINK / STATFS arguments.
pub fn handle_args(chain: &mut MbufChain, meter: &mut CopyMeter, fh: &FileHandle) {
    let mut enc = XdrEncoder::new(chain, meter);
    fh.encode(&mut enc);
}

/// SETATTR arguments.
pub fn setattr_args(chain: &mut MbufChain, meter: &mut CopyMeter, fh: &FileHandle, sattr: &Sattr) {
    let mut enc = XdrEncoder::new(chain, meter);
    fh.encode(&mut enc);
    sattr.encode(&mut enc);
}

/// LOOKUP / REMOVE / RMDIR arguments.
pub fn dirop_args(chain: &mut MbufChain, meter: &mut CopyMeter, dir: &FileHandle, name: &str) {
    let mut enc = XdrEncoder::new(chain, meter);
    dir.encode(&mut enc);
    enc.put_string(name);
}

/// READ arguments.
pub fn read_args(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    fh: &FileHandle,
    offset: u32,
    count: u32,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    fh.encode(&mut enc);
    enc.put_u32(offset);
    enc.put_u32(count);
    enc.put_u32(count); // totalcount (unused)
}

/// WRITE arguments; `data` is appended without copying clusters.
pub fn write_args(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    fh: &FileHandle,
    offset: u32,
    data: MbufChain,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    fh.encode(&mut enc);
    enc.put_u32(offset); // beginoffset (unused)
    enc.put_u32(offset);
    enc.put_u32(data.len() as u32); // totalcount
    enc.put_opaque_chain(data);
}

/// CREATE / MKDIR arguments.
pub fn create_args(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    dir: &FileHandle,
    name: &str,
    sattr: &Sattr,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    dir.encode(&mut enc);
    enc.put_string(name);
    sattr.encode(&mut enc);
}

/// RENAME arguments.
pub fn rename_args(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    fdir: &FileHandle,
    fname: &str,
    tdir: &FileHandle,
    tname: &str,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    fdir.encode(&mut enc);
    enc.put_string(fname);
    tdir.encode(&mut enc);
    enc.put_string(tname);
}

/// LINK arguments.
pub fn link_args(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    target: &FileHandle,
    dir: &FileHandle,
    name: &str,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    target.encode(&mut enc);
    dir.encode(&mut enc);
    enc.put_string(name);
}

/// SYMLINK arguments.
pub fn symlink_args(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    dir: &FileHandle,
    name: &str,
    path: &str,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    dir.encode(&mut enc);
    enc.put_string(name);
    enc.put_string(path);
    Sattr::default().encode(&mut enc);
}

/// GETLEASE arguments.
pub fn getlease_args(chain: &mut MbufChain, meter: &mut CopyMeter, fh: &FileHandle, mode: u32) {
    let mut enc = XdrEncoder::new(chain, meter);
    fh.encode(&mut enc);
    enc.put_u32(mode);
}

/// READDIR arguments.
pub fn readdir_args(
    chain: &mut MbufChain,
    meter: &mut CopyMeter,
    fh: &FileHandle,
    cookie: u32,
    count: u32,
) {
    let mut enc = XdrEncoder::new(chain, meter);
    fh.encode(&mut enc);
    enc.put_u32(cookie);
    enc.put_u32(count);
}
