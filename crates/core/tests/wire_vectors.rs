//! Wire vectors assembled by hand from the RFCs — XDR (RFC 1014), Sun RPC
//! (RFC 1057 §8, §9.2) and NFS version 2 (RFC 1094 §2.2, §2.3) — so the
//! codecs are held to the specifications and not only to each other: what
//! the encoders emit is these bytes, and these bytes decode to the fields
//! they were written from.

use renofs::proto::{self, build, decode_args, FileHandle, NfsArgs};
use renofs::NfsProc;
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::SimTime;
use renofs_sunrpc::{AcceptStat, AuthUnix, CallHeader, GidList, ReplyHeader};
use renofs_vfs::{FileType, Vattr};
use renofs_xdr::{XdrDecoder, XdrEncoder};

/// Big-endian words (RFC 1014 §3.1: an integer is four bytes, most
/// significant first).
fn words(w: &[u32]) -> Vec<u8> {
    w.iter().flat_map(|v| v.to_be_bytes()).collect()
}

fn chain_of(bytes: &[u8]) -> MbufChain {
    MbufChain::from_slice(bytes, &mut CopyMeter::new())
}

/// RFC 1094 §2.3.3: `fhandle` is 32 opaque bytes, the server's to fill.
/// Ours carries three words — boot epoch, inode, generation — and zeros.
const FHANDLE: [u8; 32] = [
    0, 0, 0, 1, // epoch 1
    0, 0, 0x30, 0x39, // inode 12345
    0, 0, 0, 7, // generation 7
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
];

const FH: FileHandle = FileHandle {
    fsid: 1,
    ino: 12345,
    gen: 7,
};

#[test]
fn a_null_call_with_auth_null_decodes() {
    // RFC 1057 §8 `call_body` after the xid and `msg_type`; §9.1: the
    // null flavor's body is empty.
    let msg = words(&[
        0x0BAD_CAFE, // xid
        0,           // msg_type CALL
        2,           // rpcvers
        100003,      // prog: NFS
        2,           // vers
        0,           // proc: NFSPROC_NULL
        0,           // cred flavor AUTH_NULL
        0,           // cred length
        0,           // verf flavor AUTH_NULL
        0,           // verf length
    ]);
    let chain = chain_of(&msg);
    let mut dec = XdrDecoder::new(&chain);
    let call = CallHeader::decode(&mut dec).unwrap();
    assert_eq!(
        (call.xid, call.prog, call.vers, call.proc),
        (0x0BAD_CAFE, 100003, 2, 0)
    );
    assert_eq!(dec.remaining(), 0, "NULL takes no arguments");
    assert!(matches!(
        decode_args(NfsProc::Null, &mut dec),
        Ok(NfsArgs::Null)
    ));
}

#[test]
fn a_lookup_call_with_auth_unix_is_the_rfc_bytes() {
    let mut msg = words(&[
        0x1234_5678, // xid
        0,           // msg_type CALL
        2,           // rpcvers
        100003,      // prog: NFS
        2,           // vers
        4,           // proc: NFSPROC_LOOKUP
        1,           // cred flavor AUTH_UNIX
        36,          // cred length: 4 + (4 + 8) + 4 + 4 + (4 + 2 * 4)
        99,          // stamp
        5,           // machinename length
    ]);
    // RFC 1014 §3.11: a string's bytes, then zeros up to a multiple of four.
    msg.extend_from_slice(b"uvax2\0\0\0");
    msg.extend(words(&[
        501, // uid
        20,  // gid
        2,   // gids<16>: count
        20, 5, // the gids
        0, // verf flavor AUTH_NULL
        0, // verf length
    ]));
    // RFC 1094 §2.3.10 `diropargs`: the directory's fhandle, then the name.
    msg.extend_from_slice(&FHANDLE);
    msg.extend(words(&[7]));
    msg.extend_from_slice(b"hello.c\0");

    let call = CallHeader {
        xid: 0x1234_5678,
        prog: 100003,
        vers: 2,
        proc: NfsProc::Lookup.to_wire(),
        auth: AuthUnix {
            stamp: 99,
            machine: "uvax2".into(),
            uid: 501,
            gid: 20,
            gids: GidList::from_slice(&[20, 5]),
        },
    };
    let mut meter = CopyMeter::new();
    let mut ours = MbufChain::new();
    call.encode(&mut ours, &mut meter);
    build::dirop_args(&mut ours, &mut meter, &FH, "hello.c");
    assert_eq!(ours.to_vec_for_test(), msg);

    let chain = chain_of(&msg);
    let mut dec = XdrDecoder::new(&chain);
    assert_eq!(CallHeader::decode(&mut dec).unwrap(), call);
    match decode_args(NfsProc::Lookup, &mut dec).unwrap() {
        NfsArgs::DirOp(dir, name) => assert_eq!((dir, name.as_str()), (FH, "hello.c")),
        other => panic!("wrong args: {other:?}"),
    }
    assert_eq!(dec.remaining(), 0);
}

#[test]
fn an_accepted_reply_header_is_the_rfc_bytes() {
    // RFC 1057 §8 `reply_body` / `accepted_reply`.
    let msg = words(&[
        0x1234_5678, // xid
        1,           // msg_type REPLY
        0,           // reply_stat MSG_ACCEPTED
        0,           // verf flavor AUTH_NULL
        0,           // verf length
        0,           // accept_stat SUCCESS
    ]);
    let header = ReplyHeader {
        xid: 0x1234_5678,
        stat: AcceptStat::Success,
    };
    let mut ours = MbufChain::new();
    header.encode(&mut ours, &mut CopyMeter::new());
    assert_eq!(ours.to_vec_for_test(), msg);
    let chain = chain_of(&msg);
    assert_eq!(
        ReplyHeader::decode(&mut XdrDecoder::new(&chain)).unwrap(),
        header
    );
    // accept_stat 4 is GARBAGE_ARGS.
    let mut garbage = msg.clone();
    garbage[23] = 4;
    let chain = chain_of(&garbage);
    assert_eq!(
        ReplyHeader::decode(&mut XdrDecoder::new(&chain))
            .unwrap()
            .stat,
        AcceptStat::GarbageArgs
    );
}

#[test]
fn an_fhandle_is_32_opaque_bytes() {
    let mut ours = MbufChain::new();
    FH.encode(&mut XdrEncoder::new(&mut ours, &mut CopyMeter::new()));
    assert_eq!(ours.to_vec_for_test(), FHANDLE);
    let chain = chain_of(&FHANDLE);
    assert_eq!(
        FileHandle::decode(&mut XdrDecoder::new(&chain)).unwrap(),
        FH
    );
}

#[test]
fn an_fattr_is_17_words_in_rfc_order() {
    // RFC 1094 §2.3.5 `fattr`; §2.3.4 `timeval` is seconds, microseconds.
    let msg = words(&[
        1,      // type NFREG
        0o644,  // mode
        2,      // nlink
        501,    // uid
        20,     // gid
        9999,   // size
        8192,   // blocksize
        0,      // rdev
        20,     // blocks
        1,      // fsid
        42,     // fileid
        100,    // atime.seconds
        250000, // atime.useconds
        200,    // mtime.seconds
        500000, // mtime.useconds
        300,    // ctime.seconds
        750000, // ctime.useconds
    ]);
    assert_eq!(msg.len(), 68);
    let attr = Vattr {
        ftype: FileType::Regular,
        mode: 0o644,
        nlink: 2,
        uid: 501,
        gid: 20,
        size: 9999,
        blocksize: 8192,
        blocks: 20,
        fsid: 1,
        fileid: 42,
        atime: SimTime::from_millis(100_250),
        mtime: SimTime::from_millis(200_500),
        ctime: SimTime::from_millis(300_750),
    };
    let mut ours = MbufChain::new();
    proto::put_fattr(
        &mut XdrEncoder::new(&mut ours, &mut CopyMeter::new()),
        &attr,
    );
    assert_eq!(ours.to_vec_for_test(), msg);
    let chain = chain_of(&msg);
    assert_eq!(
        proto::get_fattr(&mut XdrDecoder::new(&chain)).unwrap(),
        attr
    );
    // NFDIR is 2 and NFLNK is 5; 3 and 4 (devices) are not served.
    for (wire, ftype) in [(2, FileType::Directory), (5, FileType::Symlink)] {
        let mut other = msg.clone();
        other[3] = wire;
        let chain = chain_of(&other);
        let got = proto::get_fattr(&mut XdrDecoder::new(&chain)).unwrap();
        assert_eq!(got.ftype, ftype);
    }
}

#[test]
fn procedure_numbers_are_rfc_1094s() {
    // RFC 1094 §2.2, in order from NFSPROC_NULL = 0.
    let in_order = [
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
    ];
    for (number, proc) in in_order.into_iter().enumerate() {
        assert_eq!(proc.to_wire(), number as u32, "{proc:?}");
    }
}
