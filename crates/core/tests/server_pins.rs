//! Pins the server's observable behaviour and what it charges, config by
//! config: one fixed script of RPC messages through
//! `NfsServer::service_from` (every procedure, the NQNFS lease calls with
//! their recall trailer, malformed and refused calls, a duplicate-cache
//! replay from a second client, and a reboot with its stale handles and
//! lease grace), and for each server config an FNV-1a hash of every
//! reply's bytes, every `ServiceCost` field and the final `stats()`. A
//! refactor of the server that keeps these constants answers the same
//! bytes and prices the same work.

use renofs::proto::{
    build, results, FileHandle, NfsProc, Sattr, LEASE_MODE_READ, LEASE_MODE_RELEASE,
    LEASE_MODE_WRITE,
};
use renofs::server::{NfsServer, ServerConfig, ServiceCost};
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::{SimDuration, SimTime};
use renofs_sunrpc::{AuthUnix, CallHeader, NFS_PROGRAM, NFS_VERSION, NQNFS_VERSION};
use renofs_vfs::BLOCK_SIZE;
use renofs_xdr::XdrDecoder;

/// FNV-1a, folded a word or a byte slice at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Every field of one request's cost.
    fn cost(&mut self, c: &ServiceCost) {
        self.word(c.proc.map_or(0, |p| 1 + p.to_wire() as u64));
        self.word(c.cache_steps);
        self.word(c.dir_scan_entries);
        self.word(c.bytes_copied);
        for ops in [&c.disk_reads, &c.disk_writes] {
            self.word(ops.len() as u64);
            for bytes in ops {
                self.word(bytes as u64);
            }
        }
        self.word(c.dup_hit as u64);
    }
}

fn patterned(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

/// A server under test plus the script's clock and running hash.
struct Run {
    server: NfsServer,
    now: SimTime,
    h: Fnv,
}

impl Run {
    /// Sends one raw message from `client`, hashes the reply's bytes and
    /// its cost, and returns the reply.
    fn raw(&mut self, client: u32, msg: &MbufChain) -> MbufChain {
        self.now += SimDuration::from_millis(250);
        let (reply, cost) = self.server.service_from(self.now, msg, client);
        let bytes = reply.to_vec_for_test();
        self.h.word(bytes.len() as u64);
        self.h.bytes(&bytes);
        self.h.cost(&cost);
        reply
    }

    /// Sends one call of `prog`/`vers`/`proc` with the arguments `args`
    /// writes.
    fn call_with(
        &mut self,
        client: u32,
        xid: u32,
        (prog, vers, proc): (u32, u32, u32),
        args: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> MbufChain {
        let mut meter = CopyMeter::new();
        let mut msg = MbufChain::new();
        CallHeader {
            xid,
            prog,
            vers,
            proc,
            auth: AuthUnix::root("pinclient"),
        }
        .encode(&mut msg, &mut meter);
        args(&mut msg, &mut meter);
        self.raw(client, &msg)
    }

    /// A classic NFS v2 call from client 0.
    fn call(
        &mut self,
        xid: u32,
        proc: NfsProc,
        args: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> MbufChain {
        self.call_with(0, xid, (NFS_PROGRAM, NFS_VERSION, proc.to_wire()), args)
    }

    /// An NQNFS-version call from `client`.
    fn nq(
        &mut self,
        client: u32,
        xid: u32,
        proc: NfsProc,
        args: impl FnOnce(&mut MbufChain, &mut CopyMeter),
    ) -> MbufChain {
        let id = (NFS_PROGRAM, NQNFS_VERSION, proc.to_wire());
        self.call_with(client, xid, id, args)
    }
}

/// The handle a LOOKUP/CREATE/MKDIR reply carries, if it succeeded.
fn diropres(reply: &MbufChain) -> Option<FileHandle> {
    let mut dec = XdrDecoder::new(reply);
    renofs_sunrpc::ReplyHeader::decode(&mut dec).ok()?;
    results::get_diropres(&mut dec).ok()?.ok().map(|(fh, _)| fh)
}

fn script(cfg: ServerConfig) -> u64 {
    let t0 = SimTime::ZERO;
    let mut server = NfsServer::new(cfg, t0);
    server.set_client_count(2);
    let root_ino = server.fs().root();
    let src = server.fs_mut().mkdir(root_ino, "src", 0o755, t0).unwrap();
    // 400 entries of ~24 bytes: a directory of two blocks.
    for i in 0..400 {
        server
            .fs_mut()
            .create(src, &format!("entry-{i:04}"), 0o644, t0)
            .unwrap();
    }
    let big = server.fs_mut().create(src, "big", 0o644, t0).unwrap();
    server
        .fs_mut()
        .write(big, 0, &patterned(3 * BLOCK_SIZE + 77, 9), t0)
        .unwrap();
    let root = server.root_handle();
    let mut r = Run {
        server,
        now: t0,
        h: Fnv::new(),
    };

    // Name paths: cold and warm lookups, a two-block directory, a miss.
    r.call(1, NfsProc::Null, |_, _| {});
    r.call(2, NfsProc::Getattr, |c, m| build::handle_args(c, m, &root));
    let srcfh = diropres(&r.call(3, NfsProc::Lookup, |c, m| {
        build::dirop_args(c, m, &root, "src")
    }))
    .unwrap();
    r.call(4, NfsProc::Lookup, |c, m| {
        build::dirop_args(c, m, &root, "src")
    });
    let bigfh = diropres(&r.call(5, NfsProc::Lookup, |c, m| {
        build::dirop_args(c, m, &srcfh, "big")
    }))
    .unwrap();
    r.call(6, NfsProc::Lookup, |c, m| {
        build::dirop_args(c, m, &srcfh, "entry-0321")
    });
    r.call(7, NfsProc::Lookup, |c, m| {
        build::dirop_args(c, m, &srcfh, "missing")
    });

    // Data paths: create with a size, block and partial writes, one past
    // block 12, cold/warm/unaligned reads and a read past the end.
    let sized = Sattr {
        mode: Some(0o600),
        size: Some(100),
        ..Sattr::default()
    };
    let a = diropres(&r.call(10, NfsProc::Create, |c, m| {
        build::create_args(c, m, &root, "a", &sized)
    }))
    .unwrap();
    for (xid, off, len, salt) in [
        (11, 0, BLOCK_SIZE, 1u8),
        (12, BLOCK_SIZE, 3_000, 2),
        (13, 12 * BLOCK_SIZE, 1_000, 3),
        (14, 100, 500, 4),
    ] {
        let data = MbufChain::from_slice(&patterned(len, salt), &mut CopyMeter::new());
        r.call(xid, NfsProc::Write, |c, m| {
            build::write_args(c, m, &a, off as u32, data)
        });
    }
    for (xid, fh, off, count) in [
        (15, &a, 0, 8192),
        (16, &a, 0, 8192),
        (17, &bigfh, 100, 8192),
        (18, &bigfh, 2 * BLOCK_SIZE as u32, 8192),
        (19, &a, 40 * BLOCK_SIZE as u32, 512),
        (20, &srcfh, 0, 512),
    ] {
        r.call(xid, NfsProc::Read, |c, m| {
            build::read_args(c, m, fh, off, count)
        });
    }
    // A write after the block is cached updates it in place.
    let data = MbufChain::from_slice(&patterned(700, 5), &mut CopyMeter::new());
    r.call(21, NfsProc::Write, |c, m| {
        build::write_args(c, m, &a, 50, data)
    });
    r.call(22, NfsProc::Read, |c, m| {
        build::read_args(c, m, &a, 0, 1024)
    });
    r.call(23, NfsProc::Setattr, |c, m| {
        let s = Sattr {
            mode: Some(0o640),
            ..Sattr::truncate(5_000)
        };
        build::setattr_args(c, m, &a, &s)
    });

    // Namespace changes, each then repeated to fail.
    let d = diropres(&r.call(30, NfsProc::Mkdir, |c, m| {
        build::create_args(c, m, &root, "d", &Sattr::default())
    }))
    .unwrap();
    r.call(31, NfsProc::Mkdir, |c, m| {
        build::create_args(c, m, &root, "d", &Sattr::default())
    });
    r.call(32, NfsProc::Create, |c, m| {
        build::create_args(c, m, &d, "inner", &Sattr::default())
    });
    r.call(33, NfsProc::Symlink, |c, m| {
        build::symlink_args(c, m, &root, "ln", "/a")
    });
    let ln = diropres(&r.call(34, NfsProc::Lookup, |c, m| {
        build::dirop_args(c, m, &root, "ln")
    }))
    .unwrap();
    r.call(35, NfsProc::Readlink, |c, m| build::handle_args(c, m, &ln));
    r.call(36, NfsProc::Readlink, |c, m| build::handle_args(c, m, &a));
    r.call(37, NfsProc::Link, |c, m| {
        build::link_args(c, m, &a, &d, "a2")
    });
    r.call(38, NfsProc::Link, |c, m| {
        build::link_args(c, m, &a, &d, "a2")
    });
    r.call(39, NfsProc::Rename, |c, m| {
        build::rename_args(c, m, &d, "a2", &root, "a3")
    });
    r.call(40, NfsProc::Rename, |c, m| {
        build::rename_args(c, m, &d, "a2", &root, "a3")
    });
    r.call(41, NfsProc::Remove, |c, m| {
        build::dirop_args(c, m, &root, "a3")
    });
    r.call(42, NfsProc::Remove, |c, m| {
        build::dirop_args(c, m, &root, "a3")
    });
    r.call(43, NfsProc::Rmdir, |c, m| {
        build::dirop_args(c, m, &root, "d")
    });
    r.call(44, NfsProc::Remove, |c, m| {
        build::dirop_args(c, m, &d, "inner")
    });
    r.call(45, NfsProc::Rmdir, |c, m| {
        build::dirop_args(c, m, &root, "d")
    });
    r.call(46, NfsProc::Rmdir, |c, m| {
        build::dirop_args(c, m, &root, "d")
    });

    // Listings: a whole small directory, two pages of the large one, and
    // the same through READDIRLOOKUP (refused unless configured).
    r.call(50, NfsProc::Readdir, |c, m| {
        build::readdir_args(c, m, &root, 0, 8192)
    });
    r.call(51, NfsProc::Readdir, |c, m| {
        build::readdir_args(c, m, &srcfh, 0, 1024)
    });
    r.call(52, NfsProc::Readdir, |c, m| {
        build::readdir_args(c, m, &srcfh, 32, 1024)
    });
    r.call(53, NfsProc::ReaddirLookup, |c, m| {
        build::readdir_args(c, m, &srcfh, 0, 2048)
    });
    r.call(54, NfsProc::ReaddirLookup, |c, m| {
        build::readdir_args(c, m, &root, 0, 8192)
    });
    r.call(55, NfsProc::Statfs, |c, m| build::handle_args(c, m, &root));

    // Malformed and refused calls: a garbled header, a wrong program, a
    // wrong version, an unknown and an obsolete procedure, a lease call
    // over the classic version and truncated arguments.
    r.raw(0, &MbufChain::from_slice(&[0u8; 8], &mut CopyMeter::new()));
    r.call_with(0, 60, (NFS_PROGRAM + 1, NFS_VERSION, 1), |c, m| {
        build::handle_args(c, m, &root)
    });
    r.call_with(0, 61, (NFS_PROGRAM, 99, 1), |c, m| {
        build::handle_args(c, m, &root)
    });
    r.call_with(0, 62, (NFS_PROGRAM, NFS_VERSION, 42), |_, _| {});
    r.call(63, NfsProc::Root, |_, _| {});
    r.call(64, NfsProc::Getlease, |c, m| {
        build::getlease_args(c, m, &a, LEASE_MODE_READ)
    });
    r.call(65, NfsProc::Lookup, |c, m| {
        build::handle_args(c, m, &root);
    });

    // The duplicate-request cache: client 1 retransmits a CREATE, and
    // client 0 reuses the xid for another name.
    let from = |name: &'static str| {
        move |c: &mut MbufChain, m: &mut CopyMeter| {
            build::create_args(c, m, &root, name, &Sattr::default())
        }
    };
    let create = (NFS_PROGRAM, NFS_VERSION, NfsProc::Create.to_wire());
    r.call_with(1, 70, create, from("c1"));
    r.call_with(1, 70, create, from("c1"));
    r.call_with(0, 70, create, from("c0"));
    r.call_with(1, 71, create, from("c1"));

    // NQNFS leases: a write grant, a conflicting read that recalls it,
    // the recall on the holder's next trailer, a release and a regrant.
    r.nq(0, 80, NfsProc::Getlease, |c, m| {
        build::getlease_args(c, m, &a, LEASE_MODE_WRITE)
    });
    r.nq(1, 81, NfsProc::Getlease, |c, m| {
        build::getlease_args(c, m, &a, LEASE_MODE_READ)
    });
    r.nq(1, 82, NfsProc::Read, |c, m| {
        build::read_args(c, m, &a, 0, 512)
    });
    r.nq(0, 83, NfsProc::Getattr, |c, m| build::handle_args(c, m, &a));
    r.nq(0, 84, NfsProc::Getlease, |c, m| {
        build::getlease_args(c, m, &a, LEASE_MODE_RELEASE)
    });
    r.nq(1, 85, NfsProc::Getlease, |c, m| {
        build::getlease_args(c, m, &a, LEASE_MODE_READ)
    });
    r.nq(0, 86, NfsProc::Remove, |c, m| {
        build::dirop_args(c, m, &root, "c0")
    });

    // A reboot: old handles go stale but the root's, the lease grace
    // defers reads and grants but admits writes, and a fresh lookup
    // serves again.
    r.server.reboot();
    r.call(90, NfsProc::Getattr, |c, m| build::handle_args(c, m, &a));
    r.call(91, NfsProc::Getattr, |c, m| build::handle_args(c, m, &root));
    let a2 = diropres(&r.call(92, NfsProc::Lookup, |c, m| {
        build::dirop_args(c, m, &root, "a")
    }))
    .unwrap();
    r.nq(1, 93, NfsProc::Read, |c, m| {
        build::read_args(c, m, &a2, 0, 512)
    });
    r.nq(1, 94, NfsProc::Getlease, |c, m| {
        build::getlease_args(c, m, &a2, LEASE_MODE_READ)
    });
    let data = MbufChain::from_slice(&patterned(300, 6), &mut CopyMeter::new());
    r.nq(0, 95, NfsProc::Write, |c, m| {
        build::write_args(c, m, &a2, 0, data)
    });
    r.call_with(1, 70, create, from("c1"));
    r.now += SimDuration::from_secs(40);
    r.nq(1, 96, NfsProc::Read, |c, m| {
        build::read_args(c, m, &a2, 0, 512)
    });
    r.call(97, NfsProc::Read, |c, m| {
        build::read_args(c, m, &a2, 0, 512)
    });

    let stats = format!("{:?}", r.server.stats());
    r.h.bytes(stats.as_bytes());
    r.h.0
}

fn configs() -> [(&'static str, ServerConfig); 6] {
    let reno = ServerConfig::reno();
    [
        ("reno", reno),
        ("ultrix", ServerConfig::ultrix()),
        (
            "dup_cache",
            ServerConfig {
                dup_cache: true,
                ..reno
            },
        ),
        (
            "loan_read_pages",
            ServerConfig {
                loan_read_pages: true,
                ..reno
            },
        ),
        (
            "readdir_lookup",
            ServerConfig {
                readdir_lookup: true,
                ..reno
            },
        ),
        (
            "leases",
            ServerConfig {
                leases: true,
                ..reno
            },
        ),
    ]
}

/// The pins, recorded from the server as one file, before its copies
/// were removed and it was split into modules.
const PINS: [(&str, u64); 6] = [
    ("reno", 0x70f990f5b351e110),
    ("ultrix", 0xb1f1dc7f1df39c3),
    ("dup_cache", 0x784e06f81754d591),
    ("loan_read_pages", 0xabc04d09c5798f22),
    ("readdir_lookup", 0x42df802171827345),
    ("leases", 0x5256ada1aa572bb7),
];

#[test]
fn every_config_answers_the_pinned_bytes_at_the_pinned_cost() {
    let got: Vec<(&str, u64)> = configs()
        .into_iter()
        .map(|(name, cfg)| (name, script(cfg)))
        .collect();
    let shown: Vec<String> = got
        .iter()
        .map(|(n, h)| format!("    (\"{n}\", {h:#x}),"))
        .collect();
    assert_eq!(got, PINS, "actual pins:\n{}", shown.join("\n"));
}

#[test]
fn the_script_is_deterministic() {
    for (_, cfg) in configs() {
        assert_eq!(script(cfg), script(cfg));
    }
}

/// The cookie to resume after and the eof flag of a READDIR (`tail` 0)
/// or READDIRLOOKUP (`tail` 100: each entry's handle and attributes)
/// reply, read word by word; `None` for an error status.
fn page_end(reply: &MbufChain, tail: usize) -> Option<(u32, bool)> {
    let mut dec = XdrDecoder::new(reply);
    renofs_sunrpc::ReplyHeader::decode(&mut dec).unwrap();
    if dec.get_u32().unwrap() != 0 {
        return None;
    }
    let mut cookie = 0;
    while dec.get_bool().unwrap() {
        dec.get_u32().unwrap();
        dec.skip_opaque_var(255).unwrap();
        cookie = dec.get_u32().unwrap();
        dec.skip_opaque_fixed(tail).unwrap();
    }
    Some((cookie, dec.get_bool().unwrap()))
}

/// A 600-entry directory listed page by page at `count` 8192, through
/// READDIR and then READDIRLOOKUP, and a READDIR of a regular file: for
/// each call the FNV-1a of its reply's bytes, the cookie its last entry
/// resumes after and its eof (`(0, false)` for an error), and the FNV-1a
/// of its `ServiceCost`.
fn listing() -> Vec<(u64, u32, bool, u64)> {
    let t0 = SimTime::ZERO;
    let cfg = ServerConfig {
        readdir_lookup: true,
        ..ServerConfig::reno()
    };
    let mut server = NfsServer::new(cfg, t0);
    let root_ino = server.fs().root();
    let big = server.fs_mut().mkdir(root_ino, "big", 0o755, t0).unwrap();
    // Names of 4 to 43 bytes (every padding), one of 1 and one of 255.
    let mut names: Vec<String> = (0..598)
        .map(|i| format!("n{i:03}{}", "-".repeat(i % 40)))
        .collect();
    names.push("a".to_string());
    names.push("z".repeat(255));
    for name in &names {
        server.fs_mut().create(big, name, 0o644, t0).unwrap();
    }
    let file = server.fs_mut().create(root_ino, "file", 0o644, t0).unwrap();
    let (bigfh, filefh) = (
        server.handle_for(big).unwrap(),
        server.handle_for(file).unwrap(),
    );
    let mut now = t0;
    let mut out = Vec::new();
    let mut call = |proc: NfsProc, fh: &FileHandle, cookie: u32, tail: usize| {
        let mut meter = CopyMeter::new();
        let mut msg = MbufChain::new();
        CallHeader {
            xid: out.len() as u32 + 1,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc: proc.to_wire(),
            auth: AuthUnix::root("pinclient"),
        }
        .encode(&mut msg, &mut meter);
        build::readdir_args(&mut msg, &mut meter, fh, cookie, 8192);
        now += SimDuration::from_millis(250);
        let (reply, cost) = server.service_from(now, &msg, 0);
        let (mut bytes, mut price) = (Fnv::new(), Fnv::new());
        bytes.bytes(&reply.to_vec_for_test());
        price.cost(&cost);
        let (next, eof) = page_end(&reply, tail).unwrap_or((0, false));
        out.push((bytes.0, next, eof, price.0));
        (next, eof)
    };
    for (proc, tail) in [(NfsProc::Readdir, 0), (NfsProc::ReaddirLookup, 100)] {
        let mut cookie = 0;
        loop {
            let (next, eof) = call(proc, &bigfh, cookie, tail);
            if eof {
                break;
            }
            cookie = next;
        }
    }
    call(NfsProc::Readdir, &filefh, 0, 0);
    out
}

/// The listing pins, recorded before READDIR stopped building a page
/// of entries.
const LISTING: [(u64, u32, bool, u64); 7] = [
    (0x98c9b25a854b3d7a, 256, false, 0x9af394737631edbf),
    (0x7854b89516f5de09, 512, false, 0x37281dd603b09128),
    (0xd2683144b3a9e7c4, 600, true, 0xbdb94e5388bac9a7),
    (0x6abbaee090878909, 256, false, 0x2abac7988fc07bd0),
    (0xcbe0e51a610549b8, 512, false, 0xe53291c0e3795fc1),
    (0x91c9e03bc39ca623, 600, true, 0x82a7b245771f71a1),
    (0xf3ad4d0893421b2f, 0, false, 0xaa0414aca2d37194),
];

#[test]
fn a_600_entry_listing_answers_the_pinned_pages_at_the_pinned_cost() {
    let got = listing();
    let shown: Vec<String> = got
        .iter()
        .map(|(b, c, e, p)| format!("    ({b:#x}, {c}, {e}, {p:#x}),"))
        .collect();
    assert_eq!(got, LISTING, "actual pins:\n{}", shown.join("\n"));
}
