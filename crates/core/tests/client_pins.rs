//! Pins the client's observable behaviour, preset by preset: one fixed
//! script over `Loopback` that calls every public `ClientFs` entry point
//! (plus an attribute-timeout `advance` and a server reboot), and for
//! each mount preset an FNV-1a hash of the RPC sequence the server saw,
//! the final virtual clock and a hash of every call's outcome and every
//! byte read back. A refactor of the client that keeps these constants
//! sends the same RPCs at the same instants and returns the same data.

use renofs::client::{ClientConfig, ClientError, ClientFs, WritePolicy};
use renofs::proto::Sattr;
use renofs::server::{NfsServer, ServerConfig};
use renofs::syscalls::{Loopback, Syscalls};
use renofs_sim::{SimDuration, SimTime};
use renofs_vfs::BLOCK_SIZE;

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

    /// One call's outcome: 0 for success, else an error code.
    fn outcome<T>(&mut self, r: &Result<T, ClientError>) {
        self.word(match r {
            Ok(_) => 0,
            Err(ClientError::Nfs(s)) => 1_000 + s.to_wire() as u64,
            Err(ClientError::Protocol) => 1,
            Err(ClientError::TimedOut) => 2,
            Err(ClientError::Stale) => 3,
        });
    }
}

/// What one preset's run leaves behind: the RPC sequence's hash, the
/// final clock in nanoseconds, and the outcomes-and-bytes hash.
type Pin = (u64, u64, u64);

fn patterned(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
}

fn script(cfg: ClientConfig) -> Pin {
    let mut server = NfsServer::new(
        ServerConfig {
            leases: cfg.lease,
            readdir_lookup: cfg.use_readdir_lookup,
            ..ServerConfig::reno()
        },
        SimTime::ZERO,
    );
    let t0 = SimTime::ZERO;
    let root_ino = server.fs().root();
    let src = server.fs_mut().mkdir(root_ino, "src", 0o755, t0).unwrap();
    for i in 0..3u8 {
        let f = server
            .fs_mut()
            .create(src, &format!("f{i}.c"), 0o644, t0)
            .unwrap();
        let body = patterned(BLOCK_SIZE * 2 + 300 * i as usize, i);
        server.fs_mut().write(f, 0, &body, t0).unwrap();
    }
    let root = server.root_handle();
    let mut c = ClientFs::mount(Loopback::new(server), cfg, root, "uvax1");
    c.set_xid_base(7_000);
    assert_eq!(c.root(), root);
    assert_eq!(c.config().lease, cfg.lease);
    let mut h = Fnv::new();

    // Directory and file creation, then a multi-block write with a
    // partial tail, a disjoint patch and an overlapping rewrite.
    h.outcome(&c.mkdir("/w"));
    let a = c.open("/w/a", true, false).unwrap();
    h.outcome(&c.write(a, 0, &patterned(2 * BLOCK_SIZE + 700, 1)));
    h.outcome(&c.write(a, 3 * BLOCK_SIZE as u32 + 10, b"disjoint tail"));
    h.outcome(&c.write(a, 3 * BLOCK_SIZE as u32 + 4000, b"gap"));
    h.outcome(&c.write(a, 100, &patterned(500, 2)));
    let mut out = Vec::new();
    h.outcome(&c.read_into(a, 50, 9_000, &mut out));
    h.bytes(&out);
    h.outcome(&c.close(a));

    // Name and attribute paths.
    let r = c.stat("/w/a");
    h.outcome(&r);
    h.word(r.map_or(0, |v| v.size as u64));
    h.outcome(&c.getattr_validated(a));
    h.outcome(&c.lookup_path("/w/a"));
    h.outcome(&c.lookup_component(root, "w"));
    h.outcome(&c.lookup_path("/w/missing"));

    // Read-ahead over a server-side file, an external change, and the
    // attribute timeout that lets the client see it.
    let f0 = c.open("/src/f0.c", false, false).unwrap();
    let r = c.read(f0, 0, 3 * BLOCK_SIZE as u32);
    h.outcome(&r);
    h.bytes(&r.unwrap_or_default());
    let ino = renofs_vfs::InodeId(f0.ino);
    let later = c.sys().now() + SimDuration::from_secs(2);
    c.sys()
        .server
        .fs_mut()
        .write(ino, 10, b"CHANGED ELSEWHERE", later)
        .unwrap();
    c.sys().advance(SimDuration::from_secs(6));
    let r = c.read(f0, 0, 64);
    h.outcome(&r);
    h.bytes(&r.unwrap_or_default());
    h.outcome(&c.close(f0));

    // Setattr, an explicit push and the sync.
    h.outcome(&c.setattr_fh(a, Sattr::truncate(5_000)));
    h.outcome(&c.write(a, 4_900, &patterned(3_000, 3)));
    h.outcome(&c.push_dirty(a, true));
    h.outcome(&c.write(a, 20, b"synced later"));
    h.outcome(&c.sync());

    // Links, listings, rename and the unlinks, each group run after a
    // lease holding write-behind data has lapsed: which call sweeps the
    // lease first, pushing the data, shows in the RPC sequence.
    let d = c.open("/src/f2.c", false, false).unwrap();
    let behind = |c: &mut ClientFs<Loopback>, h: &mut Fnv, salt| {
        h.outcome(&c.write(d, 100 * salt as u32, &patterned(600, salt)));
        h.outcome(&c.close(d));
        c.sys().advance(SimDuration::from_secs(4));
    };
    behind(&mut c, &mut h, 6);
    h.outcome(&c.symlink("/w/ln", "/w/a"));
    let r = c.readlink("/w/ln");
    h.outcome(&r);
    h.bytes(r.unwrap_or_default().as_bytes());
    for dir in ["/w", "/w", "/src"] {
        match c.readdir(dir) {
            Ok(es) => {
                for e in es {
                    h.bytes(e.name.as_bytes());
                    h.word(e.fileid as u64);
                }
            }
            Err(e) => h.outcome::<()>(&Err(e)),
        }
    }
    h.outcome(&c.rename("/w/a", "/w/b"));
    behind(&mut c, &mut h, 7);
    let t = c.open("/w/t", true, false).unwrap();
    h.outcome(&c.write(t, 0, &patterned(BLOCK_SIZE + 1, 4)));
    h.outcome(&c.close(t));
    h.outcome(&c.remove("/w/t"));
    h.outcome(&c.remove("/w/t"));
    behind(&mut c, &mut h, 8);
    h.outcome(&c.mkdir("/w/d"));
    h.outcome(&c.rmdir("/w/d"));
    h.outcome(&c.rmdir("/w/d"));
    let r = c.statfs();
    h.outcome(&r);
    h.word(r.map_or(0, |s| s.3 as u64));
    h.outcome(&c.flush_idle());

    // Truncate-open, then a server reboot under open files: every handle
    // goes stale and the client recovers through its recorded paths.
    let b = c.open("/w/b", false, true).unwrap();
    h.outcome(&c.write(b, 0, &patterned(BLOCK_SIZE + 99, 5)));
    h.outcome(&c.close(b));
    let g = c.open("/src/f1.c", false, false).unwrap();
    h.outcome(&c.write(g, 8_000, b"straddles a block edge"));
    c.sys().server.reboot();
    h.outcome(&c.close(g));
    let r = c.read(b, 0, 2 * BLOCK_SIZE as u32);
    h.outcome(&r);
    h.bytes(&r.unwrap_or_default());
    h.outcome(&c.stat("/src/f2.c"));
    h.outcome(&c.open("/w/nope", false, false));

    // The attribute timeout once more, then read everything back.
    c.sys().advance(SimDuration::from_secs(6));
    h.outcome(&c.flush_idle());
    for path in ["/w/b", "/src/f0.c", "/src/f1.c", "/src/f2.c"] {
        let r = c.open(path, false, false).and_then(|fh| {
            let bytes = c.read(fh, 0, 4 * BLOCK_SIZE as u32)?;
            c.close(fh)?;
            Ok(bytes)
        });
        h.outcome(&r);
        h.bytes(&r.unwrap_or_default());
    }
    assert_eq!(
        c.counts().total(),
        c.sys().rpc_log.len() as u64,
        "the client counted every RPC the server saw"
    );

    let mut rpcs = Fnv::new();
    for p in &c.sys().rpc_log {
        rpcs.word(p.to_wire() as u64);
    }
    let now = c.sys().now().as_nanos();
    (rpcs.0, now, h.0)
}

fn presets() -> [(&'static str, ClientConfig); 7] {
    [
        ("reno", ClientConfig::reno()),
        ("reno_nopush", ClientConfig::reno_nopush()),
        ("reno_noconsist", ClientConfig::reno_noconsist()),
        ("ultrix", ClientConfig::ultrix()),
        ("reno_lease", ClientConfig::reno_lease()),
        (
            "write_through",
            ClientConfig {
                write_policy: WritePolicy::WriteThrough,
                ..ClientConfig::reno()
            },
        ),
        (
            "readdir_lookup",
            ClientConfig {
                use_readdir_lookup: true,
                ..ClientConfig::reno()
            },
        ),
    ]
}

/// The pins, recorded from the client as one file, before its copies
/// were removed and it was split into modules.
const PINS: [(&str, Pin); 7] = [
    (
        "reno",
        (0xdddad27ea57b4659, 26864105500, 0x49d6fe1a2d6bc096),
    ),
    (
        "reno_nopush",
        (0x441f41bb3ee02234, 26801956000, 0x3cd123480c0a9ea4),
    ),
    (
        "reno_noconsist",
        (0x89b228345539d95a, 26367476000, 0x94dae47b3c517903),
    ),
    (
        "ultrix",
        (0x4674297daa1d1d9, 27102668000, 0x49d6fe1a2d6bc096),
    ),
    (
        "reno_lease",
        (0x1b05815948cd8833, 27129109500, 0x142e6c131f0d38f),
    ),
    (
        "write_through",
        (0xdabdf6d08a837b4, 26926205500, 0x49d6fe1a2d6bc096),
    ),
    (
        "readdir_lookup",
        (0x4a77b9b5771260dc, 26864105500, 0x49d6fe1a2d6bc096),
    ),
];

#[test]
fn every_preset_sends_the_pinned_rpcs_and_reads_the_pinned_bytes() {
    let got: Vec<(&str, Pin)> = presets()
        .into_iter()
        .map(|(name, cfg)| (name, script(cfg)))
        .collect();
    let shown: Vec<String> = got
        .iter()
        .map(|(n, (r, t, b))| format!("    (\"{n}\", ({r:#x}, {t}, {b:#x})),"))
        .collect();
    assert_eq!(got, PINS, "actual pins:\n{}", shown.join("\n"));
}

#[test]
fn the_script_is_deterministic() {
    for (_, cfg) in presets() {
        assert_eq!(script(cfg), script(cfg));
    }
}
