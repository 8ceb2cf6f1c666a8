//! Sharded-fleet integration: multi-server worlds, the client-side
//! mount router, per-server XID/dup-cache isolation and the read
//! re-walk after a stale handle or a timeout.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::mpsc::channel;

use renofs::client::{ClientConfig, ClientError, ClientFs};
use renofs::proto::NfsProc;
use renofs::router::{ExportMap, RouterFs, ServerPort};
use renofs::server::{NfsServer, ServerConfig};
use renofs::syscalls::{RpcError, RpcResult, Syscalls, Ticket};
use renofs::world::{World, WorldConfig};
use renofs::FileHandle;
use renofs_mbuf::MbufChain;
use renofs_sim::{SimDuration, SimTime};

/// Creates `name` with `bytes` on shard `sj` before the world starts.
fn preload_on(world: &mut World, sj: usize, name: &str, bytes: &[u8]) {
    let root = world.server_of(sj).fs().root();
    let ino = world
        .server_of_mut(sj)
        .fs_mut()
        .create(root, name, 0o644, SimTime::ZERO)
        .unwrap();
    world
        .server_of_mut(sj)
        .fs_mut()
        .write(ino, 0, bytes, SimTime::ZERO)
        .unwrap();
}

#[test]
fn two_shard_world_routes_by_prefix() {
    let mut cfg = WorldConfig::baseline();
    cfg.servers = 2;
    let mut world = World::new(cfg);
    assert_eq!(world.server_count(), 2);
    preload_on(&mut world, 0, "zero.bin", &[0xAAu8; 4_000]);
    preload_on(&mut world, 1, "one.bin", &[0xBBu8; 4_000]);
    let roots: Vec<_> = (0..2).map(|sj| world.server_of(sj).root_handle()).collect();
    let (tx, rx) = channel();
    world.spawn(move |sys| {
        let mut r = RouterFs::mount(
            sys,
            ClientConfig::reno(),
            ExportMap::fleet(2),
            &roots,
            "uvax1",
        );
        // Reads route by longest prefix: "/" -> shard 0, "/s1" -> shard 1.
        let h0 = r.lookup_path("/zero.bin").unwrap();
        assert_eq!(h0.export, 0);
        assert_eq!(r.read(h0, 0, 4_000).unwrap(), vec![0xAAu8; 4_000]);
        let h1 = r.lookup_path("/s1/one.bin").unwrap();
        assert_eq!(h1.export, 1);
        assert_eq!(r.read(h1, 0, 4_000).unwrap(), vec![0xBBu8; 4_000]);
        // Writes land on the owning shard only.
        let w = r.open("/s1/new.bin", true, false).unwrap();
        r.write(w, 0, b"shard one data").unwrap();
        r.close(w).unwrap();
        // Cross-shard rename copies the bytes and removes the source.
        r.rename("/s1/new.bin", "/moved.bin").unwrap();
        let m = r.lookup_path("/moved.bin").unwrap();
        assert_eq!(m.export, 0);
        assert_eq!(r.read(m, 0, 100).unwrap(), b"shard one data");
        assert!(r.lookup_path("/s1/new.bin").is_err(), "source removed");
        tx.send(r.counts().total()).unwrap();
    });
    world.run();
    assert!(rx.recv().unwrap() > 10);
    // Both shards served traffic; the new file exists on shard 0 only.
    assert!(world.server_of(0).stats().total() > 0, "shard 0 served");
    assert!(world.server_of(1).stats().total() > 0, "shard 1 served");
    let r0 = world.server_of(0).fs().root();
    assert!(world.server_of(0).fs().lookup(r0, "moved.bin").is_ok());
    let r1 = world.server_of(1).fs().root();
    assert!(world.server_of(1).fs().lookup(r1, "new.bin").is_err());
}

/// Satellite regression: two mounts of one machine deliberately share
/// an XID stream toward *different* shards. Per-server transports and
/// per-server duplicate caches must keep the streams apart — neither
/// server may mistake the other's XIDs for retransmissions.
#[test]
fn colliding_xids_toward_different_servers_do_not_cross_dup_caches() {
    let mut cfg = WorldConfig::baseline();
    cfg.servers = 2;
    cfg.server.dup_cache = true;
    let mut world = World::new(cfg);
    let roots = [0, 1].map(|sj| world.server_of(sj).root_handle());
    let (tx, rx) = channel();
    world.spawn(move |sys| {
        let sys = Rc::new(RefCell::new(sys));
        let mut a = ClientFs::mount(
            ServerPort::new(Rc::clone(&sys), 0),
            ClientConfig::reno(),
            roots[0],
            "uvax1",
        );
        let mut b = ClientFs::mount(
            ServerPort::new(Rc::clone(&sys), 1),
            ClientConfig::reno(),
            roots[1],
            "uvax1",
        );
        // Identical XID bases: every RPC pair (a's k-th, b's k-th)
        // presents the same XID to its server.
        a.set_xid_base(7_000);
        b.set_xid_base(7_000);
        let fa = a.open("/a.bin", true, false).unwrap();
        let fb = b.open("/b.bin", true, false).unwrap();
        for i in 0..8u8 {
            a.write(fa, u32::from(i) * 512, &[i; 512]).unwrap();
            b.write(fb, u32::from(i) * 512, &[i ^ 0xFF; 512]).unwrap();
        }
        a.close(fa).unwrap();
        b.close(fb).unwrap();
        let ra = a.read(fa, 0, 512).unwrap();
        let rb = b.read(fb, 0, 512).unwrap();
        tx.send((ra, rb)).unwrap();
    });
    world.run();
    let (ra, rb) = rx.recv().unwrap();
    assert_eq!(ra, vec![0u8; 512]);
    assert_eq!(rb, vec![0xFFu8; 512]);
    // No false replays: the dup caches are per-server, so the colliding
    // XIDs never register as duplicates anywhere.
    assert_eq!(world.server_of(0).stats().dup_hits, 0);
    assert_eq!(world.server_of(1).stats().dup_hits, 0);
    assert!(world.server_of(0).stats().calls.count(NfsProc::Write) > 0);
    assert!(world.server_of(1).stats().calls.count(NfsProc::Write) > 0);
}

// ----- loopback fleet: the read re-walk --------------------------------

struct FleetState {
    servers: Vec<NfsServer>,
    down: Vec<bool>,
    now: SimTime,
    tickets: HashMap<u64, RpcResult>,
    next_ticket: u64,
}

/// In-process multi-server loopback: every shard is serviced
/// synchronously, and the test keeps a handle to mutate shard state
/// mid-run (dead servers, recreated files).
#[derive(Clone)]
struct FleetLoopback(Rc<RefCell<FleetState>>);

impl FleetLoopback {
    fn new(m: usize) -> Self {
        let servers = (0..m)
            .map(|_| NfsServer::new(ServerConfig::reno(), SimTime::ZERO))
            .collect();
        FleetLoopback(Rc::new(RefCell::new(FleetState {
            servers,
            down: vec![false; m],
            now: SimTime::from_secs(1),
            tickets: HashMap::new(),
            next_ticket: 1,
        })))
    }

    fn roots(&self) -> Vec<FileHandle> {
        self.0
            .borrow()
            .servers
            .iter()
            .map(|s| s.root_handle())
            .collect()
    }

    fn put(&self, sj: usize, name: &str, bytes: &[u8]) {
        let mut st = self.0.borrow_mut();
        let root = st.servers[sj].fs().root();
        let ino = st.servers[sj]
            .fs_mut()
            .create(root, name, 0o644, SimTime::ZERO)
            .unwrap();
        st.servers[sj]
            .fs_mut()
            .write(ino, 0, bytes, SimTime::ZERO)
            .unwrap();
    }

    fn unlink(&self, sj: usize, name: &str) {
        let mut st = self.0.borrow_mut();
        let root = st.servers[sj].fs().root();
        st.servers[sj]
            .fs_mut()
            .remove(root, name, SimTime::ZERO)
            .unwrap();
    }

    fn advance(&self, d: SimDuration) {
        self.0.borrow_mut().now += d;
    }
}

impl Syscalls for FleetLoopback {
    fn now(&mut self) -> SimTime {
        self.0.borrow().now
    }
    fn charge_cpu(&mut self, d: SimDuration) {
        self.0.borrow_mut().now += d;
    }
    fn sleep(&mut self, d: SimDuration) {
        self.0.borrow_mut().now += d;
    }
    fn rpc(&mut self, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.rpc_to(0, proc, msg)
    }
    fn rpc_to(&mut self, server: usize, _proc: NfsProc, msg: MbufChain) -> RpcResult {
        let mut st = self.0.borrow_mut();
        if st.down[server] {
            return Err(RpcError::TimedOut);
        }
        st.now += SimDuration::from_millis(5);
        let now = st.now;
        let (reply, _cost) = st.servers[server].service(now, &msg);
        Ok(reply)
    }
    fn rpc_async(&mut self, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.rpc_async_to(0, proc, msg)
    }
    fn rpc_async_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> Ticket {
        let reply = self.rpc_to(server, proc, msg);
        let mut st = self.0.borrow_mut();
        let id = st.next_ticket;
        st.next_ticket += 1;
        st.tickets.insert(id, reply);
        Ticket(id)
    }
    fn await_ticket(&mut self, t: Ticket) -> RpcResult {
        self.0.borrow_mut().tickets.remove(&t.0).expect("ticket")
    }
    fn poll_ticket(&mut self, t: Ticket) -> Option<RpcResult> {
        self.0.borrow_mut().tickets.remove(&t.0)
    }
    fn forget_ticket(&mut self, t: Ticket) {
        self.0.borrow_mut().tickets.remove(&t.0);
    }
    fn wait_all_async(&mut self) {}
    fn local_disk(&mut self, bytes: usize, _write: bool, _seq: bool) {
        self.0.borrow_mut().now += SimDuration::from_micros(20) * bytes as u64 / 1000;
    }
}

/// A read whose handle went stale because its file was replaced on the
/// server (a new inode under the same name, so the mount's own recovery
/// refuses it) walks its recorded path again and reads the new file.
#[test]
fn a_stale_read_rewalks_its_path_to_the_replaced_file() {
    let fleet = FleetLoopback::new(2);
    fleet.put(1, "f", b"the original");
    let roots = fleet.roots();
    let map = ExportMap::fleet(2);
    let mut r = RouterFs::mount(fleet.clone(), ClientConfig::reno(), map, &roots, "uvax1");
    let h = r.open("/s1/f", false, false).unwrap();
    assert_eq!(h.export, 1);
    assert_eq!(r.read(h, 0, 100).unwrap(), b"the original");
    fleet.unlink(1, "f");
    fleet.put(1, "f", b"its replacement");
    fleet.advance(SimDuration::from_secs(120)); // expire cached attributes
    assert_eq!(r.read(h, 0, 100).unwrap(), b"its replacement");
}

/// A read that times out while its path still names the same file
/// returns the timeout: the re-walk finds the same handle and sends no
/// second READ.
#[test]
fn a_timed_out_read_whose_path_finds_the_same_handle_returns_the_error() {
    let fleet = FleetLoopback::new(2);
    fleet.put(1, "f", b"the original");
    let roots = fleet.roots();
    let map = ExportMap::fleet(2);
    let mut r = RouterFs::mount(fleet.clone(), ClientConfig::reno(), map, &roots, "uvax1");
    let h = r.open("/s1/f", false, false).unwrap();
    fleet.0.borrow_mut().down[1] = true;
    assert_eq!(r.read(h, 0, 100), Err(ClientError::TimedOut));
    assert_eq!(r.counts().count(NfsProc::Read), 1, "one READ, no retry");
}

/// An M=1 router world is byte-identical to the legacy direct-mount
/// single-server world: same virtual clock, same server call profile.
#[test]
fn single_server_router_world_matches_direct_mount() {
    let run = |routed: bool| {
        let mut world = World::new(WorldConfig::baseline());
        preload_on(&mut world, 0, "base.bin", &[9u8; 10_000]);
        let root = world.root_handle();
        world.spawn(move |sys| {
            if routed {
                let mut r = RouterFs::mount(
                    sys,
                    ClientConfig::reno(),
                    ExportMap::fleet(1),
                    &[root],
                    "uvax1",
                );
                let h = r.lookup_path("/base.bin").unwrap();
                let _ = r.read(h, 0, 10_000).unwrap();
                let w = r.open("/out.bin", true, false).unwrap();
                r.write(w, 0, &[3u8; 6_000]).unwrap();
                r.close(w).unwrap();
            } else {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                fs.set_xid_base(1);
                let h = fs.lookup_path("/base.bin").unwrap();
                let _ = fs.read(h, 0, 10_000).unwrap();
                let w = fs.open("/out.bin", true, false).unwrap();
                fs.write(w, 0, &[3u8; 6_000]).unwrap();
                fs.close(w).unwrap();
            }
        });
        world.run();
        let calls: Vec<u64> = (0..18)
            .filter_map(NfsProc::from_wire)
            .map(|p| world.server_of(0).stats().calls.count(p))
            .collect();
        (world.now(), calls)
    };
    let direct = run(false);
    let routed = run(true);
    assert_eq!(direct, routed, "M=1 router == legacy single-server path");
}
