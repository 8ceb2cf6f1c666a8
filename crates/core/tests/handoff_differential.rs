//! An inserted crossing is invisible to the world.
//!
//! Every [`WorldSys`](renofs::world::WorldSys) call but `now()` crosses to
//! the world once, and `now()` reads the clock stamped on the proc's last
//! resume. The promise is that a crossing carries nothing the world can
//! see beyond its call: a script with an extra crossing inserted after
//! every step performs the same operations in the same order at the same
//! virtual times. The inserted call is `poll_ticket` on a ticket that was
//! never issued — it replies in place and touches nothing. This test
//! draws random per-proc scripts over every `Syscalls` method, runs each
//! world twice — as written and with the inserted calls — and requires
//! every shared observation to match: each `now()`, each reply length, the
//! final clock, client CPU busy time and the server's counters, over a
//! one-client world and two-client UDP and TCP worlds. It is the check for
//! any change to the proc↔world protocol.

use proptest::prelude::*;
use renofs::proto::{build, FileHandle, NfsProc};
use renofs::syscalls::{RpcResult, Syscalls, Ticket};
use renofs::{TransportKind, World, WorldConfig};
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::{SimDuration, SimTime};
use renofs_sunrpc::{AuthUnix, CallHeader, NFS_PROGRAM, NFS_VERSION};
use std::sync::mpsc::channel;

/// One drawn script step: `(opcode, magnitude, pick)`.
type Step = (u8, u16, u8);
/// One drawn proc: `(client pick, script)`.
type ProcScript = (u8, Vec<Step>);

/// What a script can see of the world.
#[derive(Debug, PartialEq)]
enum Obs {
    Now(SimTime),
    Reply(Option<usize>),
    Pending,
    Ticket,
}

fn reply_len(r: RpcResult) -> Obs {
    Obs::Reply(r.ok().map(|c| c.len()))
}

struct Proc<'a, S: Syscalls> {
    sys: &'a mut S,
    /// Follows every step with an extra crossing.
    cross_each: bool,
    xid: u32,
    root: FileHandle,
    big: FileHandle,
    held: Vec<Ticket>,
    log: Vec<Obs>,
}

impl<S: Syscalls> Proc<'_, S> {
    fn call(&mut self, pick: u8) -> (NfsProc, MbufChain) {
        let proc = [NfsProc::Null, NfsProc::Getattr, NfsProc::Read][pick as usize % 3];
        self.xid += 1;
        let mut meter = CopyMeter::new();
        let mut msg = MbufChain::with_leading_space(64);
        CallHeader {
            xid: self.xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc: proc.to_wire(),
            auth: AuthUnix::root("uvax"),
        }
        .encode(&mut msg, &mut meter);
        match proc {
            NfsProc::Getattr => build::handle_args(&mut msg, &mut meter, &self.root),
            NfsProc::Read => build::read_args(&mut msg, &mut meter, &self.big, 0, 8192),
            _ => {}
        }
        (proc, msg)
    }

    fn take_held(&mut self, pick: u8) -> Option<Ticket> {
        if self.held.is_empty() {
            return None;
        }
        Some(self.held.remove(pick as usize % self.held.len()))
    }

    fn step(&mut self, (op, mag, pick): Step) {
        let d = SimDuration::from_micros(1 + mag as u64);
        match op % 10 {
            0 => {
                let t = self.sys.now();
                self.log.push(Obs::Now(t));
            }
            1 => self.sys.charge_cpu(d),
            2 => self.sys.sleep(d * 8),
            3 => self
                .sys
                .local_disk(1 + mag as usize, pick & 1 == 1, pick & 2 == 2),
            4 => {
                let (proc, msg) = self.call(pick);
                let r = self.sys.rpc(proc, msg);
                self.log.push(reply_len(r));
            }
            5 => {
                let (proc, msg) = self.call(pick);
                let t = self.sys.rpc_async(proc, msg);
                self.held.push(t);
                self.log.push(Obs::Ticket);
            }
            6 => {
                if let Some(t) = self.take_held(pick) {
                    let r = self.sys.await_ticket(t);
                    self.log.push(reply_len(r));
                }
            }
            7 => {
                if let Some(t) = self.take_held(pick) {
                    match self.sys.poll_ticket(t) {
                        Some(r) => self.log.push(reply_len(r)),
                        None => {
                            self.held.push(t);
                            self.log.push(Obs::Pending);
                        }
                    }
                }
            }
            8 => {
                if let Some(t) = self.take_held(pick) {
                    self.sys.forget_ticket(t);
                }
            }
            _ => self.sys.wait_all_async(),
        }
        if self.cross_each {
            assert!(self.sys.poll_ticket(Ticket(u64::MAX)).is_none());
        }
    }
}

/// Everything compared between the two runs.
#[derive(Debug, PartialEq)]
struct Outcome {
    logs: Vec<Vec<Obs>>,
    end: SimTime,
    client_busy: Vec<SimDuration>,
    server: String,
}

fn run(kind: usize, biods: usize, procs: &[ProcScript], cross_each: bool) -> Outcome {
    // One client, two clients over UDP, two clients over TCP.
    let (clients, tcp) = [(1, false), (2, false), (2, true)][kind];
    let mut cfg = WorldConfig::baseline();
    cfg.biods = biods;
    cfg.clients = clients;
    if tcp {
        cfg.transport = TransportKind::Tcp;
    }
    let mut world = World::new(cfg);
    let root_ino = world.server().fs().root();
    let ino = world
        .server_mut()
        .fs_mut()
        .create(root_ino, "big", 0o644, SimTime::ZERO)
        .unwrap();
    world
        .server_mut()
        .fs_mut()
        .write(ino, 0, &[0x5Au8; 8192], SimTime::ZERO)
        .unwrap();
    let root = world.root_handle();
    let big = world.server().handle_for(ino).unwrap();
    let (tx, rx) = channel();
    for (p, (client, script)) in procs.iter().enumerate() {
        let tx = tx.clone();
        let script = script.clone();
        world.spawn_on(*client as usize % clients, move |sys| {
            let mut proc = Proc {
                sys,
                cross_each,
                // Procs of one machine share its XID space.
                xid: (p as u32 + 1) << 24,
                root,
                big,
                held: Vec::new(),
                log: Vec::new(),
            };
            for step in script {
                proc.step(step);
            }
            tx.send((p, proc.log)).unwrap();
        });
    }
    drop(tx);
    world.run();
    let mut logs: Vec<_> = rx.iter().collect();
    logs.sort_by_key(|(p, _)| *p);
    Outcome {
        logs: logs.into_iter().map(|(_, log)| log).collect(),
        end: world.now(),
        client_busy: (0..clients)
            .map(|ci| world.client_host_of(ci).cpu.busy_time())
            .collect(),
        server: format!("{:?}", world.server().stats()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 24 } else { 192 }))]

    #[test]
    fn an_inserted_crossing_is_invisible_to_the_world(
        kind in 0usize..3,
        biods in 0usize..3,
        procs in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec((0u8..10, any::<u16>(), any::<u8>()), 0..32)),
            1..4,
        ),
    ) {
        // Zero biods turn every async call into a blocking one; with one
        // or four, the call after the last free slot parks.
        let biods = [0, 1, 4][biods];
        let written = run(kind, biods, &procs, false);
        let crossed = run(kind, biods, &procs, true);
        prop_assert_eq!(written, crossed, "kind {} biods {}", kind, biods);
    }
}
