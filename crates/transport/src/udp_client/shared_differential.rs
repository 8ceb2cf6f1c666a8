//! Mounts sharing one `UdpCalls` table against mounts run alone: random
//! interleaved scripts of calls, replies and timer firings drive two mounts
//! whose xid streams start at the same seed, so every xid one issues the
//! other issues too. One side keeps both mounts' calls in one shared table
//! (`call_in`, `on_reply_in`, `on_timer_in`); the other runs each mount on
//! the table it owns (`call`, `on_reply`, `on_timer`). After every step both
//! sides must have produced the same actions and completions, and each
//! mount the same stats, `outstanding()` and `queued()`.

use proptest::prelude::*;

use super::{CompletedCall, MountKey, RpcClass, UdpAction, UdpCalls, UdpRpcClient, UdpRpcConfig};
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::{SimDuration, SimTime};

/// Two mounts that differ in both client and server.
const MOUNTS: [(usize, usize); 2] = [(0, 1), (1, 0)];
const XID_SEED: u32 = 500;
const CLASSES: [RpcClass; 4] = [
    RpcClass::Lookup,
    RpcClass::Read,
    RpcClass::Write,
    RpcClass::Other,
];

/// One step on one mount.
#[derive(Clone, Copy, Debug)]
enum Op {
    Call(RpcClass),
    /// A reply to the `pick`-th xid the mount has issued (in flight or
    /// not), or to one it never issued.
    Reply(usize),
    /// The `pick`-th timer the mount has armed, live or stale.
    Timer(usize),
}

fn op(kind: u8, pick: u16) -> Op {
    let pick = pick as usize;
    match kind {
        0..=3 => Op::Call(CLASSES[pick % CLASSES.len()]),
        4..=6 => Op::Reply(pick),
        _ => Op::Timer(pick),
    }
}

fn config(kind: u8) -> UdpRpcConfig {
    let base = SimDuration::from_millis(300);
    let cfg = if kind & 1 == 0 {
        UdpRpcConfig::fixed(base)
    } else {
        // A small window, so calls queue behind it and drain on replies
        // and give-ups.
        UdpRpcConfig {
            cwnd_cap: 3,
            ..UdpRpcConfig::dynamic_paper(base)
        }
    };
    if kind & 2 == 0 {
        cfg
    } else {
        cfg.soft(2 + u32::from(kind >> 2))
    }
}

fn chain(tag: u32) -> MbufChain {
    MbufChain::from_slice(&tag.to_be_bytes().repeat(9), &mut CopyMeter::new())
}

/// An action with its payload flattened, comparable across sides.
fn seen(a: &UdpAction) -> String {
    match a {
        UdpAction::Send { xid, payload } => format!("Send {xid} {:?}", payload.to_vec_for_test()),
        other => format!("{other:?}"),
    }
}

fn done(c: Option<CompletedCall>) -> Option<String> {
    c.map(|c| {
        format!(
            "{} {:?} {:?} {:?} {}",
            c.xid,
            c.class,
            c.reply.to_vec_for_test(),
            c.rtt,
            c.retransmitted
        )
    })
}

fn mounts(cfg: &UdpRpcConfig) -> Vec<UdpRpcClient> {
    MOUNTS
        .iter()
        .map(|&(c, s)| UdpRpcClient::for_mount(MountKey::new(c, s), cfg.clone(), XID_SEED))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_shared_table_matches_a_table_per_mount(
        cfg_kind in 0u8..8,
        script in proptest::collection::vec((0u8..10, any::<u8>(), any::<u16>(), 0u64..400), 1..120),
    ) {
        let cfg = config(cfg_kind);
        let mut shared = mounts(&cfg);
        let mut calls = UdpCalls::default();
        let mut alone = mounts(&cfg);
        // Per mount: every xid issued, every (xid, gen) timer armed.
        let mut issued: Vec<Vec<u32>> = vec![Vec::new(); MOUNTS.len()];
        let mut timers: Vec<Vec<(u32, u64)>> = vec![Vec::new(); MOUNTS.len()];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        for (step, &(kind, m, pick, advance)) in script.iter().enumerate() {
            now += SimDuration::from_millis(advance);
            let (m, op) = (m as usize % MOUNTS.len(), op(kind, pick));
            let (s, l) = match op {
                Op::Call(class) => {
                    let xid = shared[m].alloc_xid();
                    prop_assert_eq!(alone[m].alloc_xid(), xid);
                    issued[m].push(xid);
                    let msg = chain(xid ^ ((m as u32) << 16));
                    shared[m].call_in(&mut calls, now, xid, class, msg.clone(), &mut a);
                    alone[m].call(now, xid, class, msg, &mut b);
                    (None, None)
                }
                Op::Reply(pick) => {
                    let xid = match issued[m].len() {
                        0 => XID_SEED.wrapping_sub(1),
                        n if pick % 8 == 0 => XID_SEED.wrapping_add(n as u32),
                        n => issued[m][pick % n],
                    };
                    let reply = chain(!xid ^ step as u32);
                    (
                        done(shared[m].on_reply_in(&mut calls, now, xid, reply.clone(), &mut a)),
                        done(alone[m].on_reply(now, xid, reply, &mut b)),
                    )
                }
                Op::Timer(pick) => {
                    if let Some(&(xid, gen)) = timers[m].get(pick % timers[m].len().max(1)) {
                        shared[m].on_timer_in(&mut calls, now, xid, gen, &mut a);
                        alone[m].on_timer(now, xid, gen, &mut b);
                    }
                    (None, None)
                }
            };
            prop_assert_eq!(s, l, "step {}: {:?} on mount {}", step, op, m);
            let (sa, la): (Vec<_>, Vec<_>) = (a.iter().map(seen).collect(), b.iter().map(seen).collect());
            prop_assert_eq!(sa, la, "step {}: {:?} on mount {}", step, op, m);
            for action in a.drain(..) {
                if let UdpAction::ArmTimer { xid, gen, .. } = action {
                    timers[m].push((xid, gen));
                }
            }
            b.clear();
            for (sm, lm) in shared.iter().zip(&alone) {
                prop_assert_eq!(sm.stats(), lm.stats(), "step {}: {:?} on mount {}", step, op, m);
                prop_assert_eq!(sm.outstanding(), lm.outstanding(), "step {}", step);
                prop_assert_eq!(sm.queued(), lm.queued(), "step {}", step);
            }
            let in_flight: usize = shared.iter().map(UdpRpcClient::outstanding).sum();
            prop_assert_eq!(calls.len(), in_flight);
        }
    }
}
