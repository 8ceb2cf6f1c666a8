//! Chains cloned by reference against chains cloned by deep copy: random
//! scripts of chain operations run on two sides, one cloning with
//! `MbufChain::clone` (small mbufs shared, copied on write) and one with
//! the deep-copying clone kept below as it was. After every step each
//! chain must hold the bytes a plain `Vec` model says, and the same
//! per-mbuf `(kind, off, len)` windows and `CopyMeter` totals as its twin.
//! A write to one side of a clone must never show in the other.

use proptest::prelude::*;

use super::{Mbuf, MbufChain, Storage, MLEN};
use crate::meter::CopyMeter;
use crate::pool::{self, SmallBuf};

/// The clone a chain had when every small mbuf owned its area: a new
/// area from the free list per small mbuf, all `MLEN` bytes copied;
/// clusters shared.
fn deep_clone(c: &MbufChain) -> MbufChain {
    let mut d = MbufChain::new();
    if !c.segs().is_empty() {
        d.segs_mut().extend(c.segs().iter().map(|m| Mbuf {
            storage: match &m.storage {
                Storage::Small(s) => {
                    let mut b = SmallBuf::alloc();
                    b.copy_from_slice(&**s);
                    Storage::Small(b)
                }
                Storage::Cluster(rc) => Storage::Cluster(rc.clone()),
            },
            off: m.off,
            len: m.len,
        }));
    }
    d.len = c.len;
    d
}

#[derive(Clone, Copy, Debug)]
enum Op {
    New {
        leading: usize,
    },
    Append {
        chain: usize,
        len: usize,
    },
    Prepend {
        chain: usize,
        len: usize,
    },
    Clone {
        chain: usize,
    },
    SplitOff {
        chain: usize,
        at: usize,
    },
    ShareRange {
        chain: usize,
        off: usize,
        len: usize,
    },
    TrimFront {
        chain: usize,
        n: usize,
    },
    TrimBack {
        chain: usize,
        n: usize,
    },
    Cat {
        chain: usize,
        other: usize,
    },
    Drop {
        chain: usize,
    },
}

/// Chains a script keeps live at once: few, so clones and their origins
/// meet often.
const CHAINS: usize = 5;

fn op(kind: u8, a: u16, b: u16, c: u16) -> Op {
    let (chain, b, c) = (a as usize, b as usize, c as usize);
    match kind {
        0 => Op::New {
            leading: b % (MLEN + 16),
        },
        1..=3 => Op::Append {
            chain,
            // Mostly small-mbuf sized, one in eight cluster sized.
            len: if c % 8 == 0 {
                MLEN + b % 3000
            } else {
                b % (MLEN + 8)
            },
        },
        4 | 5 => Op::Prepend {
            chain,
            len: b % (2 * MLEN),
        },
        6 | 7 => Op::Clone { chain },
        8 => Op::SplitOff { chain, at: b },
        9 => Op::ShareRange {
            chain,
            off: b,
            len: c,
        },
        10 => Op::TrimFront {
            chain,
            n: b % (MLEN + 8),
        },
        11 => Op::TrimBack {
            chain,
            n: b % (MLEN + 8),
        },
        12 => Op::Cat { chain, other: b },
        _ => Op::Drop { chain },
    }
}

/// One side of the differential: its chains, in step with the model's,
/// and the meter every operation charges.
struct Side {
    chains: Vec<MbufChain>,
    meter: CopyMeter,
    clone: fn(&MbufChain) -> MbufChain,
}

impl Side {
    fn new(clone: fn(&MbufChain) -> MbufChain) -> Self {
        Side {
            chains: Vec::new(),
            meter: CopyMeter::new(),
            clone,
        }
    }

    /// Applies `op` (indices already reduced to live chains).
    fn apply(&mut self, op: Op, bytes: &[u8]) {
        let m = &mut self.meter;
        let made = match op {
            Op::New { leading } => Some(MbufChain::with_leading_space(leading)),
            Op::Append { chain, .. } => {
                self.chains[chain].append_bytes(bytes, m);
                None
            }
            Op::Prepend { chain, .. } => {
                self.chains[chain].prepend_bytes(bytes, m);
                None
            }
            Op::Clone { chain } => Some((self.clone)(&self.chains[chain])),
            Op::SplitOff { chain, at } => Some(self.chains[chain].split_off(at, m)),
            Op::ShareRange { chain, off, len } => Some(self.chains[chain].share_range(off, len, m)),
            Op::TrimFront { chain, n } => {
                self.chains[chain].trim_front(n);
                None
            }
            Op::TrimBack { chain, n } => {
                self.chains[chain].trim_back(n);
                None
            }
            Op::Cat { chain, other } => {
                let donor = self.chains.remove(other);
                let chain = if other < chain { chain - 1 } else { chain };
                self.chains[chain].append_chain(donor);
                None
            }
            Op::Drop { chain } => {
                self.chains.remove(chain);
                None
            }
        };
        if let Some(c) = made {
            if self.chains.len() == CHAINS {
                self.chains.remove(0);
            }
            self.chains.push(c);
        }
    }

    fn windows(&self, i: usize) -> String {
        format!("{:?}", self.chains[i].mbufs().collect::<Vec<_>>())
    }
}

/// Reduces a generated op to the live chains, or `None` if it needs a
/// chain and there is none (or two and there is one).
fn resolve(op: Op, model: &[Vec<u8>]) -> Option<Op> {
    let n = model.len();
    let pick = |i: usize| (n > 0).then(|| i % n);
    Some(match op {
        Op::New { .. } => op,
        Op::Append { chain, len } => Op::Append {
            chain: pick(chain)?,
            len,
        },
        Op::Prepend { chain, len } => Op::Prepend {
            chain: pick(chain)?,
            len,
        },
        Op::Clone { chain } => Op::Clone {
            chain: pick(chain)?,
        },
        Op::SplitOff { chain, at } => {
            let chain = pick(chain)?;
            Op::SplitOff {
                chain,
                at: at % (model[chain].len() + 1),
            }
        }
        Op::ShareRange { chain, off, len } => {
            let chain = pick(chain)?;
            let off = off % (model[chain].len() + 1);
            Op::ShareRange {
                chain,
                off,
                len: len % (model[chain].len() - off + 1),
            }
        }
        Op::TrimFront { chain, n } => Op::TrimFront {
            chain: pick(chain)?,
            n,
        },
        Op::TrimBack { chain, n } => Op::TrimBack {
            chain: pick(chain)?,
            n,
        },
        Op::Cat { chain, other } => {
            let chain = pick(chain)?;
            let other = (chain + 1 + other % n.checked_sub(1).filter(|&k| k > 0)?) % n;
            Op::Cat { chain, other }
        }
        Op::Drop { chain } => Op::Drop {
            chain: pick(chain)?,
        },
    })
}

/// The model's effect of `op`: plain byte vectors, every copy its own.
fn apply_model(model: &mut Vec<Vec<u8>>, op: Op, bytes: &[u8]) {
    let made = match op {
        Op::New { .. } => Some(Vec::new()),
        Op::Append { chain, .. } => {
            model[chain].extend_from_slice(bytes);
            None
        }
        Op::Prepend { chain, .. } => {
            model[chain].splice(0..0, bytes.iter().copied());
            None
        }
        Op::Clone { chain } => Some(model[chain].clone()),
        Op::SplitOff { chain, at } => Some(model[chain].split_off(at)),
        Op::ShareRange { chain, off, len } => Some(model[chain][off..off + len].to_vec()),
        Op::TrimFront { chain, n } => {
            let v = &mut model[chain];
            v.drain(..n.min(v.len()));
            None
        }
        Op::TrimBack { chain, n } => {
            let v = &mut model[chain];
            v.truncate(v.len().saturating_sub(n));
            None
        }
        Op::Cat { chain, other } => {
            let donor = model.remove(other);
            let chain = if other < chain { chain - 1 } else { chain };
            model[chain].extend(donor);
            None
        }
        Op::Drop { chain } => {
            model.remove(chain);
            None
        }
    };
    if let Some(v) = made {
        if model.len() == CHAINS {
            model.remove(0);
        }
        model.push(v);
    }
}

/// Bytes no earlier step wrote, so a write that leaks into another chain
/// cannot match what that chain already held.
fn fresh_bytes(step: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|k| (step as u8).wrapping_mul(37) ^ (k as u8).wrapping_mul(11) ^ 0x5a)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reference_clones_match_deep_clones(
        script in proptest::collection::vec(
            (0u8..16, any::<u16>(), any::<u16>(), any::<u16>()),
            1..80,
        ),
    ) {
        let mut shared = Side::new(MbufChain::clone);
        let mut deep = Side::new(deep_clone);
        let mut model: Vec<Vec<u8>> = Vec::new();
        for (step, &(kind, a, b, c)) in script.iter().enumerate() {
            let Some(op) = resolve(op(kind, a, b, c), &model) else {
                continue;
            };
            let bytes = match op {
                Op::Append { len, .. } | Op::Prepend { len, .. } => fresh_bytes(step, len),
                _ => Vec::new(),
            };
            let takes = |s: pool::PoolStats| s.fresh + s.reused;
            let before = takes(pool::small_stats());
            shared.apply(op, &bytes);
            if let Op::Clone { .. } = op {
                prop_assert_eq!(
                    takes(pool::small_stats()),
                    before,
                    "a clone shares its small mbufs"
                );
            }
            deep.apply(op, &bytes);
            apply_model(&mut model, op, &bytes);

            prop_assert_eq!(shared.chains.len(), model.len());
            prop_assert_eq!(shared.meter, deep.meter, "step {}: {:?}", step, op);
            for (i, want) in model.iter().enumerate() {
                prop_assert_eq!(&shared.chains[i].to_vec_for_test(), want, "step {}: {:?}", step, op);
                prop_assert_eq!(&deep.chains[i].to_vec_for_test(), want, "step {}: {:?}", step, op);
                prop_assert_eq!(shared.chains[i].len(), want.len());
                prop_assert_eq!(shared.windows(i), deep.windows(i), "step {}: {:?}", step, op);
            }
        }
    }
}
