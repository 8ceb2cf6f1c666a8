//! Property tests for the cluster free list: recycling buffers must be
//! invisible to chain semantics.

use proptest::prelude::*;
use renofs_mbuf::{pool, CopyMeter, MbufChain, MCLBYTES, MLEN};

fn chain_from(data: &[u8], chunk_sizes: &[usize]) -> MbufChain {
    let mut meter = CopyMeter::new();
    let mut c = MbufChain::new();
    let mut rest = data;
    let mut i = 0;
    while !rest.is_empty() {
        let n = chunk_sizes
            .get(i % chunk_sizes.len().max(1))
            .copied()
            .unwrap_or(rest.len())
            .clamp(1, rest.len());
        c.append_bytes(&rest[..n], &mut meter);
        rest = &rest[n..];
        i += 1;
    }
    c
}

/// Runs one op sequence (append / split / rejoin / share / pullup) and
/// returns every observable byte it produced.
fn run_ops(data: &[u8], chunks: &[usize], at_frac: f64, share_frac: f64) -> Vec<Vec<u8>> {
    let mut meter = CopyMeter::new();
    let mut c = chain_from(data, chunks);
    let at = ((data.len() as f64) * at_frac) as usize;
    let tail = c.split_off(at, &mut meter);
    let tail_flat = tail.to_vec_for_test();
    c.append_chain(tail);
    let lo = ((data.len() as f64) * share_frac) as usize;
    let shared = c.share_range(lo, data.len() - lo, &mut meter);
    let n = data.len().min(MCLBYTES / 2);
    if n > 0 {
        c.pullup(n, &mut meter);
    }
    vec![c.to_vec_for_test(), tail_flat, shared.to_vec_for_test()]
}

/// Drops a pile of chains full of junk so the free list (when enabled)
/// holds buffers that previously carried other data.
fn churn_pool() {
    let mut meter = CopyMeter::new();
    let junk: Vec<u8> = (0..6 * MCLBYTES).map(|i| (i % 251) as u8).collect();
    for _ in 0..4 {
        let c = MbufChain::from_slice(&junk, &mut meter);
        drop(c);
    }
}

proptest! {
    /// The pool is a pure allocator optimization: the same op sequence
    /// must observe identical bytes with pooling off and with a primed
    /// (dirty) free list.
    #[test]
    fn pooled_and_unpooled_chains_agree(
        data in proptest::collection::vec(any::<u8>(), 1..6000),
        chunks in proptest::collection::vec(1usize..700, 1..8),
        at_frac in 0.0f64..=1.0,
        share_frac in 0.0f64..=1.0,
    ) {
        pool::reset();
        pool::set_capacity(0);
        let unpooled = run_ops(&data, &chunks, at_frac, share_frac);

        pool::reset();
        churn_pool();
        let pooled = run_ops(&data, &chunks, at_frac, share_frac);

        prop_assert_eq!(unpooled, pooled);
    }

    /// A recycled cluster must come back with no stale length or bytes:
    /// chains built from recycled buffers show exactly the new data.
    #[test]
    fn recycled_clusters_carry_no_stale_state(
        fill in any::<u8>(),
        len in (MLEN + 1)..5000usize,
    ) {
        pool::reset();
        churn_pool();
        let before = pool::stats();
        let data = vec![fill; len];
        let c = chain_from(&data, &[997]);
        let after = pool::stats();
        prop_assert!(
            after.reused > before.reused,
            "cluster-sized appends must hit the primed free list"
        );
        prop_assert_eq!(c.len(), len);
        prop_assert_eq!(c.to_vec_for_test(), data);
    }
}
