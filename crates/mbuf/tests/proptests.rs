//! Property-based tests for mbuf chain algebra.

use proptest::prelude::*;
use renofs_mbuf::{pool, CopyMeter, Cursor, MbufChain};

fn chain_from(data: &[u8], chunk_sizes: &[usize]) -> MbufChain {
    // Build the chain with an arbitrary append pattern so segment
    // boundaries land in arbitrary places.
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

/// A chain holding `data` whose segments end exactly where `cuts` say: one
/// mbuf per cut (an empty one for a cut of 0), then one for the rest.
fn chain_cut_at(data: &[u8], cuts: &[usize]) -> MbufChain {
    let mut meter = CopyMeter::new();
    let mut c = MbufChain::new();
    let mut rest = data;
    for &cut in cuts {
        let (piece, tail) = rest.split_at(cut.min(rest.len()));
        c.append_chain(if piece.is_empty() {
            MbufChain::with_leading_space(8)
        } else {
            MbufChain::from_slice(piece, &mut meter)
        });
        rest = tail;
    }
    c.append_chain(MbufChain::from_slice(rest, &mut meter));
    c
}

proptest! {
    #[test]
    fn append_preserves_content(
        data in proptest::collection::vec(any::<u8>(), 0..6000),
        chunks in proptest::collection::vec(1usize..700, 1..8),
    ) {
        let c = chain_from(&data, &chunks);
        prop_assert_eq!(c.len(), data.len());
        prop_assert_eq!(c.to_vec_for_test(), data);
    }

    #[test]
    fn split_then_cat_is_identity(
        data in proptest::collection::vec(any::<u8>(), 1..5000),
        chunks in proptest::collection::vec(1usize..700, 1..8),
        at_frac in 0.0f64..=1.0,
    ) {
        let mut meter = CopyMeter::new();
        let mut c = chain_from(&data, &chunks);
        let at = ((data.len() as f64) * at_frac) as usize;
        let tail = c.split_off(at, &mut meter);
        prop_assert_eq!(c.len(), at);
        prop_assert_eq!(tail.len(), data.len() - at);
        c.append_chain(tail);
        prop_assert_eq!(c.to_vec_for_test(), data);
    }

    #[test]
    fn share_range_matches_slice(
        data in proptest::collection::vec(any::<u8>(), 1..5000),
        chunks in proptest::collection::vec(1usize..700, 1..8),
        lo_frac in 0.0f64..=1.0,
        len_frac in 0.0f64..=1.0,
    ) {
        let mut meter = CopyMeter::new();
        let c = chain_from(&data, &chunks);
        let lo = ((data.len() as f64) * lo_frac) as usize;
        let len = (((data.len() - lo) as f64) * len_frac) as usize;
        let shared = c.share_range(lo, len, &mut meter);
        prop_assert_eq!(shared.to_vec_for_test(), &data[lo..lo + len]);
        // Sharing must not disturb the source.
        prop_assert_eq!(c.to_vec_for_test(), data);
    }

    #[test]
    fn trim_matches_slice(
        data in proptest::collection::vec(any::<u8>(), 0..4000),
        chunks in proptest::collection::vec(1usize..700, 1..8),
        front in 0usize..5000,
        back in 0usize..5000,
    ) {
        let mut c = chain_from(&data, &chunks);
        c.trim_front(front);
        let lo = front.min(data.len());
        c.trim_back(back);
        let hi = data.len().saturating_sub(back).max(lo);
        prop_assert_eq!(c.to_vec_for_test(), &data[lo..hi]);
    }

    #[test]
    fn prepend_then_trim_front_roundtrip(
        hdr in proptest::collection::vec(any::<u8>(), 0..400),
        body in proptest::collection::vec(any::<u8>(), 0..3000),
    ) {
        let mut meter = CopyMeter::new();
        let mut c = MbufChain::with_leading_space(64);
        c.append_bytes(&body, &mut meter);
        c.prepend_bytes(&hdr, &mut meter);
        prop_assert_eq!(c.len(), hdr.len() + body.len());
        let mut expect = hdr.clone();
        expect.extend_from_slice(&body);
        prop_assert_eq!(c.to_vec_for_test(), expect);
        c.trim_front(hdr.len());
        prop_assert_eq!(c.to_vec_for_test(), body);
    }

    #[test]
    fn pullup_preserves_content(
        data in proptest::collection::vec(any::<u8>(), 1..4000),
        chunks in proptest::collection::vec(1usize..300, 1..8),
        n_frac in 0.0f64..=1.0,
    ) {
        let mut meter = CopyMeter::new();
        let mut c = chain_from(&data, &chunks);
        let n = (((data.len().min(2048)) as f64) * n_frac) as usize;
        c.pullup(n, &mut meter);
        prop_assert_eq!(c.to_vec_for_test(), data);
        if n > 0 {
            prop_assert!(c.mbufs().next().unwrap().len() >= n);
        }
    }

    /// A spine parked with its segments still on it would hand one RPC's
    /// data to the next chain that takes it.
    #[test]
    fn recycled_spines_carry_no_stale_segments(
        data in proptest::collection::vec(any::<u8>(), 1..6000),
        chunks in proptest::collection::vec(1usize..700, 1..8),
        junk_segs in 9usize..40,
    ) {
        // The reference build, on spines straight from the heap.
        pool::reset();
        pool::set_capacity(0);
        let fresh = chain_from(&data, &chunks);
        let expect = (fresh.seg_count(), fresh.len(), fresh.to_vec_for_test());
        drop(fresh);

        // Churn the pool with chains longer than a spine's first capacity.
        pool::reset();
        let mut meter = CopyMeter::new();
        for _ in 0..4 {
            let mut junk = MbufChain::new();
            for i in 0..junk_segs {
                junk.append_chain(MbufChain::from_slice(&[i as u8; 200], &mut meter));
            }
            prop_assert_eq!(junk.seg_count(), junk_segs);
        }
        let before = pool::spine_stats();
        let c = chain_from(&data, &chunks);
        prop_assert!(
            pool::spine_stats().reused > before.reused,
            "the chain must be built on a spine the junk chains used"
        );
        prop_assert_eq!((c.seg_count(), c.len(), c.to_vec_for_test()), expect);
    }

    #[test]
    fn copy_out_matches_slice(
        data in proptest::collection::vec(any::<u8>(), 1..4000),
        chunks in proptest::collection::vec(1usize..300, 1..8),
        lo_frac in 0.0f64..=1.0,
        len_frac in 0.0f64..=1.0,
    ) {
        let mut meter = CopyMeter::new();
        let c = chain_from(&data, &chunks);
        let lo = ((data.len() as f64) * lo_frac) as usize;
        let len = (((data.len() - lo) as f64) * len_frac) as usize;
        let mut buf = vec![0u8; len];
        c.copy_out(lo, &mut buf, &mut meter);
        prop_assert_eq!(buf, &data[lo..lo + len]);
    }

    /// A cursor's reads equal the same script over the flattened bytes,
    /// wherever the segment boundaries fall: words that straddle one, empty
    /// segments, skips across several, and short reads, which must fail
    /// and leave the cursor where it was.
    #[test]
    fn cursor_script_matches_flat_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(0usize..40, 0..40),
        script in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..120),
    ) {
        let chain = chain_cut_at(&data, &cuts);
        prop_assert_eq!(chain.to_vec_for_test(), &data[..]);
        let mut cur = Cursor::new(&chain);
        let mut pos = 0;
        for (op, n) in script {
            let left = &data[pos..];
            let n = n as usize % 97;
            match op % 4 {
                0 => {
                    let expect = left.first_chunk().map(|b| u32::from_be_bytes(*b));
                    prop_assert_eq!(cur.read_u32().ok(), expect);
                    pos += expect.map_or(0, |_| 4);
                }
                1 => {
                    let mut buf = vec![0; n];
                    let ok = cur.read_exact(&mut buf).is_ok();
                    prop_assert_eq!(ok, n <= left.len());
                    if ok {
                        prop_assert_eq!(&buf[..], &left[..n]);
                        pos += n;
                    }
                }
                2 => {
                    prop_assert_eq!(cur.skip(n).is_ok(), n <= left.len());
                    pos += if n <= left.len() { n } else { 0 };
                }
                _ => {
                    let expect = left.get(..n).map(<[u8]>::to_vec);
                    prop_assert_eq!(cur.read_vec(n).ok(), expect);
                    pos += if n <= left.len() { n } else { 0 };
                }
            }
            prop_assert_eq!(cur.position(), pos);
            prop_assert_eq!(cur.remaining(), data.len() - pos);
        }
    }
}
