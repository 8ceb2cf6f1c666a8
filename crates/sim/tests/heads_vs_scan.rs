//! Property test: [`Heads`] against a linear scan over the same heads.
//!
//! Random `set` / `min` scripts over 1 to 1,500 domains: heads that come
//! and go (`None`), times drawn from a handful of instants so that equal
//! times with different keys are the common case, and re-sets of a value a
//! leaf already holds.

use proptest::prelude::*;
use renofs_sim::pdes::event_key;
use renofs_sim::{Heads, SimTime};

proptest! {
    #[test]
    fn winner_tree_matches_linear_scan(
        domains in 1usize..1501,
        ops in proptest::collection::vec((any::<u32>(), any::<u8>(), any::<u16>()), 1..400),
    ) {
        let mut heads = Heads::new(domains);
        let mut model: Vec<Option<(SimTime, u64)>> = vec![None; domains];
        prop_assert_eq!(heads.min(), None);
        for (i, &(pick, time, seq)) in ops.iter().enumerate() {
            let d = pick as usize % domains;
            let head = match time % 8 {
                0 => None,
                1 => model[d],
                // A key is unique to its creator, so no two queues hold the
                // same (time, key): the creator here is the op itself.
                t => Some((
                    SimTime::from_micros(t as u64),
                    event_key(seq as u32 % 64, i as u64),
                )),
            };
            heads.set(d, head);
            model[d] = head;
            let scan = (0..domains).filter(|&d| model[d].is_some()).min_by_key(|&d| model[d]);
            prop_assert_eq!(heads.min(), scan);
        }
        // Drained one by one in global order, as the engine's loop does.
        let mut last = None;
        while let Some(d) = heads.min() {
            prop_assert!(model[d] >= last);
            last = model[d];
            model[d] = None;
            heads.set(d, None);
        }
        prop_assert!(model.iter().all(Option::is_none));
    }
}
