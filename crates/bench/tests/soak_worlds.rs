//! The seed → world mapping, pinned. Every `--case` command in the docs
//! and every shrunk repro names its world by a seed, so a recipe change
//! that moves one draw silently renames every world after it. Each
//! profile's first 1,024 worlds are hashed (FNV-1a over their `Debug`
//! text) and compared with a constant; the `--long` recipe has no golden
//! snapshot, so this is the only check on it.

use renofs_bench::experiments::soak::{derive_world_for, SoakProfile};
use renofs_oracle::fnv1a;

fn worlds_hash(profile: SoakProfile) -> u64 {
    let text: String = (0..1024)
        .map(|seed| format!("{:?}\n", derive_world_for(seed, profile)))
        .collect();
    fnv1a(text.as_bytes())
}

#[test]
fn every_profile_derives_the_same_worlds_from_the_same_seeds() {
    let got = [SoakProfile::Quick, SoakProfile::Long, SoakProfile::Lease]
        .map(|p| format!("{:?} {:#018x}", p, worlds_hash(p)));
    assert_eq!(
        got,
        [
            "Quick 0x3129b3bcdaa2fa69",
            "Long 0x251a654b500893bd",
            "Lease 0x781a0239577976da",
        ]
    );
}
