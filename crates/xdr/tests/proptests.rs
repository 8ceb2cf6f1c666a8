//! Property tests: XDR encode ∘ decode is the identity, and the staging
//! encoder leaves the chain the word-at-a-time encoder left.

use proptest::prelude::*;
use renofs_mbuf::{CopyMeter, Cursor, MbufChain, MCLBYTES, MLEN};
use renofs_xdr::{XdrDecoder, XdrEncoder};

/// A recorded XDR item so a random sequence can be replayed on decode.
#[derive(Clone, Debug)]
enum Item {
    U32(u32),
    I32(i32),
    U64(u64),
    Bool(bool),
    OpaqueVar(Vec<u8>),
    Str(String),
}

fn item_strategy() -> impl Strategy<Value = Item> {
    prop_oneof![
        any::<u32>().prop_map(Item::U32),
        any::<i32>().prop_map(Item::I32),
        any::<u64>().prop_map(Item::U64),
        any::<bool>().prop_map(Item::Bool),
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(Item::OpaqueVar),
        "[a-zA-Z0-9_.]{0,64}".prop_map(Item::Str),
    ]
}

proptest! {
    #[test]
    fn encode_decode_identity(items in proptest::collection::vec(item_strategy(), 0..40)) {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        {
            let mut enc = XdrEncoder::new(&mut chain, &mut meter);
            for item in &items {
                match item {
                    Item::U32(v) => enc.put_u32(*v),
                    Item::I32(v) => enc.put_i32(*v),
                    Item::U64(v) => enc.put_u64(*v),
                    Item::Bool(v) => enc.put_bool(*v),
                    Item::OpaqueVar(v) => enc.put_opaque_var(v),
                    Item::Str(s) => enc.put_string(s),
                }
            }
        }
        prop_assert_eq!(chain.len() % 4, 0, "stream always 4-aligned");
        let mut dec = XdrDecoder::new(&chain);
        for item in &items {
            match item {
                Item::U32(v) => prop_assert_eq!(dec.get_u32().unwrap(), *v),
                Item::I32(v) => prop_assert_eq!(dec.get_i32().unwrap(), *v),
                Item::U64(v) => prop_assert_eq!(dec.get_u64().unwrap(), *v),
                Item::Bool(v) => prop_assert_eq!(dec.get_bool().unwrap(), *v),
                Item::OpaqueVar(v) => prop_assert_eq!(&dec.get_opaque_var(1024).unwrap(), v),
                Item::Str(s) => prop_assert_eq!(&dec.get_string(255).unwrap(), s),
            }
        }
        prop_assert_eq!(dec.remaining(), 0, "no trailing bytes");
    }

    #[test]
    fn truncation_always_detected(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut meter = CopyMeter::new();
        let mut chain = MbufChain::new();
        XdrEncoder::new(&mut chain, &mut meter).put_opaque_var(&data);
        let full = chain.len();
        let cut = (full as f64 * cut_frac) as usize;
        chain.trim_back(full - cut);
        let mut dec = XdrDecoder::new(&chain);
        // Either the length word itself or the payload is incomplete.
        prop_assert!(dec.get_opaque_var(512).is_err());
    }
}

/// One decode call against arbitrary bytes. Sizes deliberately range
/// past the buffer so truncation, oversized claims, and misaligned
/// tails are all exercised.
#[derive(Clone, Debug)]
enum FuzzOp {
    U32,
    I32,
    U64,
    Bool,
    OpaqueFixed(usize),
    OpaqueFixedInto(usize),
    SkipFixed(usize),
    OpaqueVar(u32),
    OpaqueVarInto(usize, u32),
    Str(u32),
    SkipVar(u32),
    OpaqueChain(u32),
    InlineStr(u32),
    Array,
}

fn fuzz_op_strategy() -> impl Strategy<Value = FuzzOp> {
    prop_oneof![
        Just(FuzzOp::U32),
        Just(FuzzOp::I32),
        Just(FuzzOp::U64),
        Just(FuzzOp::Bool),
        (0usize..2048).prop_map(FuzzOp::OpaqueFixed),
        (0usize..96).prop_map(FuzzOp::OpaqueFixedInto),
        (0usize..2048).prop_map(FuzzOp::SkipFixed),
        (0u32..2048).prop_map(FuzzOp::OpaqueVar),
        ((0usize..96), (0u32..2048)).prop_map(|(c, m)| FuzzOp::OpaqueVarInto(c, m)),
        (0u32..2048).prop_map(FuzzOp::Str),
        (0u32..2048).prop_map(FuzzOp::SkipVar),
        (0u32..2048).prop_map(FuzzOp::OpaqueChain),
        (0u32..300).prop_map(FuzzOp::InlineStr),
        Just(FuzzOp::Array),
    ]
}

proptest! {
    /// Every getter, fed random bytes: each call returns `Ok` or `Err`
    /// (never panics, never reads out of bounds), the cursor only moves
    /// forward, and `position + remaining` stays the chain length.
    #[test]
    fn decoders_survive_arbitrary_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        ops in proptest::collection::vec(fuzz_op_strategy(), 1..24),
    ) {
        let mut meter = CopyMeter::new();
        let chain = MbufChain::from_slice(&bytes, &mut meter);
        let total = chain.len();
        let mut dec = XdrDecoder::new(&chain);
        let mut last_pos = 0;
        for op in &ops {
            match op.clone() {
                FuzzOp::U32 => { let _ = dec.get_u32(); }
                FuzzOp::I32 => { let _ = dec.get_i32(); }
                FuzzOp::U64 => { let _ = dec.get_u64(); }
                FuzzOp::Bool => { let _ = dec.get_bool(); }
                FuzzOp::OpaqueFixed(n) => { let _ = dec.get_opaque_fixed(n); }
                FuzzOp::OpaqueFixedInto(n) => {
                    let mut dst = vec![0u8; n];
                    let _ = dec.get_opaque_fixed_into(&mut dst);
                }
                FuzzOp::SkipFixed(n) => { let _ = dec.skip_opaque_fixed(n); }
                FuzzOp::OpaqueVar(max) => {
                    if let Ok(v) = dec.get_opaque_var(max) {
                        prop_assert!(v.len() <= max as usize, "item under cap");
                    }
                }
                FuzzOp::OpaqueVarInto(cap, max) => {
                    let mut dst = vec![0u8; cap];
                    if let Ok(n) = dec.get_opaque_var_into(&mut dst, max) {
                        prop_assert!(n <= cap && n <= max as usize);
                    }
                }
                FuzzOp::Str(max) => {
                    if let Ok(s) = dec.get_string(max) {
                        prop_assert!(s.len() <= max as usize);
                    }
                }
                FuzzOp::SkipVar(max) => {
                    if let Ok(n) = dec.skip_opaque_var(max) {
                        prop_assert!(n <= max as usize);
                    }
                }
                FuzzOp::OpaqueChain(max) => {
                    if let Ok(c) = dec.get_opaque_chain(max, &mut meter) {
                        prop_assert!(c.len() <= max as usize, "item under cap");
                    }
                }
                FuzzOp::InlineStr(max) => {
                    if let Ok(s) = dec.get_inline_str(max) {
                        prop_assert!(s.len() <= max as usize);
                    }
                }
                FuzzOp::Array => { let _ = dec.get_array::<68>(); }
            }
            let pos = dec.position();
            prop_assert!(pos >= last_pos, "cursor never rewinds");
            prop_assert!(pos <= total, "cursor never passes the end");
            prop_assert_eq!(pos + dec.remaining(), total, "position accounting");
            last_pos = pos;
        }
    }
}

/// The encoder the staging one is held to: [`XdrEncoder`] as it stood
/// while every item was its own `append_bytes`.
struct WordAtATime<'a> {
    chain: &'a mut MbufChain,
    meter: &'a mut CopyMeter,
}

fn pad_len(n: usize) -> usize {
    (4 - (n % 4)) % 4
}

impl WordAtATime<'_> {
    fn put_u32(&mut self, v: u32) {
        self.chain.append_bytes(&v.to_be_bytes(), self.meter);
    }

    fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }

    fn put_u64(&mut self, v: u64) {
        self.chain.append_bytes(&v.to_be_bytes(), self.meter);
    }

    fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.chain.append_bytes(data, self.meter);
        let pad = pad_len(data.len());
        if pad > 0 {
            self.chain.append_bytes(&[0u8; 3][..pad], self.meter);
        }
    }

    fn put_opaque_var(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data);
    }

    fn put_string(&mut self, s: &str) {
        self.put_opaque_var(s.as_bytes());
    }

    fn put_opaque_chain(&mut self, data: MbufChain) {
        let len = data.len();
        self.put_u32(len as u32);
        self.chain.append_chain(data);
        let pad = pad_len(len);
        if pad > 0 {
            self.chain.append_bytes(&[0u8; 3][..pad], self.meter);
        }
    }
}

/// One `put_*` call of a script.
#[derive(Clone, Debug)]
enum Put {
    U32(u32),
    I32(i32),
    U64(u64),
    Bool(bool),
    OpaqueFixed(usize),
    OpaqueVar(usize),
    Str(usize),
    /// `put_opaque_chain`; with `true` a clone of the data outlives the
    /// call, so its clusters are shared and nothing appends into them.
    OpaqueChain(usize, bool),
}

/// Lengths around the sizes at which the chain decides something: the
/// XDR pad, a small mbuf, a cluster, a whole 8 KB transfer.
fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..=8,
        MLEN - 4..=MLEN + 4,
        MCLBYTES - 4..=MCLBYTES + 4,
        Just(8192usize),
        0usize..300,
    ]
}

fn put_strategy() -> impl Strategy<Value = Put> {
    prop_oneof![
        any::<u32>().prop_map(Put::U32),
        any::<i32>().prop_map(Put::I32),
        any::<u64>().prop_map(Put::U64),
        any::<bool>().prop_map(Put::Bool),
        len_strategy().prop_map(Put::OpaqueFixed),
        len_strategy().prop_map(Put::OpaqueVar),
        len_strategy().prop_map(Put::Str),
        (len_strategy(), any::<bool>()).prop_map(|(n, shared)| Put::OpaqueChain(n, shared)),
    ]
}

/// The chain a script starts on: empty, reserving header space, a small
/// mbuf with `1..MLEN` bytes of trailing space, or a half-filled cluster
/// nobody shares.
fn start_chain(kind: usize, space: usize, meter: &mut CopyMeter) -> MbufChain {
    match kind {
        0 => MbufChain::new(),
        1 => MbufChain::with_leading_space(64),
        2 => MbufChain::from_slice(&vec![0xEE; MLEN - space], meter),
        _ => MbufChain::from_slice(&[0xCC; MCLBYTES / 2], meter),
    }
}

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 % 251) as u8).collect()
}

/// Runs `script` through the encoder `$enc` (either one: they share
/// method names, not a trait). Returns the clones that keep shared
/// `put_opaque_chain` data shared until the layout has been read.
macro_rules! run_script {
    ($enc:expr, $script:expr) => {{
        let mut enc = $enc;
        let mut keep = Vec::new();
        for put in $script {
            match put {
                Put::U32(v) => enc.put_u32(*v),
                Put::I32(v) => enc.put_i32(*v),
                Put::U64(v) => enc.put_u64(*v),
                Put::Bool(v) => enc.put_bool(*v),
                Put::OpaqueFixed(n) => enc.put_opaque_fixed(&payload(*n)),
                Put::OpaqueVar(n) => enc.put_opaque_var(&payload(*n)),
                Put::Str(n) => enc.put_string(&"n".repeat(*n)),
                Put::OpaqueChain(n, shared) => {
                    let data = MbufChain::from_slice(&payload(*n), &mut CopyMeter::new());
                    if *shared {
                        keep.push(data.clone());
                    }
                    enc.put_opaque_chain(data);
                }
            }
        }
        keep
    }};
}

fn layout(chain: &MbufChain) -> Vec<(bool, usize)> {
    chain.mbufs().map(|m| (m.is_cluster(), m.len())).collect()
}

proptest! {
    /// The same script through both encoders, onto equal chains: equal
    /// bytes, equal mbuf-by-mbuf layout, equal metered bytes and clusters.
    #[test]
    fn staging_leaves_the_chain_word_at_a_time_left(
        kind in 0usize..4,
        space in 1usize..MLEN,
        script in proptest::collection::vec(put_strategy(), 0..40),
    ) {
        let (mut staged_meter, mut word_meter) = (CopyMeter::new(), CopyMeter::new());
        let mut staged = start_chain(kind, space, &mut staged_meter);
        let mut word = start_chain(kind, space, &mut word_meter);
        let _shared = (
            run_script!(XdrEncoder::new(&mut staged, &mut staged_meter), &script),
            run_script!(WordAtATime { chain: &mut word, meter: &mut word_meter }, &script),
        );
        prop_assert_eq!(staged.to_vec_for_test(), word.to_vec_for_test());
        prop_assert_eq!(layout(&staged), layout(&word));
        prop_assert_eq!(staged_meter.bytes(), word_meter.bytes());
        prop_assert_eq!(staged_meter.cluster_allocs(), word_meter.cluster_allocs());
    }

    /// `get_opaque_chain` against `get_opaque_var` on the same message —
    /// whole, cut short, or over the cap: the same bytes or the same
    /// error, and the same position afterwards.
    #[test]
    fn opaque_chain_reads_what_opaque_var_reads(
        kind in 0usize..4,
        space in 1usize..MLEN,
        n in len_strategy(),
        cut in prop_oneof![3 => Just(0usize), 1 => 0usize..9000],
        max in prop_oneof![3 => Just(8192u32), 1 => 0u32..9000],
    ) {
        let mut meter = CopyMeter::new();
        let mut msg = start_chain(kind, space, &mut meter);
        let before = msg.len();
        {
            let mut enc = XdrEncoder::new(&mut msg, &mut meter);
            enc.put_opaque_var(&payload(n));
            enc.put_u32(0xFEED);
        }
        msg.trim_back(cut.min(msg.len() - before));
        let at_item = || {
            let mut cursor = Cursor::new(&msg);
            cursor.skip(before).unwrap();
            XdrDecoder::from_cursor(cursor)
        };
        let (mut as_chain, mut as_vec) = (at_item(), at_item());
        let got = as_chain.get_opaque_chain(max, &mut meter).map(|c| c.to_vec_for_test());
        prop_assert_eq!(got, as_vec.get_opaque_var(max));
        prop_assert_eq!(as_chain.position(), as_vec.position());
        prop_assert_eq!(as_chain.get_u32(), as_vec.get_u32());
    }
}
