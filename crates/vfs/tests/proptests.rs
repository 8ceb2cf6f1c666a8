//! Property tests: `MemFs` against a simple reference model.

use std::collections::HashMap;

use proptest::prelude::*;
use renofs_sim::SimTime;
use renofs_vfs::{FileType, FsError, InodeId, MemFs};

/// Operations the model covers.
#[derive(Clone, Debug)]
enum Op {
    Create(u8),
    Remove(u8),
    Write(u8, u16, Vec<u8>),
    Read(u8, u16, u16),
    Truncate(u8, u16),
    Rename(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Create),
        any::<u8>().prop_map(Op::Remove),
        (
            any::<u8>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..600)
        )
            .prop_map(|(n, off, data)| Op::Write(n, off % 4096, data)),
        (any::<u8>(), any::<u16>(), any::<u16>()).prop_map(|(n, off, len)| Op::Read(
            n,
            off % 8192,
            len % 2048
        )),
        (any::<u8>(), any::<u16>()).prop_map(|(n, sz)| Op::Truncate(n, sz % 4096)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Rename(a, b)),
    ]
}

fn name(n: u8) -> String {
    format!("file{:02}", n % 12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any sequence of create/remove/write/read/truncate/rename agrees
    /// byte-for-byte with a HashMap<String, Vec<u8>> reference model.
    #[test]
    fn memfs_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let t = SimTime::from_secs(1);
        let mut fs = MemFs::new(t);
        let root = fs.root();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Create(n) => {
                    let nm = name(n);
                    let r = fs.create(root, &nm, 0o644, t);
                    prop_assert!(r.is_ok());
                    // NFS CREATE truncates an existing regular file.
                    model.insert(nm, Vec::new());
                }
                Op::Remove(n) => {
                    let nm = name(n);
                    let r = fs.remove(root, &nm, t);
                    match model.remove(&nm) {
                        Some(_) => prop_assert!(r.is_ok()),
                        None => prop_assert_eq!(r, Err(FsError::NoEnt)),
                    }
                }
                Op::Write(n, off, data) => {
                    let nm = name(n);
                    match fs.lookup(root, &nm) {
                        Ok(id) => {
                            fs.write(id, off as u32, &data, t).unwrap();
                            let m = model.get_mut(&nm).expect("model in sync");
                            let end = off as usize + data.len();
                            if m.len() < end {
                                m.resize(end, 0);
                            }
                            m[off as usize..end].copy_from_slice(&data);
                        }
                        Err(e) => {
                            prop_assert_eq!(e, FsError::NoEnt);
                            prop_assert!(!model.contains_key(&nm));
                        }
                    }
                }
                Op::Read(n, off, len) => {
                    let nm = name(n);
                    if let Ok(id) = fs.lookup(root, &nm) {
                        let got = fs.read(id, off as u32, len as u32, t).unwrap();
                        let m = &model[&nm];
                        let lo = (off as usize).min(m.len());
                        let hi = (off as usize + len as usize).min(m.len());
                        prop_assert_eq!(&got, &m[lo..hi]);
                    }
                }
                Op::Truncate(n, sz) => {
                    let nm = name(n);
                    if let Ok(id) = fs.lookup(root, &nm) {
                        fs.setattr(id, Some(sz as u32), None, None, None, t).unwrap();
                        model.get_mut(&nm).expect("model in sync").resize(sz as usize, 0);
                    }
                }
                Op::Rename(a, b) => {
                    let (from, to) = (name(a), name(b));
                    if from == to {
                        continue;
                    }
                    let r = fs.rename(root, &from, root, &to, t);
                    match model.remove(&from) {
                        Some(data) => {
                            prop_assert!(r.is_ok());
                            model.insert(to, data);
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
            }
        }
        // Final state agreement: every model file readable with exact
        // contents, every model-absent name NoEnt.
        for (nm, data) in &model {
            let id = fs.lookup(root, nm).unwrap();
            let got = fs.read(id, 0, data.len() as u32 + 10, t).unwrap();
            prop_assert_eq!(&got, data);
            prop_assert_eq!(fs.getattr(id).unwrap().size as usize, data.len());
        }
        for n in 0..12u8 {
            let nm = name(n);
            if !model.contains_key(&nm) {
                prop_assert_eq!(fs.lookup(root, &nm), Err(FsError::NoEnt));
            }
        }
    }
}

/// Operations that enter, replace or remove directory entries; `u8`s
/// pick a directory and a name from small pools, so collisions (`Exist`,
/// `NotEmpty`, renames onto existing names and onto themselves) are common.
#[derive(Clone, Debug)]
enum DirOp {
    Create(u8, u8),
    Mkdir(u8, u8),
    Symlink(u8, u8),
    Link(u8, u8, u8, u8),
    Rename(u8, u8, u8, u8),
    Remove(u8, u8),
    Rmdir(u8, u8),
    /// Grows a file until the 4 KB volume answers `NoSpace`.
    Write(u8, u8),
}

fn dir_op_strategy() -> impl Strategy<Value = DirOp> {
    let pick = any::<u8>;
    prop_oneof![
        3 => (pick(), pick()).prop_map(|(d, n)| DirOp::Create(d, n)),
        2 => (pick(), pick()).prop_map(|(d, n)| DirOp::Mkdir(d, n)),
        1 => (pick(), pick()).prop_map(|(d, n)| DirOp::Symlink(d, n)),
        2 => (pick(), pick(), pick(), pick()).prop_map(|(a, b, c, d)| DirOp::Link(a, b, c, d)),
        4 => (pick(), pick(), pick(), pick()).prop_map(|(a, b, c, d)| DirOp::Rename(a, b, c, d)),
        3 => (pick(), pick()).prop_map(|(d, n)| DirOp::Remove(d, n)),
        2 => (pick(), pick()).prop_map(|(d, n)| DirOp::Rmdir(d, n)),
        3 => (pick(), pick()).prop_map(|(d, n)| DirOp::Write(d, n)),
    ]
}

/// Eight names of eight lengths (1 to 113 bytes), so totals cross the
/// 512-byte rounding both ways.
fn entry_name(n: u8) -> String {
    let n = usize::from(n % 8);
    format!("{n}{}", "x".repeat(n * 16))
}

/// Every directory reachable from the root, with its entries' names.
fn directories(fs: &MemFs) -> Vec<(InodeId, Vec<String>)> {
    let mut found = Vec::new();
    let mut todo = vec![fs.root()];
    while let Some(dir) = todo.pop() {
        let (entries, eof) = fs.readdir(dir, 0, usize::MAX).unwrap();
        assert!(eof);
        let is_dir = |id: &InodeId| fs.getattr(*id).unwrap().ftype == FileType::Directory;
        todo.extend(entries.iter().map(|e| e.2).filter(is_dir));
        found.push((dir, entries.into_iter().map(|e| e.1).collect()));
    }
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A directory's size is kept as a running total; after every
    /// operation, failed ones included, it is what summing the entries
    /// gives: 16 bytes and the name each, 32 for the directory itself,
    /// in whole 512-byte chunks.
    #[test]
    fn directory_sizes_match_their_entries(
        ops in proptest::collection::vec(dir_op_strategy(), 1..160),
    ) {
        let t = SimTime::from_secs(1);
        let mut fs = MemFs::with_capacity(t, 4096);
        let mut errors = Vec::new();
        for op in ops {
            let dirs = directories(&fs);
            let dir = |d: u8| dirs[usize::from(d) % dirs.len()].0;
            let result = match op {
                DirOp::Create(d, n) => fs.create(dir(d), &entry_name(n), 0o644, t).map(drop),
                DirOp::Mkdir(d, n) => fs.mkdir(dir(d), &entry_name(n), 0o755, t).map(drop),
                DirOp::Symlink(d, n) => fs.symlink(dir(d), &entry_name(n), "target", t).map(drop),
                DirOp::Link(fd, fname, td, tn) => fs
                    .lookup(dir(fd), &entry_name(fname))
                    .and_then(|target| fs.link(target, dir(td), &entry_name(tn), t)),
                DirOp::Rename(fd, fname, td, tn) => {
                    fs.rename(dir(fd), &entry_name(fname), dir(td), &entry_name(tn), t)
                }
                DirOp::Remove(d, n) => fs.remove(dir(d), &entry_name(n), t),
                DirOp::Rmdir(d, n) => fs.rmdir(dir(d), &entry_name(n), t),
                DirOp::Write(d, n) => fs
                    .lookup(dir(d), &entry_name(n))
                    .and_then(|f| fs.write(f, fs.getattr(f)?.size, &[7; 3000], t))
                    .map(drop),
            };
            errors.extend(result.err());
            for (dir, names) in directories(&fs) {
                let raw = names.iter().map(|n| 16 + n.len()).sum::<usize>() + 32;
                let size = fs.getattr(dir).unwrap().size as usize;
                prop_assert_eq!(size, raw.div_ceil(512) * 512, "{:?} after {:?}", dir, errors);
            }
        }
    }
}
