//! `MemFs` on sorted vectors of inline names and file bytes on the
//! thread's buffer list against the map-and-vector file system it
//! replaced, kept below as it was: random scripts of creates, mkdirs,
//! writes that extend and overwrite, size changes, removes, rmdirs,
//! renames, links, reads and directory pages at random cookies must give
//! equal results and errors, and after every step equal attributes,
//! generations, space accounting and `statfs`.

use proptest::prelude::*;
use renofs_sim::SimTime;
use renofs_vfs::memfs::NAME_MAX;
use renofs_vfs::{FsError, InodeId, MemFs};

/// The file system as it was when a directory was a `BTreeMap` of owned
/// names and a file a `Vec` that grew as `Vec`s do.
mod reference {
    use std::collections::BTreeMap;

    use renofs_sim::SimTime;
    use renofs_vfs::memfs::NAME_MAX;
    use renofs_vfs::{FileType, FsError, FsResult, InodeId, Vattr, BLOCK_SIZE};

    enum Kind {
        File(Vec<u8>),
        Dir(Dir),
    }

    #[derive(Default)]
    struct Dir {
        entries: BTreeMap<String, InodeId>,
        entry_bytes: usize,
    }

    impl Dir {
        fn insert(&mut self, name: &str, id: InodeId) {
            if self.entries.insert(name.to_string(), id).is_none() {
                self.entry_bytes += 16 + name.len();
            }
        }

        fn remove(&mut self, name: &str) {
            if self.entries.remove(name).is_some() {
                self.entry_bytes -= 16 + name.len();
            }
        }
    }

    struct Inode {
        kind: Kind,
        mode: u32,
        uid: u32,
        gid: u32,
        nlink: u32,
        atime: SimTime,
        mtime: SimTime,
        ctime: SimTime,
        gen: u32,
    }

    impl Inode {
        fn ftype(&self) -> FileType {
            match self.kind {
                Kind::File(_) => FileType::Regular,
                Kind::Dir(_) => FileType::Directory,
            }
        }

        fn size(&self) -> u32 {
            match &self.kind {
                Kind::File(d) => d.len() as u32,
                Kind::Dir(d) => ((d.entry_bytes + 32).div_ceil(512) * 512) as u32,
            }
        }
    }

    pub struct MemFs {
        slots: Vec<Option<Inode>>,
        gen_memory: Vec<u32>,
        root: InodeId,
        capacity_bytes: u64,
        used_bytes: u64,
    }

    impl MemFs {
        pub fn new(now: SimTime) -> Self {
            Self::with_capacity(now, 64 * 1024 * 1024)
        }

        pub fn with_capacity(now: SimTime, capacity_bytes: u64) -> Self {
            let root = Inode {
                kind: Kind::Dir(Dir::default()),
                mode: 0o755,
                uid: 0,
                gid: 0,
                nlink: 2,
                atime: now,
                mtime: now,
                ctime: now,
                gen: 1,
            };
            MemFs {
                slots: vec![Some(root)],
                gen_memory: vec![1],
                root: InodeId(0),
                capacity_bytes,
                used_bytes: 0,
            }
        }

        pub fn root(&self) -> InodeId {
            self.root
        }

        fn inode(&self, id: InodeId) -> FsResult<&Inode> {
            self.slots
                .get(id.0 as usize)
                .and_then(|s| s.as_ref())
                .ok_or(FsError::Stale)
        }

        fn inode_mut(&mut self, id: InodeId) -> FsResult<&mut Inode> {
            self.slots
                .get_mut(id.0 as usize)
                .and_then(|s| s.as_mut())
                .ok_or(FsError::Stale)
        }

        pub fn generation(&self, id: InodeId) -> FsResult<u32> {
            Ok(self.inode(id)?.gen)
        }

        fn alloc(&mut self, inode: Inode) -> InodeId {
            for (i, slot) in self.slots.iter_mut().enumerate() {
                if slot.is_none() {
                    let mut inode = inode;
                    inode.gen = self.gen_memory[i] + 1;
                    self.gen_memory[i] = inode.gen;
                    *slot = Some(inode);
                    return InodeId(i as u32);
                }
            }
            self.slots.push(Some(inode));
            self.gen_memory.push(1);
            InodeId((self.slots.len() - 1) as u32)
        }

        fn dir_entries(&self, dir: InodeId) -> FsResult<&BTreeMap<String, InodeId>> {
            match &self.inode(dir)?.kind {
                Kind::Dir(d) => Ok(&d.entries),
                _ => Err(FsError::NotDir),
            }
        }

        fn dir_mut(&mut self, dir: InodeId) -> FsResult<&mut Dir> {
            match &mut self.inode_mut(dir)?.kind {
                Kind::Dir(d) => Ok(d),
                _ => Err(FsError::NotDir),
            }
        }

        fn check_name(name: &str) -> FsResult<()> {
            if name.is_empty() || name.len() > NAME_MAX {
                return Err(FsError::NameTooLong);
            }
            if name == "." || name == ".." || name.contains('/') {
                return Err(FsError::Access);
            }
            Ok(())
        }

        pub fn lookup(&self, dir: InodeId, name: &str) -> FsResult<InodeId> {
            self.dir_entries(dir)?
                .get(name)
                .copied()
                .ok_or(FsError::NoEnt)
        }

        pub fn dir_len(&self, dir: InodeId) -> FsResult<usize> {
            Ok(self.dir_entries(dir)?.len())
        }

        pub fn getattr(&self, id: InodeId) -> FsResult<Vattr> {
            let ino = self.inode(id)?;
            let size = ino.size();
            Ok(Vattr {
                ftype: ino.ftype(),
                mode: ino.mode,
                nlink: ino.nlink,
                uid: ino.uid,
                gid: ino.gid,
                size,
                blocksize: BLOCK_SIZE as u32,
                blocks: size.div_ceil(512),
                fsid: 1,
                fileid: id.0,
                atime: ino.atime,
                mtime: ino.mtime,
                ctime: ino.ctime,
            })
        }

        pub fn setattr(
            &mut self,
            id: InodeId,
            size: Option<u32>,
            mode: Option<u32>,
            uid: Option<u32>,
            gid: Option<u32>,
            now: SimTime,
        ) -> FsResult<Vattr> {
            if let Some(sz) = size {
                let ino = self.inode(id)?;
                match &ino.kind {
                    Kind::File(data) => {
                        let old = data.len() as u64;
                        let new = sz as u64;
                        if new > old {
                            self.charge_space(new - old)?;
                        } else {
                            self.used_bytes -= old - new;
                        }
                    }
                    Kind::Dir(_) => return Err(FsError::IsDir),
                }
            }
            let ino = self.inode_mut(id)?;
            if let Some(sz) = size {
                if let Kind::File(data) = &mut ino.kind {
                    data.resize(sz as usize, 0);
                    ino.mtime = now;
                }
            }
            if let Some(m) = mode {
                ino.mode = m;
            }
            if let Some(u) = uid {
                ino.uid = u;
            }
            if let Some(g) = gid {
                ino.gid = g;
            }
            ino.ctime = now;
            self.getattr(id)
        }

        fn charge_space(&mut self, bytes: u64) -> FsResult<()> {
            if self.used_bytes + bytes > self.capacity_bytes {
                return Err(FsError::NoSpace);
            }
            self.used_bytes += bytes;
            Ok(())
        }

        pub fn read(&mut self, id: InodeId, off: u32, len: u32, now: SimTime) -> FsResult<Vec<u8>> {
            let ino = self.inode_mut(id)?;
            let data = match &ino.kind {
                Kind::File(d) => d,
                Kind::Dir(_) => return Err(FsError::IsDir),
            };
            let off = off as usize;
            let end = (off + len as usize).min(data.len());
            let out = data.get(off..end).unwrap_or_default().to_vec();
            ino.atime = now;
            Ok(out)
        }

        pub fn write(
            &mut self,
            id: InodeId,
            off: u32,
            src: &[u8],
            now: SimTime,
        ) -> FsResult<Vattr> {
            let end = off as u64 + src.len() as u64;
            if end > u32::MAX as u64 {
                return Err(FsError::NoSpace);
            }
            {
                let ino = self.inode(id)?;
                let old = match &ino.kind {
                    Kind::File(d) => d.len() as u64,
                    Kind::Dir(_) => return Err(FsError::IsDir),
                };
                if end > old {
                    self.charge_space(end - old)?;
                }
            }
            let ino = self.inode_mut(id)?;
            if let Kind::File(data) = &mut ino.kind {
                if end as usize > data.len() {
                    data.resize(end as usize, 0);
                }
                data[off as usize..end as usize].copy_from_slice(src);
                ino.mtime = now;
                ino.ctime = now;
            }
            self.getattr(id)
        }

        pub fn create(
            &mut self,
            dir: InodeId,
            name: &str,
            mode: u32,
            now: SimTime,
        ) -> FsResult<InodeId> {
            Self::check_name(name)?;
            if let Ok(existing) = self.lookup(dir, name) {
                match &self.inode(existing)?.kind {
                    Kind::File(_) => {
                        self.setattr(existing, Some(0), None, None, None, now)?;
                        return Ok(existing);
                    }
                    _ => return Err(FsError::Exist),
                }
            }
            let id = self.alloc(Inode {
                kind: Kind::File(Vec::new()),
                mode,
                uid: 0,
                gid: 0,
                nlink: 1,
                atime: now,
                mtime: now,
                ctime: now,
                gen: 0,
            });
            self.dir_mut(dir)?.insert(name, id);
            let d = self.inode_mut(dir)?;
            d.mtime = now;
            d.ctime = now;
            Ok(id)
        }

        pub fn mkdir(
            &mut self,
            dir: InodeId,
            name: &str,
            mode: u32,
            now: SimTime,
        ) -> FsResult<InodeId> {
            Self::check_name(name)?;
            if self.lookup(dir, name).is_ok() {
                return Err(FsError::Exist);
            }
            let id = self.alloc(Inode {
                kind: Kind::Dir(Dir::default()),
                mode,
                uid: 0,
                gid: 0,
                nlink: 2,
                atime: now,
                mtime: now,
                ctime: now,
                gen: 0,
            });
            self.dir_mut(dir)?.insert(name, id);
            let d = self.inode_mut(dir)?;
            d.nlink += 1;
            d.mtime = now;
            d.ctime = now;
            Ok(id)
        }

        pub fn link(
            &mut self,
            target: InodeId,
            dir: InodeId,
            name: &str,
            now: SimTime,
        ) -> FsResult<()> {
            Self::check_name(name)?;
            if matches!(self.inode(target)?.kind, Kind::Dir(_)) {
                return Err(FsError::IsDir);
            }
            if self.lookup(dir, name).is_ok() {
                return Err(FsError::Exist);
            }
            self.dir_mut(dir)?.insert(name, target);
            let t = self.inode_mut(target)?;
            t.nlink += 1;
            t.ctime = now;
            let d = self.inode_mut(dir)?;
            d.mtime = now;
            Ok(())
        }

        pub fn remove(&mut self, dir: InodeId, name: &str, now: SimTime) -> FsResult<()> {
            let id = self.lookup(dir, name)?;
            if matches!(self.inode(id)?.kind, Kind::Dir(_)) {
                return Err(FsError::IsDir);
            }
            self.dir_mut(dir)?.remove(name);
            let freed_bytes;
            {
                let ino = self.inode_mut(id)?;
                ino.nlink -= 1;
                ino.ctime = now;
                if ino.nlink == 0 {
                    freed_bytes = match &ino.kind {
                        Kind::File(d) => d.len() as u64,
                        _ => 0,
                    };
                    self.slots[id.0 as usize] = None;
                } else {
                    freed_bytes = 0;
                }
            }
            self.used_bytes -= freed_bytes;
            let d = self.inode_mut(dir)?;
            d.mtime = now;
            d.ctime = now;
            Ok(())
        }

        pub fn rmdir(&mut self, dir: InodeId, name: &str, now: SimTime) -> FsResult<()> {
            let id = self.lookup(dir, name)?;
            match &self.inode(id)?.kind {
                Kind::Dir(d) => {
                    if !d.entries.is_empty() {
                        return Err(FsError::NotEmpty);
                    }
                }
                _ => return Err(FsError::NotDir),
            }
            self.dir_mut(dir)?.remove(name);
            self.slots[id.0 as usize] = None;
            let d = self.inode_mut(dir)?;
            d.nlink -= 1;
            d.mtime = now;
            d.ctime = now;
            Ok(())
        }

        pub fn rename(
            &mut self,
            fdir: InodeId,
            fname: &str,
            tdir: InodeId,
            tname: &str,
            now: SimTime,
        ) -> FsResult<()> {
            Self::check_name(tname)?;
            let id = self.lookup(fdir, fname)?;
            if let Ok(existing) = self.lookup(tdir, tname) {
                if existing != id {
                    self.remove(tdir, tname, now)?;
                }
            }
            self.dir_mut(fdir)?.remove(fname);
            self.dir_mut(tdir)?.insert(tname, id);
            for d in [fdir, tdir] {
                let ino = self.inode_mut(d)?;
                ino.mtime = now;
                ino.ctime = now;
            }
            Ok(())
        }

        pub fn readdir(
            &self,
            dir: InodeId,
            cookie: u32,
            max_entries: usize,
            mut visit: impl FnMut(u32, &str, InodeId),
        ) -> FsResult<bool> {
            let entries = self.dir_entries(dir)?;
            let mut page = entries.iter().zip(1u32..).skip(cookie as usize);
            for ((name, id), index) in page.by_ref().take(max_entries) {
                visit(index, name, *id);
            }
            Ok(page.next().is_none())
        }

        pub fn statfs(&self) -> (u32, u32, u32) {
            let bs = BLOCK_SIZE as u32;
            let total = (self.capacity_bytes / BLOCK_SIZE as u64) as u32;
            let used = (self.used_bytes / BLOCK_SIZE as u64) as u32;
            (bs, total, total.saturating_sub(used))
        }

        pub fn used_bytes(&self) -> u64 {
            self.used_bytes
        }

        pub fn live_inodes(&self) -> usize {
            self.slots.iter().filter(|s| s.is_some()).count()
        }
    }
}

/// Names of 1, 23 (the longest inline), 24 and 255 bytes, three of each,
/// some the prefix of another; then one too long and one malformed.
fn names() -> Vec<String> {
    let mut names: Vec<String> = [1, 23, 24, NAME_MAX]
        .into_iter()
        .flat_map(|len| ["a", "m", "z"].map(|c| c.repeat(len)))
        .collect();
    names.push("q".repeat(NAME_MAX + 1));
    names.push("a/b".to_string());
    names
}

#[derive(Clone, Debug)]
enum Op {
    Create(usize, usize),
    Mkdir(usize, usize),
    Write {
        file: usize,
        off: u32,
        len: u32,
        byte: u8,
    },
    SetSize(usize, u32),
    Read {
        file: usize,
        off: u32,
        len: u32,
    },
    Remove(usize, usize),
    Rmdir(usize, usize),
    Rename(usize, usize, usize, usize),
    Link(usize, usize, usize),
    Readdir {
        dir: usize,
        cookie: u32,
        max: usize,
    },
}

/// An offset or size, often near a fragment or block boundary.
fn extent() -> impl Strategy<Value = u32> {
    prop_oneof![
        2 => 0u32..3000,
        2 => (0u32..6, -2i32..3).prop_map(|(k, d)| (k * 1024).saturating_add_signed(d)),
        2 => (0u32..5, -2i32..3).prop_map(|(k, d)| (k * 8192).saturating_add_signed(d)),
        1 => 0u32..40_000,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let (i, n) = (any::<prop::sample::Index>, names().len());
    prop_oneof![
        4 => (i(), 0..n).prop_map(|(d, k)| Op::Create(d.index(usize::MAX), k)),
        2 => (i(), 0..n).prop_map(|(d, k)| Op::Mkdir(d.index(usize::MAX), k)),
        5 => (i(), extent(), extent(), any::<u8>()).prop_map(|(f, off, len, byte)| Op::Write {
            file: f.index(usize::MAX),
            off,
            len,
            byte,
        }),
        2 => (i(), extent()).prop_map(|(f, size)| Op::SetSize(f.index(usize::MAX), size)),
        2 => (i(), extent(), extent()).prop_map(|(f, off, len)| Op::Read {
            file: f.index(usize::MAX),
            off,
            len,
        }),
        3 => (i(), 0..n).prop_map(|(d, k)| Op::Remove(d.index(usize::MAX), k)),
        1 => (i(), 0..n).prop_map(|(d, k)| Op::Rmdir(d.index(usize::MAX), k)),
        2 => (i(), 0..n, i(), 0..n).prop_map(|(fd, fk, td, tk)| {
            Op::Rename(fd.index(usize::MAX), fk, td.index(usize::MAX), tk)
        }),
        1 => (i(), i(), 0..n).prop_map(|(f, d, k)| {
            Op::Link(f.index(usize::MAX), d.index(usize::MAX), k)
        }),
        3 => (i(), 0u32..16, 1usize..6).prop_map(|(d, cookie, max)| Op::Readdir {
            dir: d.index(usize::MAX),
            cookie,
            max,
        }),
    ]
}

/// A listing page: `(cookie, name, inode)` per entry, then eof.
type Page = (Vec<(u32, String, InodeId)>, bool);

fn page(fs: &MemFs, dir: InodeId, cookie: u32, max: usize) -> Result<Page, FsError> {
    let mut out = Vec::new();
    let eof = fs.readdir(dir, cookie, max, |c, n, i| out.push((c, n.to_string(), i)))?;
    Ok((out, eof))
}

fn old_page(fs: &reference::MemFs, dir: InodeId, cookie: u32, max: usize) -> Result<Page, FsError> {
    let mut out = Vec::new();
    let eof = fs.readdir(dir, cookie, max, |c, n, i| out.push((c, n.to_string(), i)))?;
    Ok((out, eof))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn inline_names_and_listed_buffers_match_the_map_file_system(
        capacity in prop_oneof![Just(64 * 1024 * 1024u64), Just(40_000u64)],
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let names = names();
        let mut new = MemFs::with_capacity(SimTime::ZERO, capacity);
        let mut old = reference::MemFs::with_capacity(SimTime::ZERO, capacity);
        // Every inode either side has handed out (both hand out the same):
        // ops pick their targets here, freed ones included.
        let mut ids = vec![new.root()];
        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_secs(step as u64 + 1);
            let id = |k: usize| ids[k % ids.len()];
            let name = |k: usize| names[k].as_str();
            match *op {
                Op::Create(d, k) => {
                    let got = new.create(id(d), name(k), 0o644, now);
                    prop_assert_eq!(got, old.create(id(d), name(k), 0o644, now), "{:?}", op);
                    ids.extend(got.ok());
                }
                Op::Mkdir(d, k) => {
                    let got = new.mkdir(id(d), name(k), 0o755, now);
                    prop_assert_eq!(got, old.mkdir(id(d), name(k), 0o755, now), "{:?}", op);
                    ids.extend(got.ok());
                }
                Op::Write { file, off, len, byte } => {
                    let src = vec![byte; len as usize];
                    let got = new.write(id(file), off, &src, now);
                    prop_assert_eq!(got, old.write(id(file), off, &src, now), "{:?}", op);
                }
                Op::SetSize(f, size) => {
                    let got = new.setattr(id(f), Some(size), None, None, None, now);
                    let want = old.setattr(id(f), Some(size), None, None, None, now);
                    prop_assert_eq!(got, want, "{:?}", op);
                }
                Op::Read { file, off, len } => {
                    let got = new.read(id(file), off, len, now);
                    prop_assert_eq!(got, old.read(id(file), off, len, now), "{:?}", op);
                }
                Op::Remove(d, k) => {
                    let got = new.remove(id(d), name(k), now);
                    prop_assert_eq!(got, old.remove(id(d), name(k), now), "{:?}", op);
                }
                Op::Rmdir(d, k) => {
                    let got = new.rmdir(id(d), name(k), now);
                    prop_assert_eq!(got, old.rmdir(id(d), name(k), now), "{:?}", op);
                }
                Op::Rename(fd, fk, td, tk) => {
                    let got = new.rename(id(fd), name(fk), id(td), name(tk), now);
                    let want = old.rename(id(fd), name(fk), id(td), name(tk), now);
                    prop_assert_eq!(got, want, "{:?}", op);
                }
                Op::Link(f, d, k) => {
                    let got = new.link(id(f), id(d), name(k), now);
                    prop_assert_eq!(got, old.link(id(f), id(d), name(k), now), "{:?}", op);
                }
                Op::Readdir { dir, cookie, max } => {
                    let got = page(&new, id(dir), cookie, max);
                    prop_assert_eq!(got, old_page(&old, id(dir), cookie, max), "{:?}", op);
                }
            }
            for &i in &ids {
                prop_assert_eq!(new.getattr(i), old.getattr(i), "inode {:?} after {:?}", i, op);
                prop_assert_eq!(new.generation(i), old.generation(i));
                prop_assert_eq!(new.dir_len(i), old.dir_len(i));
            }
            prop_assert_eq!(new.used_bytes(), old.used_bytes(), "after {:?}", op);
            prop_assert_eq!(new.statfs(), old.statfs());
            prop_assert_eq!(new.live_inodes(), old.live_inodes());
        }
    }
}

#[test]
fn every_page_of_a_listing_matches_at_every_cookie() {
    let t = SimTime::ZERO;
    let mut new = MemFs::new(t);
    let mut old = reference::MemFs::new(t);
    for (i, name) in names().iter().take(12).enumerate() {
        let got = new.create(new.root(), &format!("{name}{i}"), 0o644, t);
        assert_eq!(got, old.create(old.root(), &format!("{name}{i}"), 0o644, t));
    }
    assert_eq!(new.lookup(new.root(), "a/b"), Err(FsError::NoEnt));
    for cookie in (0..15).chain([u32::MAX]) {
        for max in 0..14 {
            let got = page(&new, new.root(), cookie, max);
            let want = old_page(&old, old.root(), cookie, max);
            assert_eq!(got, want, "cookie {cookie}, {max} entries");
        }
    }
}
