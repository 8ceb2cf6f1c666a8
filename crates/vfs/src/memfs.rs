//! An in-memory Unix filesystem.
//!
//! Serves as the server's exported volume (definitive file contents; the
//! host model charges RD53 disk time separately) and as the local-disk
//! baseline in the Create-Delete benchmark. Semantics follow what the
//! NFS v2 procedures need: inode generations for stale-handle detection,
//! hard links, rename, and cookie-based directory reading.

use std::collections::BTreeMap;

use renofs_sim::SimTime;

use crate::types::{FileType, Vattr, BLOCK_SIZE};

/// Maximum component name length (Unix `MAXNAMLEN`).
pub const NAME_MAX: usize = 255;

/// An inode number within a [`MemFs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InodeId(pub u32);

/// Filesystem errors, mapping 1:1 onto NFS v2 status codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsError {
    /// No such file or directory.
    NoEnt,
    /// Name already exists.
    Exist,
    /// Not a directory.
    NotDir,
    /// Is a directory.
    IsDir,
    /// Directory not empty.
    NotEmpty,
    /// Stale file handle (inode freed or generation mismatch).
    Stale,
    /// Name too long.
    NameTooLong,
    /// Out of space.
    NoSpace,
    /// Operation not permitted on this file type.
    Access,
}

/// Result alias.
pub type FsResult<T> = Result<T, FsError>;

/// One page of directory entries: `(cookie, name, inode)` triples plus
/// an end-of-directory flag.
pub type ReaddirPage = (Vec<(u32, String, InodeId)>, bool);

enum Kind {
    File(Vec<u8>),
    Dir(Dir),
    Symlink(String),
}

/// A directory: its entries and the running total of `16 + name.len()`
/// over them, so its size — which every LOOKUP that scans it asks for —
/// is not a walk of the map.
#[derive(Default)]
struct Dir {
    entries: BTreeMap<String, InodeId>,
    entry_bytes: usize,
}

impl Dir {
    /// Enters `name`, replacing an entry of that name.
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
            Kind::Symlink(_) => FileType::Symlink,
        }
    }

    fn size(&self) -> u32 {
        match &self.kind {
            Kind::File(d) => d.len() as u32,
            // Approximate on-disk directory size: 16 bytes + name per
            // entry, in whole 512-byte chunks.
            Kind::Dir(d) => ((d.entry_bytes + 32).div_ceil(512) * 512) as u32,
            Kind::Symlink(t) => t.len() as u32,
        }
    }
}

/// The filesystem.
pub struct MemFs {
    slots: Vec<Option<Inode>>,
    gen_memory: Vec<u32>,
    root: InodeId,
    capacity_bytes: u64,
    used_bytes: u64,
}

impl MemFs {
    /// Creates a filesystem with an empty root directory.
    pub fn new(now: SimTime) -> Self {
        Self::with_capacity(now, 64 * 1024 * 1024)
    }

    /// Creates a filesystem with the given data capacity in bytes
    /// (the testbed's RD53 held ~71 MB).
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

    /// The root directory.
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

    /// The inode's current generation (for file-handle construction).
    pub fn generation(&self, id: InodeId) -> FsResult<u32> {
        Ok(self.inode(id)?.gen)
    }

    /// Validates an `(inode, generation)` pair, the stale-handle check a
    /// stateless server performs on every request.
    pub fn check_handle(&self, id: InodeId, gen: u32) -> FsResult<()> {
        let ino = self.inode(id)?;
        if ino.gen != gen {
            return Err(FsError::Stale);
        }
        Ok(())
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

    /// Looks up one component under a directory.
    pub fn lookup(&self, dir: InodeId, name: &str) -> FsResult<InodeId> {
        self.dir_entries(dir)?
            .get(name)
            .copied()
            .ok_or(FsError::NoEnt)
    }

    /// Number of entries in a directory (for search-cost pricing).
    pub fn dir_len(&self, dir: InodeId) -> FsResult<usize> {
        Ok(self.dir_entries(dir)?.len())
    }

    /// File attributes.
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

    /// Sets attributes; `size` truncates or extends a regular file.
    pub fn setattr(
        &mut self,
        id: InodeId,
        size: Option<u32>,
        mode: Option<u32>,
        uid: Option<u32>,
        gid: Option<u32>,
        now: SimTime,
    ) -> FsResult<Vattr> {
        // Compute the byte delta first for space accounting.
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
                Kind::Symlink(_) => return Err(FsError::Access),
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

    /// Reads up to `len` bytes at `off`; short reads at EOF.
    pub fn read(&mut self, id: InodeId, off: u32, len: u32, now: SimTime) -> FsResult<Vec<u8>> {
        let mut out = Vec::new();
        self.read_into(id, off, len, now, &mut out)?;
        Ok(out)
    }

    /// [`MemFs::read`] into a caller-supplied buffer (cleared first), so
    /// per-RPC read paths can recycle one scratch vector instead of
    /// allocating a fresh `Vec` per call. Returns the bytes read.
    pub fn read_into(
        &mut self,
        id: InodeId,
        off: u32,
        len: u32,
        now: SimTime,
        out: &mut Vec<u8>,
    ) -> FsResult<usize> {
        out.clear();
        let ino = self.inode_mut(id)?;
        let data = match &ino.kind {
            Kind::File(d) => d,
            Kind::Dir(_) => return Err(FsError::IsDir),
            Kind::Symlink(_) => return Err(FsError::Access),
        };
        let off = off as usize;
        let end = (off + len as usize).min(data.len());
        if off < data.len() {
            out.extend_from_slice(&data[off..end]);
        }
        ino.atime = now;
        Ok(out.len())
    }

    /// Writes `src` at `off`, extending (zero-filled) as needed.
    pub fn write(&mut self, id: InodeId, off: u32, src: &[u8], now: SimTime) -> FsResult<Vattr> {
        let end = off as u64 + src.len() as u64;
        if end > u32::MAX as u64 {
            return Err(FsError::NoSpace);
        }
        {
            let ino = self.inode(id)?;
            let old = match &ino.kind {
                Kind::File(d) => d.len() as u64,
                Kind::Dir(_) => return Err(FsError::IsDir),
                Kind::Symlink(_) => return Err(FsError::Access),
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

    /// Creates a regular file. If the name exists as a regular file it is
    /// truncated (NFS v2 CREATE semantics for `open(O_CREAT|O_TRUNC)`).
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

    /// Creates a directory.
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

    /// Creates a symbolic link.
    pub fn symlink(
        &mut self,
        dir: InodeId,
        name: &str,
        target: &str,
        now: SimTime,
    ) -> FsResult<InodeId> {
        Self::check_name(name)?;
        if self.lookup(dir, name).is_ok() {
            return Err(FsError::Exist);
        }
        let id = self.alloc(Inode {
            kind: Kind::Symlink(target.to_string()),
            mode: 0o777,
            uid: 0,
            gid: 0,
            nlink: 1,
            atime: now,
            mtime: now,
            ctime: now,
            gen: 0,
        });
        self.dir_mut(dir)?.insert(name, id);
        Ok(id)
    }

    /// Reads a symlink target.
    pub fn readlink(&self, id: InodeId) -> FsResult<String> {
        match &self.inode(id)?.kind {
            Kind::Symlink(t) => Ok(t.clone()),
            _ => Err(FsError::Access),
        }
    }

    /// Adds a hard link to a regular file.
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

    /// Removes a non-directory entry, freeing the inode when its last
    /// link goes.
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

    /// Removes an empty directory.
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

    /// Renames an entry, replacing a non-directory target if present.
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
                // Unlink the displaced target (files only).
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

    /// Reads directory entries starting after `cookie` (0 = from start).
    /// Returns `(entries, eof)`; each entry carries the cookie to resume
    /// after it.
    pub fn readdir(&self, dir: InodeId, cookie: u32, max_entries: usize) -> FsResult<ReaddirPage> {
        let entries = self.dir_entries(dir)?;
        let mut out = Vec::new();
        let mut index = 0u32;
        for (name, id) in entries.iter() {
            index += 1;
            if index <= cookie {
                continue;
            }
            if out.len() >= max_entries {
                return Ok((out, false));
            }
            out.push((index, name.clone(), *id));
        }
        Ok((out, true))
    }

    /// Filesystem statistics: `(block_size, total_blocks, free_blocks)`.
    pub fn statfs(&self) -> (u32, u32, u32) {
        let bs = BLOCK_SIZE as u32;
        let total = (self.capacity_bytes / BLOCK_SIZE as u64) as u32;
        let used = (self.used_bytes / BLOCK_SIZE as u64) as u32;
        (bs, total, total.saturating_sub(used))
    }

    /// Bytes currently stored in regular files.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of live inodes.
    pub fn live_inodes(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_secs(n)
    }

    fn fs() -> MemFs {
        MemFs::new(t(0))
    }

    #[test]
    fn create_lookup_read_write() {
        let mut fs = fs();
        let f = fs.create(fs.root(), "hello.txt", 0o644, t(1)).unwrap();
        assert_eq!(fs.lookup(fs.root(), "hello.txt").unwrap(), f);
        fs.write(f, 0, b"hello world", t(2)).unwrap();
        assert_eq!(fs.read(f, 0, 100, t(3)).unwrap(), b"hello world");
        assert_eq!(fs.read(f, 6, 5, t(3)).unwrap(), b"world");
        let a = fs.getattr(f).unwrap();
        assert_eq!(a.size, 11);
        assert_eq!(a.mtime, t(2));
        assert_eq!(a.ftype, FileType::Regular);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, t(1)).unwrap();
        fs.write(f, 100, b"xy", t(1)).unwrap();
        let data = fs.read(f, 0, 200, t(1)).unwrap();
        assert_eq!(data.len(), 102);
        assert!(data[..100].iter().all(|&b| b == 0));
        assert_eq!(&data[100..], b"xy");
    }

    #[test]
    fn read_past_eof_is_short() {
        let mut fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, t(1)).unwrap();
        fs.write(f, 0, b"abc", t(1)).unwrap();
        assert_eq!(fs.read(f, 2, 10, t(1)).unwrap(), b"c");
        assert!(fs.read(f, 10, 10, t(1)).unwrap().is_empty());
    }

    #[test]
    fn create_existing_truncates() {
        let mut fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, t(1)).unwrap();
        fs.write(f, 0, b"data", t(1)).unwrap();
        let f2 = fs.create(fs.root(), "f", 0o644, t(2)).unwrap();
        assert_eq!(f, f2);
        assert_eq!(fs.getattr(f).unwrap().size, 0);
    }

    #[test]
    fn mkdir_and_nested_paths() {
        let mut fs = fs();
        let d1 = fs.mkdir(fs.root(), "usr", 0o755, t(1)).unwrap();
        let d2 = fs.mkdir(d1, "bin", 0o755, t(1)).unwrap();
        let f = fs.create(d2, "cc", 0o755, t(1)).unwrap();
        assert_eq!(
            fs.lookup(
                fs.lookup(fs.lookup(fs.root(), "usr").unwrap(), "bin")
                    .unwrap(),
                "cc"
            )
            .unwrap(),
            f
        );
        assert_eq!(fs.getattr(d1).unwrap().ftype, FileType::Directory);
        assert_eq!(fs.getattr(fs.root()).unwrap().nlink, 3, "root + usr");
    }

    #[test]
    fn remove_frees_inode_and_detects_stale() {
        let mut fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, t(1)).unwrap();
        let gen = fs.generation(f).unwrap();
        fs.check_handle(f, gen).unwrap();
        fs.remove(fs.root(), "f", t(2)).unwrap();
        assert_eq!(fs.check_handle(f, gen), Err(FsError::Stale));
        assert_eq!(fs.lookup(fs.root(), "f"), Err(FsError::NoEnt));
    }

    #[test]
    fn inode_reuse_bumps_generation() {
        let mut fs = fs();
        let f1 = fs.create(fs.root(), "a", 0o644, t(1)).unwrap();
        let g1 = fs.generation(f1).unwrap();
        fs.remove(fs.root(), "a", t(2)).unwrap();
        let f2 = fs.create(fs.root(), "b", 0o644, t(3)).unwrap();
        assert_eq!(f1, f2, "slot reused");
        assert!(fs.generation(f2).unwrap() > g1, "generation bumped");
        assert_eq!(fs.check_handle(f2, g1), Err(FsError::Stale));
    }

    #[test]
    fn hard_links_share_data() {
        let mut fs = fs();
        let f = fs.create(fs.root(), "orig", 0o644, t(1)).unwrap();
        fs.write(f, 0, b"shared", t(1)).unwrap();
        fs.link(f, fs.root(), "alias", t(2)).unwrap();
        assert_eq!(fs.getattr(f).unwrap().nlink, 2);
        fs.remove(fs.root(), "orig", t(3)).unwrap();
        let via_alias = fs.lookup(fs.root(), "alias").unwrap();
        assert_eq!(fs.read(via_alias, 0, 10, t(3)).unwrap(), b"shared");
        fs.remove(fs.root(), "alias", t(4)).unwrap();
        assert!(fs.check_handle(f, 0).is_err());
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut fs = fs();
        let d = fs.mkdir(fs.root(), "d", 0o755, t(1)).unwrap();
        fs.create(d, "f", 0o644, t(1)).unwrap();
        assert_eq!(fs.rmdir(fs.root(), "d", t(2)), Err(FsError::NotEmpty));
        fs.remove(d, "f", t(2)).unwrap();
        fs.rmdir(fs.root(), "d", t(3)).unwrap();
        assert_eq!(fs.lookup(fs.root(), "d"), Err(FsError::NoEnt));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut fs = fs();
        let d1 = fs.mkdir(fs.root(), "src", 0o755, t(1)).unwrap();
        let d2 = fs.mkdir(fs.root(), "dst", 0o755, t(1)).unwrap();
        let f = fs.create(d1, "file", 0o644, t(1)).unwrap();
        fs.write(f, 0, b"payload", t(1)).unwrap();
        let victim = fs.create(d2, "file2", 0o644, t(1)).unwrap();
        fs.rename(d1, "file", d2, "file2", t(2)).unwrap();
        assert_eq!(fs.lookup(d1, "file"), Err(FsError::NoEnt));
        assert_eq!(fs.lookup(d2, "file2").unwrap(), f);
        assert!(
            fs.check_handle(victim, 0).is_err(),
            "displaced target freed"
        );
    }

    #[test]
    fn symlink_round_trip() {
        let mut fs = fs();
        let l = fs.symlink(fs.root(), "ln", "/usr/bin/cc", t(1)).unwrap();
        assert_eq!(fs.readlink(l).unwrap(), "/usr/bin/cc");
        assert_eq!(fs.getattr(l).unwrap().ftype, FileType::Symlink);
        assert_eq!(fs.readlink(fs.root()), Err(FsError::Access));
    }

    #[test]
    fn readdir_pagination() {
        let mut fs = fs();
        for i in 0..10 {
            fs.create(fs.root(), &format!("f{i:02}"), 0o644, t(1))
                .unwrap();
        }
        let (page1, eof1) = fs.readdir(fs.root(), 0, 4).unwrap();
        assert_eq!(page1.len(), 4);
        assert!(!eof1);
        let (page2, _) = fs.readdir(fs.root(), page1.last().unwrap().0, 4).unwrap();
        assert_eq!(page2[0].1, "f04");
        let (page3, eof3) = fs.readdir(fs.root(), page2.last().unwrap().0, 10).unwrap();
        assert_eq!(page3.len(), 2);
        assert!(eof3);
        let all: Vec<String> = page1
            .iter()
            .chain(&page2)
            .chain(&page3)
            .map(|(_, n, _)| n.clone())
            .collect();
        assert_eq!(all, (0..10).map(|i| format!("f{i:02}")).collect::<Vec<_>>());
    }

    #[test]
    fn truncate_via_setattr() {
        let mut fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, t(1)).unwrap();
        fs.write(f, 0, &[1u8; 1000], t(1)).unwrap();
        assert_eq!(fs.used_bytes(), 1000);
        fs.setattr(f, Some(100), None, None, None, t(2)).unwrap();
        assert_eq!(fs.getattr(f).unwrap().size, 100);
        assert_eq!(fs.used_bytes(), 100);
        fs.setattr(f, Some(500), None, None, None, t(3)).unwrap();
        let data = fs.read(f, 0, 500, t(3)).unwrap();
        assert_eq!(&data[..100], &[1u8; 100][..]);
        assert!(data[100..].iter().all(|&b| b == 0), "extension zero-fills");
    }

    #[test]
    fn space_accounting_and_nospace() {
        let mut fs = MemFs::with_capacity(t(0), 10_000);
        let f = fs.create(fs.root(), "big", 0o644, t(1)).unwrap();
        fs.write(f, 0, &[0u8; 8000], t(1)).unwrap();
        assert_eq!(fs.write(f, 8000, &[0u8; 8000], t(1)), Err(FsError::NoSpace));
        fs.remove(fs.root(), "big", t(2)).unwrap();
        assert_eq!(fs.used_bytes(), 0);
    }

    #[test]
    fn name_validation() {
        let mut fs = fs();
        assert_eq!(
            fs.create(fs.root(), &"x".repeat(300), 0o644, t(1)),
            Err(FsError::NameTooLong)
        );
        assert_eq!(
            fs.create(fs.root(), "", 0o644, t(1)),
            Err(FsError::NameTooLong)
        );
        assert_eq!(
            fs.create(fs.root(), "a/b", 0o644, t(1)),
            Err(FsError::Access)
        );
        assert_eq!(fs.create(fs.root(), ".", 0o644, t(1)), Err(FsError::Access));
    }

    #[test]
    fn errors_on_wrong_types() {
        let mut fs = fs();
        let d = fs.mkdir(fs.root(), "d", 0o755, t(1)).unwrap();
        let f = fs.create(fs.root(), "f", 0o644, t(1)).unwrap();
        assert_eq!(fs.read(d, 0, 10, t(1)), Err(FsError::IsDir));
        assert_eq!(fs.write(d, 0, b"x", t(1)), Err(FsError::IsDir));
        assert_eq!(fs.lookup(f, "x"), Err(FsError::NotDir));
        assert_eq!(fs.remove(fs.root(), "d", t(1)), Err(FsError::IsDir));
        assert_eq!(fs.rmdir(fs.root(), "f", t(1)), Err(FsError::NotDir));
        assert_eq!(fs.mkdir(fs.root(), "f", 0o755, t(1)), Err(FsError::Exist));
    }

    #[test]
    fn statfs_reflects_usage() {
        let mut fs = MemFs::with_capacity(t(0), 1024 * 1024);
        let (bs, total, free0) = fs.statfs();
        assert_eq!(bs, BLOCK_SIZE as u32);
        assert_eq!(total, 128);
        let f = fs.create(fs.root(), "f", 0o644, t(1)).unwrap();
        fs.write(f, 0, &vec![0u8; 9 * BLOCK_SIZE], t(1)).unwrap();
        let (_, _, free1) = fs.statfs();
        assert!(free1 < free0);
    }
}
