//! The filesystem proper: inodes, directories, files.

use std::sync::Arc;

use prins_block::{BlockDevice, Lba};

use crate::alloc::Bitmap;
use crate::layout::{Inode, InodeId, Layout, DIRECT_PTRS, INODE_SIZE, ROOT_INODE};
use crate::FsError;

const DIRENT_SIZE: usize = 64;
const NAME_MAX: usize = DIRENT_SIZE - 5;

const KIND_FILE: u16 = 1;
const KIND_DIR: u16 = 2;

/// What a directory entry points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Directory,
}

/// `stat`-style information about a path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metadata {
    /// File or directory.
    pub(crate) kind: FileKind,
    /// Size in bytes (directories: size of the entry table).
    pub size: u64,
    /// Modification counter.
    pub(crate) mtime: u64,
}

/// An ext2-like filesystem over a shared block device.
///
/// All paths are absolute (`/a/b/c`). See the [crate docs](crate) for an
/// example. Methods take `&self`; the filesystem serializes access
/// through the device's own locking (single-writer workloads, as in the
/// paper's micro-benchmark).
pub struct Fs {
    dev: Arc<dyn BlockDevice>,
    layout: Layout,
}

impl Fs {
    /// Formats the device and returns the mounted filesystem.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] if the device cannot hold the metadata
    /// regions.
    pub fn format(dev: Arc<dyn BlockDevice>, inode_count: u32) -> Result<Self, FsError> {
        let layout = Layout::compute(dev.geometry(), inode_count)?;
        let bs = layout.block_size.bytes();
        let zero = vec![0u8; bs];
        for blk in 0..layout.data_start {
            dev.write_block(Lba(blk), &zero)?;
        }
        let mut sb = vec![0u8; bs];
        layout.encode_superblock(&mut sb);
        dev.write_block(Lba(0), &sb)?;

        let fs = Self { dev, layout };
        // Allocate the root inode (bitmap bit 0 -> inode 1).
        let idx = Bitmap::inodes_of(&fs.layout).allocate(&*fs.dev)?;
        debug_assert_eq!(idx as u32 + 1, ROOT_INODE);
        fs.write_inode(
            ROOT_INODE,
            &Inode {
                kind: KIND_DIR,
                links: 1,
                ..Inode::default()
            },
        )?;
        Ok(fs)
    }

    /// Mounts an already formatted device.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] when the superblock does not validate.
    pub fn mount(dev: Arc<dyn BlockDevice>) -> Result<Self, FsError> {
        let mut sb = dev.geometry().block_size().zeroed();
        dev.read_block(Lba(0), &mut sb)?;
        let layout = Layout::decode_superblock(dev.geometry(), &sb)?;
        Ok(Self { dev, layout })
    }

    /// The filesystem's on-disk layout.
    pub(crate) fn layout(&self) -> Layout {
        self.layout
    }

    /// The backing device (used by fsck and tests).
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.dev
    }

    pub(crate) fn read_inode_raw(&self, ino: InodeId) -> Result<Inode, FsError> {
        self.read_inode(ino)
    }

    pub(crate) fn dir_entries_raw(&self, dir: &Inode) -> Result<Vec<(InodeId, String)>, FsError> {
        self.dir_entries(dir)
    }

    /// All pointer slots of an inode's indirect block (zeros included).
    pub(crate) fn indirect_entries_raw(&self, inode: &Inode) -> Result<Vec<u32>, FsError> {
        if inode.indirect == 0 {
            return Ok(Vec::new());
        }
        let mut buf = self.layout.block_size.zeroed();
        self.dev
            .read_block(self.data_lba(inode.indirect), &mut buf)?;
        Ok(buf
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    // ------------------------------------------------------------------
    // Inode I/O
    // ------------------------------------------------------------------

    fn read_inode(&self, ino: InodeId) -> Result<Inode, FsError> {
        let (blk, off) = self.layout.inode_location(ino);
        let mut buf = self.layout.block_size.zeroed();
        self.dev.read_block(Lba(blk), &mut buf)?;
        Ok(Inode::decode(&buf[off..off + INODE_SIZE]))
    }

    fn write_inode(&self, ino: InodeId, inode: &Inode) -> Result<(), FsError> {
        let (blk, off) = self.layout.inode_location(ino);
        let mut buf = self.layout.block_size.zeroed();
        self.dev.read_block(Lba(blk), &mut buf)?;
        inode.encode(&mut buf[off..off + INODE_SIZE]);
        self.dev.write_block(Lba(blk), &buf)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Block mapping
    // ------------------------------------------------------------------

    fn data_lba(&self, ptr: u32) -> Lba {
        Lba(self.layout.data_start + (ptr - 1) as u64)
    }

    /// Device block for file block `fblk`, or `None` if unallocated.
    fn block_of(&self, inode: &Inode, fblk: u64) -> Result<Option<Lba>, FsError> {
        let bs = self.layout.block_size.bytes() as u64;
        if fblk < DIRECT_PTRS as u64 {
            let ptr = inode.direct[fblk as usize];
            return Ok((ptr != 0).then(|| self.data_lba(ptr)));
        }
        let idx = fblk - DIRECT_PTRS as u64;
        if idx >= bs / 4 || inode.indirect == 0 {
            return Ok(None);
        }
        let mut buf = self.layout.block_size.zeroed();
        self.dev
            .read_block(self.data_lba(inode.indirect), &mut buf)?;
        let at = idx as usize * 4;
        let ptr = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        Ok((ptr != 0).then(|| self.data_lba(ptr)))
    }

    fn allocate_data_block(&self) -> Result<u32, FsError> {
        let idx = Bitmap::blocks_of(&self.layout).allocate(&*self.dev)?;
        // Freshly allocated blocks must read as zeros even if recycled.
        let zero = self.layout.block_size.zeroed();
        self.dev
            .write_block(Lba(self.layout.data_start + idx), &zero)?;
        Ok(idx as u32 + 1)
    }

    /// Device block for file block `fblk`, allocating as needed.
    fn ensure_block(&self, inode: &mut Inode, fblk: u64) -> Result<Lba, FsError> {
        let bs = self.layout.block_size.bytes() as u64;
        if fblk < DIRECT_PTRS as u64 {
            if inode.direct[fblk as usize] == 0 {
                inode.direct[fblk as usize] = self.allocate_data_block()?;
            }
            return Ok(self.data_lba(inode.direct[fblk as usize]));
        }
        let idx = fblk - DIRECT_PTRS as u64;
        if idx >= bs / 4 {
            return Err(FsError::FileTooLarge {
                size: (fblk + 1) * bs,
                max: self.layout.max_file_size(),
            });
        }
        if inode.indirect == 0 {
            inode.indirect = self.allocate_data_block()?;
        }
        let ind_lba = self.data_lba(inode.indirect);
        let mut buf = self.layout.block_size.zeroed();
        self.dev.read_block(ind_lba, &mut buf)?;
        let at = idx as usize * 4;
        let mut ptr = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        if ptr == 0 {
            ptr = self.allocate_data_block()?;
            buf[at..at + 4].copy_from_slice(&ptr.to_le_bytes());
            self.dev.write_block(ind_lba, &buf)?;
        }
        Ok(self.data_lba(ptr))
    }

    fn free_file_blocks(&self, inode: &mut Inode, from_fblk: u64) -> Result<(), FsError> {
        let bs = self.layout.block_size.bytes() as u64;
        let bitmap = Bitmap::blocks_of(&self.layout);
        for fblk in from_fblk..DIRECT_PTRS as u64 {
            let ptr = inode.direct[fblk as usize];
            if ptr != 0 {
                bitmap.free(&*self.dev, (ptr - 1) as u64)?;
                inode.direct[fblk as usize] = 0;
            }
        }
        if inode.indirect != 0 {
            let ind_lba = self.data_lba(inode.indirect);
            let mut buf = self.layout.block_size.zeroed();
            self.dev.read_block(ind_lba, &mut buf)?;
            let first_ind = from_fblk.saturating_sub(DIRECT_PTRS as u64);
            let mut any_left = false;
            for idx in 0..bs / 4 {
                let at = idx as usize * 4;
                let ptr = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
                if ptr == 0 {
                    continue;
                }
                if idx >= first_ind {
                    bitmap.free(&*self.dev, (ptr - 1) as u64)?;
                    buf[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
                } else {
                    any_left = true;
                }
            }
            if any_left {
                self.dev.write_block(ind_lba, &buf)?;
            } else {
                bitmap.free(&*self.dev, (inode.indirect - 1) as u64)?;
                inode.indirect = 0;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Byte-granular file I/O on inodes
    // ------------------------------------------------------------------

    fn read_range(&self, inode: &Inode, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        let bs = self.layout.block_size.bytes() as u64;
        let mut pos = 0usize;
        let mut block = self.layout.block_size.zeroed();
        while pos < buf.len() {
            let at = offset + pos as u64;
            let fblk = at / bs;
            let in_block = (at % bs) as usize;
            let n = ((bs as usize) - in_block).min(buf.len() - pos);
            match self.block_of(inode, fblk)? {
                Some(lba) => {
                    self.dev.read_block(lba, &mut block)?;
                    buf[pos..pos + n].copy_from_slice(&block[in_block..in_block + n]);
                }
                None => buf[pos..pos + n].fill(0), // hole
            }
            pos += n;
        }
        Ok(())
    }

    fn write_range(&self, inode: &mut Inode, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let bs = self.layout.block_size.bytes() as u64;
        let end = offset + data.len() as u64;
        if end > self.layout.max_file_size() {
            return Err(FsError::FileTooLarge {
                size: end,
                max: self.layout.max_file_size(),
            });
        }
        let mut pos = 0usize;
        let mut block = self.layout.block_size.zeroed();
        while pos < data.len() {
            let at = offset + pos as u64;
            let fblk = at / bs;
            let in_block = (at % bs) as usize;
            let n = ((bs as usize) - in_block).min(data.len() - pos);
            let lba = self.ensure_block(inode, fblk)?;
            if n == bs as usize {
                self.dev.write_block(lba, &data[pos..pos + n])?;
            } else {
                self.dev.read_block(lba, &mut block)?;
                block[in_block..in_block + n].copy_from_slice(&data[pos..pos + n]);
                self.dev.write_block(lba, &block)?;
            }
            pos += n;
        }
        inode.size = inode.size.max(end);
        inode.mtime += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Directories
    // ------------------------------------------------------------------

    fn dir_entries(&self, dir: &Inode) -> Result<Vec<(InodeId, String)>, FsError> {
        let mut data = vec![0u8; dir.size as usize];
        self.read_range(dir, 0, &mut data)?;
        let mut out = Vec::new();
        for chunk in data.chunks_exact(DIRENT_SIZE) {
            let ino = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
            if ino == 0 {
                continue;
            }
            let len = chunk[4] as usize;
            let name =
                String::from_utf8(chunk[5..5 + len.min(NAME_MAX)].to_vec()).map_err(|_| {
                    FsError::Corrupt {
                        detail: "non-utf8 directory entry".into(),
                    }
                })?;
            out.push((ino, name));
        }
        Ok(out)
    }

    fn dir_find(&self, dir: &Inode, name: &str) -> Result<Option<InodeId>, FsError> {
        Ok(self
            .dir_entries(dir)?
            .into_iter()
            .find(|(_, n)| n == name)
            .map(|(ino, _)| ino))
    }

    fn dir_add(
        &self,
        dir_ino: InodeId,
        dir: &mut Inode,
        name: &str,
        ino: InodeId,
    ) -> Result<(), FsError> {
        if name.len() > NAME_MAX {
            return Err(FsError::NameTooLong { name: name.into() });
        }
        let mut entry = [0u8; DIRENT_SIZE];
        entry[0..4].copy_from_slice(&ino.to_le_bytes());
        entry[4] = name.len() as u8;
        entry[5..5 + name.len()].copy_from_slice(name.as_bytes());

        // Reuse a dead slot if one exists.
        let mut data = vec![0u8; dir.size as usize];
        self.read_range(dir, 0, &mut data)?;
        let slot = data
            .chunks_exact(DIRENT_SIZE)
            .position(|c| u32::from_le_bytes(c[0..4].try_into().unwrap()) == 0);
        let offset = match slot {
            Some(i) => (i * DIRENT_SIZE) as u64,
            None => dir.size,
        };
        self.write_range(dir, offset, &entry)?;
        self.write_inode(dir_ino, dir)?;
        Ok(())
    }

    fn dir_remove(
        &self,
        dir_ino: InodeId,
        dir: &mut Inode,
        name: &str,
    ) -> Result<InodeId, FsError> {
        let mut data = vec![0u8; dir.size as usize];
        self.read_range(dir, 0, &mut data)?;
        for (i, chunk) in data.chunks_exact(DIRENT_SIZE).enumerate() {
            let ino = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
            if ino == 0 {
                continue;
            }
            let len = chunk[4] as usize;
            if &chunk[5..5 + len.min(NAME_MAX)] == name.as_bytes() {
                self.write_range(dir, (i * DIRENT_SIZE) as u64, &[0u8; 4])?;
                self.write_inode(dir_ino, dir)?;
                return Ok(ino);
            }
        }
        Err(FsError::NotFound { path: name.into() })
    }

    // ------------------------------------------------------------------
    // Path resolution
    // ------------------------------------------------------------------

    fn split_path(path: &str) -> Result<Vec<&str>, FsError> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidPath { path: path.into() });
        }
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        Ok(parts)
    }

    fn resolve(&self, path: &str) -> Result<InodeId, FsError> {
        let parts = Self::split_path(path)?;
        let mut ino = ROOT_INODE;
        for part in parts {
            let inode = self.read_inode(ino)?;
            if inode.kind != KIND_DIR {
                return Err(FsError::NotADirectory { path: part.into() });
            }
            ino = self
                .dir_find(&inode, part)?
                .ok_or_else(|| FsError::NotFound { path: path.into() })?;
        }
        Ok(ino)
    }

    /// Resolves the parent directory of `path`, returning `(parent
    /// inode id, final component)`.
    fn resolve_parent<'p>(&self, path: &'p str) -> Result<(InodeId, &'p str), FsError> {
        let parts = Self::split_path(path)?;
        let Some((&name, dirs)) = parts.split_last() else {
            return Err(FsError::InvalidPath { path: path.into() });
        };
        let mut ino = ROOT_INODE;
        for part in dirs {
            let inode = self.read_inode(ino)?;
            if inode.kind != KIND_DIR {
                return Err(FsError::NotADirectory {
                    path: (*part).into(),
                });
            }
            ino = self
                .dir_find(&inode, part)?
                .ok_or_else(|| FsError::NotFound { path: path.into() })?;
        }
        Ok((ino, name))
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// `stat`-style metadata for `path`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] and device failures.
    pub fn metadata(&self, path: &str) -> Result<Metadata, FsError> {
        let inode = self.read_inode(self.resolve(path)?)?;
        Ok(Metadata {
            kind: if inode.kind == KIND_DIR {
                FileKind::Directory
            } else {
                FileKind::File
            },
            size: inode.size,
            mtime: inode.mtime,
        })
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`], [`FsError::NotFound`] for a missing
    /// parent, [`FsError::NoSpace`].
    pub fn create_dir(&self, path: &str) -> Result<(), FsError> {
        self.create_node(path, KIND_DIR).map(|_| ())
    }

    fn create_node(&self, path: &str, kind: u16) -> Result<InodeId, FsError> {
        let (parent_ino, name) = self.resolve_parent(path)?;
        let mut parent = self.read_inode(parent_ino)?;
        if parent.kind != KIND_DIR {
            return Err(FsError::NotADirectory { path: path.into() });
        }
        if self.dir_find(&parent, name)?.is_some() {
            return Err(FsError::AlreadyExists { path: path.into() });
        }
        let ino = Bitmap::inodes_of(&self.layout).allocate(&*self.dev)? as u32 + 1;
        self.write_inode(
            ino,
            &Inode {
                kind,
                links: 1,
                ..Inode::default()
            },
        )?;
        self.dir_add(parent_ino, &mut parent, name, ino)?;
        Ok(ino)
    }

    /// Lists the names in a directory, sorted.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] when `path` is a file.
    pub(crate) fn read_dir(&self, path: &str) -> Result<Vec<String>, FsError> {
        let inode = self.read_inode(self.resolve(path)?)?;
        if inode.kind != KIND_DIR {
            return Err(FsError::NotADirectory { path: path.into() });
        }
        let mut names: Vec<String> = self
            .dir_entries(&inode)?
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        names.sort();
        Ok(names)
    }

    /// Creates or replaces a file with `data`.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`], [`FsError::NoSpace`],
    /// [`FsError::FileTooLarge`].
    pub fn write_file(&self, path: &str, data: &[u8]) -> Result<(), FsError> {
        let ino = match self.resolve(path) {
            Ok(ino) => {
                let inode = self.read_inode(ino)?;
                if inode.kind == KIND_DIR {
                    return Err(FsError::IsADirectory { path: path.into() });
                }
                self.truncate_ino(ino, 0)?;
                ino
            }
            Err(FsError::NotFound { .. }) => self.create_node(path, KIND_FILE)?,
            Err(e) => return Err(e),
        };
        let mut inode = self.read_inode(ino)?;
        self.write_range(&mut inode, 0, data)?;
        self.write_inode(ino, &inode)
    }

    /// Writes `data` at `offset`, extending the file as needed (sparse
    /// holes read as zeros). The file must exist.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`],
    /// [`FsError::FileTooLarge`].
    pub fn write_at(&self, path: &str, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let ino = self.resolve(path)?;
        let mut inode = self.read_inode(ino)?;
        if inode.kind == KIND_DIR {
            return Err(FsError::IsADirectory { path: path.into() });
        }
        self.write_range(&mut inode, offset, data)?;
        self.write_inode(ino, &inode)
    }

    /// Appends `data` to an existing file.
    ///
    /// # Errors
    ///
    /// As [`write_at`](Self::write_at).
    pub fn append(&self, path: &str, data: &[u8]) -> Result<(), FsError> {
        let size = self.metadata(path)?.size;
        self.write_at(path, size, data)
    }

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`].
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, FsError> {
        let inode = self.read_inode(self.resolve(path)?)?;
        if inode.kind == KIND_DIR {
            return Err(FsError::IsADirectory { path: path.into() });
        }
        let mut data = vec![0u8; inode.size as usize];
        self.read_range(&inode, 0, &mut data)?;
        Ok(data)
    }

    fn truncate_ino(&self, ino: InodeId, size: u64) -> Result<(), FsError> {
        let bs = self.layout.block_size.bytes() as u64;
        let mut inode = self.read_inode(ino)?;
        if size < inode.size {
            self.free_file_blocks(&mut inode, size.div_ceil(bs))?;
        }
        inode.size = size;
        inode.mtime += 1;
        self.write_inode(ino, &inode)
    }

    /// Truncates (or extends with a hole) a file to `size`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`].
    pub fn truncate(&self, path: &str, size: u64) -> Result<(), FsError> {
        let ino = self.resolve(path)?;
        if self.read_inode(ino)?.kind == KIND_DIR {
            return Err(FsError::IsADirectory { path: path.into() });
        }
        self.truncate_ino(ino, size)
    }

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsADirectory`].
    pub fn unlink(&self, path: &str) -> Result<(), FsError> {
        let (parent_ino, name) = self.resolve_parent(path)?;
        let mut parent = self.read_inode(parent_ino)?;
        let ino = self
            .dir_find(&parent, name)?
            .ok_or_else(|| FsError::NotFound { path: path.into() })?;
        let mut inode = self.read_inode(ino)?;
        if inode.kind == KIND_DIR {
            return Err(FsError::IsADirectory { path: path.into() });
        }
        self.dir_remove(parent_ino, &mut parent, name)?;
        self.free_file_blocks(&mut inode, 0)?;
        self.write_inode(ino, &Inode::default())?;
        Bitmap::inodes_of(&self.layout).free(&*self.dev, (ino - 1) as u64)?;
        Ok(())
    }

    /// Renames/moves a file or directory to a new absolute path.
    ///
    /// The destination must not exist; its parent must be a directory.
    /// Moving a directory into its own subtree is rejected.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::AlreadyExists`],
    /// [`FsError::NotADirectory`], [`FsError::InvalidPath`].
    pub fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        let (from_parent, from_name) = self.resolve_parent(from)?;
        let ino = {
            let parent = self.read_inode(from_parent)?;
            self.dir_find(&parent, from_name)?
                .ok_or_else(|| FsError::NotFound { path: from.into() })?
        };
        if self.exists(to) {
            return Err(FsError::AlreadyExists { path: to.into() });
        }
        // Reject moving a directory under itself: "/a" -> "/a/b/c".
        let from_norm = from.trim_end_matches('/');
        if to.starts_with(&format!("{from_norm}/")) {
            return Err(FsError::InvalidPath { path: to.into() });
        }
        let (to_parent, to_name) = self.resolve_parent(to)?;
        if self.read_inode(to_parent)?.kind != KIND_DIR {
            return Err(FsError::NotADirectory { path: to.into() });
        }
        // Link at the destination first, then unlink the source entry;
        // a crash in between leaves an extra (harmless) link rather
        // than a lost file.
        let mut to_dir = self.read_inode(to_parent)?;
        self.dir_add(to_parent, &mut to_dir, to_name, ino)?;
        let mut from_dir = self.read_inode(from_parent)?;
        self.dir_remove(from_parent, &mut from_dir, from_name)?;
        Ok(())
    }

    /// Walks the tree depth-first, returning every path under `root`
    /// (directories included, `root` excluded), sorted.
    ///
    /// # Errors
    ///
    /// Propagates resolution failures.
    pub(crate) fn walk(&self, root: &str) -> Result<Vec<String>, FsError> {
        let mut out = Vec::new();
        let mut stack = vec![root.trim_end_matches('/').to_string()];
        while let Some(dir) = stack.pop() {
            let list_path = if dir.is_empty() { "/" } else { &dir };
            for name in self.read_dir(list_path)? {
                let child = format!("{dir}/{name}");
                match self.metadata(&child)?.kind {
                    FileKind::Directory => {
                        out.push(child.clone());
                        stack.push(child);
                    }
                    FileKind::File => out.push(child),
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

impl std::fmt::Debug for Fs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fs").field("layout", &self.layout).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, MemDevice};
    use rand::{RngExt, SeedableRng};

    /// Data blocks currently allocated.
    fn used_blocks(fs: &Fs) -> u64 {
        crate::alloc::tests::used(&Bitmap::blocks_of(&fs.layout), &*fs.dev)
    }

    fn fresh(blocks: u64) -> Fs {
        Fs::format(Arc::new(MemDevice::new(BlockSize::kb4(), blocks)), 256).unwrap()
    }

    #[test]
    fn root_starts_empty() {
        let fs = fresh(1024);
        assert!(fs.read_dir("/").unwrap().is_empty());
        assert!(fs.exists("/"));
        assert_eq!(fs.metadata("/").unwrap().kind, FileKind::Directory);
    }

    #[test]
    fn file_write_read_roundtrip() {
        let fs = fresh(1024);
        fs.write_file("/hello.txt", b"hi there").unwrap();
        assert_eq!(fs.read_file("/hello.txt").unwrap(), b"hi there");
        let md = fs.metadata("/hello.txt").unwrap();
        assert_eq!(md.size, 8);
        assert_eq!(md.kind, FileKind::File);
    }

    #[test]
    fn nested_directories() {
        let fs = fresh(1024);
        fs.create_dir("/a").unwrap();
        fs.create_dir("/a/b").unwrap();
        fs.create_dir("/a/b/c").unwrap();
        fs.write_file("/a/b/c/deep.txt", b"deep").unwrap();
        assert_eq!(fs.read_file("/a/b/c/deep.txt").unwrap(), b"deep");
        assert_eq!(fs.read_dir("/a").unwrap(), vec!["b"]);
        assert!(matches!(
            fs.create_dir("/a/b"),
            Err(FsError::AlreadyExists { .. })
        ));
        assert!(matches!(
            fs.write_file("/missing/f", b"x"),
            Err(FsError::NotFound { .. })
        ));
    }

    #[test]
    fn large_file_uses_indirect_blocks() {
        let fs = fresh(4096);
        // > 12 * 4096 bytes forces the indirect path.
        let data: Vec<u8> = (0..80_000usize).map(|i| (i % 251) as u8).collect();
        fs.write_file("/big.bin", &data).unwrap();
        assert_eq!(fs.read_file("/big.bin").unwrap(), data);
    }

    #[test]
    fn file_too_large_is_rejected() {
        let fs = fresh(8192);
        let max = fs.layout().max_file_size();
        assert!(matches!(
            fs.write_at("/nope", 0, b"x"),
            Err(FsError::NotFound { .. })
        ));
        fs.write_file("/f", b"x").unwrap();
        assert!(matches!(
            fs.write_at("/f", max, b"x"),
            Err(FsError::FileTooLarge { .. })
        ));
    }

    #[test]
    fn partial_overwrite_touches_middle_of_file() {
        let fs = fresh(1024);
        fs.write_file("/f", &vec![1u8; 10_000]).unwrap();
        fs.write_at("/f", 5000, &[9u8; 100]).unwrap();
        let data = fs.read_file("/f").unwrap();
        assert_eq!(data.len(), 10_000);
        assert!(data[..5000].iter().all(|&b| b == 1));
        assert!(data[5000..5100].iter().all(|&b| b == 9));
        assert!(data[5100..].iter().all(|&b| b == 1));
    }

    #[test]
    fn sparse_holes_read_as_zero() {
        let fs = fresh(1024);
        fs.write_file("/s", b"").unwrap();
        fs.write_at("/s", 20_000, b"end").unwrap();
        let data = fs.read_file("/s").unwrap();
        assert_eq!(data.len(), 20_003);
        assert!(data[..20_000].iter().all(|&b| b == 0));
        assert_eq!(&data[20_000..], b"end");
    }

    #[test]
    fn append_grows_file() {
        let fs = fresh(1024);
        fs.write_file("/log", b"one\n").unwrap();
        fs.append("/log", b"two\n").unwrap();
        assert_eq!(fs.read_file("/log").unwrap(), b"one\ntwo\n");
    }

    #[test]
    fn unlink_frees_blocks() {
        let fs = fresh(1024);
        // Baseline includes the root directory's entry block, which
        // stays allocated after the unlink (as in ext2).
        fs.write_file("/warmup", b"x").unwrap();
        fs.unlink("/warmup").unwrap();
        let before = used_blocks(&fs);
        fs.write_file("/victim", &vec![7u8; 100_000]).unwrap();
        assert!(used_blocks(&fs) > before);
        fs.unlink("/victim").unwrap();
        assert_eq!(used_blocks(&fs), before);
        assert!(!fs.exists("/victim"));
        assert!(matches!(
            fs.unlink("/victim"),
            Err(FsError::NotFound { .. })
        ));
    }

    #[test]
    fn truncate_shrinks_and_frees() {
        let fs = fresh(1024);
        fs.write_file("/t", &vec![5u8; 50_000]).unwrap();
        let used_full = used_blocks(&fs);
        fs.truncate("/t", 100).unwrap();
        assert!(used_blocks(&fs) < used_full);
        let data = fs.read_file("/t").unwrap();
        assert_eq!(data.len(), 100);
        assert!(data.iter().all(|&b| b == 5));
    }

    #[test]
    fn mount_sees_previous_contents() {
        let dev = Arc::new(MemDevice::new(BlockSize::kb4(), 1024));
        {
            let fs = Fs::format(Arc::clone(&dev) as Arc<dyn BlockDevice>, 128).unwrap();
            fs.create_dir("/persist").unwrap();
            fs.write_file("/persist/data", b"still here").unwrap();
        }
        let fs = Fs::mount(dev).unwrap();
        assert_eq!(fs.read_file("/persist/data").unwrap(), b"still here");
    }

    #[test]
    fn mount_rejects_unformatted_device() {
        let dev = Arc::new(MemDevice::new(BlockSize::kb4(), 1024));
        assert!(matches!(Fs::mount(dev), Err(FsError::Corrupt { .. })));
    }

    #[test]
    fn rename_moves_files_and_directories() {
        let fs = fresh(1024);
        fs.create_dir("/src").unwrap();
        fs.write_file("/src/f.txt", b"payload").unwrap();
        fs.create_dir("/dst").unwrap();

        fs.rename("/src/f.txt", "/dst/renamed.txt").unwrap();
        assert!(!fs.exists("/src/f.txt"));
        assert_eq!(fs.read_file("/dst/renamed.txt").unwrap(), b"payload");

        // Directory move carries its contents.
        fs.rename("/src", "/dst/srcdir").unwrap();
        assert!(fs.exists("/dst/srcdir"));
        assert!(!fs.exists("/src"));

        // Collision and cycle rejection.
        fs.write_file("/other", b"x").unwrap();
        assert!(matches!(
            fs.rename("/other", "/dst/renamed.txt"),
            Err(FsError::AlreadyExists { .. })
        ));
        assert!(matches!(
            fs.rename("/dst", "/dst/srcdir/inside"),
            Err(FsError::InvalidPath { .. })
        ));
        assert!(matches!(
            fs.rename("/missing", "/elsewhere"),
            Err(FsError::NotFound { .. })
        ));
        // The filesystem is still consistent after all of it.
        assert!(fs.check().unwrap().is_clean());
    }

    #[test]
    fn walk_lists_the_tree() {
        let fs = fresh(1024);
        fs.create_dir("/a").unwrap();
        fs.create_dir("/a/sub").unwrap();
        fs.write_file("/a/f1", b"1").unwrap();
        fs.write_file("/a/sub/f2", b"2").unwrap();
        fs.write_file("/top", b"t").unwrap();
        assert_eq!(
            fs.walk("/").unwrap(),
            vec!["/a", "/a/f1", "/a/sub", "/a/sub/f2", "/top"]
        );
        assert_eq!(fs.walk("/a/sub").unwrap(), vec!["/a/sub/f2"]);
    }

    #[test]
    fn relative_paths_are_rejected() {
        let fs = fresh(1024);
        assert!(matches!(
            fs.write_file("no-slash", b"x"),
            Err(FsError::InvalidPath { .. })
        ));
    }

    #[test]
    fn many_files_random_ops_stay_consistent() {
        let fs = fresh(8192);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut model: std::collections::HashMap<String, Vec<u8>> = Default::default();
        fs.create_dir("/w").unwrap();
        for step in 0..300 {
            let name = format!("/w/f{}", rng.random_range(0..30));
            match rng.random_range(0..4u8) {
                0 => {
                    let mut data = vec![0u8; rng.random_range(1..20_000)];
                    rng.fill_bytes(&mut data);
                    fs.write_file(&name, &data).unwrap();
                    model.insert(name, data);
                }
                1 => {
                    if let Some(content) = model.get_mut(&name) {
                        let at = rng.random_range(0..content.len()) as u64;
                        let mut patch = vec![0u8; rng.random_range(1..200)];
                        rng.fill_bytes(&mut patch);
                        fs.write_at(&name, at, &patch).unwrap();
                        let end = at as usize + patch.len();
                        if end > content.len() {
                            content.resize(end, 0);
                        }
                        content[at as usize..end].copy_from_slice(&patch);
                    }
                }
                2 => {
                    if model.remove(&name).is_some() {
                        fs.unlink(&name).unwrap();
                    }
                }
                _ => {
                    if let Some(content) = model.get(&name) {
                        assert_eq!(&fs.read_file(&name).unwrap(), content, "step {step}");
                    } else {
                        assert!(!fs.exists(&name));
                    }
                }
            }
        }
        for (name, content) in &model {
            assert_eq!(&fs.read_file(name).unwrap(), content);
        }
    }
}
