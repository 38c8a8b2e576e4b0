//! In-memory virtual filesystem.
//!
//! Overhaul mediates sensitive hardware "by monitoring `open` system call
//! invocations on device nodes exposed in the filesystem" (§IV-B). This VFS
//! provides those device nodes (plus regular files, directories, and FIFOs)
//! and the classic UNIX owner/other permission bits that Overhaul layers on
//! top of. The filesystem micro-benchmark (Table I, "Bonnie++") creates,
//! stats, and deletes files here.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use overhaul_sim::Uid;

use crate::device::DeviceId;
use crate::error::{Errno, SysResult};
use crate::ipc::pipe::PipeId;

/// Identifier of a VFS inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InodeId(u64);

impl InodeId {
    /// Creates an `InodeId` from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        InodeId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for InodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ino:{}", self.0)
    }
}

/// What an inode is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InodeKind {
    /// A directory mapping names to child inodes.
    Directory {
        /// Directory entries in name order.
        entries: BTreeMap<String, InodeId>,
    },
    /// A regular file with byte contents.
    Regular {
        /// File contents.
        data: Vec<u8>,
    },
    /// A device node pointing at a registered device.
    DeviceNode {
        /// The device behind this node.
        device: DeviceId,
    },
    /// A named pipe; the backing pipe object is allocated at `mkfifo` time.
    Fifo {
        /// Backing pipe object.
        pipe: PipeId,
    },
}

/// Metadata + contents of one filesystem object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    id: InodeId,
    kind: InodeKind,
    owner: Uid,
    /// Classic permission bits; only the rw bits for owner (0o600) and
    /// other (0o006) are enforced.
    mode: u16,
}

impl Inode {
    /// Inode id.
    pub fn id(&self) -> InodeId {
        self.id
    }

    /// Inode kind and contents.
    pub fn kind(&self) -> &InodeKind {
        &self.kind
    }

    /// Owning user.
    pub fn owner(&self) -> Uid {
        self.owner
    }

    /// Permission bits.
    pub fn mode(&self) -> u16 {
        self.mode
    }

    /// Whether `uid` may open this inode; `write` selects the write bit.
    /// Root bypasses permission bits, as in UNIX.
    pub fn permits(&self, uid: Uid, write: bool) -> bool {
        if uid.is_root() {
            return true;
        }
        let (owner_bit, other_bit) = if write {
            (0o200, 0o002)
        } else {
            (0o400, 0o004)
        };
        if uid == self.owner {
            self.mode & owner_bit != 0
        } else {
            self.mode & other_bit != 0
        }
    }
}

/// Result of `stat(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub inode: InodeId,
    /// Owner.
    pub owner: Uid,
    /// Permission bits.
    pub mode: u16,
    /// Size in bytes (0 for non-regular files).
    pub size: usize,
    /// True for directories.
    pub is_dir: bool,
    /// True for device nodes.
    pub is_device: bool,
}

/// The in-memory filesystem tree.
#[derive(Debug, Clone)]
pub struct Vfs {
    inodes: HashMap<InodeId, Inode>,
    root: InodeId,
    next: u64,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

fn split_path(path: &str) -> SysResult<Vec<&str>> {
    if !path.starts_with('/') {
        return Err(Errno::Einval);
    }
    Ok(path.split('/').filter(|c| !c.is_empty()).collect())
}

fn split_parent(path: &str) -> SysResult<(Vec<&str>, &str)> {
    let mut components = split_path(path)?;
    let name = components.pop().ok_or(Errno::Einval)?;
    Ok((components, name))
}

impl Vfs {
    /// Creates a filesystem with a root directory owned by root and the
    /// conventional `/dev`, `/tmp`, `/usr/bin`, `/usr/lib/xorg`, and
    /// `/home` directories.
    pub fn new() -> Self {
        let root_id = InodeId(1);
        let mut vfs = Vfs {
            inodes: HashMap::new(),
            root: root_id,
            next: 2,
        };
        vfs.inodes.insert(
            root_id,
            Inode {
                id: root_id,
                kind: InodeKind::Directory {
                    entries: BTreeMap::new(),
                },
                owner: Uid::ROOT,
                mode: 0o755,
            },
        );
        for dir in [
            "/dev",
            "/tmp",
            "/usr",
            "/usr/bin",
            "/usr/lib",
            "/usr/lib/xorg",
            "/home",
            "/proc",
        ] {
            vfs.mkdir(dir, Uid::ROOT, 0o755).expect("bootstrap dirs");
        }
        vfs
    }

    fn alloc(&mut self, kind: InodeKind, owner: Uid, mode: u16) -> InodeId {
        let id = InodeId(self.next);
        self.next += 1;
        self.inodes.insert(
            id,
            Inode {
                id,
                kind,
                owner,
                mode,
            },
        );
        id
    }

    fn resolve_components(&self, components: &[&str]) -> SysResult<InodeId> {
        let mut cursor = self.root;
        for component in components {
            let inode = self.inodes.get(&cursor).ok_or(Errno::Enoent)?;
            match &inode.kind {
                InodeKind::Directory { entries } => {
                    cursor = *entries.get(*component).ok_or(Errno::Enoent)?;
                }
                _ => return Err(Errno::Enotdir),
            }
        }
        Ok(cursor)
    }

    /// Resolves an absolute path to an inode id.
    ///
    /// # Errors
    ///
    /// [`Errno::Einval`] for relative paths, [`Errno::Enoent`] for missing
    /// components, [`Errno::Enotdir`] when traversing a non-directory.
    pub fn resolve(&self, path: &str) -> SysResult<InodeId> {
        self.resolve_components(&split_path(path)?)
    }

    /// Looks up an inode by id.
    pub fn inode(&self, id: InodeId) -> SysResult<&Inode> {
        self.inodes.get(&id).ok_or(Errno::Enoent)
    }

    /// The directory that would hold `name`, when the name is free there.
    fn free_slot(&self, parent_components: &[&str], name: &str) -> SysResult<InodeId> {
        let parent_id = self.resolve_components(parent_components)?;
        match &self.inode(parent_id)?.kind {
            InodeKind::Directory { entries } if entries.contains_key(name) => Err(Errno::Eexist),
            InodeKind::Directory { .. } => Ok(parent_id),
            _ => Err(Errno::Enotdir),
        }
    }

    /// Links `child` into directory `parent_id` as `name` (a slot
    /// [`Vfs::free_slot`] returned).
    fn link(&mut self, parent_id: InodeId, name: &str, child: InodeId) {
        if let Some(InodeKind::Directory { entries }) =
            self.inodes.get_mut(&parent_id).map(|inode| &mut inode.kind)
        {
            entries.insert(name.to_string(), child);
        }
    }

    /// The one create path: the slot is checked before anything is
    /// allocated (`kind` included), so a refused create changes nothing.
    fn create(
        &mut self,
        path: &str,
        owner: Uid,
        mode: u16,
        kind: impl FnOnce() -> InodeKind,
    ) -> SysResult<InodeId> {
        let (parent, name) = split_parent(path)?;
        let parent_id = self.free_slot(&parent, name)?;
        let id = self.alloc(kind(), owner, mode);
        self.link(parent_id, name, id);
        Ok(id)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str, owner: Uid, mode: u16) -> SysResult<InodeId> {
        self.create(path, owner, mode, || InodeKind::Directory {
            entries: BTreeMap::new(),
        })
    }

    /// Creates an empty regular file.
    pub fn create_file(&mut self, path: &str, owner: Uid, mode: u16) -> SysResult<InodeId> {
        self.create(path, owner, mode, || InodeKind::Regular {
            data: Vec::new(),
        })
    }

    /// Creates a device node (root-owned by convention, like udev does).
    pub fn mknod_device(&mut self, path: &str, device: DeviceId, mode: u16) -> SysResult<InodeId> {
        self.create(path, Uid::ROOT, mode, || InodeKind::DeviceNode { device })
    }

    /// Creates a named pipe backed by the pipe `pipe` allocates, which it
    /// is called for only once the path is free.
    pub fn mkfifo(
        &mut self,
        path: &str,
        pipe: impl FnOnce() -> PipeId,
        owner: Uid,
        mode: u16,
    ) -> SysResult<InodeId> {
        self.create(path, owner, mode, || InodeKind::Fifo { pipe: pipe() })
    }

    /// Removes a file, device node, or FIFO (not a directory).
    pub fn unlink(&mut self, path: &str) -> SysResult<()> {
        let (parent, name) = split_parent(path)?;
        let parent_id = self.resolve_components(&parent)?;
        let child_id = {
            let parent_inode = self.inodes.get(&parent_id).ok_or(Errno::Enoent)?;
            match &parent_inode.kind {
                InodeKind::Directory { entries } => *entries.get(name).ok_or(Errno::Enoent)?,
                _ => return Err(Errno::Enotdir),
            }
        };
        if matches!(self.inode(child_id)?.kind, InodeKind::Directory { .. }) {
            return Err(Errno::Eisdir);
        }
        if let InodeKind::Directory { entries } =
            &mut self.inodes.get_mut(&parent_id).expect("checked").kind
        {
            entries.remove(name);
        }
        self.inodes.remove(&child_id);
        Ok(())
    }

    /// Renames an entry within the tree (used by the udev simulation for
    /// dynamic device names).
    pub fn rename(&mut self, from: &str, to: &str) -> SysResult<()> {
        let id = self.resolve(from)?;
        let (to_parent, to_name) = split_parent(to)?;
        // Link at the destination first so a failure leaves the source intact.
        let to_parent_id = self.free_slot(&to_parent, to_name)?;
        self.link(to_parent_id, to_name, id);
        let (from_parent, from_name) = split_parent(from).expect("resolved above");
        let from_parent_id = self
            .resolve_components(&from_parent)
            .expect("resolved above");
        if let InodeKind::Directory { entries } = &mut self
            .inodes
            .get_mut(&from_parent_id)
            .expect("resolved above")
            .kind
        {
            entries.remove(from_name);
        }
        Ok(())
    }

    /// `stat(2)`.
    pub fn stat(&self, path: &str) -> SysResult<Stat> {
        let inode = self.inode(self.resolve(path)?)?;
        Ok(Stat {
            inode: inode.id,
            owner: inode.owner,
            mode: inode.mode,
            size: match &inode.kind {
                InodeKind::Regular { data } => data.len(),
                _ => 0,
            },
            is_dir: matches!(inode.kind, InodeKind::Directory { .. }),
            is_device: matches!(inode.kind, InodeKind::DeviceNode { .. }),
        })
    }

    /// Appends bytes to a regular file.
    pub fn append(&mut self, id: InodeId, bytes: &[u8]) -> SysResult<usize> {
        let inode = self.inodes.get_mut(&id).ok_or(Errno::Enoent)?;
        match &mut inode.kind {
            InodeKind::Regular { data } => {
                data.extend_from_slice(bytes);
                Ok(bytes.len())
            }
            InodeKind::Directory { .. } => Err(Errno::Eisdir),
            _ => Err(Errno::Einval),
        }
    }

    /// Reads the full contents of a regular file.
    pub fn read_all(&self, id: InodeId) -> SysResult<&[u8]> {
        let inode = self.inode(id)?;
        match &inode.kind {
            InodeKind::Regular { data } => Ok(data),
            InodeKind::Directory { .. } => Err(Errno::Eisdir),
            _ => Err(Errno::Einval),
        }
    }

    /// Number of inodes currently allocated.
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }
}

mod pack {
    //! Snapshot codec for the filesystem tree.

    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
    use overhaul_sim::{impl_pack, impl_pack_newtype};

    use super::{HashMap, Inode, InodeId, InodeKind, Vfs};

    impl_pack_newtype!(InodeId, u64);

    impl Pack for InodeKind {
        fn pack(&self, enc: &mut Enc) {
            match self {
                InodeKind::Directory { entries } => {
                    enc.put_u8(0);
                    entries.pack(enc);
                }
                InodeKind::Regular { data } => {
                    enc.put_u8(1);
                    data.pack(enc);
                }
                InodeKind::DeviceNode { device } => {
                    enc.put_u8(2);
                    device.pack(enc);
                }
                InodeKind::Fifo { pipe } => {
                    enc.put_u8(3);
                    pipe.pack(enc);
                }
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => InodeKind::Directory {
                    entries: Pack::unpack(dec)?,
                },
                1 => InodeKind::Regular {
                    data: Pack::unpack(dec)?,
                },
                2 => InodeKind::DeviceNode {
                    device: Pack::unpack(dec)?,
                },
                3 => InodeKind::Fifo {
                    pipe: Pack::unpack(dec)?,
                },
                _ => return Err(SnapshotError::BadValue("inode kind")),
            })
        }
    }

    impl_pack!(Inode {
        id,
        kind,
        owner,
        mode
    });
    // Hand-written (not `impl_pack!`): each inode also stores its own id,
    // so decode rejects an inode filed under another key rather than
    // restoring a tree that re-encodes differently.
    impl Pack for Vfs {
        fn pack(&self, enc: &mut Enc) {
            self.inodes.pack(enc);
            self.root.pack(enc);
            self.next.pack(enc);
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            let inodes: HashMap<InodeId, Inode> = Pack::unpack(dec)?;
            if inodes.iter().any(|(key, inode)| *key != inode.id) {
                return Err(SnapshotError::BadValue("inode key and id differ"));
            }
            Ok(Vfs {
                inodes,
                root: Pack::unpack(dec)?,
                next: Pack::unpack(dec)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_directories_exist() {
        let vfs = Vfs::new();
        for dir in ["/dev", "/tmp", "/usr/bin", "/usr/lib/xorg", "/proc"] {
            assert!(vfs.stat(dir).unwrap().is_dir, "{dir} missing");
        }
    }

    #[test]
    fn create_write_read_file() {
        let mut vfs = Vfs::new();
        let id = vfs
            .create_file("/tmp/a.txt", Uid::from_raw(1000), 0o644)
            .unwrap();
        vfs.append(id, b"hello").unwrap();
        assert_eq!(vfs.read_all(id).unwrap(), b"hello");
        assert_eq!(vfs.stat("/tmp/a.txt").unwrap().size, 5);
    }

    #[test]
    fn duplicate_create_fails_with_eexist() {
        let mut vfs = Vfs::new();
        vfs.create_file("/tmp/a", Uid::ROOT, 0o644).unwrap();
        assert_eq!(
            vfs.create_file("/tmp/a", Uid::ROOT, 0o644),
            Err(Errno::Eexist)
        );
    }

    #[test]
    fn failed_create_does_not_leak_inodes() {
        let mut vfs = Vfs::new();
        let before = vfs.inode_count();
        vfs.create_file("/tmp/a", Uid::ROOT, 0o644).unwrap();
        let _ = vfs.create_file("/tmp/a", Uid::ROOT, 0o644);
        assert_eq!(vfs.inode_count(), before + 1);
    }

    #[test]
    fn relative_paths_rejected() {
        let vfs = Vfs::new();
        assert_eq!(vfs.resolve("tmp/a"), Err(Errno::Einval));
    }

    #[test]
    fn missing_path_is_enoent() {
        let vfs = Vfs::new();
        assert_eq!(vfs.resolve("/tmp/missing"), Err(Errno::Enoent));
    }

    #[test]
    fn traversing_file_is_enotdir() {
        let mut vfs = Vfs::new();
        vfs.create_file("/tmp/f", Uid::ROOT, 0o644).unwrap();
        assert_eq!(vfs.resolve("/tmp/f/x"), Err(Errno::Enotdir));
    }

    #[test]
    fn unlink_removes_file_but_not_dirs() {
        let mut vfs = Vfs::new();
        vfs.create_file("/tmp/f", Uid::ROOT, 0o644).unwrap();
        vfs.unlink("/tmp/f").unwrap();
        assert_eq!(vfs.resolve("/tmp/f"), Err(Errno::Enoent));
        assert_eq!(vfs.unlink("/tmp"), Err(Errno::Eisdir));
    }

    #[test]
    fn rename_moves_device_nodes_like_udev() {
        let mut vfs = Vfs::new();
        vfs.mknod_device("/dev/video0", DeviceId::from_raw(1), 0o660)
            .unwrap();
        vfs.rename("/dev/video0", "/dev/video1").unwrap();
        assert!(vfs.stat("/dev/video1").unwrap().is_device);
        assert_eq!(vfs.resolve("/dev/video0"), Err(Errno::Enoent));
    }

    #[test]
    fn rename_to_existing_name_fails_and_preserves_source() {
        let mut vfs = Vfs::new();
        vfs.create_file("/tmp/a", Uid::ROOT, 0o644).unwrap();
        vfs.create_file("/tmp/b", Uid::ROOT, 0o644).unwrap();
        assert_eq!(vfs.rename("/tmp/a", "/tmp/b"), Err(Errno::Eexist));
        assert!(vfs.resolve("/tmp/a").is_ok());
    }

    #[test]
    fn permission_bits_enforced_for_non_root() {
        let mut vfs = Vfs::new();
        let owner = Uid::from_raw(1000);
        let other = Uid::from_raw(1001);
        let id = vfs.create_file("/tmp/secret", owner, 0o600).unwrap();
        let inode = vfs.inode(id).unwrap();
        assert!(inode.permits(owner, true));
        assert!(!inode.permits(other, false));
        assert!(inode.permits(Uid::ROOT, true), "root bypasses bits");
    }

    #[test]
    fn world_readable_mode() {
        let mut vfs = Vfs::new();
        let id = vfs.create_file("/tmp/pub", Uid::ROOT, 0o644).unwrap();
        let inode = vfs.inode(id).unwrap();
        assert!(inode.permits(Uid::from_raw(5), false));
        assert!(!inode.permits(Uid::from_raw(5), true));
    }

    #[test]
    fn decode_rejects_an_inode_filed_under_another_key() {
        use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};

        let mut vfs = Vfs::new();
        vfs.create_file("/tmp/a", Uid::ROOT, 0o644).unwrap();
        let mut enc = Enc::new();
        vfs.pack(&mut enc);
        let good = enc.into_bytes();
        assert!(Vfs::unpack(&mut Dec::new(&good)).is_ok());

        // Re-file the last inode under the next free key: the keys stay
        // ascending, only the key/id pairing breaks.
        let last = vfs.inodes.keys().max().copied().unwrap();
        let mut inodes = vfs.inodes.clone();
        let inode = inodes.remove(&last).unwrap();
        inodes.insert(InodeId(vfs.next), inode);
        let mut enc = Enc::new();
        inodes.pack(&mut enc);
        vfs.root.pack(&mut enc);
        (vfs.next + 1).pack(&mut enc);
        let bad = enc.into_bytes();
        assert_eq!(
            Vfs::unpack(&mut Dec::new(&bad)).map(|_| ()),
            Err(SnapshotError::BadValue("inode key and id differ"))
        );
    }

    #[test]
    fn mkfifo_creates_pipe_node() {
        let mut vfs = Vfs::new();
        let id = vfs
            .mkfifo("/tmp/fifo", || PipeId::from_raw(7), Uid::ROOT, 0o644)
            .unwrap();
        match vfs.inode(id).unwrap().kind() {
            InodeKind::Fifo { pipe } => assert_eq!(*pipe, PipeId::from_raw(7)),
            other => panic!("expected fifo, got {other:?}"),
        }
    }
}
