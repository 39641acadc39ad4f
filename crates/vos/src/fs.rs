use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buf::Buf;
use crate::error::{Errno, OsResult};

/// How a file is opened. Mirrors the subset of `open(2)` flags the FTP
/// server in the evaluation needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpenMode {
    /// Existing file, read-only.
    Read,
    /// Create if missing, truncate if present, write-only.
    Write,
    /// Create if missing, position at end, write-only.
    Append,
    /// Create a new file; fail with `Exist` if the path is taken.
    /// (This is what `STOU` uses to guarantee uniqueness.)
    CreateNew,
}

impl OpenMode {
    /// True for modes that permit `write`.
    pub fn writable(self) -> bool {
        !matches!(self, OpenMode::Read)
    }
}

/// What kind of node a path names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    File,
    Dir,
}

/// Metadata returned by [`MemFs::stat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FileStat {
    pub kind: NodeKind,
    pub size: u64,
}

/// One file's bytes, held in exactly one of two shapes: growable while
/// it is being written, frozen into an immutable [`Buf`] once it is read.
///
/// Reads hand out O(1) windows of the frozen snapshot, so a server that
/// streams a file to a socket sends the file's own allocation. The first
/// write after a read thaws the snapshot into a fresh vector (one copy);
/// windows handed out earlier keep the old bytes, because a `Buf` is
/// never mutated. Each switch between the shapes costs one copy, so a
/// file written once and then read many times is copied once.
///
/// `pub` only because [`MemFs::open`] returns it; the crate does not
/// export it.
#[derive(Debug)]
pub enum Contents {
    Growable(Vec<u8>),
    Frozen(Buf),
}

impl Default for Contents {
    fn default() -> Self {
        Contents::Growable(Vec::new())
    }
}

impl Contents {
    /// Current size in bytes.
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// The current bytes, in whichever shape they are held.
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Contents::Growable(v) => v,
            Contents::Frozen(b) => b,
        }
    }

    /// The whole file as an immutable buffer, freezing it if needed.
    pub(crate) fn snapshot(&mut self) -> Buf {
        if let Contents::Growable(v) = self {
            *self = Contents::Frozen(Buf::from_vec(std::mem::take(v)));
        }
        match self {
            Contents::Frozen(b) => b.clone(),
            Contents::Growable(_) => unreachable!("frozen above"),
        }
    }

    /// The bytes for mutation, thawing a frozen snapshot into a copy.
    pub(crate) fn bytes_mut(&mut self) -> &mut Vec<u8> {
        if let Contents::Frozen(b) = self {
            *self = Contents::Growable(b.to_vec());
        }
        match self {
            Contents::Growable(v) => v,
            Contents::Frozen(_) => unreachable!("thawed above"),
        }
    }

    /// Empties the file without copying the old bytes.
    pub(crate) fn truncate(&mut self) {
        *self = Contents::default();
    }
}

/// Shared file contents; open handles keep the bytes alive even if the
/// path is unlinked (POSIX semantics, which Vsftpd relies on).
pub(crate) type FileData = Arc<Mutex<Contents>>;

#[derive(Debug)]
enum Node {
    Dir(BTreeMap<String, Node>),
    File(FileData),
}

/// An in-memory filesystem with POSIX-flavoured semantics.
///
/// Thread-safe; all operations take `&self`. Paths are `/`-separated and
/// resolved from the root — there is no per-process working directory
/// (the FTP server tracks its own).
#[derive(Debug)]
pub struct MemFs {
    root: Mutex<BTreeMap<String, Node>>,
}

fn split_path(path: &str) -> OsResult<Vec<&str>> {
    let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
    for p in &parts {
        if *p == "." || *p == ".." {
            return Err(Errno::Inval);
        }
    }
    Ok(parts)
}

impl MemFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        MemFs {
            root: Mutex::new(BTreeMap::new()),
        }
    }

    fn with_parent<T>(
        &self,
        path: &str,
        f: impl FnOnce(&mut BTreeMap<String, Node>, &str) -> OsResult<T>,
    ) -> OsResult<T> {
        let parts = split_path(path)?;
        let (name, dirs) = parts.split_last().ok_or(Errno::Inval)?;
        let mut root = self.root.lock();
        let mut cur = &mut *root;
        for d in dirs {
            match cur.get_mut(*d) {
                Some(Node::Dir(entries)) => cur = entries,
                Some(Node::File(_)) => return Err(Errno::NotDir),
                None => return Err(Errno::NoEnt),
            }
        }
        f(cur, name)
    }

    /// Creates a directory. Parents must already exist.
    ///
    /// # Errors
    /// `Exist` if the path is taken, `NoEnt` if a parent is missing.
    pub fn mkdir(&self, path: &str) -> OsResult<()> {
        self.with_parent(path, |dir, name| {
            if dir.contains_key(name) {
                return Err(Errno::Exist);
            }
            dir.insert(name.to_string(), Node::Dir(BTreeMap::new()));
            Ok(())
        })
    }

    /// Opens a file per `mode`, returning its shared contents and the
    /// initial handle offset.
    ///
    /// # Errors
    /// `NoEnt` for missing files in `Read` mode, `Exist` for `CreateNew`
    /// on a taken path, `IsDir` if the path names a directory.
    pub fn open(&self, path: &str, mode: OpenMode) -> OsResult<(FileData, usize)> {
        self.with_parent(path, |dir, name| match (dir.get(name), mode) {
            (Some(Node::Dir(_)), _) => Err(Errno::IsDir),
            (Some(Node::File(_)), OpenMode::CreateNew) => Err(Errno::Exist),
            (Some(Node::File(data)), OpenMode::Read) => Ok((data.clone(), 0)),
            (Some(Node::File(data)), OpenMode::Write) => {
                data.lock().truncate();
                Ok((data.clone(), 0))
            }
            (Some(Node::File(data)), OpenMode::Append) => {
                let len = data.lock().len();
                Ok((data.clone(), len))
            }
            (None, OpenMode::Read) => Err(Errno::NoEnt),
            (None, _) => {
                let data = FileData::default();
                dir.insert(name.to_string(), Node::File(data.clone()));
                Ok((data, 0))
            }
        })
    }

    /// Removes a file. Directories must be removed with [`MemFs::rmdir`].
    pub fn unlink(&self, path: &str) -> OsResult<()> {
        self.with_parent(path, |dir, name| match dir.get(name) {
            Some(Node::File(_)) => {
                dir.remove(name);
                Ok(())
            }
            Some(Node::Dir(_)) => Err(Errno::IsDir),
            None => Err(Errno::NoEnt),
        })
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, path: &str) -> OsResult<()> {
        self.with_parent(path, |dir, name| match dir.get(name) {
            Some(Node::Dir(entries)) if entries.is_empty() => {
                dir.remove(name);
                Ok(())
            }
            Some(Node::Dir(_)) => Err(Errno::NotDir),
            Some(Node::File(_)) => Err(Errno::NotDir),
            None => Err(Errno::NoEnt),
        })
    }

    /// Renames `from` to `to` (both full paths; `to`'s parent must exist).
    pub fn rename(&self, from: &str, to: &str) -> OsResult<()> {
        let node = self.with_parent(from, |dir, name| dir.remove(name).ok_or(Errno::NoEnt))?;
        let put_back = |node: Node| {
            // Restore on failure so rename is atomic from the caller's view.
            let _ = self.with_parent(from, move |dir, name| {
                dir.insert(name.to_string(), node);
                Ok(())
            });
        };
        match self.with_parent(to, |dir, name| {
            if dir.contains_key(name) {
                return Err(Errno::Exist);
            }
            Ok(name.to_string())
        }) {
            Ok(_) => self.with_parent(to, move |dir, name| {
                dir.insert(name.to_string(), node);
                Ok(())
            }),
            Err(e) => {
                put_back(node);
                Err(e)
            }
        }
    }

    /// Returns metadata for `path`.
    pub fn stat(&self, path: &str) -> OsResult<FileStat> {
        if split_path(path)?.is_empty() {
            return Ok(FileStat {
                kind: NodeKind::Dir,
                size: 0,
            });
        }
        self.with_parent(path, |dir, name| match dir.get(name) {
            Some(Node::Dir(_)) => Ok(FileStat {
                kind: NodeKind::Dir,
                size: 0,
            }),
            Some(Node::File(data)) => Ok(FileStat {
                kind: NodeKind::File,
                size: data.lock().len() as u64,
            }),
            None => Err(Errno::NoEnt),
        })
    }

    /// Lists the entry names of a directory, sorted.
    pub fn list(&self, path: &str) -> OsResult<Vec<String>> {
        let parts = split_path(path)?;
        let root = self.root.lock();
        let mut cur = &*root;
        for d in &parts {
            match cur.get(*d) {
                Some(Node::Dir(entries)) => cur = entries,
                Some(Node::File(_)) => return Err(Errno::NotDir),
                None => return Err(Errno::NoEnt),
            }
        }
        Ok(cur.keys().cloned().collect())
    }

    /// True if the path names an existing node.
    pub fn exists(&self, path: &str) -> bool {
        self.stat(path).is_ok()
    }

    /// Convenience: create/truncate a file with the given contents.
    pub fn write_file(&self, path: &str, contents: &[u8]) -> OsResult<()> {
        let (data, _) = self.open(path, OpenMode::Write)?;
        data.lock().bytes_mut().extend_from_slice(contents);
        Ok(())
    }

    /// Convenience: read an entire file.
    pub fn read_file(&self, path: &str) -> OsResult<Vec<u8>> {
        let (data, _) = self.open(path, OpenMode::Read)?;
        let out = data.lock().as_slice().to_vec();
        Ok(out)
    }
}

impl Default for MemFs {
    fn default() -> Self {
        MemFs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_and_read_file() {
        let fs = MemFs::new();
        fs.write_file("/hello.txt", b"hi").unwrap();
        assert_eq!(fs.read_file("/hello.txt").unwrap(), b"hi");
    }

    #[test]
    fn read_missing_file_is_noent() {
        let fs = MemFs::new();
        assert_eq!(fs.read_file("/nope").unwrap_err(), Errno::NoEnt);
    }

    #[test]
    fn create_new_fails_on_existing() {
        let fs = MemFs::new();
        fs.write_file("/f", b"x").unwrap();
        assert_eq!(
            fs.open("/f", OpenMode::CreateNew).unwrap_err(),
            Errno::Exist
        );
    }

    #[test]
    fn create_new_succeeds_on_fresh_path() {
        let fs = MemFs::new();
        fs.open("/fresh", OpenMode::CreateNew).unwrap();
        assert!(fs.exists("/fresh"));
    }

    #[test]
    fn write_mode_truncates() {
        let fs = MemFs::new();
        fs.write_file("/f", b"long contents").unwrap();
        fs.write_file("/f", b"x").unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), b"x");
    }

    #[test]
    fn append_positions_at_end() {
        let fs = MemFs::new();
        fs.write_file("/f", b"ab").unwrap();
        let (_, off) = fs.open("/f", OpenMode::Append).unwrap();
        assert_eq!(off, 2);
    }

    #[test]
    fn mkdir_and_nested_files() {
        let fs = MemFs::new();
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", b"1").unwrap();
        assert_eq!(fs.list("/d").unwrap(), vec!["f".to_string()]);
        assert_eq!(
            fs.stat("/d").unwrap(),
            FileStat {
                kind: NodeKind::Dir,
                size: 0
            }
        );
    }

    #[test]
    fn mkdir_missing_parent_is_noent() {
        let fs = MemFs::new();
        assert_eq!(fs.mkdir("/a/b").unwrap_err(), Errno::NoEnt);
    }

    #[test]
    fn unlink_removes_file_but_not_dir() {
        let fs = MemFs::new();
        fs.mkdir("/d").unwrap();
        fs.write_file("/f", b"x").unwrap();
        fs.unlink("/f").unwrap();
        assert!(!fs.exists("/f"));
        assert_eq!(fs.unlink("/d").unwrap_err(), Errno::IsDir);
    }

    #[test]
    fn rmdir_requires_empty() {
        let fs = MemFs::new();
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", b"x").unwrap();
        assert_eq!(fs.rmdir("/d").unwrap_err(), Errno::NotDir);
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
        assert!(!fs.exists("/d"));
    }

    #[test]
    fn open_handle_survives_unlink() {
        let fs = MemFs::new();
        fs.write_file("/f", b"keep").unwrap();
        let (data, _) = fs.open("/f", OpenMode::Read).unwrap();
        fs.unlink("/f").unwrap();
        assert_eq!(data.lock().as_slice(), b"keep");
    }

    #[test]
    fn rename_moves_and_is_atomic_on_failure() {
        let fs = MemFs::new();
        fs.write_file("/a", b"1").unwrap();
        fs.write_file("/b", b"2").unwrap();
        assert_eq!(fs.rename("/a", "/b").unwrap_err(), Errno::Exist);
        assert_eq!(fs.read_file("/a").unwrap(), b"1", "rename rolled back");
        fs.rename("/a", "/c").unwrap();
        assert!(!fs.exists("/a"));
        assert_eq!(fs.read_file("/c").unwrap(), b"1");
    }

    #[test]
    fn stat_root_is_dir() {
        let fs = MemFs::new();
        assert_eq!(fs.stat("/").unwrap().kind, NodeKind::Dir);
    }

    #[test]
    fn dot_segments_rejected() {
        let fs = MemFs::new();
        assert_eq!(fs.stat("/../etc").unwrap_err(), Errno::Inval);
        assert_eq!(fs.read_file("/./f").unwrap_err(), Errno::Inval);
    }

    #[test]
    fn list_is_sorted() {
        let fs = MemFs::new();
        fs.write_file("/b", b"").unwrap();
        fs.write_file("/a", b"").unwrap();
        fs.write_file("/c", b"").unwrap();
        assert_eq!(fs.list("/").unwrap(), vec!["a", "b", "c"]);
    }
}
