//! In-memory filesystem backing the POSIX-style hypercalls.
//!
//! §6.3's static-content HTTP server turns guest hypercalls into host
//! system calls: "a validated `read()` will turn into a `read()` on the
//! host filesystem". This module is that host filesystem.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A file descriptor handed out by [`InMemFs::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u64);

/// Metadata returned by `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// File size in bytes.
    pub size: u64,
}

/// Filesystem errors (mapped to guest return codes by Wasp via
/// [`crate::IoClass`], the error taxonomy shared with `net` and `chan`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound(String),
    /// Descriptor was never issued.
    BadFd(Fd),
    /// Descriptor was open once but has been closed — distinct from
    /// [`FsError::BadFd`]: "you closed this" and "this never existed" are
    /// different caller bugs.
    Closed(Fd),
    /// The read cursor is at end-of-file — distinct from an error: Wasp
    /// maps it to the clean `0` guests already check for, never to `-1`.
    Eof(Fd),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::BadFd(fd) => write!(f, "bad file descriptor {}", fd.0),
            FsError::Closed(fd) => write!(f, "file descriptor {} is closed", fd.0),
            FsError::Eof(fd) => write!(f, "end of file on descriptor {}", fd.0),
        }
    }
}

impl std::error::Error for FsError {}

#[derive(Debug)]
struct OpenFile {
    data: Rc<Vec<u8>>,
    cursor: usize,
}

/// A flat, in-memory filesystem with per-descriptor read cursors.
#[derive(Debug, Default)]
pub struct InMemFs {
    files: HashMap<String, Rc<Vec<u8>>>,
    open: HashMap<Fd, OpenFile>,
    next_fd: u64,
}

impl InMemFs {
    /// Installs (or replaces) a file.
    pub fn add_file(&mut self, path: &str, content: Vec<u8>) {
        self.files.insert(path.to_string(), Rc::new(content));
    }

    /// Opens a file for reading.
    pub fn open(&mut self, path: &str) -> Result<Fd, FsError> {
        let data = self
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        self.next_fd += 1;
        let fd = Fd(self.next_fd);
        self.open.insert(fd, OpenFile { data, cursor: 0 });
        Ok(fd)
    }

    /// Returns file metadata.
    pub fn stat(&self, path: &str) -> Result<FileStat, FsError> {
        let data = self
            .files
            .get(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        Ok(FileStat {
            size: data.len() as u64,
        })
    }

    /// Maps an unknown descriptor to the precise error: closed-once is
    /// [`FsError::Closed`], never-issued is [`FsError::BadFd`].
    /// Descriptors are allocated monotonically, so "issued once but no
    /// longer open" needs no retained history.
    fn missing(&self, fd: Fd) -> FsError {
        if fd.0 >= 1 && fd.0 <= self.next_fd {
            FsError::Closed(fd)
        } else {
            FsError::BadFd(fd)
        }
    }

    /// Reads up to `len` bytes from the descriptor's cursor. A cursor
    /// already at end-of-file reports [`FsError::Eof`] — a distinct,
    /// non-error condition callers map to the clean `0`, never a
    /// `BadFd`-alias or an empty-read guess. A zero-length *request*
    /// succeeds with an empty read wherever the cursor is (POSIX: a read
    /// of 0 bytes reports nothing, including EOF — a zero-byte file must
    /// not turn `read(fd, size)` into an error).
    pub fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, FsError> {
        let Some(f) = self.open.get_mut(&fd) else {
            return Err(self.missing(fd));
        };
        if len == 0 {
            return Ok(Vec::new());
        }
        let start = f.cursor.min(f.data.len());
        if start >= f.data.len() {
            return Err(FsError::Eof(fd));
        }
        // `len` is guest-chosen: a request past the end reads the rest.
        let end = start.saturating_add(len).min(f.data.len());
        f.cursor = end;
        Ok(f.data[start..end].to_vec())
    }

    /// Closes a descriptor.
    pub fn close(&mut self, fd: Fd) -> Result<(), FsError> {
        match self.open.remove(&fd) {
            Some(_) => Ok(()),
            None => Err(self.missing(fd)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_read_close_cycle() {
        let mut fs = InMemFs::default();
        fs.add_file("/a", vec![1, 2, 3, 4, 5]);
        let fd = fs.open("/a").unwrap();
        assert_eq!(fs.read(fd, 2).unwrap(), vec![1, 2]);
        assert_eq!(fs.read(fd, 10).unwrap(), vec![3, 4, 5]);
        // At end-of-file: the distinct Eof condition, not an empty read.
        assert_eq!(fs.read(fd, 10), Err(FsError::Eof(fd)));
        fs.close(fd).unwrap();
        // After close: Closed, never a BadFd alias.
        assert_eq!(fs.read(fd, 1), Err(FsError::Closed(fd)));
        assert_eq!(fs.close(fd), Err(FsError::Closed(fd)));
        // A descriptor never issued is the genuine BadFd.
        assert_eq!(fs.read(Fd(999), 1), Err(FsError::BadFd(Fd(999))));
    }

    #[test]
    fn empty_file_reads_as_eof_immediately() {
        let mut fs = InMemFs::default();
        fs.add_file("/empty", Vec::new());
        let fd = fs.open("/empty").unwrap();
        assert_eq!(fs.read(fd, 64), Err(FsError::Eof(fd)));
        // ...but a zero-length request reports nothing, not EOF — the
        // §6.3 handler issues read(fd, size) verbatim, and a zero-byte
        // file must yield an empty success.
        assert_eq!(fs.read(fd, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn a_read_of_any_length_past_the_cursor_returns_the_rest() {
        let mut fs = InMemFs::default();
        fs.add_file("/a", vec![1, 2, 3, 4, 5]);
        let fd = fs.open("/a").unwrap();
        assert_eq!(fs.read(fd, 1).unwrap(), vec![1]);
        assert_eq!(fs.read(fd, usize::MAX).unwrap(), vec![2, 3, 4, 5]);
        assert_eq!(fs.read(fd, usize::MAX), Err(FsError::Eof(fd)));
    }

    #[test]
    fn independent_cursors_per_fd() {
        let mut fs = InMemFs::default();
        fs.add_file("/a", vec![9; 8]);
        let fd1 = fs.open("/a").unwrap();
        let fd2 = fs.open("/a").unwrap();
        assert_ne!(fd1, fd2);
        assert_eq!(fs.read(fd1, 8).unwrap().len(), 8);
        assert_eq!(fs.read(fd2, 4).unwrap().len(), 4);
    }

    #[test]
    fn stat_reports_size() {
        let mut fs = InMemFs::default();
        fs.add_file("/s", vec![0; 123]);
        assert_eq!(fs.stat("/s").unwrap().size, 123);
        assert!(matches!(fs.stat("/t"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn replacing_a_file_does_not_disturb_open_fds() {
        let mut fs = InMemFs::default();
        fs.add_file("/f", b"old".to_vec());
        let fd = fs.open("/f").unwrap();
        fs.add_file("/f", b"new!".to_vec());
        // The open descriptor still sees the old contents (POSIX unlink
        // semantics), while a fresh stat sees the new file.
        assert_eq!(fs.read(fd, 16).unwrap(), b"old".to_vec());
        assert_eq!(fs.stat("/f").unwrap().size, 4);
    }
}
