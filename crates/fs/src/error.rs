//! Filesystem error type.

use std::fmt;

use prins_block::BlockError;

/// Errors from filesystem operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum FsError {
    /// The underlying device failed.
    Block(BlockError),
    /// Path (or a component of it) does not exist.
    NotFound {
        /// The offending path.
        path: String,
    },
    /// Creation target already exists.
    AlreadyExists {
        /// The offending path.
        path: String,
    },
    /// A path component that must be a directory is a file.
    NotADirectory {
        /// The offending path component.
        path: String,
    },
    /// A file operation was attempted on a directory.
    IsADirectory {
        /// The offending path.
        path: String,
    },
    /// No free data blocks or inodes remain.
    NoSpace,
    /// A file name exceeds the 58-byte directory entry limit.
    NameTooLong {
        /// The offending name.
        name: String,
    },
    /// A file would exceed the maximum size (12 direct + 1 indirect
    /// block of pointers).
    FileTooLarge {
        /// The requested size.
        size: u64,
        /// The maximum representable size.
        max: u64,
    },
    /// On-disk structures are inconsistent.
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
    /// A path is syntactically invalid (empty, not absolute, or has
    /// empty components).
    InvalidPath {
        /// The offending path.
        path: String,
    },
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Block(e) => write!(f, "device error: {e}"),
            FsError::NotFound { path } => write!(f, "no such file or directory: {path}"),
            FsError::AlreadyExists { path } => write!(f, "already exists: {path}"),
            FsError::NotADirectory { path } => write!(f, "not a directory: {path}"),
            FsError::IsADirectory { path } => write!(f, "is a directory: {path}"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::NameTooLong { name } => write!(f, "file name too long: {name}"),
            FsError::FileTooLarge { size, max } => {
                write!(f, "file size {size} exceeds maximum {max}")
            }
            FsError::Corrupt { detail } => write!(f, "filesystem corrupt: {detail}"),
            FsError::InvalidPath { path } => write!(f, "invalid path: {path}"),
        }
    }
}

impl std::error::Error for FsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FsError::Block(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BlockError> for FsError {
    fn from(e: BlockError) -> Self {
        FsError::Block(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_path() {
        let e = FsError::NotFound {
            path: "/a/b".into(),
        };
        assert!(e.to_string().contains("/a/b"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FsError>();
    }
}
