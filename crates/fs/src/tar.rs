//! A ustar-style archiver operating inside the filesystem.
//!
//! Implements the part of POSIX tar the micro-benchmark needs: 512-byte
//! headers with octal sizes and checksums, file data padded to 512-byte
//! records, directory entries, and a two-record zero terminator. Archives
//! are created *inside* the [`Fs`] (like running `tar` on the paper's
//! Ext2 volume), producing the large sequential write burst the
//! benchmark measures.

use crate::fs::FileKind;
use crate::{Fs, FsError};

const RECORD: usize = 512;

/// Builds a ustar header record.
fn header(name: &str, size: u64, is_dir: bool) -> Result<[u8; RECORD], FsError> {
    let mut h = [0u8; RECORD];
    let stored = name.trim_start_matches('/');
    let stored = if is_dir {
        format!("{stored}/")
    } else {
        stored.to_string()
    };
    if stored.len() > 100 {
        return Err(FsError::NameTooLong { name: stored });
    }
    h[0..stored.len()].copy_from_slice(stored.as_bytes());
    h[100..107].copy_from_slice(b"0000644"); // mode
    h[108..115].copy_from_slice(b"0000000"); // uid
    h[116..123].copy_from_slice(b"0000000"); // gid
    let size_field = format!("{:011o}", if is_dir { 0 } else { size });
    h[124..135].copy_from_slice(size_field.as_bytes());
    h[136..147].copy_from_slice(b"00000000000"); // mtime
    h[156] = if is_dir { b'5' } else { b'0' }; // typeflag
    h[257..262].copy_from_slice(b"ustar");
    h[263..265].copy_from_slice(b"00");
    // Checksum: spaces while summing, then written in octal.
    h[148..156].copy_from_slice(b"        ");
    let sum: u32 = h.iter().map(|&b| b as u32).sum();
    let chk = format!("{sum:06o}\0 ");
    h[148..156].copy_from_slice(chk.as_bytes());
    Ok(h)
}

/// One entry parsed out of an archive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Path, absolute (leading `/` restored).
    pub path: String,
    /// Entry kind.
    pub(crate) kind: FileKind,
    /// File contents (empty for directories).
    pub(crate) data: Vec<u8>,
}

/// Archives `roots` (files or directory trees) into `dest` inside the
/// same filesystem.
///
/// Returns the archive size in bytes.
///
/// # Errors
///
/// Propagates traversal and write failures; fails if any member path
/// exceeds the 100-byte ustar name field.
pub fn create(fs: &Fs, roots: &[&str], dest: &str) -> Result<u64, FsError> {
    fs.write_file(dest, b"")?;
    create_over(fs, roots, dest)
}

/// Like [`create`], but overwrites an existing `dest` *in place*:
/// blocks keep their LBAs and only bytes that actually differ between
/// the old and new archive change on disk.
///
/// This matters for replication experiments: re-running `tar` over
/// lightly edited files produces an almost identical archive, so an
/// in-place overwrite generates tiny block deltas (which PRINS ships as
/// tiny parities) where a truncate-and-rewrite would look like fresh
/// data.
///
/// # Errors
///
/// Same conditions as [`create`].
pub fn create_over(fs: &Fs, roots: &[&str], dest: &str) -> Result<u64, FsError> {
    // Collect members first (walk each root).
    let mut members: Vec<(String, FileKind)> = Vec::new();
    for root in roots {
        match fs.metadata(root)?.kind {
            FileKind::File => members.push(((*root).to_string(), FileKind::File)),
            FileKind::Directory => {
                members.push(((*root).to_string(), FileKind::Directory));
                for path in fs.walk(root)? {
                    members.push((path.clone(), fs.metadata(&path)?.kind));
                }
            }
        }
    }

    if !fs.exists(dest) {
        fs.write_file(dest, b"")?;
    }
    let mut offset = 0u64;
    let write = |data: &[u8], offset: &mut u64| -> Result<(), FsError> {
        fs.write_at(dest, *offset, data)?;
        *offset += data.len() as u64;
        Ok(())
    };

    for (path, kind) in members {
        match kind {
            FileKind::Directory => {
                write(&header(&path, 0, true)?, &mut offset)?;
            }
            FileKind::File => {
                let data = fs.read_file(&path)?;
                write(&header(&path, data.len() as u64, false)?, &mut offset)?;
                write(&data, &mut offset)?;
                let pad = (RECORD - data.len() % RECORD) % RECORD;
                if pad > 0 {
                    write(&vec![0u8; pad], &mut offset)?;
                }
            }
        }
    }
    // Two zero records terminate the archive; drop any stale tail from
    // a longer previous archive.
    write(&[0u8; 2 * RECORD], &mut offset)?;
    if fs.metadata(dest)?.size > offset {
        fs.truncate(dest, offset)?;
    }
    Ok(offset)
}

/// Parses an archive created by [`create`].
///
/// # Errors
///
/// [`FsError::Corrupt`] on malformed headers or bad checksums.
pub fn list(fs: &Fs, archive: &str) -> Result<Vec<Entry>, FsError> {
    let data = fs.read_file(archive)?;
    let mut entries = Vec::new();
    let mut pos = 0usize;
    while pos + RECORD <= data.len() {
        let h = &data[pos..pos + RECORD];
        pos += RECORD;
        if h.iter().all(|&b| b == 0) {
            break; // terminator
        }
        // Verify checksum.
        let stored_chk = parse_octal(&h[148..156])?;
        let mut sum = 0u32;
        for (i, &b) in h.iter().enumerate() {
            sum += if (148..156).contains(&i) {
                32
            } else {
                b as u32
            };
        }
        if sum != stored_chk as u32 {
            return Err(FsError::Corrupt {
                detail: format!("tar checksum mismatch at offset {}", pos - RECORD),
            });
        }
        let name_end = h[..100].iter().position(|&b| b == 0).unwrap_or(100);
        let raw_name = std::str::from_utf8(&h[..name_end]).map_err(|_| FsError::Corrupt {
            detail: "non-utf8 tar member name".into(),
        })?;
        let size = parse_octal(&h[124..136])? as usize;
        let is_dir = h[156] == b'5' || raw_name.ends_with('/');
        let path = format!("/{}", raw_name.trim_end_matches('/'));
        let file_data = if is_dir {
            Vec::new()
        } else {
            if pos + size > data.len() {
                return Err(FsError::Corrupt {
                    detail: "tar member data truncated".into(),
                });
            }
            let d = data[pos..pos + size].to_vec();
            pos += size + (RECORD - size % RECORD) % RECORD;
            d
        };
        entries.push(Entry {
            path,
            kind: if is_dir {
                FileKind::Directory
            } else {
                FileKind::File
            },
            data: file_data,
        });
    }
    Ok(entries)
}

fn parse_octal(field: &[u8]) -> Result<u64, FsError> {
    let s: String = field
        .iter()
        .take_while(|&&b| b != 0 && b != b' ')
        .map(|&b| b as char)
        .collect();
    u64::from_str_radix(s.trim(), 8).map_err(|_| FsError::Corrupt {
        detail: format!("bad octal field {s:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, MemDevice};
    use std::sync::Arc;

    fn fresh() -> Fs {
        Fs::format(Arc::new(MemDevice::new(BlockSize::kb4(), 8192)), 512).unwrap()
    }

    #[test]
    fn archive_and_list_roundtrip() {
        let fs = fresh();
        fs.create_dir("/src").unwrap();
        fs.write_file("/src/a.txt", b"alpha").unwrap();
        fs.write_file("/src/b.txt", &vec![7u8; 1000]).unwrap();
        fs.create_dir("/src/sub").unwrap();
        fs.write_file("/src/sub/c.txt", b"gamma").unwrap();

        let size = create(&fs, &["/src"], "/out.tar").unwrap();
        assert_eq!(size % 512, 0);
        assert_eq!(fs.metadata("/out.tar").unwrap().size, size);

        let entries = list(&fs, "/out.tar").unwrap();
        let files: Vec<&Entry> = entries
            .iter()
            .filter(|e| e.kind == FileKind::File)
            .collect();
        assert_eq!(files.len(), 3);
        let a = files.iter().find(|e| e.path == "/src/a.txt").unwrap();
        assert_eq!(a.data, b"alpha");
        let b = files.iter().find(|e| e.path == "/src/b.txt").unwrap();
        assert_eq!(b.data, vec![7u8; 1000]);
    }

    #[test]
    fn multiple_roots() {
        let fs = fresh();
        fs.create_dir("/d1").unwrap();
        fs.create_dir("/d2").unwrap();
        fs.write_file("/d1/x", b"x").unwrap();
        fs.write_file("/d2/y", b"y").unwrap();
        fs.write_file("/plain", b"p").unwrap();
        create(&fs, &["/d1", "/d2", "/plain"], "/all.tar").unwrap();
        let entries = list(&fs, "/all.tar").unwrap();
        let paths: Vec<&str> = entries.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"/d1/x"));
        assert!(paths.contains(&"/d2/y"));
        assert!(paths.contains(&"/plain"));
    }

    #[test]
    fn corrupted_checksum_is_detected() {
        let fs = fresh();
        fs.write_file("/f", b"data").unwrap();
        create(&fs, &["/f"], "/t.tar").unwrap();
        // Flip a byte inside the first header.
        fs.write_at("/t.tar", 10, b"X").unwrap();
        assert!(matches!(list(&fs, "/t.tar"), Err(FsError::Corrupt { .. })));
    }

    #[test]
    fn empty_file_archives_cleanly() {
        let fs = fresh();
        fs.write_file("/empty", b"").unwrap();
        create(&fs, &["/empty"], "/e.tar").unwrap();
        let entries = list(&fs, "/e.tar").unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].data.is_empty());
    }

    #[test]
    fn archive_size_accounts_headers_and_padding() {
        let fs = fresh();
        fs.write_file("/f", &vec![1u8; 600]).unwrap(); // 600 -> 1024 padded
        let size = create(&fs, &["/f"], "/t.tar").unwrap();
        // header 512 + data 1024 + terminator 1024
        assert_eq!(size, 512 + 1024 + 1024);
    }
}
