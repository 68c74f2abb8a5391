//! A file-backed [`PageStore`]: real disk pages for persisted trees.
//!
//! Layout: page `i` lives at byte offset `i · page_size` of a single
//! file; pages are zero-padded to full size on write. A freed page's id
//! goes to an in-memory free list (recycled within the session) — the
//! file itself never shrinks, like a real database heap file.
//!
//! Integrity relies on the node layout's own validation (magic byte,
//! dimensionality, entry-count bounds — see [`crate::layout`]); unlike
//! the in-memory simulator there is no out-of-band checksum, which
//! matches how the paper's 1 KiB pages would sit on disk.

use crate::page::{PageId, PageStore, StorageError};
use bytes::Bytes;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Fills `buf` from `offset` without touching the file cursor, which
/// every reader holding `&FilePageStore` shares.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Disk-backed page store over a single file.
pub struct FilePageStore {
    file: File,
    path: PathBuf,
    page_size: usize,
    pages: u32,
    free_list: Vec<PageId>,
}

impl FilePageStore {
    /// Creates a new store file (truncating any existing one).
    pub fn create(path: &Path, page_size: usize) -> Result<Self, StorageError> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StorageError::Io(format!("cannot create {path:?}: {e}")))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            page_size,
            pages: 0,
            free_list: Vec::new(),
        })
    }

    /// Opens an existing store file; the page count is derived from the
    /// file length (which must be a multiple of the page size).
    pub fn open(path: &Path, page_size: usize) -> Result<Self, StorageError> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StorageError::Io(format!("cannot open {path:?}: {e}")))?;
        let len = file
            .metadata()
            .map_err(|e| StorageError::Io(format!("metadata: {e}")))?
            .len();
        if len % page_size as u64 != 0 {
            // A torn tail — e.g. a crash mid-write or an external
            // truncation — is data corruption of the last page, not a
            // structural decode failure.
            return Err(StorageError::Corrupt(PageId(
                (len / page_size as u64) as u32,
            )));
        }
        let pages = len / page_size as u64;
        if pages > u64::from(u32::MAX) {
            return Err(StorageError::OutOfPages);
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            page_size,
            pages: pages as u32,
            free_list: Vec::new(),
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn offset(&self, id: PageId) -> u64 {
        u64::from(id.0) * self.page_size as u64
    }

    fn check_id(&self, id: PageId) -> Result<(), StorageError> {
        if id.0 >= self.pages {
            Err(StorageError::UnknownPage(id))
        } else {
            Ok(())
        }
    }
}

impl PageStore for FilePageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        if let Some(id) = self.free_list.pop() {
            // Zero the recycled page so stale bytes cannot resurface.
            self.write(id, &[])?;
            return Ok(id);
        }
        if self.pages == u32::MAX {
            return Err(StorageError::OutOfPages);
        }
        let id = PageId(self.pages);
        self.pages += 1;
        self.write(id, &[])?;
        Ok(id)
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        // `allocate` increments `pages` before writing the fresh page, so
        // a plain bounds check covers that path too; in particular a
        // write to an unallocated id on an empty store is rejected.
        self.check_id(id)?;
        if data.len() > self.page_size {
            return Err(StorageError::PageOverflow {
                len: data.len(),
                page_size: self.page_size,
            });
        }
        let mut buf = vec![0u8; self.page_size];
        buf[..data.len()].copy_from_slice(data);
        self.file
            .seek(SeekFrom::Start(self.offset(id)))
            .and_then(|_| self.file.write_all(&buf))
            .map_err(|e| StorageError::Io(format!("write page {id}: {e}")))
    }

    fn read(&self, id: PageId) -> Result<Bytes, StorageError> {
        self.check_id(id)?;
        // Positional: the store is `Sync`, and a seek-then-read through
        // the shared cursor would let two readers swap pages.
        let mut buf = vec![0u8; self.page_size];
        read_exact_at(&self.file, &mut buf, self.offset(id))
            .map_err(|e| StorageError::Io(format!("read page {id}: {e}")))?;
        Ok(Bytes::from(buf))
    }

    fn free(&mut self, id: PageId) -> Result<(), StorageError> {
        self.check_id(id)?;
        self.free_list.push(id);
        Ok(())
    }

    fn live_pages(&self) -> usize {
        self.pages as usize - self.free_list.len()
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .sync_all()
            .map_err(|e| StorageError::Io(format!("sync {:?}: {e}", self.path)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sjcm_filestore_{name}_{}", std::process::id()));
        p
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn create_write_read_roundtrip() {
        let path = temp_path("roundtrip");
        let _guard = Cleanup(path.clone());
        let mut store = FilePageStore::create(&path, 64).unwrap();
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        store.write(a, b"page a").unwrap();
        store.write(b, b"page b content").unwrap();
        assert_eq!(&store.read(a).unwrap()[..6], b"page a");
        assert_eq!(&store.read(b).unwrap()[..14], b"page b content");
        // Tail of the page is zero-padded.
        assert!(store.read(a).unwrap()[6..].iter().all(|&x| x == 0));
        assert_eq!(store.live_pages(), 2);
    }

    #[test]
    fn reopen_preserves_pages() {
        let path = temp_path("reopen");
        let _guard = Cleanup(path.clone());
        {
            let mut store = FilePageStore::create(&path, 32).unwrap();
            let a = store.allocate().unwrap();
            store.write(a, b"persist me").unwrap();
        }
        let store = FilePageStore::open(&path, 32).unwrap();
        assert_eq!(store.live_pages(), 1);
        assert_eq!(&store.read(PageId(0)).unwrap()[..10], b"persist me");
    }

    #[test]
    fn open_rejects_misaligned_file_as_corrupt() {
        let path = temp_path("misaligned");
        let _guard = Cleanup(path.clone());
        std::fs::write(&path, vec![0u8; 33]).unwrap();
        // 33 bytes at page size 32 = one whole page plus a torn tail: the
        // torn page is page 1.
        assert!(matches!(
            FilePageStore::open(&path, 32),
            Err(StorageError::Corrupt(PageId(1)))
        ));
    }

    #[test]
    fn open_missing_file_is_io_not_malformed() {
        let path = temp_path("missing");
        let _guard = Cleanup(path.clone());
        assert!(matches!(
            FilePageStore::open(&path, 32),
            Err(StorageError::Io(_))
        ));
    }

    #[test]
    fn sync_flushes_without_error() {
        let path = temp_path("sync");
        let _guard = Cleanup(path.clone());
        let mut store = FilePageStore::create(&path, 32).unwrap();
        let a = store.allocate().unwrap();
        store.write(a, b"durable").unwrap();
        store.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 32);
    }

    #[test]
    fn oversize_write_rejected() {
        let path = temp_path("oversize");
        let _guard = Cleanup(path.clone());
        let mut store = FilePageStore::create(&path, 16).unwrap();
        let a = store.allocate().unwrap();
        assert!(matches!(
            store.write(a, &[1u8; 17]),
            Err(StorageError::PageOverflow { .. })
        ));
    }

    #[test]
    fn unknown_page_read_rejected() {
        let path = temp_path("unknown");
        let _guard = Cleanup(path.clone());
        let store = FilePageStore::create(&path, 16).unwrap();
        assert!(matches!(
            store.read(PageId(5)),
            Err(StorageError::UnknownPage(_))
        ));
    }

    #[test]
    fn concurrent_readers_each_get_their_own_page() {
        const PAGES: usize = 64;
        const PAGE_SIZE: usize = 64;
        let path = temp_path("concurrent");
        let _guard = Cleanup(path.clone());
        let mut store = FilePageStore::create(&path, PAGE_SIZE).unwrap();
        // Byte `j` of page `i` is `i ^ j`: no two pages share a byte at
        // any offset.
        let pages: Vec<Vec<u8>> = (0..PAGES)
            .map(|i| (0..PAGE_SIZE).map(|j| (i ^ j) as u8).collect())
            .collect();
        for page in &pages {
            let id = store.allocate().unwrap();
            store.write(id, page).unwrap();
        }
        let (store, pages) = (&store, &pages);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            // An odd stride walks all 64 pages; each thread has its own.
            for stride in [1, 3, 5, 7] {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for round in 0..2_000 {
                        for k in 0..PAGES {
                            let i = (round + k * stride) % PAGES;
                            let got = store.read(PageId(i as u32)).unwrap();
                            assert_eq!(&got[..], &pages[i][..], "page {i}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn freed_pages_recycle_zeroed() {
        let path = temp_path("recycle");
        let _guard = Cleanup(path.clone());
        let mut store = FilePageStore::create(&path, 16).unwrap();
        let a = store.allocate().unwrap();
        store.write(a, b"old").unwrap();
        store.free(a).unwrap();
        assert_eq!(store.live_pages(), 0);
        let b = store.allocate().unwrap();
        assert_eq!(a, b);
        assert!(store.read(b).unwrap().iter().all(|&x| x == 0));
    }
}
