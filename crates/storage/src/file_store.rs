//! A file-backed [`PageStore`]: real disk pages for persisted trees.
//!
//! Layout: page `i` lives at byte offset `i · page_size` of a single
//! file; pages are zero-padded to full size on write. The ids are
//! exactly `0..` the pages allocated: no page is ever freed.
//!
//! [`FilePageStore::create`] does not truncate an existing file: a save
//! overwrites the blocks the file already has, which on a file system
//! that discards freed blocks costs far less than freeing them and
//! allocating them again. The store still starts empty — no page is
//! allocated, and a page this store has not written reads as zeros,
//! whatever the old file holds there.
//!
//! Allocating a *fresh* page touches no file: the store counts the page,
//! and until something is written to it a read returns zeros without
//! I/O. [`PageStore::sync`] makes the file exactly the pages allocated:
//! it zeroes every allocated page the store never wrote that the old
//! file still covers, sets the length to `pages · page_size` — once,
//! extending or shrinking the file — and then flushes. After a `sync` a
//! reopened file has exactly the pages allocated. A store dropped
//! without `sync` keeps the pages written, and whatever the old file had
//! around them: a save cut short leaves old and new pages mixed, which
//! the node layout's page trailer and a save's digest catch on load
//! ([`crate::layout`]). Runs of consecutive pages move in one positional
//! read or write ([`PageStore::read_run`], [`PageStore::write_run`]).

use crate::page::{run_end, whole_pages, PageId, PageStore, StorageError};
use bytes::Bytes;
use std::fs::{File, OpenOptions};
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

/// Writes all of `buf` at `offset`, cursor untouched like the read.
#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

#[cfg(windows)]
fn write_all_at(file: &File, mut buf: &[u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_write(buf, offset) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                buf = &buf[n..];
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
    /// Pages allocated: ids `0..pages` are valid.
    pages: u32,
    /// One past the highest page written; those in `on_disk..pages`
    /// were allocated and never written, and read as zeros.
    on_disk: u32,
    /// Length of the file in bytes.
    len: u64,
    /// `stale[i]`: page `i` still holds what the file held when the
    /// store was created — not written since, so it reads as zeros.
    /// Empty once a `sync` has made the file the store's own.
    stale: Vec<bool>,
}

impl FilePageStore {
    /// Creates an empty store at `path`. An existing file is kept and
    /// overwritten in place: the store starts with no pages, its pages
    /// read as zeros until written, and the next `sync` cuts the file to
    /// the pages allocated.
    pub fn create(path: &Path, page_size: usize) -> Result<Self, StorageError> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StorageError::Io(format!("cannot create {path:?}: {e}")))?;
        let len = file_len(&file)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            page_size,
            pages: 0,
            on_disk: 0,
            len,
            // A torn last page counts: its bytes are stale too.
            stale: vec![true; len.div_ceil(page_size as u64) as usize],
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
        let len = file_len(&file)?;
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
            on_disk: pages as u32,
            len,
            stale: Vec::new(),
        })
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

    /// One past the last page of the run `first..first + count`, which
    /// must lie within the allocated pages; names the first page that
    /// does not.
    fn run_end(&self, first: PageId, count: usize) -> Result<u32, StorageError> {
        run_end(first, count)
            .filter(|&end| end <= self.pages)
            .ok_or(StorageError::UnknownPage(PageId(first.0.max(self.pages))))
    }

    /// Positional write of whole pages at `first`, ending at page `end`.
    fn write_pages(&mut self, first: PageId, end: u32, bytes: &[u8]) -> Result<(), StorageError> {
        write_all_at(&self.file, bytes, self.offset(first))
            .map_err(|e| StorageError::Io(format!("write pages {first}..p{end}: {e}")))?;
        self.on_disk = self.on_disk.max(end);
        self.len = self.len.max(self.offset(PageId(end)));
        let stale = self.stale.len();
        self.stale[(first.0 as usize).min(stale)..(end as usize).min(stale)].fill(false);
        Ok(())
    }

    /// Zeroes, on disk, every allocated page that still holds the old
    /// file's bytes, a run of them per write.
    fn zero_stale_pages(&mut self) -> Result<(), StorageError> {
        let allocated = self.stale.len().min(self.pages as usize);
        let mut at = 0;
        while let Some(skip) = self.stale[at..allocated].iter().position(|&s| s) {
            let first = at + skip;
            let count = self.stale[first..allocated]
                .iter()
                .take_while(|&&s| s)
                .count();
            let zeros = vec![0u8; count * self.page_size];
            let end = (first + count) as u32;
            self.write_pages(PageId(first as u32), end, &zeros)?;
            at = first + count;
        }
        Ok(())
    }
}

fn file_len(file: &File) -> Result<u64, StorageError> {
    Ok(file
        .metadata()
        .map_err(|e| StorageError::Io(format!("metadata: {e}")))?
        .len())
}

impl PageStore for FilePageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        if self.pages == u32::MAX {
            return Err(StorageError::OutOfPages);
        }
        // A fresh page is only counted: it reads as zeros until written,
        // and `sync` gives it its place in the file.
        let id = PageId(self.pages);
        self.pages += 1;
        Ok(id)
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        self.check_id(id)?;
        if data.len() > self.page_size {
            return Err(StorageError::PageOverflow {
                len: data.len(),
                page_size: self.page_size,
            });
        }
        if data.len() == self.page_size {
            return self.write_pages(id, id.0 + 1, data);
        }
        let mut buf = vec![0u8; self.page_size];
        buf[..data.len()].copy_from_slice(data);
        self.write_pages(id, id.0 + 1, &buf)
    }

    fn write_run(&mut self, first: PageId, bytes: &[u8]) -> Result<(), StorageError> {
        let count = whole_pages(bytes.len(), self.page_size)?;
        let end = self.run_end(first, count)?;
        self.write_pages(first, end, bytes)
    }

    fn read(&self, id: PageId) -> Result<Bytes, StorageError> {
        let mut buf = Vec::new();
        self.read_run(id, 1, &mut buf)?;
        Ok(Bytes::from(buf))
    }

    fn read_run(&self, first: PageId, count: usize, out: &mut Vec<u8>) -> Result<(), StorageError> {
        let end = self.run_end(first, count)?;
        // The read overwrites what the buffer held; only pages the file
        // does not hold yet are zeroed.
        out.resize(count * self.page_size, 0);
        let held = end.min(self.on_disk).saturating_sub(first.0) as usize;
        let (in_file, fresh) = out.split_at_mut(held * self.page_size);
        fresh.fill(0);
        // Positional: the store is `Sync`, and a seek-then-read through
        // the shared cursor would let two readers swap pages.
        read_exact_at(&self.file, in_file, self.offset(first))
            .map_err(|e| StorageError::Io(format!("read pages {first}..p{end}: {e}")))?;
        // Pages below the highest one written that this store has not
        // written hold the old file's bytes.
        let stale = self.stale.iter().skip(first.0 as usize);
        for (page, _) in in_file
            .chunks_exact_mut(self.page_size)
            .zip(stale)
            .filter(|(_, &s)| s)
        {
            page.fill(0);
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.zero_stale_pages()?;
        self.stale = Vec::new();
        let io = |e| StorageError::Io(format!("sync {:?}: {e}", self.path));
        let len = self.offset(PageId(self.pages));
        if self.len != len {
            // Once per sync, never per allocation: growing the file page
            // by page costs more than the zero-page writes it replaced.
            // A longer old file shrinks here.
            self.file.set_len(len).map_err(io)?;
            self.len = len;
        }
        self.on_disk = self.pages;
        self.file.sync_all().map_err(io)
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
        assert_eq!(
            store.read(PageId(2)).unwrap_err(),
            StorageError::UnknownPage(PageId(2))
        );
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
        assert_eq!(
            store.read(PageId(1)).unwrap_err(),
            StorageError::UnknownPage(PageId(1))
        );
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
    fn fresh_pages_read_as_zeros_and_reach_the_file_on_sync() {
        let path = temp_path("fresh");
        let _guard = Cleanup(path.clone());
        let mut store = FilePageStore::create(&path, 16).unwrap();
        let ids: Vec<PageId> = (0..5).map(|_| store.allocate().unwrap()).collect();
        // Allocation alone touches no file.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert_eq!(&store.read(ids[4]).unwrap()[..], &[0u8; 16]);
        // A write in the middle leaves the pages around it zero, on
        // either side of the end of the file.
        store.write(ids[2], b"middle").unwrap();
        let mut run = Vec::new();
        store.read_run(ids[0], 5, &mut run).unwrap();
        assert_eq!(run.len(), 5 * 16);
        assert_eq!(&run[32..38], b"middle");
        assert!(run[..32].iter().chain(&run[38..]).all(|&x| x == 0));
        store.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 5 * 16);
        drop(store);
        let store = FilePageStore::open(&path, 16).unwrap();
        assert_eq!(
            store.read(PageId(5)).unwrap_err(),
            StorageError::UnknownPage(PageId(5))
        );
        let mut reread = Vec::new();
        store.read_run(PageId(0), 5, &mut reread).unwrap();
        assert_eq!(reread, run);
    }

    #[test]
    fn a_reused_buffer_reads_pages_past_the_end_of_the_file_as_zeros() {
        let path = temp_path("reused");
        let _guard = Cleanup(path.clone());
        let mut store = FilePageStore::create(&path, 8).unwrap();
        for _ in 0..2 {
            store.allocate().unwrap();
        }
        let bytes: Vec<u8> = (1..=16).collect();
        store.write_run(PageId(0), &bytes).unwrap();
        store.sync().unwrap();
        // Two more pages, allocated but past the end of the file.
        for _ in 0..2 {
            store.allocate().unwrap();
        }
        for len in [0, 8, 24, 40] {
            let mut run = vec![0xff; len];
            store.read_run(PageId(1), 3, &mut run).unwrap();
            assert_eq!(run.len(), 24, "from a buffer of {len} bytes");
            assert_eq!(&run[..8], &bytes[8..]);
            assert_eq!(&run[8..], &[0u8; 16]);
        }
    }

    #[test]
    fn runs_roundtrip_and_misuse_is_typed() {
        let path = temp_path("runs");
        let _guard = Cleanup(path.clone());
        let mut store = FilePageStore::create(&path, 8).unwrap();
        for _ in 0..4 {
            store.allocate().unwrap();
        }
        let bytes: Vec<u8> = (0..24).collect();
        store.write_run(PageId(1), &bytes).unwrap();
        let mut run = Vec::new();
        store.read_run(PageId(1), 3, &mut run).unwrap();
        assert_eq!(run, bytes);
        assert_eq!(&store.read(PageId(2)).unwrap()[..], &bytes[8..16]);
        // One page too many, a run that starts past the end, half a page.
        assert_eq!(
            store.write_run(PageId(2), &bytes),
            Err(StorageError::UnknownPage(PageId(4)))
        );
        assert_eq!(
            store.read_run(PageId(7), 1, &mut run),
            Err(StorageError::UnknownPage(PageId(7)))
        );
        assert_eq!(
            store.write_run(PageId(0), &bytes[..12]),
            Err(StorageError::PartialPage {
                len: 12,
                page_size: 8
            })
        );
        // Nothing of the refused runs was written.
        store.read_run(PageId(0), 4, &mut run).unwrap();
        assert_eq!(&run[..8], &[0u8; 8]);
        assert_eq!(&run[8..], &bytes[..]);
    }

    /// Writes `pages` pages of `0xab` at `path`, then `extra` bytes more.
    fn old_file(path: &Path, page_size: usize, pages: usize, extra: usize) {
        std::fs::write(path, vec![0xab; pages * page_size + extra]).unwrap();
    }

    #[test]
    fn create_keeps_a_longer_file_reads_its_pages_as_zeros_and_sync_shrinks_it() {
        let path = temp_path("inplace_shrink");
        let _guard = Cleanup(path.clone());
        old_file(&path, 16, 6, 0);
        let mut store = FilePageStore::create(&path, 16).unwrap();
        assert_eq!(
            store.read(PageId(0)).unwrap_err(),
            StorageError::UnknownPage(PageId(0))
        );
        // Not truncated: the save overwrites the file's own blocks.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 6 * 16);
        for _ in 0..4 {
            store.allocate().unwrap();
        }
        store.write(PageId(1), b"one").unwrap();
        store.write(PageId(3), b"three").unwrap();
        let mut run = vec![0xff; 7];
        store.read_run(PageId(0), 4, &mut run).unwrap();
        let mut want = vec![0u8; 4 * 16];
        want[16..19].copy_from_slice(b"one");
        want[48..53].copy_from_slice(b"three");
        assert_eq!(run, want);
        for (id, page) in want.chunks_exact(16).enumerate() {
            assert_eq!(&store.read(PageId(id as u32)).unwrap()[..], page);
        }
        store.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 4 * 16);
        assert_eq!(std::fs::read(&path).unwrap(), want);
    }

    #[test]
    fn create_over_a_shorter_or_torn_file_grows_it_with_zeros() {
        for extra in [0, 5] {
            let path = temp_path(&format!("inplace_grow_{extra}"));
            let _guard = Cleanup(path.clone());
            old_file(&path, 16, 2, extra);
            let mut store = FilePageStore::create(&path, 16).unwrap();
            for _ in 0..5 {
                store.allocate().unwrap();
            }
            store.write(PageId(4), b"last").unwrap();
            let mut run = Vec::new();
            store.read_run(PageId(0), 5, &mut run).unwrap();
            let mut want = vec![0u8; 5 * 16];
            want[64..68].copy_from_slice(b"last");
            assert_eq!(run, want, "old tail of {extra} bytes");
            store.sync().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), want);
            // Reopened, the file is the store's own: nothing stale.
            let store = FilePageStore::open(&path, 16).unwrap();
            store.read_run(PageId(0), 5, &mut run).unwrap();
            assert_eq!(run, want);
        }
    }

    #[test]
    fn a_store_dropped_before_sync_leaves_the_old_pages_it_did_not_write() {
        let path = temp_path("inplace_torn");
        let _guard = Cleanup(path.clone());
        old_file(&path, 16, 3, 0);
        {
            let mut store = FilePageStore::create(&path, 16).unwrap();
            store.allocate().unwrap();
            store.write(PageId(0), &[1; 16]).unwrap();
        }
        // What a crash mid-save leaves: the new page, then the old ones.
        let mut want = vec![0xab; 3 * 16];
        want[..16].fill(1);
        assert_eq!(std::fs::read(&path).unwrap(), want);
    }
}
