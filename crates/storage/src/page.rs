//! Page identifiers and page stores.
//!
//! The store is deliberately minimal: fixed-size pages addressed by dense
//! [`PageId`]s, holding bytes and nothing else. A store checks no page: a
//! tree page carries its own checksum trailer ([`crate::layout`]), which
//! the loader verifies, so a damaged page surfaces as
//! [`StorageError::Corrupt`] from either store instead of as silently
//! wrong query answers.

use bytes::Bytes;
use std::fmt;

/// Default page size — 1 KiB, the value used throughout the paper's
/// evaluation ("values that correspond to page size of 1 Kbyte").
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Identifier of a page in a [`PageStore`]. Dense, 32-bit, matching the
/// 4-byte child pointers of the paper's node layout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel used by serialization for "no page" (e.g. leaf children
    /// carry object ids instead). `u32::MAX` is never allocated.
    pub const INVALID: PageId = PageId(u32::MAX);

    /// The raw index.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Errors from the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id referenced a page that was never allocated.
    UnknownPage(PageId),
    /// Data written to a page exceeded the page size.
    PageOverflow {
        /// Bytes that were attempted to be written.
        len: usize,
        /// Configured page size.
        page_size: usize,
    },
    /// A page's checksum trailer does not match its header and entries,
    /// or a page file ends partway through a page (its torn last page).
    Corrupt(PageId),
    /// A serialized node failed structural validation.
    MalformedNode(String),
    /// A node entry's rectangle has no page encoding the loader accepts:
    /// a coordinate is NaN or infinite, outward rounding to `f32` takes
    /// it past `±f32::MAX`, or its corners are inverted. Refused by the
    /// encoder, so no save writes a page that cannot be read back.
    UnencodableRect {
        /// Position of the first such entry in its node.
        entry: usize,
    },
    /// A run of pages handed to [`PageStore::write_run`] was not a whole
    /// number of pages long.
    PartialPage {
        /// Bytes in the run.
        len: usize,
        /// Configured page size.
        page_size: usize,
    },
    /// The page store ran out of 32-bit page ids.
    OutOfPages,
    /// Every page read back is well formed, but together they are not the
    /// pages of the save the handle describes: some come from another
    /// save to the same file (a save cut short, or a handle that was not
    /// updated after a later one).
    DigestMismatch {
        /// The digest the handle records.
        handle: u64,
        /// The digest of the pages read.
        pages: u64,
    },
    /// An I/O failure: the operating system refused the operation or the
    /// device lost the page.
    /// Carries a human-readable description rather than `std::io::Error`
    /// so the variant stays `Clone + Eq` for deterministic comparisons.
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownPage(p) => write!(f, "unknown page {p}"),
            StorageError::PageOverflow { len, page_size } => {
                write!(f, "write of {len} bytes exceeds page size {page_size}")
            }
            StorageError::Corrupt(p) => write!(f, "checksum mismatch on page {p}"),
            StorageError::MalformedNode(msg) => write!(f, "malformed node: {msg}"),
            StorageError::UnencodableRect { entry } => {
                write!(f, "entry {entry}'s rectangle has no finite f32 encoding")
            }
            StorageError::PartialPage { len, page_size } => {
                write!(f, "run of {len} bytes is not whole {page_size}-byte pages")
            }
            StorageError::OutOfPages => write!(f, "page id space exhausted"),
            StorageError::DigestMismatch { handle, pages } => write!(
                f,
                "save digest mismatch: the handle records {handle:#018x}, \
                 the pages read fold to {pages:#018x} (pages of another save)"
            ),
            StorageError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Abstract page store. Implementations must be deterministic so that the
/// experiments are reproducible.
pub trait PageStore {
    /// Configured page size in bytes.
    fn page_size(&self) -> usize;

    /// Allocates a fresh, zeroed page.
    fn allocate(&mut self) -> Result<PageId, StorageError>;

    /// Overwrites a page's contents. `data` may be shorter than the page
    /// size (the remainder reads back as zeros) but never longer.
    fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError>;

    /// Reads a page's contents (cheaply clonable [`Bytes`]).
    fn read(&self, id: PageId) -> Result<Bytes, StorageError>;

    /// Reads the `count` pages `first, first + 1, …` into `out`, which
    /// is cleared first and ends up exactly `count · page_size` bytes
    /// long: the pages in id order, each zero-padded to the page size.
    ///
    /// The provided body is one [`read`](Self::read) per page in
    /// ascending order, failing with the first failing page's error — so
    /// a store that wraps `read` serves runs without knowing about them,
    /// and sees each page exactly once.
    /// Override only to fetch contiguous pages in one operation; an
    /// override returns the same bytes and the same errors as the
    /// provided body would.
    fn read_run(&self, first: PageId, count: usize, out: &mut Vec<u8>) -> Result<(), StorageError> {
        let page_size = self.page_size();
        out.clear();
        for id in run_ids(first, count)? {
            let page = self.read(id)?;
            if page.len() > page_size {
                return Err(StorageError::PageOverflow {
                    len: page.len(),
                    page_size,
                });
            }
            out.extend_from_slice(&page);
            out.resize(out.len() + page_size - page.len(), 0);
        }
        Ok(())
    }

    /// Overwrites the pages `first, first + 1, …` with `bytes`, which
    /// must be whole pages ([`StorageError::PartialPage`] otherwise).
    ///
    /// The provided body is one [`write`](Self::write) of a full page per
    /// page, in ascending order; the same contract as
    /// [`read_run`](Self::read_run) binds an override.
    fn write_run(&mut self, first: PageId, bytes: &[u8]) -> Result<(), StorageError> {
        let page_size = self.page_size();
        let pages = whole_pages(bytes.len(), page_size)?;
        for (id, page) in run_ids(first, pages)?.zip(bytes.chunks_exact(page_size)) {
            self.write(id, page)?;
        }
        Ok(())
    }

    /// Flushes buffered writes to durable storage. A no-op for memory-
    /// backed stores; file-backed stores must not consider a `write`
    /// durable until `sync` returns `Ok`.
    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// One past the last id of a run of `count` pages from `first`; `None`
/// for a run that would leave the 32-bit id space.
pub(crate) fn run_end(first: PageId, count: usize) -> Option<u32> {
    first.0.checked_add(u32::try_from(count).ok()?)
}

/// The ids of a run of `count` pages from `first`; a run that would
/// leave the id space names a page no store has.
fn run_ids(first: PageId, count: usize) -> Result<impl Iterator<Item = PageId>, StorageError> {
    let end = run_end(first, count).ok_or(StorageError::UnknownPage(PageId::INVALID))?;
    Ok((first.0..end).map(PageId))
}

/// Number of pages in a run of `len` bytes, which must be whole pages.
pub(crate) fn whole_pages(len: usize, page_size: usize) -> Result<usize, StorageError> {
    if !len.is_multiple_of(page_size) {
        return Err(StorageError::PartialPage { len, page_size });
    }
    Ok(len / page_size)
}

/// In-memory page store backing the simulated disk. Pages live in a dense
/// vector: the ids are exactly `0..` the pages allocated, and none is
/// ever freed.
pub struct InMemoryPageStore {
    page_size: usize,
    slots: Vec<Bytes>,
}

impl InMemoryPageStore {
    /// Creates a store with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            slots: Vec::new(),
        }
    }

    /// Creates a store with the paper's 1 KiB pages.
    pub fn with_default_page_size() -> Self {
        Self::new(DEFAULT_PAGE_SIZE)
    }

    /// Deliberately corrupts a page by flipping every bit of its last
    /// stored byte — on a tree page, a byte of its checksum trailer, so
    /// the loader refuses the page as [`StorageError::Corrupt`]. Used by
    /// failure-injection tests.
    pub fn corrupt_for_test(&mut self, id: PageId) -> Result<(), StorageError> {
        let slot = self.slot_mut(id)?;
        let mut data = slot.to_vec();
        match data.last_mut() {
            Some(last) => *last ^= 0xff,
            None => data.push(0xff),
        }
        *slot = Bytes::from(data);
        Ok(())
    }

    fn slot_mut(&mut self, id: PageId) -> Result<&mut Bytes, StorageError> {
        self.slots
            .get_mut(id.0 as usize)
            .ok_or(StorageError::UnknownPage(id))
    }
}

impl PageStore for InMemoryPageStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        let idx = self.slots.len();
        if idx >= u32::MAX as usize {
            return Err(StorageError::OutOfPages);
        }
        self.slots.push(Bytes::new());
        Ok(PageId(idx as u32))
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        if data.len() > self.page_size {
            return Err(StorageError::PageOverflow {
                len: data.len(),
                page_size: self.page_size,
            });
        }
        *self.slot_mut(id)? = Bytes::copy_from_slice(data);
        Ok(())
    }

    fn read(&self, id: PageId) -> Result<Bytes, StorageError> {
        self.slots
            .get(id.0 as usize)
            .cloned()
            .ok_or(StorageError::UnknownPage(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_read_roundtrip() {
        let mut store = InMemoryPageStore::new(64);
        let id = store.allocate().unwrap();
        store.write(id, b"hello pages").unwrap();
        assert_eq!(&store.read(id).unwrap()[..], b"hello pages");
    }

    #[test]
    fn write_rejects_oversized_payload() {
        let mut store = InMemoryPageStore::new(8);
        let id = store.allocate().unwrap();
        let err = store.write(id, &[0u8; 9]).unwrap_err();
        assert_eq!(
            err,
            StorageError::PageOverflow {
                len: 9,
                page_size: 8
            }
        );
    }

    #[test]
    fn read_unknown_page_fails() {
        let store = InMemoryPageStore::with_default_page_size();
        assert_eq!(
            store.read(PageId(3)).unwrap_err(),
            StorageError::UnknownPage(PageId(3))
        );
    }

    #[test]
    fn provided_runs_are_one_call_per_page() {
        let mut store = InMemoryPageStore::new(4);
        let ids: Vec<PageId> = (0..3).map(|_| store.allocate().unwrap()).collect();
        store.write_run(ids[0], b"aaaabbbb").unwrap();
        // A short page comes back padded to the page size, an untouched
        // one as zeros.
        store.write(ids[1], b"b").unwrap();
        let mut run = vec![0xff; 64];
        store.read_run(ids[0], 3, &mut run).unwrap();
        assert_eq!(run, b"aaaab\0\0\0\0\0\0\0");
        // The first failing page's error is the run's.
        assert_eq!(
            store.read_run(ids[2], 2, &mut run),
            Err(StorageError::UnknownPage(PageId(3)))
        );
        assert_eq!(
            store.write_run(ids[0], b"aaaab"),
            Err(StorageError::PartialPage {
                len: 5,
                page_size: 4
            })
        );
    }

    #[test]
    fn invalid_sentinel_never_allocated() {
        let mut store = InMemoryPageStore::new(8);
        let id = store.allocate().unwrap();
        assert_ne!(id, PageId::INVALID);
    }
}
