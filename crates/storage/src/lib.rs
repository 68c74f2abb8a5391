//! Paged storage simulator for the spatial-join cost-model workspace.
//!
//! The paper measures join cost in **node accesses** (`NA`, every
//! `ReadPage` call of the SJ algorithm) and **disk accesses** (`DA`, the
//! `ReadPage` calls that miss the buffer), on 1 KiB pages with maximum
//! node capacities M = 84 (n = 1) and M = 50 (n = 2). This crate provides
//! the substrate that makes those numbers *measurable* rather than
//! estimated:
//!
//! * [`page`] — page identifiers, the [`page::PageStore`] trait and the
//!   in-memory store behind the simulated disk.
//! * [`layout`] — the on-page binary layout of an R-tree node. The layout
//!   (8-byte header + (8·n+4)-byte entries with `f32` coordinates and
//!   `u32` child pointers + an 8-byte checksum trailer) reproduces the
//!   paper's capacities exactly; see [`layout::max_entries`].
//! * [`buffer`] — pluggable buffer managers: [`buffer::NoBuffer`] (every
//!   access is a disk access ⇒ DA = NA), [`buffer::PathBuffer`] (the
//!   paper's per-tree most-recently-visited-path buffer behind Eqs 8–12),
//!   and [`buffer::LruBuffer`] (the future-work extension of §5).
//! * [`counters`] — per-level NA/DA tallies ([`counters::AccessStats`])
//!   that the join executor fills in and the experiments compare against
//!   the analytical model level by level.
//! * [`recorder`] — the page-access flight recorder: every buffered
//!   access can emit a compact binary event (tree, level, page,
//!   hit/miss, monotonic tick, correlation id) into a thread-private
//!   lane, serialized as an [`recorder::AccessTrace`] for offline
//!   analysis.
//! * [`mod@replay`] — trace-driven what-if analysis: re-simulate a
//!   captured trace under any buffer policy ([`replay::replay`]), an
//!   LRU buffer of each capacity included.
//!
//! A damaged page is caught by one check: the checksum trailer every
//! tree page carries ([`layout`]), which the loader verifies on the
//! in-memory store and on a file alike. The join reads no pages (its
//! trees are in memory and its buffers only simulate reads), so no join
//! access can fail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod counters;
pub mod file_store;
pub mod layout;
pub mod page;
pub mod recorder;
pub mod replay;

pub use buffer::{AccessKind, BufferManager, BufferPolicy, LruBuffer, NoBuffer, PathBuffer};
pub use counters::{hit_ratio, AccessStats};
pub use file_store::FilePageStore;
pub use layout::{digest_term, encodable, encode_page, max_entries, DiskEntry, DiskNode, NodePage};
pub use page::{InMemoryPageStore, PageId, PageStore, StorageError, DEFAULT_PAGE_SIZE};
pub use recorder::{AccessTrace, FlightRecorder, PageAccessEvent, RecorderLane};
pub use replay::{replay, ReplayOutcome};
