//! Spatial join executors over two R-trees, instrumented for the cost
//! model's two measures.
//!
//! The centerpiece is the **SJ algorithm** of Brinkhoff, Kriegel & Seeger
//! (SIGMOD 1993), Figure 2 of the paper: a synchronized depth-first
//! traversal of both trees, with the entries of the current R2 node as
//! the outer loop and R1's as the inner loop. Every node fetch is routed
//! through a per-tree [`sjcm_storage::BufferManager`] and tallied in
//! per-level [`sjcm_storage::AccessStats`], yielding exactly the
//! quantities the analytical model predicts:
//!
//! * **NA** — every logical node access (`BufferPolicy::None`);
//! * **DA** — buffer misses under per-tree path buffers
//!   (`BufferPolicy::Path`, the paper's §3.1 setting) or an LRU buffer
//!   (`BufferPolicy::Lru`, the §5 future-work extension).
//!
//! Trees of different heights are handled by pinning the shorter tree's
//! node once it reaches a leaf while the taller tree keeps descending —
//! re-accessing the pinned node each step, which is what Eq 11 counts
//! (under a path buffer those re-accesses hit, which is what Eq 12
//! exploits).
//!
//! [`baselines`] provides the comparison algorithms (index nested loop
//! as in \[AS94\]'s view of a join as repeated range queries, and the
//! brute-force nested loop used as the correctness oracle), [`pbsm`]
//! the Partition Based Spatial-Merge join of \[PD96\] (the paper's
//! §2.1 "no index" camp), and [`parallel`] a multi-threaded SJ per the
//! paper's §5 outlook.
//!
//! **Entry points:** the tree-join executors run through the
//! [`session::JoinSession`] builder, which holds the one crate-private
//! execution context bundling all cross-cutting concerns — tracing,
//! drift monitoring, flight recording (with its correlation-id
//! allocator), live progress, and the governor. PBSM
//! runs through [`session::PbsmSession`], which has none of them, and
//! the two [`baselines`] are plain functions: the brute-force nested
//! loop (the tests' oracle) and the index nested loop (the plan
//! executor's INL operator).
//!
//! The [`governor::Governor`] is a deadline- and budget-aware
//! admission/cancellation layer that prices queries with Eq 6 before
//! running them, decides once, when the work units are armed, which
//! units a cancellation point or a `Degrade` cap refuses, and cancels
//! cooperatively at work-unit boundaries when a deadline expires.
//! [`Governor::unlimited`] is inert (one `Option` check per call site).
//! Work it forfeits is priced with the paper's own formulas instead of
//! aborting the join; see [`degraded`]. Nothing else forfeits work: the
//! join's trees are in memory and its buffers only simulate page reads,
//! so no read can fail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod degraded;
mod engine;
pub mod executor;
pub mod governor;
pub mod parallel;
pub mod pbsm;
#[cfg(test)]
mod reference;
pub mod session;

pub use degraded::{DegradedJoinResult, JoinError, SkippedSubtree};
pub use executor::{
    matched_entries, BufferPolicy, JoinConfig, JoinPredicate, JoinResultSet, MatchKernel,
    MatchScratch, Side, StealTally, WorkerTally,
};
pub use governor::{
    assert_well_formed, AdmissionPolicy, Governor, GovernorConfig, GovernorSummary,
};
pub use parallel::{measured_params, JoinObs};
pub use pbsm::DegradedPbsmResult;
pub use session::{JoinSession, PbsmSession, Scheduler};
