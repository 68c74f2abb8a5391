//! Workspace-wide observability for the spatial-join cost-model
//! reproduction.
//!
//! The paper's entire claim is that Eqs 6–12 predict NA/DA within a
//! ~15% relative-error envelope. Until now the repro could only check
//! that claim *after* a run, by diffing CSVs; this crate supplies the
//! feedback loop that watches prediction vs. observation while a join
//! executes:
//!
//! * [`span`] — a lightweight hierarchical span/event system
//!   ([`Tracer`]) with a JSONL sink and a human-readable tree summary.
//!   A disabled tracer is a single `Option` check per call site: no
//!   clock reads, no allocation, no locking; what an enabled one costs
//!   a join is the benchmark's `obs.join_enabled_overhead_pct`, read
//!   with its `_spread_pct`.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges and
//!   fixed-bucket histograms, fed by the storage layer's per-level
//!   access statistics and by the parallel scheduler's steal tallies.
//! * [`drift`] — the [`DriftMonitor`]: per-level cost predictions are
//!   registered up front, live counters are compared against them as
//!   the join progresses (an *overrun* of the envelope is flagged
//!   in-flight), and the final relative errors are published as
//!   `drift.*` gauges.
//! * [`json`] — the one JSON module (the workspace builds offline;
//!   there is no serde) and the record format every JSONL artifact
//!   shares: each writer builds [`json::Value`] records and each
//!   artifact's validator, beside its writer, reads them back through
//!   [`json::read_jsonl`].
//! * [`progress`] — the *predictive* layer: a live progress/ETA engine
//!   seeded from the Eq-6 per-level priors, refined in flight by the
//!   observed branching ratios, with monotone fractions and an ETA
//!   inside the §4.1 ±15% band; also the run's one unit ledger
//!   ([`UnitLedger`]) and the one ETA rule ([`progress::eta`]) that the
//!   governor's shed predictor reads too.
//! * [`governor`] — the decision log of the query governor: admission,
//!   deadline arming, load shedding and expiry as a validated JSONL
//!   event stream ([`governor::GovernorLog`]) plus the `governor.*`
//!   metric names.
//!
//! The crate is std-only and dependency-free on purpose: every other
//! crate in the workspace can afford to link it, and the execution
//! layers ship it through their hot paths only behind the
//! disabled-check guarantee above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod governor;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod span;

pub use drift::{DriftMonitor, DriftSample, DA_TOTAL, MASS_FLOOR, NA_TOTAL, PAPER_ENVELOPE};
pub use governor::{
    validate_governor_jsonl, GovernorEvent, GovernorLog, GOVERNOR_EVENTS_FILE, GOVERNOR_SCHEMA,
};
pub use metrics::{validate_metrics_jsonl, Histogram, MetricKind, MetricsRegistry};
pub use progress::{
    validate_progress_jsonl, LedgerTotals, LevelPrior, ProgressEngine, ProgressSink,
    ProgressSnapshot, ProgressTracker, UnitLedger,
};
pub use span::{validate_trace_jsonl, FieldValue, Span, SpanRecord, Tracer};
