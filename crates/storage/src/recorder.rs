//! The page-access flight recorder.
//!
//! The observability layer's drift monitor (PR 2) sees only *aggregate*
//! NA/DA counters: when the Eq 8–12 DA prediction drifts, the counters
//! cannot say *which* accesses diverged, and the one buffer
//! configuration that actually ran is the only one that can be
//! evaluated. The flight recorder fixes both: every buffered page
//! access emits one compact event — tree id, level, page, hit/miss, a
//! monotonic tick and a **correlation id** tying it to the owning
//! work unit / span — so a captured trace can be replayed offline
//! through *any* buffer policy (see [`mod@crate::replay`]) and rendered
//! per-access rather than per-run.
//!
//! # Cost discipline
//!
//! The recorder follows the `sjcm-obs` tracer's design: a **disabled**
//! recorder is a single `Option` discriminant check per access — no
//! clock, no atomics, no allocation. An **enabled** recorder costs a
//! lane-local vector write plus, once per [`TICK_BLOCK`] events, one
//! relaxed `fetch_add` claiming a block of globally unique ticks.
//! Per-block claiming keeps the shared tick cacheline out of the hot
//! path (a contended per-access `fetch_add` measurably slowed 4-worker
//! joins); ticks stay strictly increasing *within* each lane, which is
//! the only order replay depends on — buffers are per tree and per
//! residency domain, so cross-lane interleaving (now block-granular
//! rather than exact) cannot change any replay verdict. Lanes are
//! thread-private and only merge into the shared sink when dropped, so
//! the hot path takes no lock. The benchmark's
//! `storage.recorder_ns_per_access` is what an armed recorder adds to
//! one access.
//!
//! # Bounded ring
//!
//! Each lane is a bounded ring of [`FlightRecorder::lane_capacity`]
//! events: when full, the newest event overwrites the oldest and the
//! overwritten event counts as *dropped*. A trace with `dropped > 0` is
//! truncated — still useful for inspection, but [`crate::replay()`] and
//! `validate-obs` reject it, because replay exactness needs the full
//! access history.
//!
//! # Correlation ids
//!
//! A correlation id names a **buffer-residency domain**: a maximal run
//! of accesses that one buffer instance served without an intervening
//! reset. The sequential executor and the parallel coordinator use
//! domain 0; the cost-guided scheduler gives every work unit its own
//! domain (the unit index + 1, also attached to the unit's span as the
//! `corr` field); the round-robin scheduler, whose shard buffers
//! persist across units, uses one domain per shard. Replaying each
//! domain against a fresh buffer therefore reproduces the live
//! hit/miss sequence exactly, whatever the schedule was.

use crate::buffer::{AccessKind, BufferPolicy};
use crate::page::PageId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Serialized size of one event, bytes.
pub const EVENT_SIZE: usize = 20;

/// Trace file magic ("SJTR").
pub const TRACE_MAGIC: [u8; 4] = *b"SJTR";

/// Trace format version this crate writes and reads.
pub const TRACE_VERSION: u32 = 1;

/// Serialized size of the trace header, bytes.
pub const HEADER_SIZE: usize = 48;

/// Default per-lane ring capacity (events). Sized so the paper-scale
/// 60K×60K join (a few hundred thousand accesses per executor) records
/// completely; memory is allocated lazily, so idle lanes cost nothing.
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 22;

/// Ticks a lane claims from the shared counter at a time. Large enough
/// to amortize the cross-core `fetch_add` to noise, small enough that
/// tick values stay dense (a 60K-scale join claims a few hundred
/// blocks).
pub const TICK_BLOCK: u64 = 1024;

/// One recorded page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccessEvent {
    /// Global monotonic tick (unique across all lanes of a recorder;
    /// orders events totally, including across threads).
    pub tick: u64,
    /// The accessed page.
    pub page: PageId,
    /// Buffer-residency domain (see the module docs).
    pub corr: u32,
    /// Which tree's buffer served the access (1 or 2).
    pub tree: u8,
    /// Tree level of the page (0 = leaf, crate convention).
    pub level: u8,
    /// Buffer outcome.
    pub kind: AccessKind,
}

impl PageAccessEvent {
    /// Encodes the event as [`EVENT_SIZE`] little-endian bytes.
    pub fn to_bytes(&self) -> [u8; EVENT_SIZE] {
        let mut b = [0u8; EVENT_SIZE];
        b[0..8].copy_from_slice(&self.tick.to_le_bytes());
        b[8..12].copy_from_slice(&self.page.0.to_le_bytes());
        b[12..16].copy_from_slice(&self.corr.to_le_bytes());
        b[16] = self.tree;
        b[17] = self.level;
        b[18] = self.kind.is_miss() as u8;
        // b[19] reserved, zero.
        b
    }

    /// Decodes an event; rejects invalid tree/kind bytes.
    pub fn from_bytes(b: &[u8; EVENT_SIZE]) -> Result<Self, String> {
        let tree = b[16];
        if !(1..=2).contains(&tree) {
            return Err(format!("invalid tree id {tree}"));
        }
        let kind = match b[18] {
            0 => AccessKind::Hit,
            1 => AccessKind::Miss,
            k => return Err(format!("invalid access kind {k}")),
        };
        Ok(Self {
            tick: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            page: PageId(u32::from_le_bytes(b[8..12].try_into().unwrap())),
            corr: u32::from_le_bytes(b[12..16].try_into().unwrap()),
            tree,
            level: b[17],
            kind,
        })
    }
}

/// The trace header's encoding of a [`BufferPolicy`]: a tag byte and
/// an LRU capacity, saturated at `u32::MAX` — a buffer that large never
/// evicts in any trace that fits in memory, so replay stays exact.
fn policy_to_bytes(policy: BufferPolicy) -> (u8, u32) {
    match policy {
        BufferPolicy::None => (0, 0),
        BufferPolicy::Path => (1, 0),
        BufferPolicy::Lru(cap) => (2, u32::try_from(cap).unwrap_or(u32::MAX)),
    }
}

fn policy_from_bytes(tag: u8, cap: u32) -> Result<BufferPolicy, String> {
    match tag {
        0 => Ok(BufferPolicy::None),
        1 => Ok(BufferPolicy::Path),
        2 => Ok(BufferPolicy::Lru(cap as usize)),
        t => Err(format!("invalid policy tag {t}")),
    }
}

/// A complete captured trace: header metadata plus the events in tick
/// order. The `na_pred` / `da_pred` fields carry the Eq 7/11 and
/// Eq 10/12 analytical predictions of the run that was recorded (0.0
/// when the recorder had none), so the offline toolchain can draw its
/// what-if curves against the paper's model without re-deriving tree
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessTrace {
    /// Buffer policy the trace was recorded under.
    pub policy: BufferPolicy,
    /// Events overwritten by the bounded rings (0 ⇒ the trace is
    /// complete and replayable).
    pub dropped: u64,
    /// Analytical NA prediction for the recorded run (0.0 = none).
    pub na_pred: f64,
    /// Analytical DA prediction for the recorded run (0.0 = none).
    pub da_pred: f64,
    /// The events, sorted by tick (strictly increasing).
    pub events: Vec<PageAccessEvent>,
}

impl AccessTrace {
    /// Serializes the trace (48-byte header + 20 bytes per event,
    /// little-endian throughout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_SIZE + self.events.len() * EVENT_SIZE);
        let (tag, cap) = policy_to_bytes(self.policy);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&cap.to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        out.extend_from_slice(&self.na_pred.to_le_bytes());
        out.extend_from_slice(&self.da_pred.to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&e.to_bytes());
        }
        out
    }

    /// Parses and validates a serialized trace. Rejects wrong magic or
    /// version, truncated or oversized files, invalid event bytes, and
    /// non-monotonic ticks — the checks `validate-obs` runs on the CI
    /// artifact.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < HEADER_SIZE {
            return Err(format!(
                "trace too short: {} bytes < {HEADER_SIZE}-byte header",
                bytes.len()
            ));
        }
        if bytes[0..4] != TRACE_MAGIC {
            return Err("bad magic (not an SJTR trace)".into());
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != TRACE_VERSION {
            return Err(format!("unsupported trace version {version}"));
        }
        if bytes[9..12] != [0u8; 3] {
            return Err("nonzero header padding".into());
        }
        let cap = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let policy = policy_from_bytes(bytes[8], cap)?;
        let count = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let dropped = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let na_pred = f64::from_le_bytes(bytes[32..40].try_into().unwrap());
        let da_pred = f64::from_le_bytes(bytes[40..48].try_into().unwrap());
        let body = &bytes[HEADER_SIZE..];
        let expected = count
            .checked_mul(EVENT_SIZE)
            .ok_or("event count overflows")?;
        if body.len() != expected {
            return Err(format!(
                "truncated trace: header promises {count} events \
                 ({expected} bytes), body has {} bytes",
                body.len()
            ));
        }
        let mut events = Vec::with_capacity(count);
        let mut last_tick = None;
        for (i, chunk) in body.chunks_exact(EVENT_SIZE).enumerate() {
            let e = PageAccessEvent::from_bytes(chunk.try_into().unwrap())
                .map_err(|m| format!("event {i}: {m}"))?;
            if let Some(last) = last_tick {
                if e.tick <= last {
                    return Err(format!(
                        "event {i}: tick {} not strictly increasing (prev {last})",
                        e.tick
                    ));
                }
            }
            last_tick = Some(e.tick);
            events.push(e);
        }
        Ok(Self {
            policy,
            dropped,
            na_pred,
            da_pred,
            events,
        })
    }

    /// Writes the serialized trace to `path` (parent directories are
    /// created).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_bytes())
    }

    /// Reads and validates a trace from `path`.
    pub fn read(path: &std::path::Path) -> Result<Self, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read trace: {e}"))?;
        Self::from_bytes(&bytes)
    }
}

struct RecorderInner {
    tick: AtomicU64,
    lane_capacity: usize,
    dropped: AtomicU64,
    flushed: Mutex<Vec<Vec<PageAccessEvent>>>,
}

/// The shared event sink. Cheap to clone (shared buffer); see the
/// module docs for the disabled-mode guarantee.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<RecorderInner>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder whose every operation is a no-op (the default).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A collecting recorder with the default per-lane ring capacity.
    pub fn enabled() -> Self {
        Self::with_lane_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// A collecting recorder whose lanes hold at most `capacity` events
    /// each (older events are overwritten and counted as dropped).
    pub fn with_lane_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(RecorderInner {
                tick: AtomicU64::new(0),
                lane_capacity: capacity.max(1),
                dropped: AtomicU64::new(0),
                flushed: Mutex::new(Vec::new()),
            })),
        }
    }

    /// `true` when accesses are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Per-lane ring capacity; `None` when disabled.
    pub fn lane_capacity(&self) -> Option<usize> {
        self.inner.as_ref().map(|i| i.lane_capacity)
    }

    /// Opens a recording lane for tree `tree ∈ {1, 2}`. Lanes buffer
    /// thread-locally and merge into the recorder on drop (or
    /// [`RecorderLane::flush`]).
    pub fn lane(&self, tree: u8) -> RecorderLane {
        debug_assert!((1..=2).contains(&tree), "tree must be 1 or 2");
        match &self.inner {
            None => RecorderLane { live: None },
            Some(inner) => RecorderLane {
                live: Some(LaneInner {
                    recorder: Arc::clone(inner),
                    buf: Vec::new(),
                    start: 0,
                    dropped: 0,
                    tree,
                    corr: 0,
                    tick_next: 0,
                    tick_end: 0,
                }),
            },
        }
    }

    /// Events overwritten by full rings so far (flushed lanes only).
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Drains every flushed lane into one tick-sorted event vector.
    /// Returns `(events, dropped)`. Call after all lanes are dropped —
    /// live lanes' events are not visible here.
    pub fn drain(&self) -> (Vec<PageAccessEvent>, u64) {
        let Some(inner) = &self.inner else {
            return (Vec::new(), 0);
        };
        let mut lanes = inner.flushed.lock().expect("recorder poisoned");
        let mut events: Vec<PageAccessEvent> = lanes.drain(..).flatten().collect();
        events.sort_unstable_by_key(|e| e.tick);
        (events, inner.dropped.load(Ordering::Relaxed))
    }

    /// Drains the recorder into an [`AccessTrace`] carrying the given
    /// policy and analytical predictions (see [`AccessTrace`]).
    pub fn into_trace(&self, policy: BufferPolicy, na_pred: f64, da_pred: f64) -> AccessTrace {
        let (events, dropped) = self.drain();
        AccessTrace {
            policy,
            dropped,
            na_pred,
            da_pred,
            events,
        }
    }
}

struct LaneInner {
    recorder: Arc<RecorderInner>,
    /// Ring storage: grows to `lane_capacity`, then wraps at `start`.
    buf: Vec<PageAccessEvent>,
    /// Oldest element once the ring has wrapped.
    start: usize,
    dropped: u64,
    tree: u8,
    corr: u32,
    /// Next tick to stamp; valid while `< tick_end`.
    tick_next: u64,
    /// End of the claimed tick block (exclusive). `0` ⇒ none claimed.
    tick_end: u64,
}

/// A thread-private recording lane (one per tree per executor). All
/// methods are no-ops for lanes of a disabled recorder.
pub struct RecorderLane {
    live: Option<LaneInner>,
}

impl RecorderLane {
    /// `true` when this lane records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.live.is_some()
    }

    /// Sets the correlation id stamped on subsequent events (the
    /// buffer-residency domain — see the module docs).
    #[inline]
    pub fn set_corr(&mut self, corr: u32) {
        if let Some(live) = &mut self.live {
            live.corr = corr;
        }
    }

    /// Records one access. The hot-path cost when enabled is a ring
    /// write (plus one relaxed `fetch_add` per [`TICK_BLOCK`] events);
    /// when disabled, one discriminant check.
    #[inline]
    pub fn record(&mut self, page: PageId, level: u8, kind: AccessKind) {
        let Some(live) = &mut self.live else {
            return;
        };
        if live.tick_next == live.tick_end {
            live.tick_next = live.recorder.tick.fetch_add(TICK_BLOCK, Ordering::Relaxed);
            live.tick_end = live.tick_next + TICK_BLOCK;
        }
        let tick = live.tick_next;
        live.tick_next += 1;
        let event = PageAccessEvent {
            tick,
            page,
            corr: live.corr,
            tree: live.tree,
            level,
            kind,
        };
        if live.buf.len() < live.recorder.lane_capacity {
            live.buf.push(event);
        } else {
            live.buf[live.start] = event;
            live.start = (live.start + 1) % live.buf.len();
            live.dropped += 1;
        }
    }

    /// Merges the lane's events into the recorder now (also happens on
    /// drop).
    pub fn flush(self) {}
}

impl Drop for RecorderLane {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let mut events = live.buf;
        events.rotate_left(live.start);
        live.recorder
            .dropped
            .fetch_add(live.dropped, Ordering::Relaxed);
        live.recorder
            .flushed
            .lock()
            .expect("recorder poisoned")
            .push(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PageId {
        PageId(i)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        let mut lane = r.lane(1);
        assert!(!lane.is_enabled());
        lane.record(p(1), 0, AccessKind::Miss);
        drop(lane);
        let (events, dropped) = r.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn events_merge_in_tick_order_across_lanes() {
        let r = FlightRecorder::enabled();
        let mut l1 = r.lane(1);
        let mut l2 = r.lane(2);
        l1.record(p(10), 0, AccessKind::Miss);
        l2.record(p(20), 1, AccessKind::Hit);
        l1.record(p(11), 0, AccessKind::Hit);
        drop(l1);
        drop(l2);
        let (events, dropped) = r.drain();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 3);
        // Ticks are globally unique and strictly increasing after the
        // merge; cross-lane interleaving is block-granular (each lane
        // claims TICK_BLOCK ticks at a time), but within-lane order —
        // the only order replay depends on — is exact.
        assert!(events.windows(2).all(|w| w[0].tick < w[1].tick));
        let lane1: Vec<_> = events
            .iter()
            .filter(|e| e.tree == 1)
            .map(|e| e.page)
            .collect();
        assert_eq!(lane1, vec![p(10), p(11)]);
        assert_eq!(events.iter().filter(|e| e.tree == 2).count(), 1);
    }

    #[test]
    fn corr_stamps_subsequent_events() {
        let r = FlightRecorder::enabled();
        let mut lane = r.lane(1);
        lane.record(p(1), 0, AccessKind::Miss);
        lane.set_corr(7);
        lane.record(p(2), 0, AccessKind::Miss);
        drop(lane);
        let (events, _) = r.drain();
        assert_eq!(events[0].corr, 0);
        assert_eq!(events[1].corr, 7);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let r = FlightRecorder::with_lane_capacity(3);
        let mut lane = r.lane(1);
        for i in 0..5 {
            lane.record(p(i), 0, AccessKind::Miss);
        }
        drop(lane);
        let (events, dropped) = r.drain();
        assert_eq!(dropped, 2);
        assert_eq!(events.len(), 3);
        // Oldest two overwritten; survivors in tick order.
        let pages: Vec<u32> = events.iter().map(|e| e.page.0).collect();
        assert_eq!(pages, vec![2, 3, 4]);
        assert!(events.windows(2).all(|w| w[0].tick < w[1].tick));
    }

    #[test]
    fn concurrent_lanes_get_unique_ticks() {
        let r = FlightRecorder::enabled();
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let r = r.clone();
                scope.spawn(move || {
                    let mut lane = r.lane(1 + t % 2);
                    for i in 0..100 {
                        lane.record(p(i), 0, AccessKind::Hit);
                    }
                });
            }
        });
        let (events, _) = r.drain();
        assert_eq!(events.len(), 400);
        assert!(events.windows(2).all(|w| w[0].tick < w[1].tick));
    }

    #[test]
    fn event_bytes_round_trip() {
        let e = PageAccessEvent {
            tick: 0xDEAD_BEEF_0123,
            page: p(42),
            corr: 7,
            tree: 2,
            level: 3,
            kind: AccessKind::Miss,
        };
        let round = PageAccessEvent::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(round, e);
    }

    #[test]
    fn event_bytes_reject_garbage() {
        let mut b = PageAccessEvent {
            tick: 1,
            page: p(1),
            corr: 0,
            tree: 1,
            level: 0,
            kind: AccessKind::Hit,
        }
        .to_bytes();
        b[16] = 3; // invalid tree
        assert!(PageAccessEvent::from_bytes(&b).is_err());
        b[16] = 1;
        b[18] = 9; // invalid kind
        assert!(PageAccessEvent::from_bytes(&b).is_err());
    }

    fn sample_trace() -> AccessTrace {
        let r = FlightRecorder::enabled();
        let mut l1 = r.lane(1);
        let mut l2 = r.lane(2);
        for i in 0..10 {
            l1.record(p(i), (i % 3) as u8, AccessKind::Miss);
            l2.record(p(100 + i), 0, AccessKind::Hit);
        }
        drop(l1);
        drop(l2);
        r.into_trace(BufferPolicy::Path, 123.0, 45.0)
    }

    #[test]
    fn trace_bytes_round_trip() {
        let trace = sample_trace();
        let round = AccessTrace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(round, trace);
        assert_eq!(round.policy, BufferPolicy::Path);
        assert_eq!(round.na_pred, 123.0);
        assert_eq!(round.da_pred, 45.0);
    }

    #[test]
    fn trace_rejects_corruption() {
        let trace = sample_trace();
        let bytes = trace.to_bytes();
        // Truncated body.
        assert!(AccessTrace::from_bytes(&bytes[..bytes.len() - 1])
            .unwrap_err()
            .contains("truncated"));
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(AccessTrace::from_bytes(&bad).unwrap_err().contains("magic"));
        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(AccessTrace::from_bytes(&bad)
            .unwrap_err()
            .contains("version"));
        // Non-monotonic ticks: swap two events.
        let mut bad = bytes.clone();
        let (a, b) = (HEADER_SIZE, HEADER_SIZE + EVENT_SIZE);
        let first: Vec<u8> = bad[a..a + EVENT_SIZE].to_vec();
        bad.copy_within(b..b + EVENT_SIZE, a);
        bad[b..b + EVENT_SIZE].copy_from_slice(&first);
        assert!(AccessTrace::from_bytes(&bad)
            .unwrap_err()
            .contains("strictly increasing"));
    }

    #[test]
    fn trace_file_round_trip() {
        let trace = sample_trace();
        let path = std::env::temp_dir().join(format!("sjcm_trace_{}.bin", std::process::id()));
        trace.write(&path).unwrap();
        let round = AccessTrace::read(&path).unwrap();
        assert_eq!(round, trace);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lru_policy_round_trips_capacity() {
        let t = AccessTrace {
            policy: BufferPolicy::Lru(512),
            dropped: 0,
            na_pred: 0.0,
            da_pred: 0.0,
            events: Vec::new(),
        };
        let round = AccessTrace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(round.policy, BufferPolicy::Lru(512));
    }

    #[test]
    fn an_lru_capacity_past_u32_saturates_instead_of_wrapping() {
        let bytes_of = |cap: usize| {
            AccessTrace {
                policy: BufferPolicy::Lru(cap),
                dropped: 0,
                na_pred: 0.0,
                da_pred: 0.0,
                events: Vec::new(),
            }
            .to_bytes()
        };
        let max = u32::MAX as usize;
        assert_eq!(bytes_of(max), bytes_of(max + 1));
        assert_eq!(bytes_of(max), bytes_of(usize::MAX));
        let round = AccessTrace::from_bytes(&bytes_of(max + 2)).unwrap();
        assert_eq!(
            round.policy,
            BufferPolicy::Lru(max),
            "not wrapped to Lru(1)"
        );
    }
}
