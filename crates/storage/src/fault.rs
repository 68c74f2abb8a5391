//! Deterministic fault injection and resilient retry for page stores.
//!
//! The fault-tolerance tests of a saved tree need failures that are
//! *reproducible*: the same seed must injure the same pages in the same
//! way on every run. A [`FaultPlan`] therefore derives every decision
//! from a pure hash of `(seed, page)` — no RNG state, no wall clock:
//!
//! * **transient read faults** — a faulty page's first `budget` reads
//!   fail with [`StorageError::Io`], then the page reads fine, so a
//!   retry budget ≥ the fault budget always recovers.
//! * **permanent loss** — every read of a lost page fails.
//! * **silent bit flips** — the read returns data with one bit flipped;
//!   the FNV-1a checksum recorded at write time catches the flip and
//!   surfaces it as [`StorageError::Corrupt`]. A page written before the
//!   wrapper saw it has no such record: its flipped bytes reach the
//!   caller, and a tree page's trailer ([`crate::layout`]) is what
//!   refuses them on load.
//! * **allocation failures** — `allocate` fails on hash-selected calls.
//!
//! Two wrappers carry it:
//!
//! * [`FaultyPageStore`] wraps any [`PageStore`] and injects the plan on
//!   the real read/write/allocate path (persisted trees).
//! * [`ResilientStore`] wraps any [`PageStore`] (typically a faulty one)
//!   with bounded retry, a deterministic exponential backoff schedule
//!   counted in *virtual ticks* (never sleeps), and a per-page
//!   quarantine list for pages that exhaust their retries.
//!
//! Everything observable lands in [`FaultCounters`].

use crate::page::{fnv1a, PageId, PageStore, StorageError};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

const SALT_TRANSIENT: u64 = 0x7472_616e_7369_656e; // "transien"
const SALT_FLIP: u64 = 0x666c_6970_666c_6970; // "flipflip"
const SALT_LOSS: u64 = 0x6c6f_7373_6c6f_7373; // "lossloss"
const SALT_ALLOC: u64 = 0x616c_6c6f_6361_7465; // "allocate"

/// SplitMix64 finalizer — the avalanche behind every plan decision.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded, stateless description of which faults fire where. Every
/// decision is a pure function of the plan and the page, so two runs
/// with the same plan injure identical pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Root seed; campaigns vary this to explore fault placements.
    pub seed: u64,
    /// Probability that a page suffers transient read faults at all.
    pub transient_rate: f64,
    /// How many reads of a transiently faulty page fail before it heals.
    pub transient_budget: u32,
    /// Probability that a page's first read returns bit-flipped data.
    pub flip_rate: f64,
    /// Probability that a page is permanently lost (every read fails).
    pub loss_rate: f64,
    /// Probability that an `allocate` call fails.
    pub alloc_rate: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a builder base).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            transient_rate: 0.0,
            transient_budget: 0,
            flip_rate: 0.0,
            loss_rate: 0.0,
            alloc_rate: 0.0,
        }
    }

    /// Adds transient read faults: a `rate` fraction of pages fail their
    /// first `budget` reads.
    pub fn with_transient(mut self, rate: f64, budget: u32) -> Self {
        self.transient_rate = rate;
        self.transient_budget = budget;
        self
    }

    /// Adds silent single-bit flips on a `rate` fraction of pages.
    pub fn with_flips(mut self, rate: f64) -> Self {
        self.flip_rate = rate;
        self
    }

    /// Adds permanent loss of a `rate` fraction of pages.
    pub fn with_loss(mut self, rate: f64) -> Self {
        self.loss_rate = rate;
        self
    }

    /// Adds allocation failures on a `rate` fraction of `allocate` calls.
    pub fn with_alloc_failures(mut self, rate: f64) -> Self {
        self.alloc_rate = rate;
        self
    }

    fn hash(&self, salt: u64, key: u32) -> u64 {
        mix(self.seed ^ mix(salt) ^ mix(u64::from(key)))
    }

    fn hits(&self, salt: u64, key: u32, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        // Top 53 bits → uniform in [0, 1).
        let u = (self.hash(salt, key) >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// Number of transient faults budgeted for this page (0 = healthy).
    pub fn transient_faults(&self, page: PageId) -> u32 {
        if self.hits(SALT_TRANSIENT, page.0, self.transient_rate) {
            self.transient_budget
        } else {
            0
        }
    }

    /// Whether this page's first read returns bit-flipped data.
    pub fn flips(&self, page: PageId) -> bool {
        self.hits(SALT_FLIP, page.0, self.flip_rate)
    }

    /// Which bit of a `len`-byte page the flip lands on.
    pub fn flip_bit(&self, page: PageId, len: usize) -> usize {
        debug_assert!(len > 0);
        (self.hash(SALT_FLIP, page.0) % (len as u64 * 8)) as usize
    }

    /// Whether this page is permanently lost.
    pub fn is_lost(&self, page: PageId) -> bool {
        self.hits(SALT_LOSS, page.0, self.loss_rate)
    }

    /// Whether the `nth` allocation call fails.
    pub fn alloc_fails(&self, nth: u64) -> bool {
        self.hits(SALT_ALLOC, (nth & 0xffff_ffff) as u32, self.alloc_rate)
    }
}

/// Tallies of everything the fault layer did — injections by kind, retry
/// work, and outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Transient read faults injected (one per failed read attempt).
    pub injected_transient: u64,
    /// Bit flips injected.
    pub injected_flip: u64,
    /// Reads refused because the page is permanently lost.
    pub injected_loss: u64,
    /// Allocation calls refused.
    pub injected_alloc: u64,
    /// Retry attempts spent (a first attempt is not a retry).
    pub retried: u64,
    /// Fault episodes that ended in a successful operation.
    pub recovered: u64,
    /// Pages quarantined after exhausting their retry budget.
    pub quarantined: u64,
    /// Accesses refused immediately because the page was quarantined.
    pub quarantine_hits: u64,
    /// Virtual backoff ticks accumulated by the retry schedule.
    pub backoff_ticks: u64,
}

impl FaultCounters {
    /// Fraction of fault episodes that ended in success:
    /// `recovered / (recovered + quarantined)`. `None` when no episode
    /// concluded (nothing injected, or faults only on healthy retries).
    pub fn recovery_rate(&self) -> Option<f64> {
        let episodes = self.recovered + self.quarantined;
        (episodes > 0).then(|| self.recovered as f64 / episodes as f64)
    }
}

/// Retries after a first failed attempt, so at most four attempts.
const MAX_RETRIES: u32 = 3;

/// Virtual ticks charged before retry `attempt` (0-based): `2^attempt`,
/// a deterministic exponential backoff (nothing ever sleeps).
fn backoff_ticks(attempt: u32) -> u64 {
    1 << attempt
}

/// Only I/O-ish failures are worth retrying; structural errors
/// (`UnknownPage`, `PageOverflow`, `MalformedNode`) are deterministic.
fn retryable(e: &StorageError) -> bool {
    matches!(e, StorageError::Io(_) | StorageError::Corrupt(_))
}

#[derive(Default)]
struct FaultState {
    /// FNV-1a of the last data written per page; catches injected flips.
    checksums: HashMap<u32, u64>,
    /// Remaining transient faults per page (lazily seeded from the plan).
    transient_left: HashMap<u32, u32>,
    /// Whether the page's one flip is still pending.
    flip_pending: HashMap<u32, bool>,
    allocs: u64,
    counters: FaultCounters,
}

/// A [`PageStore`] wrapper that injects the faults of a [`FaultPlan`]
/// into the real read/write/allocate path. Wrap it in a
/// [`ResilientStore`] to get retry + quarantine on top.
pub struct FaultyPageStore<S> {
    inner: S,
    plan: FaultPlan,
    state: RefCell<FaultState>,
}

impl<S: PageStore> FaultyPageStore<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            state: RefCell::new(FaultState::default()),
        }
    }

    /// Snapshot of the injection tallies.
    pub fn counters(&self) -> FaultCounters {
        self.state.borrow().counters
    }

    /// The wrapped store.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PageStore> PageStore for FaultyPageStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        let st = self.state.get_mut();
        let nth = st.allocs;
        st.allocs += 1;
        if self.plan.alloc_fails(nth) {
            st.counters.injected_alloc += 1;
            return Err(StorageError::Io(format!(
                "injected allocation failure (call #{nth})"
            )));
        }
        self.inner.allocate()
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        self.inner.write(id, data)?;
        self.state.get_mut().checksums.insert(id.0, fnv1a(data));
        Ok(())
    }

    fn read(&self, id: PageId) -> Result<Bytes, StorageError> {
        let mut st = self.state.borrow_mut();
        if self.plan.is_lost(id) {
            st.counters.injected_loss += 1;
            return Err(StorageError::Io(format!("injected permanent loss of {id}")));
        }
        let fired = {
            let left = st
                .transient_left
                .entry(id.0)
                .or_insert_with(|| self.plan.transient_faults(id));
            if *left > 0 {
                *left -= 1;
                true
            } else {
                false
            }
        };
        if fired {
            st.counters.injected_transient += 1;
            return Err(StorageError::Io(format!(
                "injected transient read fault on {id}"
            )));
        }
        let data = self.inner.read(id)?;
        let flip = {
            let pending = st
                .flip_pending
                .entry(id.0)
                .or_insert_with(|| self.plan.flips(id));
            std::mem::replace(pending, false)
        };
        if flip && !data.is_empty() {
            st.counters.injected_flip += 1;
            let mut buf = data.to_vec();
            let bit = self.plan.flip_bit(id, buf.len());
            buf[bit / 8] ^= 1 << (bit % 8);
            if let Some(&sum) = st.checksums.get(&id.0) {
                if fnv1a(&buf) != sum {
                    // The write-time checksum catches the flip: surface
                    // it as corruption instead of returning wrong bytes.
                    return Err(StorageError::Corrupt(id));
                }
            }
            // No checksum on record (page written behind our back):
            // genuinely silent corruption, exactly what the checksum
            // discipline is there to prevent.
            return Ok(Bytes::from(buf));
        }
        Ok(data)
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }
}

#[derive(Default)]
struct ResilientState {
    quarantine: BTreeSet<u32>,
    counters: FaultCounters,
}

/// A [`PageStore`] wrapper that retries retryable failures up to three
/// times with a deterministic exponential backoff of 1, 2 and 4 virtual
/// ticks, and quarantines pages whose reads or writes exhaust the
/// retries. Quarantined pages fail fast.
pub struct ResilientStore<S> {
    inner: S,
    state: RefCell<ResilientState>,
}

impl<S: PageStore> ResilientStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            state: RefCell::new(ResilientState::default()),
        }
    }

    /// Snapshot of the retry/quarantine tallies (injection tallies live
    /// on the wrapped [`FaultyPageStore`], if any).
    pub fn counters(&self) -> FaultCounters {
        self.state.borrow().counters
    }

    /// Pages currently quarantined, in ascending order.
    pub fn quarantined_pages(&self) -> Vec<PageId> {
        self.state
            .borrow()
            .quarantine
            .iter()
            .map(|&p| PageId(p))
            .collect()
    }

    /// The wrapped store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Shared read/write retry loop; quarantines `id` on exhaustion.
    fn with_retries<T>(
        state: &mut ResilientState,
        id: PageId,
        mut op: impl FnMut() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        if state.quarantine.contains(&id.0) {
            state.counters.quarantine_hits += 1;
            return Err(StorageError::Io(format!("page {id} is quarantined")));
        }
        let mut last = None;
        for attempt in 0..=MAX_RETRIES {
            match op() {
                Ok(v) => {
                    if attempt > 0 {
                        state.counters.recovered += 1;
                    }
                    return Ok(v);
                }
                Err(e) if retryable(&e) => {
                    if attempt < MAX_RETRIES {
                        state.counters.retried += 1;
                        state.counters.backoff_ticks += backoff_ticks(attempt);
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        state.quarantine.insert(id.0);
        state.counters.quarantined += 1;
        Err(last.expect("at least one attempt ran"))
    }
}

impl<S: PageStore> PageStore for ResilientStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        // Allocation has no page to quarantine; plain bounded retry.
        let mut last = None;
        for attempt in 0..=MAX_RETRIES {
            match self.inner.allocate() {
                Ok(id) => {
                    let st = self.state.get_mut();
                    if attempt > 0 {
                        st.counters.recovered += 1;
                    }
                    return Ok(id);
                }
                Err(e) if retryable(&e) => {
                    let st = self.state.get_mut();
                    if attempt < MAX_RETRIES {
                        st.counters.retried += 1;
                        st.counters.backoff_ticks += backoff_ticks(attempt);
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        let Self { inner, state } = self;
        Self::with_retries(state.get_mut(), id, || inner.write(id, data))
    }

    fn read(&self, id: PageId) -> Result<Bytes, StorageError> {
        let mut st = self.state.borrow_mut();
        Self::with_retries(&mut st, id, || self.inner.read(id))
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::InMemoryPageStore;

    fn seeded_store(pages: u32) -> InMemoryPageStore {
        let mut store = InMemoryPageStore::new(64);
        for i in 0..pages {
            let id = store.allocate().unwrap();
            store
                .write(id, format!("page {i} payload").as_bytes())
                .unwrap();
        }
        store
    }

    #[test]
    fn plan_decisions_are_deterministic() {
        let plan = FaultPlan::none(42).with_transient(0.3, 2).with_loss(0.1);
        for p in 0..64u32 {
            assert_eq!(
                plan.transient_faults(PageId(p)),
                plan.transient_faults(PageId(p))
            );
            assert_eq!(plan.is_lost(PageId(p)), plan.is_lost(PageId(p)));
        }
    }

    #[test]
    fn plan_rates_are_roughly_respected() {
        let plan = FaultPlan::none(7).with_transient(0.25, 1);
        let hit = (0..4000u32)
            .filter(|&p| plan.transient_faults(PageId(p)) > 0)
            .count();
        let frac = hit as f64 / 4000.0;
        assert!((0.2..0.3).contains(&frac), "got {frac}");
    }

    #[test]
    fn transient_faults_heal_after_budget() {
        let plan = FaultPlan::none(3).with_transient(1.0, 2);
        let store = FaultyPageStore::new(seeded_store(1), plan);
        let id = PageId(0);
        assert!(matches!(store.read(id), Err(StorageError::Io(_))));
        assert!(matches!(store.read(id), Err(StorageError::Io(_))));
        assert!(store.read(id).is_ok(), "page heals after its budget");
        assert_eq!(store.counters().injected_transient, 2);
    }

    #[test]
    fn lost_pages_never_heal() {
        let plan = FaultPlan::none(3).with_loss(1.0);
        let store = FaultyPageStore::new(seeded_store(1), plan);
        for _ in 0..5 {
            assert!(matches!(store.read(PageId(0)), Err(StorageError::Io(_))));
        }
        assert_eq!(store.counters().injected_loss, 5);
    }

    #[test]
    fn bit_flip_is_caught_by_write_checksum() {
        let plan = FaultPlan::none(9).with_flips(1.0);
        let mut store = FaultyPageStore::new(InMemoryPageStore::new(64), plan);
        let id = store.allocate().unwrap();
        store.write(id, b"precious payload").unwrap();
        assert_eq!(store.read(id).unwrap_err(), StorageError::Corrupt(id));
        assert_eq!(store.counters().injected_flip, 1);
        // The flip fires once; the page then reads back intact.
        assert_eq!(&store.read(id).unwrap()[..], b"precious payload");
    }

    #[test]
    fn alloc_failures_fire_on_planned_calls() {
        let plan = FaultPlan::none(5).with_alloc_failures(0.5);
        let mut store = FaultyPageStore::new(InMemoryPageStore::new(64), plan);
        let mut failures: u32 = 0;
        for _ in 0..100 {
            if store.allocate().is_err() {
                failures += 1;
            }
        }
        assert_eq!(u64::from(failures), store.counters().injected_alloc);
        assert!((20..80).contains(&failures), "got {failures}");
    }

    #[test]
    fn resilient_store_recovers_when_faults_fit_budget() {
        let plan = FaultPlan::none(3).with_transient(1.0, 2);
        let faulty = FaultyPageStore::new(seeded_store(4), plan);
        let store = ResilientStore::new(faulty);
        for p in 0..4u32 {
            assert!(store.read(PageId(p)).is_ok(), "retries absorb 2 faults");
        }
        let c = store.counters();
        assert_eq!(c.recovered, 4);
        assert_eq!(c.retried, 8, "2 retries per page");
        assert_eq!(c.quarantined, 0);
        assert_eq!(c.recovery_rate(), Some(1.0));
        // Deterministic exponential backoff: 2 retries cost 1 + 2 ticks.
        assert_eq!(c.backoff_ticks, 4 * 3);
    }

    #[test]
    fn resilient_store_quarantines_exhausted_pages() {
        let plan = FaultPlan::none(3).with_loss(1.0);
        let faulty = FaultyPageStore::new(seeded_store(1), plan);
        let store = ResilientStore::new(faulty);
        assert!(store.read(PageId(0)).is_err());
        let c = store.counters();
        assert_eq!(c.quarantined, 1);
        assert_eq!(store.quarantined_pages(), vec![PageId(0)]);
        // Second read fails fast without retrying.
        assert!(store.read(PageId(0)).is_err());
        let c2 = store.counters();
        assert_eq!(c2.quarantine_hits, 1);
        assert_eq!(c2.retried, c.retried, "no further retries");
    }

    #[test]
    fn resilient_store_does_not_retry_structural_errors() {
        let store = ResilientStore::new(InMemoryPageStore::new(64));
        assert!(matches!(
            store.read(PageId(99)),
            Err(StorageError::UnknownPage(_))
        ));
        assert_eq!(store.counters().retried, 0);
        assert_eq!(store.counters().quarantined, 0);
    }
}
