//! Deterministic fault injection for the saved-tree fault tests.
//!
//! The tests need failures that are *reproducible*: the same seed must
//! injure the same pages in the same way on every run and on every
//! store. A [`FaultPlan`] therefore derives every decision from a pure
//! hash of `(seed, page)` — no RNG state, no wall clock:
//!
//! * **permanent loss** — every read of a lost page fails with
//!   [`StorageError::Io`].
//! * **silent bit flips** — a read returns the page with one bit
//!   flipped. Nothing below the loader notices: a tree page's checksum
//!   trailer is what refuses it.
//! * **allocation failures** — `allocate` fails on hash-selected calls.
//!
//! [`FaultyPageStore`] wraps any [`PageStore`] and injects the plan on
//! its real read and allocate path, tallying what it injected in
//! [`FaultCounters`].

use bytes::Bytes;
use sjcm_storage::{InMemoryPageStore, PageId, PageStore, StorageError};
use std::cell::Cell;

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
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
    /// Probability that a page reads back with one bit flipped.
    flip_rate: f64,
    /// Probability that a page is permanently lost (every read fails).
    loss_rate: f64,
    /// Probability that an `allocate` call fails.
    alloc_rate: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (the builder base).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            flip_rate: 0.0,
            loss_rate: 0.0,
            alloc_rate: 0.0,
        }
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

    /// Whether this page reads back bit-flipped.
    fn flips(&self, page: PageId) -> bool {
        self.hits(SALT_FLIP, page.0, self.flip_rate)
    }

    /// Which bit of a `len`-byte page the flip lands on.
    fn flip_bit(&self, page: PageId, len: usize) -> usize {
        (self.hash(SALT_FLIP, page.0) % (len as u64 * 8)) as usize
    }

    /// Whether this page is permanently lost.
    fn is_lost(&self, page: PageId) -> bool {
        self.hits(SALT_LOSS, page.0, self.loss_rate)
    }

    /// Whether the `nth` allocation call fails.
    fn alloc_fails(&self, nth: u64) -> bool {
        self.hits(SALT_ALLOC, (nth & 0xffff_ffff) as u32, self.alloc_rate)
    }
}

/// Tallies of the read faults a [`FaultyPageStore`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Reads returned with a bit flipped.
    pub injected_flip: u64,
    /// Reads refused because the page is permanently lost.
    pub injected_loss: u64,
}

/// A [`PageStore`] wrapper that injects the faults of a [`FaultPlan`]
/// into the wrapped store's read and allocate path. Writes pass through.
pub struct FaultyPageStore<S> {
    inner: S,
    plan: FaultPlan,
    allocs: u64,
    counters: Cell<FaultCounters>,
}

impl<S: PageStore> FaultyPageStore<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            allocs: 0,
            counters: Cell::default(),
        }
    }

    /// Snapshot of the injection tallies.
    pub fn counters(&self) -> FaultCounters {
        self.counters.get()
    }
}

impl<S: PageStore> PageStore for FaultyPageStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        let nth = self.allocs;
        self.allocs += 1;
        if self.plan.alloc_fails(nth) {
            return Err(StorageError::Io(format!(
                "injected allocation failure (call #{nth})"
            )));
        }
        self.inner.allocate()
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> Result<(), StorageError> {
        self.inner.write(id, data)
    }

    fn read(&self, id: PageId) -> Result<Bytes, StorageError> {
        let mut counters = self.counters.get();
        if self.plan.is_lost(id) {
            counters.injected_loss += 1;
            self.counters.set(counters);
            return Err(StorageError::Io(format!("injected permanent loss of {id}")));
        }
        let data = self.inner.read(id)?;
        if data.is_empty() || !self.plan.flips(id) {
            return Ok(data);
        }
        counters.injected_flip += 1;
        self.counters.set(counters);
        let mut buf = data.to_vec();
        let bit = self.plan.flip_bit(id, buf.len());
        buf[bit / 8] ^= 1 << (bit % 8);
        Ok(Bytes::from(buf))
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }
}

#[test]
fn plan_rates_are_roughly_respected() {
    let plan = FaultPlan::none(7).with_loss(0.25);
    let hit = (0..4000u32).filter(|&p| plan.is_lost(PageId(p))).count();
    let frac = hit as f64 / 4000.0;
    assert!((0.2..0.3).contains(&frac), "got {frac}");
}

#[test]
fn lost_pages_never_heal() {
    let mut store = InMemoryPageStore::new(64);
    let id = store.allocate().unwrap();
    store.write(id, b"page 0 payload").unwrap();
    let store = FaultyPageStore::new(store, FaultPlan::none(3).with_loss(1.0));
    for _ in 0..5 {
        assert!(matches!(store.read(id), Err(StorageError::Io(_))));
    }
    assert_eq!(store.counters().injected_loss, 5);
}

#[test]
fn alloc_failures_fire_on_planned_calls() {
    let plan = FaultPlan::none(5).with_alloc_failures(0.5);
    let mut store = FaultyPageStore::new(InMemoryPageStore::new(64), plan);
    let mut failures: u32 = 0;
    for nth in 0..100 {
        let failed = store.allocate().is_err();
        assert_eq!(failed, plan.alloc_fails(nth), "call #{nth}");
        failures += u32::from(failed);
    }
    assert!((20..80).contains(&failures), "got {failures}");
}
