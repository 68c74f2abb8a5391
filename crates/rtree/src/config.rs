//! Tree configuration.

use sjcm_storage::{max_entries, DEFAULT_PAGE_SIZE};

/// Configuration of an R-tree instance.
///
/// The defaults reproduce the paper's setup: 1 KiB pages (so `M` follows
/// from the dimensionality via the node layout), minimum fill `m = 40%·M`
/// (the R\*-tree recommendation) and forced reinsertion of `30%·M`
/// entries on first overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Page size in bytes; determines the maximum node capacity.
    pub page_size: usize,
    /// Maximum entries per node — the paper's `M`.
    pub max_entries: usize,
    /// Minimum entries per non-root node — `m`, with `2 ≤ m ≤ M/2`.
    pub min_entries: usize,
    /// Number of entries evicted by forced reinsertion.
    pub reinsert_count: usize,
}

impl RTreeConfig {
    /// The paper's configuration for dimensionality `n`: 1 KiB pages,
    /// `M` from the page layout (84 for n = 1, 50 for n = 2), R\*-tree
    /// semantics.
    ///
    /// ```
    /// use sjcm_rtree::RTreeConfig;
    /// assert_eq!(RTreeConfig::paper(1).max_entries, 84);
    /// assert_eq!(RTreeConfig::paper(2).max_entries, 50);
    /// ```
    pub fn paper(n: usize) -> Self {
        Self::for_page_size(DEFAULT_PAGE_SIZE, n)
    }

    /// Configuration for an arbitrary page size and dimensionality,
    /// with R\*-tree defaults for `m` and the reinsert fraction.
    pub fn for_page_size(page_size: usize, n: usize) -> Self {
        let max = max_entries(page_size, n);
        assert!(
            max >= 4,
            "page of {page_size} bytes holds fewer than 4 entries in {n}-D"
        );
        Self::with_capacity(max).with_page_size(page_size)
    }

    /// Configuration from an explicit `M`, for tests that want tiny nodes
    /// to force deep trees on small data.
    pub fn with_capacity(max: usize) -> Self {
        assert!(max >= 4, "M must be at least 4, got {max}");
        Self {
            page_size: DEFAULT_PAGE_SIZE,
            max_entries: max,
            // R*-tree recommendation: m = 40% of M.
            min_entries: (max * 2 / 5).max(2),
            // R*-tree recommendation: p = 30% of M.
            reinsert_count: (max * 3 / 10).max(1),
        }
    }

    /// Replaces the page size (does not recompute `M`; use
    /// [`RTreeConfig::for_page_size`] for that).
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Validates the configuration's internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_entries < 4 {
            return Err(format!("M = {} < 4", self.max_entries));
        }
        if self.min_entries < 1 || 2 * self.min_entries > self.max_entries {
            return Err(format!(
                "m = {} violates 1 ≤ m ≤ M/2 = {}",
                self.min_entries,
                self.max_entries / 2
            ));
        }
        if self.reinsert_count + self.min_entries > self.max_entries {
            return Err(format!(
                "reinsert count {} too large for M = {}, m = {}",
                self.reinsert_count, self.max_entries, self.min_entries
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_published_capacities() {
        let c1 = RTreeConfig::paper(1);
        assert_eq!(c1.max_entries, 84);
        assert_eq!(c1.min_entries, 33); // 40% of 84
        assert_eq!(c1.reinsert_count, 25); // 30% of 84
        let c2 = RTreeConfig::paper(2);
        assert_eq!(c2.max_entries, 50);
        assert_eq!(c2.min_entries, 20);
        assert_eq!(c2.reinsert_count, 15);
        c1.validate().unwrap();
        c2.validate().unwrap();
    }

    #[test]
    fn tiny_capacity_keeps_m_at_least_two() {
        let c = RTreeConfig::with_capacity(4);
        assert_eq!(c.min_entries, 2);
        c.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn rejects_capacity_below_four() {
        RTreeConfig::with_capacity(3);
    }

    #[test]
    fn validate_catches_bad_min() {
        let mut c = RTreeConfig::with_capacity(10);
        c.min_entries = 6;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_excessive_reinsert() {
        let mut c = RTreeConfig::with_capacity(10);
        c.reinsert_count = 9;
        assert!(c.validate().is_err());
    }
}
