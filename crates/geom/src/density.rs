//! The *density* statistic of a rectangle set.
//!
//! The paper's cost model is a function of exactly two primitive data
//! properties: the cardinality `N` of a data set and its **density** `D`.
//! Following \[TS96\], the density of a set of rectangles in a region is the
//! total measure of the rectangles divided by the measure of the region —
//! equivalently, the expected number of rectangles covering a random
//! point. For the unit workspace the denominator is 1, so `D` is simply
//! the sum of MBR measures.

use crate::Rect;

/// Density of a rectangle set over the unit workspace: the sum of MBR
/// measures. For a data set of `N` rectangles of average measure `a`,
/// `D = N · a` — the paper's synthetic workloads fix `D ∈ [0.2, 0.8]`.
///
/// ```
/// use sjcm_geom::{density, Rect};
/// let rects = vec![
///     Rect::new([0.0, 0.0], [0.5, 0.5]).unwrap(),
///     Rect::new([0.2, 0.2], [0.7, 0.7]).unwrap(),
/// ];
/// assert!((density(rects.iter()) - 0.5).abs() < 1e-12);
/// ```
pub fn density<'a, const N: usize>(rects: impl IntoIterator<Item = &'a Rect<N>>) -> f64 {
    rects.into_iter().map(Rect::measure).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_is_sum_of_measures() {
        let rects = [
            Rect::new([0.0, 0.0], [0.1, 0.1]).unwrap(),  // 0.01
            Rect::new([0.5, 0.5], [0.9, 0.75]).unwrap(), // 0.1
        ];
        assert!((density(rects.iter()) - 0.11).abs() < 1e-12);
    }

    #[test]
    fn density_of_empty_set_is_zero() {
        assert_eq!(density(std::iter::empty::<&Rect<2>>()), 0.0);
    }

    #[test]
    fn overlapping_rects_double_count() {
        // Density counts coverage with multiplicity: two coincident unit
        // halves give D = 1.0, meaning a random point is covered twice on
        // average within their footprint.
        let r = Rect::new([0.0, 0.0], [1.0, 0.5]).unwrap();
        assert!((density([r, r].iter()) - 1.0).abs() < 1e-12);
    }
}
