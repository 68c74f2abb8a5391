//! Machine-speed calibration for the end-to-end timings.
//!
//! On a shared two-core sandbox the same join takes 55 ms one second and
//! 105 ms ten seconds later, in phases that last longer than a run: a
//! neighbour on the sibling hardware thread slows dense, branchy code by
//! up to 1.8×, while a dependent multiply chain does not notice. Medians
//! do not remove a slow phase that covers the whole run. What does, for
//! the most part, is a small fixed kernel with the workloads' own
//! instruction mix (rectangle overlap tests over cache-resident arrays),
//! timed next to every pass: over four minutes in which the 60K join's
//! five-second medians ranged over 35 %, join time ÷ kernel time ranged
//! over 13 % (a kernel with the join's cache footprint did no better:
//! 10 %), and in ten-seed sweeps a pass's wall time divided by the
//! slow-down measured around it repeats to 2–3 %. The correction is
//! linear and the join is a little more sensitive than the kernel, so a
//! run that sits in a heavy phase still reads up to a tenth high.
//!
//! The kernel is the harness's own code on the harness's own data: no
//! change to the program can move it.

use crate::stats::{median, SplitMix64};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Milliseconds one kernel run takes on the nominal machine: this
/// sandbox in a quiet phase. Every calibrated time is "milliseconds on
/// a machine that runs the kernel in this long".
const NOMINAL_KERNEL_MS: f64 = 0.48;
/// A measurement younger than this is reused, so that thousands of
/// sub-millisecond passes do not each pay for a calibration.
const REUSE: Duration = Duration::from_millis(20);

const OUTER: usize = 256;
const INNER: usize = 512;

/// Times the kernel on demand and reports how slow the machine is now.
pub struct Calibrator {
    outer: Vec<[f64; 4]>,
    inner: Vec<[f64; 4]>,
    last: Option<(Instant, f64)>,
    /// Every slow-down measured so far.
    history: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(0x5EED);
        let mut rects = |n: usize| -> Vec<[f64; 4]> {
            (0..n)
                .map(|_| {
                    let (x, y) = (rng.range_f64(0.0, 0.9), rng.range_f64(0.0, 0.9));
                    [
                        x,
                        y,
                        x + rng.range_f64(0.0, 0.1),
                        y + rng.range_f64(0.0, 0.1),
                    ]
                })
                .collect()
        };
        Calibrator {
            outer: rects(OUTER),
            inner: rects(INNER),
            last: None,
            history: Vec::new(),
        }
    }

    /// One kernel run: `OUTER × INNER` overlap tests. Returns ms.
    fn kernel_ms(&self) -> f64 {
        let t = Instant::now();
        let mut hits = 0u32;
        for a in &self.outer {
            for b in &self.inner {
                hits += u32::from(a[0] <= b[2] && b[0] <= a[2] && a[1] <= b[3] && b[1] <= a[3]);
            }
        }
        black_box(hits);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The machine's current slow-down against the nominal machine
    /// (1.0 = nominal, 1.5 = half as slow again): the median of three
    /// kernel runs, or the last answer when that is fresh.
    pub fn slowdown(&mut self) -> f64 {
        if let Some((at, value)) = self.last {
            if at.elapsed() < REUSE {
                return value;
            }
        }
        let runs = [self.kernel_ms(), self.kernel_ms(), self.kernel_ms()];
        let value = median(&runs) / NOMINAL_KERNEL_MS;
        self.last = Some((Instant::now(), value));
        self.history.push(value);
        value
    }

    /// The median slow-down over the run so far: how far this run's
    /// machine was from the nominal one.
    pub fn median_slowdown(&self) -> f64 {
        if self.history.is_empty() {
            1.0
        } else {
            median(&self.history)
        }
    }

    /// Runs `f` and returns its result with its calibrated wall time in
    /// milliseconds: the wall time divided by the mean of the slow-downs
    /// measured just before and just after.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.slowdown();
        let t = Instant::now();
        let out = f();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = self.slowdown();
        (out, wall_ms / ((before + after) / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_real_work_and_the_answer_is_reused() {
        let mut c = Calibrator::new();
        let hits: usize = c
            .outer
            .iter()
            .map(|a| {
                c.inner
                    .iter()
                    .filter(|b| a[0] <= b[2] && b[0] <= a[2] && a[1] <= b[3] && b[1] <= a[3])
                    .count()
            })
            .sum();
        // Some pairs overlap and most do not: the branch is not constant.
        assert!(hits > 100 && hits < OUTER * INNER / 4, "{hits}");
        let first = c.slowdown();
        assert!(first > 0.0);
        assert_eq!(c.slowdown(), first, "a fresh measurement is reused");
    }

    #[test]
    fn calibrated_time_is_wall_time_over_the_slowdown() {
        let mut c = Calibrator::new();
        // Pin the slow-down so the arithmetic is visible.
        c.last = Some((Instant::now(), 2.0));
        let (out, ms) = c.time(|| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(2) {}
            7
        });
        assert_eq!(out, 7);
        assert!((1.0..1.5).contains(&ms), "{ms}");
    }
}
