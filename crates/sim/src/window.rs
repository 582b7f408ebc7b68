//! Sliding-instruction-window bandwidth profiler (the paper's Table 2).
//!
//! "We counted the number of memory references in the last 32 or 64
//! instructions executed (in 32 or 64-wide 'sliding instruction window')
//! every cycle. After constructing the distribution of the collected numbers
//! (per region), we draw from it ... the average number of memory accesses
//! in the window and the standard deviation of them."

use std::collections::VecDeque;

use arl_mem::Region;
use arl_stats::{Histogram, Moments};

use crate::trace::TraceEntry;

/// Per-region statistics of in-window access counts for one window size:
/// streaming moments plus the full distribution the paper constructs
/// ("after constructing the distribution of the collected numbers (per
/// region), we draw from it ... the average ... and the standard
/// deviation").
#[derive(Clone, Debug)]
pub struct WindowStats {
    /// The window size in instructions.
    pub window: usize,
    /// `[data, heap, stack]` moments of the per-cycle in-window counts.
    pub(crate) per_region: [Moments; 3],
    /// `[data, heap, stack]` exact count distributions.
    pub(crate) distributions: [Histogram; 3],
}

impl WindowStats {
    /// Mean in-window accesses for `region`.
    ///
    /// # Panics
    ///
    /// Panics on [`Region::Text`], which has no data-access statistics.
    pub fn mean(&self, region: Region) -> f64 {
        self.per_region[Self::index(region)].mean()
    }

    /// Standard deviation of in-window accesses for `region`.
    ///
    /// # Panics
    ///
    /// Panics on [`Region::Text`], which has no data-access statistics.
    pub fn stddev(&self, region: Region) -> f64 {
        self.per_region[Self::index(region)].population_stddev()
    }

    /// The paper's "strictly bursty" predicate for `region`: mean < stddev.
    ///
    /// # Panics
    ///
    /// Panics on [`Region::Text`], which has no data-access statistics.
    pub fn is_strictly_bursty(&self, region: Region) -> bool {
        self.per_region[Self::index(region)].is_strictly_bursty()
    }

    /// The exact distribution of in-window counts for `region`.
    ///
    /// # Panics
    ///
    /// Panics on [`Region::Text`], which has no data-access statistics.
    pub(crate) fn distribution(&self, region: Region) -> &Histogram {
        &self.distributions[Self::index(region)]
    }

    /// Fraction of sampled windows that contained no access to `region` —
    /// a direct read on clustering (bursty regions idle most of the time).
    pub fn idle_fraction(&self, region: Region) -> f64 {
        let h = self.distribution(region);
        if h.total() == 0 {
            0.0
        } else {
            h.count(0) as f64 / h.total() as f64
        }
    }

    /// Statistics slot for a data-access region; `None` for
    /// [`Region::Text`], which can only appear in malformed entries.
    fn data_index(region: Region) -> Option<usize> {
        match region {
            Region::Data => Some(0),
            Region::Heap => Some(1),
            Region::Stack => Some(2),
            Region::Text => None,
        }
    }

    /// Accessor-side index: callers name a region explicitly, so Text here
    /// is API misuse, not malformed input.
    fn index(region: Region) -> usize {
        Self::data_index(region).unwrap_or_else(|| panic!("{region:?} is not a data access region"))
    }
}

/// Streams a trace and maintains, per window size, the per-region counts of
/// memory references among the last `W` instructions, sampling the counts
/// after every instruction once the window has filled.
#[derive(Clone, Debug)]
pub struct SlidingWindowProfiler {
    windows: Vec<WindowState>,
}

#[derive(Clone, Debug)]
struct WindowState {
    size: usize,
    /// Region marker per in-window instruction (`None` = not a memory ref).
    ring: VecDeque<Option<Region>>,
    counts: [u64; 3],
    moments: [Moments; 3],
    histograms: [Histogram; 3],
}

impl WindowState {
    fn new(size: usize) -> WindowState {
        WindowState {
            size,
            ring: VecDeque::with_capacity(size),
            counts: [0; 3],
            moments: [Moments::new(); 3],
            histograms: [Histogram::new(), Histogram::new(), Histogram::new()],
        }
    }

    fn push(&mut self, marker: Option<Region>) {
        if self.ring.len() == self.size {
            if let Some(Some(old)) = self.ring.pop_front() {
                if let Some(i) = WindowStats::data_index(old) {
                    self.counts[i] -= 1;
                }
            }
        }
        if let Some(i) = marker.and_then(WindowStats::data_index) {
            self.counts[i] += 1;
        }
        self.ring.push_back(marker);
        if self.ring.len() == self.size {
            for i in 0..3 {
                self.moments[i].push(self.counts[i] as f64);
                self.histograms[i].record(self.counts[i] as usize);
            }
        }
    }
}

impl SlidingWindowProfiler {
    /// Creates a profiler sampling the paper's 32- and 64-instruction
    /// windows.
    pub fn new() -> SlidingWindowProfiler {
        SlidingWindowProfiler::with_windows(&[32, 64])
    }

    /// Creates a profiler with custom window sizes.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or contains zero.
    pub fn with_windows(sizes: &[usize]) -> SlidingWindowProfiler {
        assert!(!sizes.is_empty(), "need at least one window size");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "window sizes must be positive"
        );
        SlidingWindowProfiler {
            windows: sizes.iter().map(|&s| WindowState::new(s)).collect(),
        }
    }

    /// Feeds one trace entry. A malformed entry whose data access
    /// classifies as [`Region::Text`] is counted as a non-memory
    /// instruction rather than aborting the run — trace replay already
    /// rejects such entries as `SourceError::Corrupt` at the source, so
    /// this profiler never needs to panic on them.
    pub fn observe(&mut self, entry: &TraceEntry) {
        let marker = entry.mem.map(|m| m.region);
        for w in &mut self.windows {
            w.push(marker);
        }
    }

    /// Finished statistics, one per configured window size.
    pub fn stats(&self) -> Vec<WindowStats> {
        self.windows
            .iter()
            .map(|w| WindowStats {
                window: w.size,
                per_region: w.moments,
                distributions: w.histograms.clone(),
            })
            .collect()
    }
}

impl Default for SlidingWindowProfiler {
    fn default() -> SlidingWindowProfiler {
        SlidingWindowProfiler::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::trace::MemAccess;
    use arl_isa::{Inst, Width};

    fn entry(region: Option<Region>) -> TraceEntry {
        TraceEntry {
            pc: 8,
            inst: Inst::Nop,
            mem: region.map(|r| MemAccess {
                addr: 0,
                width: Width::Double,
                is_load: true,
                region: r,
            }),
            taken: false,
            next_pc: 16,
            gpr_write: None,
            ghr: 0,
            ra: 0,
        }
    }

    #[test]
    fn constant_density_has_zero_stddev() {
        // Pattern: every 4th instruction is a data access; window 4 always
        // holds exactly 1 of them.
        let mut p = SlidingWindowProfiler::with_windows(&[4]);
        for i in 0..400 {
            let r = if i % 4 == 0 { Some(Region::Data) } else { None };
            p.observe(&entry(r));
        }
        let s = &p.stats()[0];
        assert_eq!(s.window, 4);
        assert!((s.mean(Region::Data) - 1.0).abs() < 1e-12);
        assert!(s.stddev(Region::Data) < 1e-12);
        assert!(!s.is_strictly_bursty(Region::Data));
        assert_eq!(s.mean(Region::Heap), 0.0);
    }

    #[test]
    fn clustered_accesses_are_bursty() {
        // 8 heap accesses in a row then 92 non-mem, repeated: window 8 sees
        // mostly 0 or 8 — stddev exceeds mean.
        let mut p = SlidingWindowProfiler::with_windows(&[8]);
        for _ in 0..20 {
            for _ in 0..8 {
                p.observe(&entry(Some(Region::Heap)));
            }
            for _ in 0..92 {
                p.observe(&entry(None));
            }
        }
        let s = &p.stats()[0];
        assert!(s.is_strictly_bursty(Region::Heap));
    }

    #[test]
    fn window_only_samples_when_full() {
        let mut p = SlidingWindowProfiler::with_windows(&[32]);
        for _ in 0..31 {
            p.observe(&entry(Some(Region::Stack)));
        }
        assert_eq!(p.stats()[0].per_region[2].count(), 0);
        p.observe(&entry(Some(Region::Stack)));
        assert_eq!(p.stats()[0].per_region[2].count(), 1);
        assert_eq!(p.stats()[0].mean(Region::Stack), 32.0);
    }

    #[test]
    fn distribution_matches_moments() {
        let mut p = SlidingWindowProfiler::with_windows(&[4]);
        // Bursts of 4 heap refs then 12 quiet → windows hold 0..=4.
        for _ in 0..25 {
            for _ in 0..4 {
                p.observe(&entry(Some(Region::Heap)));
            }
            for _ in 0..12 {
                p.observe(&entry(None));
            }
        }
        let s = &p.stats()[0];
        let h = s.distribution(Region::Heap);
        assert_eq!(h.total(), s.per_region[1].count());
        assert!((h.mean() - s.mean(Region::Heap)).abs() < 1e-12);
        // Idle fraction: 9 of every 16 full windows contain no heap ref.
        assert!(
            s.idle_fraction(Region::Heap) > 0.5,
            "{}",
            s.idle_fraction(Region::Heap)
        );
        assert!(h.count(4) > 0, "full-burst windows observed");
    }

    #[test]
    fn default_profiles_32_and_64() {
        let p = SlidingWindowProfiler::new();
        let stats = p.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].window, 32);
        assert_eq!(stats[1].window, 64);
    }

    #[test]
    #[should_panic(expected = "window sizes must be positive")]
    fn zero_window_rejected() {
        let _ = SlidingWindowProfiler::with_windows(&[0]);
    }

    #[test]
    fn malformed_text_access_does_not_abort_profiling() {
        // A data access classifying as Text is malformed input (the
        // replayer rejects it as Corrupt); if one reaches the profiler it
        // must degrade to "no access", not panic mid-sweep.
        let mut p = SlidingWindowProfiler::with_windows(&[2]);
        p.observe(&entry(Some(Region::Text)));
        p.observe(&entry(Some(Region::Data)));
        p.observe(&entry(Some(Region::Text)));
        let s = &p.stats()[0];
        assert_eq!(s.per_region[0].count(), 2, "two full windows sampled");
        assert!((s.mean(Region::Data) - 1.0).abs() < 1e-12);
        assert_eq!(s.mean(Region::Heap), 0.0);
    }
}
