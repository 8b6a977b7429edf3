//! Timing and report plumbing shared by the three benches (`kernels`, `e2e`
//! and `trainstep`).
//!
//! [`time`] makes one warm-up call, then a fixed number of timed calls, and
//! summarises them as a [`Timing`]: min, median and p90, so every reported
//! number carries its spread; [`time_each`] does the same for series that
//! are compared, interleaving their calls. [`Sweep`] times a naive path
//! against a fast one across worker-thread counts and checks, in the same
//! run, that the fast path reproduced the naive output. [`write_report`]
//! writes a bench's `BENCH_*.json` and fails the bench when it cannot.

use focus_tensor::par;
use focus_trace::clock;
use focus_trace::report::RunReport;
use std::fmt;
use std::hint::black_box;

/// The spread of one timed series over its samples, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Fastest sample.
    pub min_ns: f64,
    /// Nearest-rank median.
    pub median_ns: f64,
    /// Nearest-rank 90th percentile.
    pub p90_ns: f64,
}

impl Timing {
    /// Summarises per-call samples.
    ///
    /// # Panics
    /// If `samples` is empty.
    fn from_samples(mut samples: Vec<f64>) -> Timing {
        assert!(!samples.is_empty(), "a timing needs at least one sample");
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        Timing { min_ns: samples[0], median_ns: rank(0.5), p90_ns: rank(0.9) }
    }

    /// Prints `{key}: {self}` and adds `{key}/min_ns`, `{key}/median_ns`
    /// and `{key}/p90_ns` to `report`.
    pub fn record(&self, report: &mut RunReport, key: &str) {
        println!("{key}: {self}");
        report
            .metric(&format!("{key}/min_ns"), self.min_ns)
            .metric(&format!("{key}/median_ns"), self.median_ns)
            .metric(&format!("{key}/p90_ns"), self.p90_ns);
    }
}

impl fmt::Display for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "median {} (min {}, p90 {})",
            fmt_ms(self.median_ns),
            fmt_ms(self.min_ns),
            fmt_ms(self.p90_ns)
        )
    }
}

/// Milliseconds with three decimals.
pub fn fmt_ms(ns: f64) -> String {
    format!("{:.3} ms", ns / 1e6)
}

/// Calls `f` once to warm up, then `samples` more times, timing each call.
/// Returns the timing and the warm-up call's output, for the caller to check.
pub fn time<T>(samples: usize, mut f: impl FnMut() -> T) -> (Timing, T) {
    let ([timing], [warm]) = time_each(samples, [&mut f]);
    (timing, warm)
}

/// [`time`] for series that are compared with each other: one warm-up call
/// of each, then `samples` rounds that time one call of every series in
/// turn. The host's slow phases last far longer than a round, so the series
/// sample the same conditions and their ratios hold from run to run. A call
/// follows another series' call, so it does not find its own data in cache.
pub fn time_each<T, const N: usize>(
    samples: usize,
    mut series: [&mut dyn FnMut() -> T; N],
) -> ([Timing; N], [T; N]) {
    let warm = series.each_mut().map(|f| f());
    let mut ns = [(); N].map(|()| Vec::with_capacity(samples));
    for _ in 0..samples {
        for (f, ns) in series.iter_mut().zip(&mut ns) {
            let start = clock::now_ns();
            black_box(f());
            ns.push(clock::now_ns().saturating_sub(start) as f64);
        }
    }
    (ns.map(Timing::from_samples), warm)
}

/// Worker-thread counts a sweep visits: 1, 2, 4 and the host's core count.
pub fn sweep_threads() -> Vec<usize> {
    let mut ts = vec![1usize, 2, 4];
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !ts.contains(&max) {
        ts.push(max);
    }
    ts
}

/// A naive path at 1 thread against a fast path at each of
/// [`sweep_threads`], with the in-run check of the fast path's output.
pub struct Sweep {
    /// Series id, the prefix of every report key.
    pub label: &'static str,
    /// The naive path, at 1 thread.
    naive: Timing,
    /// `(threads, timing)` for the fast path.
    fast: Vec<(usize, Timing)>,
    /// The fast path's output equalled the naive path's at every thread count.
    pub matches: bool,
}

impl Sweep {
    /// Times `naive` and then `fast` at every thread count, comparing each
    /// fast warm-up output with the naive one through `same`. Each series
    /// runs back to back, so a kernel is timed with warm caches.
    pub fn run<T>(
        label: &'static str,
        samples: usize,
        naive: impl FnMut() -> T,
        mut fast: impl FnMut() -> T,
        same: impl Fn(&T, &T) -> bool,
    ) -> Sweep {
        par::set_threads(1);
        let (naive, want) = time(samples, naive);
        let mut sweep = Sweep { label, naive, fast: Vec::new(), matches: true };
        for t in sweep_threads() {
            par::set_threads(t);
            let (timing, got) = time(samples, &mut fast);
            sweep.matches &= same(&want, &got);
            sweep.fast.push((t, timing));
        }
        par::set_threads(0);
        sweep
    }

    /// Median speedup of the fast path over the naive one at 1 thread, the
    /// first count [`sweep_threads`] visits.
    fn speedup_t1(&self) -> f64 {
        self.naive.median_ns / self.fast[0].1.median_ns
    }

    /// Prints the sweep and adds its timings, speedup and check to `report`.
    pub fn record(&self, report: &mut RunReport) {
        let label = self.label;
        self.naive.record(report, &format!("{label}/naive"));
        for &(t, timing) in &self.fast {
            timing.record(report, &format!("{label}/fast_t{t}"));
        }
        let speedup = self.speedup_t1();
        println!("{label}: median speedup at 1 thread {speedup:.2}x, output match: {}", self.matches);
        report
            .metric(&format!("{label}/speedup_1_thread"), speedup)
            .metric(&format!("{label}/output_match"), f64::from(u8::from(self.matches)));
    }
}

/// Writes `report` to `path`.
///
/// # Panics
/// If the write fails, naming the path and the I/O error, so a bench that
/// cannot write its report exits nonzero rather than leaving a stale one.
pub fn write_report(report: &RunReport, path: &str) {
    if let Err(e) = report.write(path) {
        // focus-lint: allow(panic-hygiene) -- documented panic: a bench that cannot write its report must fail, naming the path and the error
        panic!("could not write {path}: {e}");
    }
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_reports_nearest_rank_spread() {
        let t = Timing::from_samples((1..=10).rev().map(f64::from).collect());
        assert_eq!(t, Timing { min_ns: 1.0, median_ns: 5.0, p90_ns: 9.0 });
    }

    #[test]
    fn time_each_warms_up_then_interleaves_its_series() {
        let calls = std::cell::RefCell::new(Vec::new());
        let log = |c| {
            calls.borrow_mut().push(c);
            calls.borrow().len()
        };
        let (mut a, mut b) = (|| log('a'), || log('b'));
        let (_, warm) = time_each(2, [&mut a, &mut b]);
        assert_eq!(warm, [1, 2]);
        assert_eq!(calls.into_inner(), ['a', 'b', 'a', 'b', 'a', 'b']);
    }

    #[test]
    #[should_panic(expected = "could not write /nonexistent-focus-bench-dir/BENCH_x.json")]
    fn unwritable_report_fails_naming_the_path() {
        write_report(&RunReport::new("x"), "/nonexistent-focus-bench-dir/BENCH_x.json");
    }
}
