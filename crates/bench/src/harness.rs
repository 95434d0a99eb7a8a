//! A minimal wall-clock benchmark harness with a Criterion-compatible
//! surface.
//!
//! The paper-table benches under `benches/` need only a small API:
//! named benchmark functions and groups, per-group sample counts,
//! parameterized IDs and a `Bencher::iter` timing loop. This module
//! provides exactly that with `std::time::Instant`, so the workspace
//! carries no external benchmark dependency and builds fully offline.
//! Results are printed as mean/min/max per benchmark; these are
//! wall-clock measurements of the *simulator*, not of the simulated
//! hardware (simulated time is reported by the benches themselves via
//! `SimTime`).

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

const DEFAULT_SAMPLE_SIZE: usize = 20;

/// Runs one timing loop per call to [`Bencher::iter`].
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `sample_size` runs of `routine` (after one untimed warmup)
    /// and records the samples. The routine's output is passed through
    /// [`black_box`] so the optimizer cannot delete the work.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        self.samples.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            let out = routine();
            let elapsed = start.elapsed();
            black_box(out);
            self.samples.push(elapsed);
        }
    }
}

/// A parameterized benchmark name, e.g. `knob/3`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An ID rendered from a function name and a parameter.
    pub fn new(function: &str, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// An ID rendered from the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn run_one(name: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        sample_size,
        samples: Vec::new(),
    };
    f(&mut bencher);
    let n = bencher.samples.len().max(1) as u32;
    let total: Duration = bencher.samples.iter().sum();
    let mean = total / n;
    let min = bencher.samples.iter().min().copied().unwrap_or_default();
    let max = bencher.samples.iter().max().copied().unwrap_or_default();
    println!(
        "bench {name:<40} mean {:>12}  min {:>12}  max {:>12}  ({} samples)",
        fmt_duration(mean),
        fmt_duration(min),
        fmt_duration(max),
        bencher.samples.len(),
    );
}

/// The top-level harness handle passed to every benchmark function.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, DEFAULT_SAMPLE_SIZE, &mut f);
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_owned(),
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }
}

/// A named group of benchmarks sharing a sample count.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be nonzero");
        self.sample_size = n;
        self
    }

    /// Runs a named benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(&format!("{}/{name}", self.name), self.sample_size, &mut f);
        self
    }

    /// Runs a parameterized benchmark within the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{id}", self.name), self.sample_size, &mut |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (kept for API compatibility; output is streamed,
    /// so there is nothing to flush).
    pub fn finish(&mut self) {}
}

/// Bundles benchmark functions into one callable group, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::harness::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

// Let bench files import everything (types and macros) from one path.
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_requested_samples() {
        let mut b = Bencher {
            sample_size: 5,
            samples: Vec::new(),
        };
        let mut runs = 0u32;
        b.iter(|| {
            runs += 1;
            runs
        });
        // warmup + samples
        assert_eq!(runs, 6);
        assert_eq!(b.samples.len(), 5);
    }

    #[test]
    fn benchmark_ids_render() {
        assert_eq!(BenchmarkId::from_parameter(3).to_string(), "3");
        assert_eq!(BenchmarkId::new("knob", 5).to_string(), "knob/5");
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default();
        let mut ran = 0u32;
        {
            let mut g = c.benchmark_group("test");
            g.sample_size(2);
            g.bench_function("a", |b| b.iter(|| ran += 1));
            g.bench_with_input(BenchmarkId::from_parameter(7), &7, |b, &x| {
                b.iter(|| ran += x)
            });
            g.finish();
        }
        c.bench_function("plain", |b| b.iter(|| ran += 1));
        assert!(ran > 0);
    }

    #[test]
    #[should_panic(expected = "sample size")]
    fn zero_sample_size_rejected() {
        Criterion::default().benchmark_group("g").sample_size(0);
    }
}
