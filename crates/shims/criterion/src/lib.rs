//! Offline stand-in for the `criterion` benchmarking crate.
//!
//! The build environment of this workspace cannot reach crates.io, so this
//! crate implements the small API subset the `kset-bench` benches use:
//! benchmark groups, `bench_function` / `bench_with_input`, `BenchmarkId`,
//! `Throughput`, `black_box`, and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Timing is a plain wall-clock mean over `sample_size` iterations after one
//! warm-up run — enough to track the perf trajectory between commits, with
//! none of upstream criterion's statistics.
//!
//! Two environment hooks drive the CI bench-smoke job (both additive on
//! top of the upstream-compatible API, so swapping in real criterion later
//! only loses them):
//!
//! * `KSET_BENCH_SAMPLES=N` overrides every group's configured sample
//!   size — the smoke job runs the full bench surface at `N = 3` to catch
//!   rot cheaply.
//! * `KSET_BENCH_SUMMARY=PATH` appends one machine-readable,
//!   tab-separated line per benchmark to `PATH`:
//!   `group⇥id⇥mean_ns⇥samples`. The smoke job uploads the file as the
//!   perf-trajectory artifact.
//!
//! Like upstream, the first non-flag command-line argument is a name
//! filter: `cargo bench --bench e7_simulator_scale -- e7_batched` runs only
//! the benchmarks whose `group/id` contains `e7_batched`.

#![warn(rust_2018_idioms)]

use std::fmt;
use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benchmarked
/// work.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Declared throughput of a benchmark, printed alongside timings.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name plus an optional parameter label.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id with both a function name and a parameter.
    pub fn new(name: impl fmt::Display, param: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{name}/{param}"),
        }
    }

    /// An id carrying only a parameter.
    pub fn from_parameter(param: impl fmt::Display) -> Self {
        BenchmarkId {
            name: param.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// The per-benchmark timing driver handed to bench closures.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    /// Mean per-iteration time measured by the last `iter` call.
    mean: Duration,
}

impl Bencher {
    /// Times `f`, recording the mean over the configured sample count.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        black_box(f()); // warm-up
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(f());
        }
        self.mean = start.elapsed() / self.samples as u32;
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Declares the per-iteration throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// The sample count actually used: the `KSET_BENCH_SAMPLES`
    /// environment override when set and positive, the configured size
    /// otherwise.
    fn effective_samples(&self) -> usize {
        std::env::var("KSET_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0)
            .unwrap_or(self.sample_size)
    }

    /// Runs one benchmark (unless the name filter excludes it).
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), f)
    }

    /// Runs one benchmark parameterized by `input` (unless the name filter
    /// excludes it).
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.to_string(), |b| f(b, input))
    }

    /// Times `f` and reports it, if `group/id` contains the harness's
    /// name filter.
    fn run(&mut self, id: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let filter = self.criterion.filter.as_deref().unwrap_or("");
        if !format!("{}/{id}", self.name).contains(filter) {
            return self;
        }
        let mut bencher = Bencher {
            samples: self.effective_samples(),
            mean: Duration::ZERO,
        };
        f(&mut bencher);
        self.report(id, bencher.mean, bencher.samples);
        self
    }

    fn report(&self, id: &str, mean: Duration, samples: usize) {
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if mean > Duration::ZERO => {
                format!("  ({:.0} elem/s)", n as f64 / mean.as_secs_f64())
            }
            Some(Throughput::Bytes(n)) if mean > Duration::ZERO => {
                format!("  ({:.0} B/s)", n as f64 / mean.as_secs_f64())
            }
            _ => String::new(),
        };
        println!("{}/{id}: {mean:?}/iter{rate}", self.name);
        if let Ok(path) = std::env::var("KSET_BENCH_SUMMARY") {
            use std::io::Write as _;
            let line = format!("{}\t{id}\t{}\t{samples}\n", self.name, mean.as_nanos());
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| f.write_all(line.as_bytes()));
            if let Err(e) = written {
                eprintln!("warning: cannot append bench summary to {path}: {e}");
            }
        }
    }

    /// Ends the group (kept for API parity; nothing to flush).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Debug, Default)]
pub struct Criterion {
    /// Substring a benchmark's `group/id` must contain to run.
    filter: Option<String>,
}

impl Criterion {
    /// Takes the name filter from the command line: the first argument
    /// after the program name that does not start with `-` (cargo passes
    /// `--bench` ahead of the user's arguments).
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args().skip(1).find(|arg| !arg.starts_with('-'));
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Bundles benchmark functions under one group name (API-compatible subset).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes every test that runs benchmarks: the env hooks are
    /// process-global, so a test mutating them must not overlap a test
    /// reading them (tests run on multiple threads by default).
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn group_times_and_reports() {
        let _env = ENV_LOCK.lock().unwrap();
        let mut c = Criterion::default();
        let mut ran = 0u64;
        {
            let mut g = c.benchmark_group("demo");
            g.sample_size(3).throughput(Throughput::Elements(10));
            g.bench_function("count", |b| b.iter(|| ran += 1));
            g.bench_with_input(BenchmarkId::new("param", 5), &5u64, |b, x| {
                b.iter(|| black_box(*x * 2))
            });
            g.finish();
        }
        assert!(ran >= 3, "warm-up + samples executed");
    }

    #[test]
    fn summary_env_hooks_write_tsv() {
        // Drive the CI bench-smoke contract: a sample-count override plus
        // one machine-readable TSV line per benchmark, appended to the
        // summary file. ENV_LOCK keeps the env mutation from racing the
        // other bench-running test's env reads.
        let _env = ENV_LOCK.lock().unwrap();
        let path =
            std::env::temp_dir().join(format!("kset-bench-summary-{}.tsv", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("KSET_BENCH_SAMPLES", "4");
        std::env::set_var("KSET_BENCH_SUMMARY", &path);
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(1000); // overridden down to 4 by the env hook
        let mut ran = 0u64;
        g.bench_function("count", |b| b.iter(|| ran += 1));
        g.finish();
        std::env::remove_var("KSET_BENCH_SAMPLES");
        std::env::remove_var("KSET_BENCH_SUMMARY");
        assert_eq!(ran, 5, "warm-up + 4 overridden samples");
        let summary = std::fs::read_to_string(&path).expect("summary file written");
        let _ = std::fs::remove_file(&path);
        let fields: Vec<&str> = summary.trim_end().split('\t').collect();
        assert_eq!(fields[0], "smoke");
        assert_eq!(fields[1], "count");
        assert!(fields[2].parse::<u128>().is_ok(), "mean_ns is numeric");
        assert_eq!(fields[3], "4");
    }

    #[test]
    fn name_filter_selects_by_group_and_id() {
        let _env = ENV_LOCK.lock().unwrap();
        let run = |filter: &str| {
            let mut c = Criterion {
                filter: Some(filter.to_string()),
            };
            let mut ran = Vec::new();
            for group in ["alpha", "beta"] {
                let mut g = c.benchmark_group(group);
                g.sample_size(1);
                g.bench_function("plain", |b| b.iter(|| ran.push(format!("{group}/plain"))));
                g.bench_with_input(BenchmarkId::new("param", 2), &2u32, |b, _| {
                    b.iter(|| ran.push(format!("{group}/param/2")))
                });
                g.finish();
            }
            ran.dedup();
            ran
        };
        assert_eq!(run("beta"), ["beta/plain", "beta/param/2"]);
        assert_eq!(run("param"), ["alpha/param/2", "beta/param/2"]);
        assert_eq!(run("alpha/plain"), ["alpha/plain"]);
        assert!(run("gamma").is_empty());
        assert_eq!(run("").len(), 4, "the empty filter matches everything");
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
