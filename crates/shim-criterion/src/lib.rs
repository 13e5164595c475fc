//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access, so the workspace vendors the
//! slice of criterion's API its benches use: `Criterion::benchmark_group`,
//! `BenchmarkGroup::{throughput, sample_size, bench_function,
//! bench_with_input, finish}`, `Bencher::iter`, [`BenchmarkId`],
//! [`Throughput`], and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! It is a smoke harness, not a statistics engine: each benchmark body runs a
//! small fixed number of iterations and reports mean wall-clock per
//! iteration. That keeps `cargo bench` (and plain `cargo build --benches`)
//! working for regression-spotting without the real crate's dependencies.

use std::fmt;
use std::time::{Duration, Instant};

/// Iterations per benchmark; deliberately tiny (smoke timing, not stats).
const ITERS: u32 = 3;

/// Top-level benchmark driver (stand-in for `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup { _c: self }
    }
}

/// A named collection of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Record the per-iteration data volume (printed, not analysed).
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        println!("  throughput: {t}");
        self
    }

    /// Accepted for API compatibility; the shim's iteration count is fixed.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher { total: Duration::ZERO, iters: 0 };
        f(&mut b);
        b.report(&id.to_string());
        self
    }

    /// Run one parameterised benchmark.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl fmt::Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher { total: Duration::ZERO, iters: 0 };
        f(&mut b, input);
        b.report(&id.to_string());
        self
    }

    /// End the group (a no-op beyond matching the real API).
    pub fn finish(&mut self) {}
}

/// Times closures passed to [`Bencher::iter`].
pub struct Bencher {
    total: Duration,
    iters: u32,
}

impl Bencher {
    /// Run `f` [`ITERS`] times, timing each run.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..ITERS {
            let start = Instant::now();
            let out = f();
            self.total += start.elapsed();
            self.iters += 1;
            drop(out);
        }
    }

    fn report(&self, id: &str) {
        if self.iters == 0 {
            println!("  {id}: no iterations");
        } else {
            println!("  {id}: {:.3?}/iter over {} iters", self.total / self.iters, self.iters);
        }
    }
}

/// Benchmark identifier: function name plus a parameter rendering.
pub struct BenchmarkId {
    name: String,
    param: String,
}

impl BenchmarkId {
    /// Identifier for `name` at parameter value `param`.
    pub fn new(name: impl Into<String>, param: impl fmt::Display) -> Self {
        BenchmarkId { name: name.into(), param: param.to_string() }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.param)
    }
}

/// Per-iteration data volume annotations.
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Throughput::Bytes(n) => write!(f, "{n} bytes/iter"),
            Throughput::Elements(n) => write!(f, "{n} elements/iter"),
        }
    }
}

/// Collect benchmark functions under one group-runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($bench:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $bench(&mut c); )+
        }
    };
}

/// Emit `main` running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_runs_bodies() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        let mut ran = 0u32;
        g.throughput(Throughput::Bytes(128))
            .sample_size(10)
            .bench_function("count", |b| b.iter(|| ran += 1));
        g.bench_with_input(BenchmarkId::new("param", 7), &3u32, |b, x| {
            b.iter(|| assert_eq!(*x, 3))
        });
        g.finish();
        assert_eq!(ran, ITERS);
    }
}
