//! Measurement plumbing shared by the workloads: latency samples, the
//! traced run's span log, output checks and the metric sink.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use xsi_core::StructuralIndex;
use xsi_graph::NodeId;

use crate::speed::scaled_median;

/// How one workload run is configured.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Seeds every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub budget: Duration,
    /// `false`: the untraced end-to-end run. `true`: the traced run.
    pub trace: bool,
    /// Input sizes; [`Scale::FULL`] outside tests.
    pub scale: Scale,
    /// Test hook: corrupts every expected query answer and document
    /// count, so the checks must report failures.
    pub corrupt: bool,
}

/// Input sizes of every workload, kept together so tests can shrink them.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// XMark scale of `xmark-churn`.
    pub churn_xmark: f64,
    /// IMDB scale of `imdb-mixed`.
    pub mixed_imdb: f64,
    /// XMark, IMDB and DBLP scale of the `doc-load` docs group.
    pub load_docs: f64,
    /// Depth of the single-label chain, the a/b chain and the IDREF cycle.
    pub shape_chain: usize,
    /// Number of depth-100 teeth of the comb.
    pub comb_teeth: usize,
    /// Chain length `n` of the doubling sweep (the sweep builds n and 2n).
    pub sweep_chain: usize,
}

impl Scale {
    /// The sizes the benchmark is defined with (see README.md).
    pub const FULL: Scale = Scale {
        churn_xmark: 0.4,
        mixed_imdb: 0.1,
        load_docs: 0.1,
        shape_chain: 3500,
        comb_teeth: 100,
        sweep_chain: 1500,
    };
}

/// When a measured loop stops: after a time, or after a count of
/// operations, passes or rounds.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Count(u64),
}

impl Stop {
    pub fn done(self, start: Instant, n: u64) -> bool {
        match self {
            Stop::After(d) => start.elapsed() >= d,
            Stop::Count(c) => n >= c,
        }
    }
}

/// Runs whole passes until `stop` (in time or passes). Each pass sets up
/// fresh inputs from its own seed, derived from the run's `seed`, times
/// that set-up into `setups`, and hands the state to `pass`. A run thus
/// averages over several generated inputs, and every pass starts from
/// the same kind of state however many operations the run gets through.
/// Returns the passes run and the last pass's state.
pub fn passes<S>(
    seed: u64,
    stop: Stop,
    setups: &mut Vec<f64>,
    mut setup: impl FnMut(u64) -> S,
    mut pass: impl FnMut(&mut S),
) -> (u64, S) {
    let start = Instant::now();
    let mut n = 0;
    loop {
        let t = Instant::now();
        let mut s = setup(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(n));
        setups.push(t.elapsed().as_secs_f64());
        pass(&mut s);
        n += 1;
        if stop.done(start, n) {
            return (n, s);
        }
    }
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A set of timings (or counts), with linear-interpolated quantiles.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, v: u64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `q` quantile (0 ≤ q ≤ 1), interpolating between order
    /// statistics; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_unstable();
        quantile_sorted(&v, q)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

fn quantile_sorted(v: &[u64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0] as f64,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            v[lo] as f64 * (1.0 - frac) + v[hi] as f64 * frac
        }
    }
}

/// Median of a list of values; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Latency figures of each stretch of operations between two samples of
/// the machine's speed, reported as medians over the stretches of the
/// figures scaled to the reference speed (see `speed.rs`), so that load
/// slowing a minority of the stretches moves them little.
#[derive(Debug, Default)]
pub struct PerStretch {
    p50_ns: Vec<f64>,
    p99_ns: Vec<f64>,
    per_s: Vec<f64>,
}

impl PerStretch {
    pub fn add(&mut self, lat: &Samples) {
        self.p50_ns.push(lat.p50());
        self.p99_ns.push(lat.p99());
        self.per_s
            .push(lat.len() as f64 * 1e9 / lat.sum().max(1) as f64);
    }

    pub fn p50_us(&self, scales: &[f64]) -> f64 {
        scaled_median(&self.p50_ns, scales) / 1e3
    }

    pub fn p99_us(&self, scales: &[f64]) -> f64 {
        scaled_median(&self.p99_ns, scales) / 1e3
    }

    /// Operations per second of operation time.
    pub fn per_s(&self, scales: &[f64]) -> f64 {
        let inverse: Vec<f64> = scales.iter().map(|s| 1.0 / s).collect();
        scaled_median(&self.per_s, &inverse)
    }
}

/// The traced run's span log: the duration of every call the benchmark
/// makes into a layer's public function, keyed by `layer.function`.
#[derive(Debug, Default)]
pub struct Trace {
    spans: BTreeMap<&'static str, Samples>,
}

impl Trace {
    /// Calls `f` and records its duration under `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(name, ns_since(t));
        r
    }

    pub fn record(&mut self, name: &'static str, ns: u64) {
        self.spans.entry(name).or_default().push(ns);
    }

    pub fn samples(&self, name: &str) -> Samples {
        self.spans.get(name).cloned().unwrap_or_default()
    }
}

/// Operations attempted and failed, and the output checks made.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    corrupt: bool,
}

impl Checks {
    pub fn new(corrupt: bool) -> Self {
        Checks {
            corrupt,
            ..Checks::default()
        }
    }

    /// Counts one operation; a failed one is reported.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Checks an index answer against the data-graph answer.
    pub fn answer(&mut self, what: &str, got: &[NodeId], expected: &[NodeId]) {
        let expected = self.expected(expected);
        self.check(got == expected.as_slice(), || {
            format!("{what}: {} nodes, expected {}", got.len(), expected.len())
        });
    }

    /// Checks a count against the count it must equal.
    pub fn count(&mut self, what: &str, got: usize, expected: usize) {
        let expected = expected + usize::from(self.corrupt);
        self.check(got == expected, || {
            format!("{what}: {got}, expected {expected}")
        });
    }

    /// Checks a `Result`-returning consistency oracle.
    pub fn oracle(&mut self, what: &str, r: Result<(), String>) {
        self.check(r.is_ok(), || format!("{what}: {}", r.unwrap_err()));
    }

    fn expected(&self, answer: &[NodeId]) -> Vec<NodeId> {
        let mut v = answer.to_vec();
        if self.corrupt {
            v.push(NodeId(u32::MAX));
        }
        v
    }

    /// Counts a failure; the first ten are printed to standard error.
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("check failed: {msg}");
        }
    }
}

/// The metrics one run reports, by name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }
}

/// What a workload run produced: its checks, the metrics named in
/// `BENCHMARK.json`, and further figures that are only printed.
#[derive(Debug)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
    pub extra: Metrics,
}

/// Deep heap bytes of an index, as its memory report counts them.
pub fn index_bytes(idx: &dyn StructuralIndex) -> u64 {
    idx.mem_report().map_or(0, |r| r.total_bytes())
}

pub const MIB: f64 = 1024.0 * 1024.0;
