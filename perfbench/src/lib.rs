//! The benchmark's library half: workloads, the tracing decorator and
//! the measurement plumbing. `src/main.rs` holds the command line and
//! the documentation of what is measured and why.

pub mod decor;
pub mod fixture;
pub mod layers;
pub mod live_churn;
pub mod measure;
pub mod serve_catalog;
pub mod shard_resident;

use measure::{median, peak_rss_kib, Fastest, Metrics};

/// Page size of every device, in bytes.
pub const PAGE: usize = 1024;

/// Queries per client call in the read workloads.
pub const WINDOW: usize = 16;

/// Input sizes and repetition counts of one benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// 2D points (`Clustered`, |coordinate| <= 1000).
    pub n2: usize,
    /// 3D points (`Uniform`, |coordinate| <= 2^16).
    pub n3: usize,
    /// Queries per pass of the read workloads, by class:
    /// (halfplane, halfspace, knn, disk, count/sum, top-k).
    pub mix: (usize, usize, usize, usize, usize, usize),
    /// Set-ups per run (`setup_s` is their median; `live_churn` replays
    /// one trace per set-up and makes more when it needs them).
    pub setups: usize,
    /// Set-ups per `shard_resident` run (cheaper, so more of them).
    pub shard_setups: usize,
    /// Points loaded into the live index before it is saved.
    pub live_preload: usize,
    /// Distinct seeded traces per `live_churn` pass.
    pub live_traces: usize,
    /// Operations per live trace.
    pub live_ops: usize,
}

impl Scale {
    /// The configuration the command measures: the six-class mix at twice
    /// the 2000-query oracle, over a quarter of the prototype's 16,384 +
    /// 6,144 points (whose catalog alone is 2 GB). Passes are short so
    /// that every call repeats many times in a run (see
    /// [`measure::Fastest`]).
    pub const BENCH: Scale = Scale {
        n2: 4096,
        n3: 1536,
        mix: (1440, 640, 480, 576, 576, 288),
        setups: 3,
        shard_setups: 10,
        live_preload: 8192,
        live_traces: 4,
        live_ops: 1250,
    };

    /// A small configuration for the benchmark's own tests.
    pub const SMALL: Scale = Scale {
        n2: 512,
        n3: 192,
        mix: (36, 16, 12, 14, 14, 8),
        setups: 1,
        shard_setups: 1,
        live_preload: 512,
        live_traces: 2,
        live_ops: 1200,
    };
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeCatalog,
    ShardResident,
    LiveChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ServeCatalog, Workload::ShardResident, Workload::LiveChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCatalog => "serve_catalog",
            Workload::ShardResident => "shard_resident",
            Workload::LiveChurn => "live_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run: which workload, its seed, how long to measure, traced or not.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time; whole passes repeat until it has elapsed (at least
    /// one pass, so `0.0` measures exactly one).
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What a run reports: operations attempted and failed, and its metrics
/// (end-to-end untraced, per-layer traced).
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::ServeCatalog => serve_catalog::run(cfg),
        Workload::ShardResident => shard_resident::run(cfg),
        Workload::LiveChurn => live_churn::run(cfg),
    }
}

/// The raw material of the end-to-end metrics, gathered by a workload.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// One entry per set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Operations per pass.
    pub ops_per_pass: u64,
    /// One pass of client calls, each at its fastest repetition, ms.
    pub pass_ms: f64,
    /// Read-call latencies, ms (one window, or one live query).
    pub query_ms: Fastest,
    /// Write-call latencies, ms.
    pub write_ms: Fastest,
    pub read_ios_per_query: f64,
    pub write_ios_per_op: f64,
    /// `None` when the byte counter it needs is unavailable.
    pub write_amp: Option<f64>,
    pub space_bytes_per_point: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl EndToEnd {
    pub fn into_outcome(self) -> Outcome {
        let mut m = Metrics::default();
        m.set("setup_s", median(&self.setup_s), "s");
        let ops_s = measure::ratio(self.ops_per_pass as f64 * 1e3, self.pass_ms);
        m.set("throughput_ops_s", ops_s, "1/s");
        m.set("query_p50_ms", self.query_ms.percentile(50.0), "ms");
        m.set("query_p99_ms", self.query_ms.percentile(99.0), "ms");
        m.set("write_p50_ms", self.write_ms.percentile(50.0), "ms");
        m.set("write_p99_ms", self.write_ms.percentile(99.0), "ms");
        m.set("read_ios_per_query", self.read_ios_per_query, "count");
        m.set("write_ios_per_op", self.write_ios_per_op, "count");
        m.set_opt("write_amp", self.write_amp, "ratio");
        m.set("space_bytes_per_point", self.space_bytes_per_point, "B");
        m.set_opt("peak_rss_mb", peak_rss_kib().map(|k| k as f64 / 1024.0), "MB");
        let ok = 1.0 - measure::ratio(self.failed as f64, self.attempted as f64);
        m.set("ok_frac", ok, "frac");
        Outcome { attempted: self.attempted, failed: self.failed, metrics: m }
    }
}

/// Set-up stage timings, one entry per set-up (per-layer medians).
#[derive(Debug, Default)]
pub struct Stages {
    pub build_s: Vec<f64>,
    pub calibrate_s: Vec<f64>,
    pub save_s: Vec<f64>,
    pub open_s: Vec<f64>,
}

impl Stages {
    pub fn report(&self, m: &mut Metrics) {
        m.set("setup.build_s", median(&self.build_s), "s");
        m.set("setup.calibrate_s", median(&self.calibrate_s), "s");
        m.set("setup.save_s", median(&self.save_s), "s");
        m.set("setup.open_s", median(&self.open_s), "s");
    }
}

/// `traced / untraced − 1` of two per-operation costs.
pub fn overhead(traced_per_op: f64, plain_per_op: f64) -> f64 {
    if plain_per_op == 0.0 {
        0.0
    } else {
        traced_per_op / plain_per_op - 1.0
    }
}
