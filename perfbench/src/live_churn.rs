//! `live_churn`: a durable `LiveIndex` (32-page cache, delta cap 64)
//! preloaded with uniform points and saved to a directory, so every
//! mutation checkpoints; then seeded `live_trace` traces of the default
//! mix replayed op by op, with `begin_merge` every 500 ops and
//! `commit_merge` 200 ops later. Answers are checked against a host
//! `BTreeMap` model, and the directory is reopened after every replay and
//! compared whole.

use std::collections::BTreeMap;
use std::time::Instant;

use lcrs_engine::LiveIndex;
use lcrs_extmem::DeviceConfig;
use lcrs_halfspace::hs2d::Hs2dConfig;
use lcrs_workloads::{live_trace, TraceMix, TraceOp};

use crate::decor::{kind_id, Recorder};
use crate::fixture::{live_preload, live_trace_seed, LIVE_RANGE, LIVE_SLOPE, PRELOAD_TAG_BASE};
use crate::layers;
use crate::measure::{delta, dir_bytes, max, median, ratio, wchar, Fastest, TempDir};
use crate::{overhead, EndToEnd, Outcome, RunConfig, Scale, Stages, PAGE};

const CACHE: usize = 32;
const DELTA_CAP: usize = 64;
/// A background merge starts every `MERGE_EVERY` ops ...
const MERGE_EVERY: usize = 500;
/// ... and commits this many ops later. Mutations made while a merge is
/// in flight skip the checkpoint and take a tenth of the time; at 250 of
/// 500 the median write sat on the boundary between the two and read
/// 0.015 ms on some seeds and 0.15 ms on others. At 200 the median is the
/// durable write on every seed.
const COMMIT_AFTER: usize = 200;
/// An intercept above every point: `y <= c` reports the whole set.
const ALL: i64 = 1 << 40;

type Model = BTreeMap<u64, (i64, i64)>;

/// A freshly preloaded and saved live index. The index drops (closing
/// its page files) before its directory is removed.
struct Setup {
    live: LiveIndex,
    dir: TempDir,
}

fn setup(preload: &[(i64, i64)], stages: &mut Stages) -> (Setup, f64) {
    let t0 = Instant::now();
    let mut live =
        LiveIndex::new(DeviceConfig::new(PAGE, CACHE), Hs2dConfig::default(), Some(DELTA_CAP));
    for (i, &(x, y)) in preload.iter().enumerate() {
        live.insert(x, y, PRELOAD_TAG_BASE + i as u64).expect("in-memory insert");
    }
    let t_build = t0.elapsed().as_secs_f64();
    let dir = TempDir::new("live");
    live.save_to_dir(dir.path()).expect("save live index");
    let secs = t0.elapsed().as_secs_f64();
    stages.build_s.push(t_build);
    stages.save_s.push(secs - t_build);
    (Setup { live, dir }, secs)
}

/// Records of the measured passes.
#[derive(Default)]
struct Phase {
    replays: u64,
    ops: u64,
    mutations: u64,
    user_bytes: u64,
    /// Client calls keyed by their place in the traces: queries, writes,
    /// and `begin_merge`/`commit_merge`.
    query_ms: Fastest,
    write_ms: Fastest,
    merge_ms: Fastest,
    queries: u64,
    reads: u64,
    writes: u64,
    wchar: Option<u64>,
    space: Vec<f64>,
    failed: u64,
    begin_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    epochs: u64,
    parts: u64,
    pages: u64,
    catalog_bytes: u64,
    open_s: Vec<f64>,
}

/// Run one client call on the clock; returns its latency in ms.
fn timed(call: impl FnOnce()) -> f64 {
    let t = Instant::now();
    call();
    t.elapsed().as_secs_f64() * 1e3
}

impl Phase {
    /// One pass of client calls, each at its fastest repetition, ms.
    fn pass_ms(&self) -> f64 {
        self.query_ms.total_ms() + self.write_ms.total_ms() + self.merge_ms.total_ms()
    }
}

/// The model's answer to `y <= m·x + c` (strict unless `inclusive`),
/// ascending by tag.
fn below(model: &Model, m: i64, c: i64, inclusive: bool) -> Vec<u64> {
    model
        .iter()
        .filter(|(_, &(x, y))| {
            let rhs = m as i128 * x as i128 + c as i128;
            if inclusive {
                y as i128 <= rhs
            } else {
                (y as i128) < rhs
            }
        })
        .map(|(&tag, _)| tag)
        .collect()
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Replay trace `ti` once on a fresh set-up, then reopen its directory
/// and compare the whole live set with the model.
fn replay(
    s: Setup,
    (ti, trace): (usize, &[TraceOp]),
    model0: &Model,
    p: &mut Phase,
    rec: Option<&Recorder>,
) {
    let Setup { mut live, dir } = s;
    // Call keys: op `i` of trace `ti`, and a merge call before op `i`
    // (or after the last op).
    let op_key = |i: usize| ti * trace.len() + i;
    let merge_key = |i: usize| ti * (trace.len() + 1) + i;
    let mut model = model0.clone();
    let scope = live.core().scope().clone();
    let io0 = scope.stats();
    let w0 = wchar();
    let epoch0 = live.merge_epoch();
    for (i, op) in trace.iter().enumerate() {
        if i > 0 && i % MERGE_EVERY == 0 {
            let ms = timed(|| {
                live.begin_merge();
            });
            p.merge_ms.record(merge_key(i), ms);
            p.begin_ms.push(ms);
        }
        if i > MERGE_EVERY && i % MERGE_EVERY == COMMIT_AFTER {
            let mut ok = true;
            let ms = timed(|| ok = live.commit_merge().is_ok());
            p.merge_ms.record(merge_key(i), ms);
            p.commit_ms.push(ms);
            p.failed += u64::from(!ok);
        }
        match *op {
            TraceOp::Insert { x, y, tag } => {
                let mut ok = true;
                let ms = timed(|| ok = live.insert(x, y, tag).is_ok());
                p.write_ms.record(op_key(i), ms);
                p.failed += u64::from(!ok);
                model.insert(tag, (x, y));
                p.user_bytes += 24;
            }
            TraceOp::Delete { tag } => {
                let mut ok = true;
                let ms = timed(|| ok = matches!(live.remove(tag), Ok(true)));
                p.write_ms.record(op_key(i), ms);
                p.failed += u64::from(!ok);
                model.remove(&tag);
                p.user_bytes += 8;
            }
            TraceOp::Query { m, c, inclusive } => {
                let before = scope.stats();
                let start = Instant::now();
                let mut ids = Vec::new();
                let ms = timed(|| ids = live.query_below(m, c, inclusive));
                p.query_ms.record(op_key(i), ms);
                let io = scope.stats().since(before);
                if let Some(rec) = rec {
                    rec.record(kind_id("live") as u8, 0, start, io, ids.len());
                }
                p.reads += io.reads;
                p.queries += 1;
                p.parts += live.core().num_parts() as u64;
                p.failed += u64::from(sorted(ids) != below(&model, m, c, inclusive));
            }
        }
        p.ops += 1;
        p.mutations += u64::from(!matches!(op, TraceOp::Query { .. }));
    }
    if live.merge_in_progress() {
        let mut ok = true;
        let ms = timed(|| ok = live.commit_merge().is_ok());
        p.merge_ms.record(merge_key(trace.len()), ms);
        p.commit_ms.push(ms);
        p.failed += u64::from(!ok);
    }
    p.writes += scope.stats().since(io0).writes;
    p.wchar = p.wchar.zip(delta(w0, wchar())).map(|(a, b)| a + b);
    p.epochs += live.merge_epoch() - epoch0;
    p.space.push(dir_bytes(dir.path()) as f64 / model.len() as f64);
    p.catalog_bytes = dir_bytes(dir.path());
    p.pages =
        live.core().levels().iter().filter_map(|l| l.device()).map(|d| d.pages_allocated()).sum();
    p.replays += 1;

    // Durability: what the directory holds must be exactly the model.
    let everything: Vec<u64> = model.keys().copied().collect();
    p.failed += u64::from(sorted(live.query_below(0, ALL, true)) != everything);
    drop(live);
    let t = Instant::now();
    let reopened = LiveIndex::open_dir(dir.path(), CACHE);
    p.open_s.push(t.elapsed().as_secs_f64());
    match reopened {
        Ok(r) => p.failed += u64::from(sorted(r.query_below(0, ALL, true)) != everything),
        Err(_) => p.failed += 1,
    }
}

/// A run's seeded inputs.
struct Inputs {
    preload: Vec<(i64, i64)>,
    /// The live set right after the preload.
    model0: Model,
    traces: Vec<Vec<TraceOp>>,
    /// Set-ups a measuring phase makes at least.
    setups: usize,
}

impl Inputs {
    fn new(scale: &Scale, seed: u64) -> Inputs {
        let preload = live_preload(scale, seed);
        let model0 =
            preload.iter().enumerate().map(|(i, &p)| (PRELOAD_TAG_BASE + i as u64, p)).collect();
        let traces = (0..scale.live_traces)
            .map(|i| {
                let seed = live_trace_seed(seed, i);
                live_trace(TraceMix::default(), scale.live_ops, LIVE_RANGE, LIVE_SLOPE, seed)
            })
            .collect();
        Inputs { preload, model0, traces, setups: scale.setups }
    }
}

/// Passes over every trace, each replay on a fresh set-up, until
/// `seconds` of replay time have elapsed and enough set-ups ran.
fn passes(
    inputs: &Inputs,
    seconds: f64,
    rec: Option<&Recorder>,
    setup_s: &mut Vec<f64>,
    stages: &mut Stages,
) -> Phase {
    let mut p = Phase { wchar: Some(0), ..Phase::default() };
    let mut elapsed = 0.0;
    while p.replays == 0 || elapsed < seconds || setup_s.len() < inputs.setups {
        for (ti, trace) in inputs.traces.iter().enumerate() {
            let (s, secs) = setup(&inputs.preload, stages);
            setup_s.push(secs);
            let t = Instant::now();
            replay(s, (ti, trace), &inputs.model0, &mut p, rec);
            elapsed += t.elapsed().as_secs_f64();
        }
    }
    p
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let inputs = Inputs::new(&cfg.scale, cfg.seed);
    let mut e = EndToEnd::default();
    let mut stages = Stages::default();
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let plain = passes(&inputs, seconds, None, &mut e.setup_s, &mut stages);
    if !cfg.trace {
        e.ops_per_pass = inputs.traces.iter().map(|t| t.len() as u64).sum();
        e.pass_ms = plain.pass_ms();
        e.read_ios_per_query = ratio(plain.reads as f64, plain.queries as f64);
        e.write_ios_per_op = ratio(plain.writes as f64, plain.mutations as f64);
        e.write_amp = plain.wchar.map(|w| w as f64 / plain.user_bytes as f64);
        e.space_bytes_per_point = median(&plain.space);
        e.attempted = plain.ops;
        e.failed = plain.failed;
        e.query_ms = plain.query_ms;
        e.write_ms = plain.write_ms;
        return e.into_outcome();
    }

    let rec = Recorder::new();
    let t = passes(&inputs, seconds, Some(&rec), &mut Vec::new(), &mut stages);
    let spans = rec.spans();
    let mut m = layers::template();
    layers::slot_metrics(&mut m, &spans);
    m.set("live.begin_merge_ms.p50", median(&t.begin_ms), "ms");
    m.set("live.begin_merge_ms.max", max(&t.begin_ms), "ms");
    m.set("live.commit_merge_ms.p50", median(&t.commit_ms), "ms");
    m.set("live.commit_merge_ms.max", max(&t.commit_ms), "ms");
    m.set("live.merges", ratio(t.epochs as f64, t.replays as f64), "count");
    m.set("live.parts_mean", ratio(t.parts as f64, t.queries as f64), "count");
    m.set_opt("live.checkpoint_bytes_per_op", t.wchar.map(|w| w as f64 / t.mutations as f64), "B");
    stages.open_s = t.open_s.clone();
    stages.report(&mut m);
    m.set("catalog.bytes", t.catalog_bytes as f64, "B");
    m.set("device.pages.2d", t.pages as f64, "count");
    // The probe needs a level device that outlives the pass: build one
    // set-up more and probe its largest level.
    let (probe, _) = setup(&inputs.preload, &mut Stages::default());
    if let Some(dev) = probe.live.core().levels().first().and_then(|l| l.device()) {
        let (miss, hit) = layers::probe_device(dev, CACHE as u64, 64);
        m.set("device.miss_ns", miss, "ns");
        m.set("device.hit_ns", hit, "ns");
    }
    drop(probe);
    m.set("trace.overhead_frac", overhead(t.pass_ms(), plain.pass_ms()), "frac");
    layers::write_spans("live_churn", cfg.seed, &spans, &[]);
    Outcome { attempted: plain.ops + t.ops, failed: plain.failed + t.failed, metrics: m }
}
