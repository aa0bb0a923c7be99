//! `shard_resident`: the fifteen-slot fixture split into two
//! ham-sandwich shards, built in memory with a 65,536-page cache per
//! shard device, frozen, and queried one 16-query window per
//! `ShardedIndexSet::execute_parallel(window, 1, true)` call (one thread
//! per routed shard).

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use lcrs_bench::full_index_set;
use lcrs_engine::{IndexSet, Query, QueryStatus, ShardConfig, ShardedIndexSet};
use lcrs_extmem::{DeviceConfig, DeviceHandle};

use crate::decor::{kind_id, Recorder, Traced};
use crate::fixture::{matches, Data};
use crate::layers::{self, ROUTED};
use crate::measure::{max, median, ratio, Fastest};
use crate::{overhead, EndToEnd, Outcome, RunConfig, Stages, PAGE, WINDOW};

pub const SHARDS: usize = 2;
/// Cache pages per shard device: more than any shard device holds, so a
/// window never evicts.
const CACHE: usize = 65_536;

/// Build-side records: each shard's build time, keyed by shard, and the
/// model page writes of every build.
#[derive(Default)]
struct Builds {
    ms: Fastest,
    writes: Vec<u64>,
}

/// Build, calibrate and freeze a sharded set. With a recorder, every
/// structure is a reader fork wrapped in the decorator.
pub fn build(
    data: &Data,
    probes: &[Query],
    rec: Option<&Arc<Recorder>>,
    stages: &mut Stages,
) -> (ShardedIndexSet, f64) {
    build_recorded(data, probes, rec, stages, &RefCell::default())
}

fn build_recorded(
    data: &Data,
    probes: &[Query],
    rec: Option<&Arc<Recorder>>,
    stages: &mut Stages,
    builds: &RefCell<Builds>,
) -> (ShardedIndexSet, f64) {
    let t0 = Instant::now();
    let cfg = ShardConfig { shards: SHARDS, device: DeviceConfig::new(PAGE, CACHE) };
    let shard = Cell::new(0);
    let mut set = ShardedIndexSet::build(&data.pts2, &data.pts3, &cfg, |h2, h3, p2, p3| {
        let id = shard.replace(shard.get() + 1);
        let t = Instant::now();
        let base = full_index_set(h2, h3, p2, p3);
        let mut b = builds.borrow_mut();
        b.ms.record(id, t.elapsed().as_secs_f64() * 1e3);
        b.writes.push(h2.stats().writes + h3.stats().writes);
        let Some(rec) = rec else { return base };
        let mut traced = IndexSet::new();
        for slot in 0..base.len() {
            traced.add(Traced::wrap(base.structure(slot).fork_reader(), rec, id));
        }
        traced
    });
    let t_build = t0.elapsed().as_secs_f64();
    set.calibrate(probes);
    set.freeze();
    let secs = t0.elapsed().as_secs_f64();
    stages.build_s.push(t_build);
    stages.calibrate_s.push(secs - t_build);
    if let Some(rec) = rec {
        rec.clear();
    }
    (set, secs)
}

/// Distinct page stores behind the set's structures, with their pages.
fn stores(set: &ShardedIndexSet) -> Vec<DeviceHandle> {
    let mut out: Vec<DeviceHandle> = Vec::new();
    for s in 0..set.shards() {
        let shard = set.shard_set(s);
        for slot in 0..shard.len() {
            let h = shard.structure(slot).device();
            if !out.iter().any(|o| o.same_store(h)) {
                out.push(h.clone());
            }
        }
    }
    out
}

/// Pages of the device behind the first slot named `kind`, summed over
/// shards.
fn pages_of(set: &ShardedIndexSet, kind: &str) -> u64 {
    (0..set.shards())
        .map(|s| {
            let shard = set.shard_set(s);
            shard.structure(shard.slot_of(kind).expect("fixture kind")).device().pages_allocated()
        })
        .sum()
}

#[derive(Default)]
struct Phase {
    window_ms: Vec<f64>,
    /// Window latency, keyed by the window's place in the stream.
    lat: Fastest,
    queries: u64,
    reads: u64,
    failed: u64,
    fanout: f64,
    // Traced phase only.
    route_ns: Vec<u64>,
    plan_ns: Vec<[u64; SHARDS]>,
    predicted: f64,
    routed: [u64; ROUTED],
}

/// Query `stream` in windows, whole passes until `seconds` have elapsed,
/// recording into `p`; every answer is checked against `refs` between
/// calls.
fn query(
    set: &ShardedIndexSet,
    stream: &[Query],
    refs: &[u64],
    seconds: f64,
    rec: Option<&Recorder>,
    p: &mut Phase,
) {
    let start = Instant::now();
    loop {
        for (ci, chunk) in stream.chunks(WINDOW).enumerate() {
            let window = p.window_ms.len() as u32;
            if let Some(rec) = rec {
                rec.set_window(window);
            }
            let t = Instant::now();
            let rep = set.execute_parallel(chunk, 1, true);
            let wall = t.elapsed().as_secs_f64();
            p.window_ms.push(wall * 1e3);
            p.lat.record(ci, wall * 1e3);
            p.reads += rep.total.reads;
            p.fanout += rep.fanout.iter().sum::<usize>() as f64;
            if rec.is_some() {
                trace_window(set, chunk, p);
            }
            let answers = rep.answers.as_ref().expect("answers kept");
            for (j, o) in rep.outcomes.iter().enumerate() {
                let qi = ci * WINDOW + j;
                p.queries += 1;
                if o.status != QueryStatus::Ok || !matches(&stream[qi], &answers[j], refs[qi]) {
                    p.failed += 1;
                }
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// The traced phase's extra timed calls over the window just served:
/// routing (`shards_intersecting`) and each shard's `IndexSet::plan`.
fn trace_window(set: &ShardedIndexSet, chunk: &[Query], p: &mut Phase) {
    let t = Instant::now();
    let routes: Vec<Vec<usize>> = chunk.iter().map(|q| set.shards_intersecting(q)).collect();
    p.route_ns.push(t.elapsed().as_nanos() as u64);
    let mut plan_ns = [0u64; SHARDS];
    for (s, ns) in plan_ns.iter_mut().enumerate() {
        let sub: Vec<Query> =
            chunk.iter().zip(&routes).filter(|(_, r)| r.contains(&s)).map(|(q, _)| *q).collect();
        let shard = set.shard_set(s);
        let t = Instant::now();
        let plan = shard.plan(&sub);
        *ns = t.elapsed().as_nanos() as u64;
        p.predicted += plan.predicted.iter().sum::<f64>();
        for slot in plan.assignments.iter().flatten() {
            p.routed[kind_id(shard.structure(*slot).name())] += 1;
        }
    }
    p.plan_ns.push(plan_ns);
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let data = Data::new(&cfg.scale);
    let probes = data.probes();
    let stream = data.stream(&cfg.scale, cfg.seed, 1);
    let refs = data.references(&stream);

    // Rounds of set-up + querying, so set-ups and windows both sample the
    // whole run rather than one stretch of it.
    let mut e = EndToEnd::default();
    let mut stages = Stages::default();
    let builds = RefCell::new(Builds::default());
    let mut plain = Phase::default();
    let rounds = cfg.scale.shard_setups.max(1);
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let mut ready = None;
    for _ in 0..rounds {
        drop(ready.take());
        let (set, secs) = build_recorded(&data, &probes, None, &mut stages, &builds);
        e.setup_s.push(secs);
        query(&set, &stream, &refs, seconds / rounds as f64, None, &mut plain);
        ready = Some(set);
    }
    let set = ready.expect("at least one set-up");
    let builds = builds.into_inner();
    let resident: u64 = stores(&set).iter().map(|h| h.pages_allocated() * PAGE as u64).sum();
    if !cfg.trace {
        e.ops_per_pass = stream.len() as u64;
        e.pass_ms = plain.lat.total_ms();
        e.query_ms = plain.lat;
        e.write_ms = builds.ms;
        e.read_ios_per_query = ratio(plain.reads as f64, plain.queries as f64);
        let writes: u64 = builds.writes.iter().sum();
        e.write_ios_per_op = ratio(writes as f64, builds.writes.len() as f64);
        // The build writes its pages into memory: bytes written per input
        // byte, per set-up.
        let setups = (builds.writes.len() / SHARDS) as f64;
        e.write_amp = Some(writes as f64 * PAGE as f64 / setups / data.user_bytes() as f64);
        e.space_bytes_per_point = resident as f64 / data.points() as f64;
        e.attempted = plain.queries;
        e.failed = plain.failed;
        return e.into_outcome();
    }

    drop(set);
    let rec = Recorder::new();
    let (traced_set, _) = build(&data, &probes, Some(&rec), &mut Stages::default());
    let mut t = Phase::default();
    query(&traced_set, &stream, &refs, seconds, Some(&rec), &mut t);
    let spans = rec.spans();

    let mut m = layers::template();
    let windows = t.window_ms.len();
    let mut busy = vec![[0u64; SHARDS]; windows];
    let mut shard_busy = [0u64; SHARDS];
    for sp in &spans {
        busy[sp.window as usize][sp.shard as usize] += sp.dur_ns;
        shard_busy[sp.shard as usize] += sp.dur_ns;
    }
    let plan_ns: u64 = t.plan_ns.iter().flatten().sum();
    m.set("planner.plan_us_per_query", ratio(plan_ns as f64 / 1e3, t.queries as f64), "us");
    m.set("planner.predicted_over_measured_reads", ratio(t.predicted, t.reads as f64), "ratio");
    layers::routed_share(&mut m, &t.routed);
    layers::slot_metrics(&mut m, &spans);
    let shard0 = traced_set.shard_set(0);
    let hs2d = shard0.slot_of("hs2d").expect("fixture has hs2d");
    let (miss, hit) = layers::probe_device(shard0.structure(hs2d).device(), 32, 64);
    m.set("device.miss_ns", miss, "ns");
    m.set("device.hit_ns", hit, "ns");
    stages.report(&mut m);
    m.set("device.pages.2d", pages_of(&traced_set, "hs2d") as f64, "count");
    m.set("device.pages.3d", pages_of(&traced_set, "hs3d") as f64, "count");
    let route_ns: u64 = t.route_ns.iter().sum();
    m.set("shard.route_us_per_query", ratio(route_ns as f64 / 1e3, t.queries as f64), "us");
    m.set("shard.mean_fanout", ratio(t.fanout, t.queries as f64), "count");
    let mean_busy = shard_busy.iter().sum::<u64>() as f64 / SHARDS as f64;
    m.set("shard.imbalance", ratio(max(&shard_busy.map(|b| b as f64)), mean_busy), "ratio");
    // Window wall not spent routing or inside the slowest shard (its plan
    // plus its structures' busy time): scatter, join and gather.
    let gather_ms: Vec<f64> = (0..windows)
        .map(|w| {
            let slowest = (0..SHARDS).map(|s| t.plan_ns[w][s] + busy[w][s]).max().unwrap_or(0);
            t.window_ms[w] - (t.route_ns[w] + slowest) as f64 / 1e6
        })
        .collect();
    m.set("shard.gather_ms_per_window", median(&gather_ms), "ms");
    m.set("trace.overhead_frac", overhead(t.lat.total_ms(), plain.lat.total_ms()), "frac");

    let lines: Vec<String> = (0..windows)
        .map(|w| {
            format!(
                "window\t{w}\t{}\t{}\t{:?}",
                (t.window_ms[w] * 1e6) as u64,
                t.route_ns[w],
                t.plan_ns[w]
            )
        })
        .collect();
    layers::write_spans("shard_resident", cfg.seed, &spans, &lines);
    Outcome { attempted: plain.queries + t.queries, failed: plain.failed + t.failed, metrics: m }
}
