//! Per-layer metrics of the traced run: the fixed name list every
//! workload reports (zero where the workload does not run that layer),
//! the reductions from recorded spans, and the device probe.

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use lcrs_extmem::{DeviceHandle, PageId};

use crate::decor::{Span, KINDS};
use crate::measure::{out_dir, ratio, Metrics};

/// Slot kinds the planner can route to (every kind but the live tier).
pub const ROUTED: usize = 15;

/// Every per-layer metric with its unit, all zero. A workload overwrites
/// the ones its path exercises; a zero means that layer did no work in
/// that workload (see the table in the entry file's header).
pub fn template() -> Metrics {
    let mut m = Metrics::default();
    m.set("serve.self_ms_per_window", 0.0, "ms");
    m.set("planner.plan_us_per_query", 0.0, "us");
    m.set("planner.predicted_over_measured_reads", 0.0, "ratio");
    for kind in &KINDS[..ROUTED] {
        m.set(&format!("planner.routed_share.{kind}"), 0.0, "frac");
    }
    for kind in KINDS {
        m.set(&format!("slot.{kind}.busy_us_per_query"), 0.0, "us");
        m.set(&format!("slot.{kind}.reads_per_query"), 0.0, "count");
        m.set(&format!("slot.{kind}.touches_per_query"), 0.0, "count");
        m.set(&format!("slot.{kind}.ids_per_query"), 0.0, "count");
    }
    m.set("device.hit_ratio", 0.0, "frac");
    m.set("device.miss_ns", 0.0, "ns");
    m.set("device.hit_ns", 0.0, "ns");
    for stage in ["build", "calibrate", "save", "open"] {
        m.set(&format!("setup.{stage}_s"), 0.0, "s");
    }
    m.set("catalog.bytes", 0.0, "B");
    m.set("device.pages.2d", 0.0, "count");
    m.set("device.pages.3d", 0.0, "count");
    m.set("shard.route_us_per_query", 0.0, "us");
    m.set("shard.mean_fanout", 0.0, "count");
    m.set("shard.imbalance", 0.0, "ratio");
    m.set("shard.gather_ms_per_window", 0.0, "ms");
    for call in ["begin", "commit"] {
        m.set(&format!("live.{call}_merge_ms.p50"), 0.0, "ms");
        m.set(&format!("live.{call}_merge_ms.max"), 0.0, "ms");
    }
    m.set("live.merges", 0.0, "count");
    m.set("live.parts_mean", 0.0, "count");
    m.set("live.checkpoint_bytes_per_op", 0.0, "B");
    m.set("trace.overhead_frac", 0.0, "frac");
    m
}

/// `slot.<kind>.*` per answering call, and the device hit ratio over
/// every call, from the decorator spans.
pub fn slot_metrics(m: &mut Metrics, spans: &[Span]) {
    let mut calls = [0u64; KINDS.len()];
    let mut busy = [0u64; KINDS.len()];
    let mut reads = [0u64; KINDS.len()];
    let mut hits = [0u64; KINDS.len()];
    let mut ids = [0u64; KINDS.len()];
    for s in spans {
        let k = s.kind as usize;
        calls[k] += 1;
        busy[k] += s.dur_ns;
        reads[k] += s.io.reads;
        hits[k] += s.io.cache_hits;
        ids[k] += u64::from(s.ids);
    }
    for (k, kind) in KINDS.iter().enumerate() {
        let n = calls[k] as f64;
        m.set(&format!("slot.{kind}.busy_us_per_query"), ratio(busy[k] as f64 / 1e3, n), "us");
        m.set(&format!("slot.{kind}.reads_per_query"), ratio(reads[k] as f64, n), "count");
        m.set(
            &format!("slot.{kind}.touches_per_query"),
            ratio((reads[k] + hits[k]) as f64, n),
            "count",
        );
        m.set(&format!("slot.{kind}.ids_per_query"), ratio(ids[k] as f64, n), "count");
    }
    let (r, h): (u64, u64) = (reads.iter().sum(), hits.iter().sum());
    m.set("device.hit_ratio", ratio(h as f64, (r + h) as f64), "frac");
}

/// `planner.routed_share.<kind>` from per-kind routed query counts.
pub fn routed_share(m: &mut Metrics, routed: &[u64; ROUTED]) {
    let total: u64 = routed.iter().sum();
    for (k, kind) in KINDS[..ROUTED].iter().enumerate() {
        m.set(
            &format!("planner.routed_share.{kind}"),
            ratio(routed[k] as f64, total as f64),
            "frac",
        );
    }
}

/// Time `DeviceHandle::read_page` on a fresh scope of `h`: a run of
/// `pages` reads right after clearing the scope's cache (misses), then
/// the same run again (hits; `pages` must fit the cache). Repeated over
/// `rounds` page windows spread across the device; returns the median
/// ns per read of `(miss, hit)`.
pub fn probe_device(h: &DeviceHandle, pages: u64, rounds: u64) -> (f64, f64) {
    let scope = h.fork();
    let n = scope.pages_allocated();
    let pages = pages.min(n).max(1);
    let run = |first: u64| {
        let t = Instant::now();
        for p in first..first + pages {
            black_box(scope.read_page(PageId(p), |b| b[0]));
        }
        t.elapsed().as_nanos() as f64 / pages as f64
    };
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for r in 0..rounds {
        let first = (r * 7919 * pages) % (n - pages + 1);
        scope.clear_cache();
        miss.push(run(first));
        hit.push(run(first));
    }
    (crate::measure::median(&miss), crate::measure::median(&hit))
}

/// Write the traced run's spans as tab-separated rows to
/// `out/trace-<workload>-<seed>.tsv` (after measuring, never during).
pub fn write_spans(workload: &str, seed: u64, spans: &[Span], windows: &[String]) {
    let dir = out_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("trace-{workload}-{seed}.tsv"));
    let Ok(f) = std::fs::File::create(&path) else { return };
    let mut w = std::io::BufWriter::new(f);
    let _ =
        writeln!(w, "#span\tkind\tshard\twindow\tstart_ns\tdur_ns\treads\tcache_hits\twrites\tids");
    for s in spans {
        let _ = writeln!(
            w,
            "slot\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            KINDS[s.kind as usize],
            s.shard,
            s.window,
            s.start_ns,
            s.dur_ns,
            s.io.reads,
            s.io.cache_hits,
            s.io.writes,
            s.ids
        );
    }
    for line in windows {
        let _ = writeln!(w, "{line}");
    }
}
