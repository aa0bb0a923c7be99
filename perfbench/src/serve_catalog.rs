//! `serve_catalog`: build the fifteen-slot fixture, calibrate, freeze,
//! persist it as a `SnapshotCatalog`, reopen it over pread with a 32-page
//! cache per device, and serve the six-class stream through a
//! `QueryServer` one 16-arrival window per call.

use std::sync::Arc;
use std::time::Instant;

use lcrs_bench::full_index_set;
use lcrs_engine::{
    Arrival, IndexSet, Query, QueryServer, ServeConfig, ServeStatus, SnapshotCatalog, WindowPolicy,
};
use lcrs_extmem::{Device, DeviceConfig, ReopenBackend};

use crate::decor::{kind_id, Recorder, Traced};
use crate::fixture::{matches, Data};
use crate::layers::{self, ROUTED};
use crate::measure::{delta, dir_bytes, median, ratio, wchar, Fastest, TempDir};
use crate::{overhead, EndToEnd, Outcome, RunConfig, Stages, PAGE, WINDOW};

/// Cache pages per reopened device.
const CACHE: usize = 32;
/// Round-robin tenants of the arrival stream.
const TENANTS: u64 = 4;

fn server(set: IndexSet) -> QueryServer {
    // The size bound closes every window at its 16th arrival; the time
    // bound never trips.
    let policy = WindowPolicy { max_wait_ns: u64::MAX, max_queries: WINDOW };
    QueryServer::new(set, ServeConfig { policy, workers: 1 })
}

/// One ready-to-serve catalog. Fields drop in order: the server closes
/// its page files before the directory is removed.
struct Setup {
    server: QueryServer,
    cat: SnapshotCatalog,
    _dir: TempDir,
    /// Input → ready to serve, seconds.
    secs: f64,
    /// Bytes written from build start to the end of the save.
    wchar: Option<u64>,
    /// Pages persisted by each `SnapshotCatalog::add`.
    entry_pages: Vec<u64>,
    pages2: u64,
    pages3: u64,
    catalog_bytes: u64,
}

fn setup(data: &Data, probes: &[Query], write_ms: &mut Fastest, stages: &mut Stages) -> Setup {
    let t0 = Instant::now();
    let w0 = wchar();
    let d2 = Device::new(DeviceConfig::new(PAGE, CACHE));
    let d3 = Device::new(DeviceConfig::new(PAGE, CACHE));
    let mut set = full_index_set(&d2, &d3, &data.pts2, &data.pts3);
    let t_build = t0.elapsed().as_secs_f64();
    set.calibrate(probes);
    let t_cal = t0.elapsed().as_secs_f64();
    d2.freeze();
    d3.freeze();
    let dir = TempDir::new("catalog");
    let mut cat = SnapshotCatalog::create(dir.path()).expect("create catalog");
    let mut entry_pages = Vec::with_capacity(set.len());
    for slot in 0..set.len() {
        let index = set.structure(slot);
        let t = Instant::now();
        cat.add(&format!("{slot:02}-{}", index.name()), index).expect("persist catalog entry");
        write_ms.record(slot, t.elapsed().as_secs_f64() * 1e3);
        entry_pages.push(index.device().pages_allocated());
    }
    set.save_calibration_to_catalog(&cat).expect("persist calibration");
    let t_save = t0.elapsed().as_secs_f64();
    let wchar = delta(w0, wchar());
    let (pages2, pages3) = (d2.pages_allocated(), d3.pages_allocated());
    drop(set);
    let cat = SnapshotCatalog::open(dir.path()).expect("open catalog");
    let set = IndexSet::from_catalog_as(&cat, CACHE, ReopenBackend::Pread).expect("reopen catalog");
    let server = server(set);
    let secs = t0.elapsed().as_secs_f64();
    stages.build_s.push(t_build);
    stages.calibrate_s.push(t_cal - t_build);
    stages.save_s.push(t_save - t_cal);
    stages.open_s.push(secs - t_save);
    let catalog_bytes = dir_bytes(dir.path());
    Setup { server, cat, _dir: dir, secs, wchar, entry_pages, pages2, pages3, catalog_bytes }
}

/// The reopened catalog with every structure wrapped in the decorator.
pub fn traced_set(cat: &SnapshotCatalog, rec: &Arc<Recorder>) -> IndexSet {
    let mut set = IndexSet::new();
    for index in cat.load_all_as(CACHE, ReopenBackend::Pread).expect("reopen catalog") {
        set.add(Traced::wrap(index, rec, 0));
    }
    set.load_calibration(IndexSet::calibration_path(cat)).expect("load calibration");
    set
}

/// Client-side records of one measured phase.
#[derive(Default)]
struct Phase {
    window_ms: Vec<f64>,
    /// Window latency, keyed by the window's place in the stream.
    lat: Fastest,
    queries: u64,
    reads: u64,
    failed: u64,
    // Traced phase only: the extra timed `IndexSet::plan` per window.
    plan_ns: Vec<u64>,
    predicted: f64,
    routed: [u64; ROUTED],
}

/// Serve `stream` in windows, whole passes until `seconds` have elapsed,
/// recording into `p`; every answer is checked against `refs` between
/// calls.
fn serve(
    srv: &mut QueryServer,
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
            let arrivals: Vec<Arrival> = (p.queries..)
                .zip(chunk)
                .map(|(i, &query)| Arrival {
                    at_ns: (i + 1) * 1000,
                    tenant: (i % TENANTS) as u32,
                    query,
                })
                .collect();
            if let Some(rec) = rec {
                rec.set_window(window);
            }
            let t = Instant::now();
            let rep = srv.run_trace(&arrivals, true);
            let wall = t.elapsed().as_secs_f64();
            p.window_ms.push(wall * 1e3);
            p.lat.record(ci, wall * 1e3);
            p.reads += rep.total.reads;
            if rec.is_some() {
                let t = Instant::now();
                let plan = srv.index_set().plan(chunk);
                p.plan_ns.push(t.elapsed().as_nanos() as u64);
                p.predicted += plan.predicted.iter().sum::<f64>();
                for slot in plan.assignments.iter().flatten() {
                    p.routed[kind_id(srv.index_set().structure(*slot).name())] += 1;
                }
            }
            let answers = rep.answers.as_ref().expect("answers kept");
            for (j, o) in rep.outcomes.iter().enumerate() {
                let qi = ci * WINDOW + j;
                p.queries += 1;
                if o.status != ServeStatus::Ok || !matches(&stream[qi], &answers[j], refs[qi]) {
                    p.failed += 1;
                }
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let data = Data::new(&cfg.scale);
    let probes = data.probes();
    let stream = data.stream(&cfg.scale, cfg.seed, 0);
    let refs = data.references(&stream);

    // Rounds of set-up + serving, so set-ups and windows both sample the
    // whole run rather than one stretch of it.
    let mut e = EndToEnd::default();
    let mut stages = Stages::default();
    let mut plain = Phase::default();
    let rounds = cfg.scale.setups.max(1);
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let mut ready = None;
    for _ in 0..rounds {
        drop(ready.take()); // remove the previous catalog before writing the next
        let mut s = setup(&data, &probes, &mut e.write_ms, &mut stages);
        e.setup_s.push(s.secs);
        serve(&mut s.server, &stream, &refs, seconds / rounds as f64, None, &mut plain);
        ready = Some(s);
    }
    let s = ready.expect("at least one set-up");
    if !cfg.trace {
        e.ops_per_pass = stream.len() as u64;
        e.pass_ms = plain.lat.total_ms();
        e.query_ms = plain.lat;
        e.read_ios_per_query = ratio(plain.reads as f64, plain.queries as f64);
        let pages: u64 = s.entry_pages.iter().sum();
        e.write_ios_per_op = ratio(pages as f64, s.entry_pages.len() as f64);
        e.write_amp = s.wchar.map(|w| w as f64 / data.user_bytes() as f64);
        e.space_bytes_per_point = s.catalog_bytes as f64 / data.points() as f64;
        e.attempted = plain.queries;
        e.failed = plain.failed;
        return e.into_outcome();
    }

    let rec = Recorder::new();
    let mut traced_srv = server(traced_set(&s.cat, &rec));
    let mut t = Phase::default();
    serve(&mut traced_srv, &stream, &refs, seconds, Some(&rec), &mut t);
    let spans = rec.spans();

    let mut m = layers::template();
    let windows = t.window_ms.len();
    let mut busy_ns = vec![0u64; windows];
    for sp in &spans {
        busy_ns[sp.window as usize] += sp.dur_ns;
    }
    let self_ms: Vec<f64> =
        (0..windows).map(|w| t.window_ms[w] - (t.plan_ns[w] + busy_ns[w]) as f64 / 1e6).collect();
    m.set("serve.self_ms_per_window", median(&self_ms), "ms");
    let plan_ns: u64 = t.plan_ns.iter().sum();
    m.set("planner.plan_us_per_query", ratio(plan_ns as f64 / 1e3, t.queries as f64), "us");
    m.set("planner.predicted_over_measured_reads", ratio(t.predicted, t.reads as f64), "ratio");
    layers::routed_share(&mut m, &t.routed);
    layers::slot_metrics(&mut m, &spans);
    let hs2d = traced_srv.index_set().slot_of("hs2d").expect("fixture has hs2d");
    let (miss, hit) = layers::probe_device(traced_srv.index_set().structure(hs2d).device(), 32, 64);
    m.set("device.miss_ns", miss, "ns");
    m.set("device.hit_ns", hit, "ns");
    stages.report(&mut m);
    m.set("catalog.bytes", s.catalog_bytes as f64, "B");
    m.set("device.pages.2d", s.pages2 as f64, "count");
    m.set("device.pages.3d", s.pages3 as f64, "count");
    m.set("trace.overhead_frac", overhead(t.lat.total_ms(), plain.lat.total_ms()), "frac");

    let lines: Vec<String> = (0..windows)
        .map(|w| format!("window\t{w}\t{}\t{}", (t.window_ms[w] * 1e6) as u64, t.plan_ns[w]))
        .collect();
    layers::write_spans("serve_catalog", cfg.seed, &spans, &lines);
    forced_halfplanes(traced_srv.index_set(), &stream, &rec);
    Outcome { attempted: plain.queries + t.queries, failed: plain.failed + t.failed, metrics: m }
}

/// The planner routes no halfplane to `hs2d` on this deployment, so the
/// traced run also forces up to 1,600 of the stream's halfplanes (1,440
/// at the benchmark's scale) onto the paper's structure and onto the
/// scan, window by window, and prints busy
/// time and reads per query of each to stderr (after every metric is
/// taken, so the forced calls never reach the per-layer readings).
fn forced_halfplanes(set: &IndexSet, stream: &[Query], rec: &Recorder) {
    let hp: Vec<Query> = stream
        .iter()
        .filter(|q| matches!(q, Query::Halfplane { .. }))
        .take(1600)
        .copied()
        .collect();
    for kind in ["hs2d", "scan"] {
        let slot = set.slot_of(kind).expect("fixture kind");
        rec.clear();
        for chunk in hp.chunks(WINDOW) {
            set.execute_plan(chunk, &set.force_plan(slot, chunk), false);
        }
        let spans = rec.spans();
        let n = spans.len() as f64;
        let busy: u64 = spans.iter().map(|s| s.dur_ns).sum();
        let reads: u64 = spans.iter().map(|s| s.io.reads).sum();
        eprintln!(
            "forced halfplanes on {kind}: {:.1} us busy, {:.2} reads per query ({n} queries)",
            ratio(busy as f64 / 1e3, n),
            ratio(reads as f64, n)
        );
    }
}
