//! The decorator changes nothing it measures: decorated and undecorated
//! sets give bit-identical answers and identical per-slot IO counts, on
//! the sequential planner, the reopened catalog, and the sharded set.

use lcrs_bench::full_index_set;
use lcrs_engine::{IndexSet, PlanReport, Query, SnapshotCatalog};
use lcrs_extmem::{Device, DeviceConfig, IoDelta, ReopenBackend};
use lcrs_perfbench::decor::{Recorder, Traced};
use lcrs_perfbench::fixture::Data;
use lcrs_perfbench::measure::TempDir;
use lcrs_perfbench::{serve_catalog, shard_resident, Scale, Stages, PAGE, WINDOW};

const SEED: u64 = 3;

fn inputs() -> (Data, Vec<Query>, Vec<Query>) {
    let data = Data::new(&Scale::SMALL);
    let probes = data.probes();
    let stream = data.stream(&Scale::SMALL, SEED, 0);
    (data, probes, stream)
}

/// Answers plus `(slot, reads, writes, cache_hits)` per routed slot.
fn fingerprint(rep: &PlanReport) -> (Vec<Vec<u64>>, Vec<(usize, IoDelta)>) {
    let slots = rep.per_index.iter().map(|r| (r.slot, r.io)).collect();
    (rep.answers.clone().expect("answers kept"), slots)
}

fn assert_windows_match(plain: &IndexSet, traced: &IndexSet, stream: &[Query], rec: &Recorder) {
    let mut reads = 0;
    for chunk in stream.chunks(WINDOW) {
        let (a, b) = (plain.execute(chunk, true), traced.execute(chunk, true));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let io = |r: &PlanReport| r.outcomes.iter().map(|o| o.io).collect::<Vec<_>>();
        assert_eq!(io(&a), io(&b), "per-query attribution must match");
        reads += b.total.reads;
    }
    let spans = rec.spans();
    assert_eq!(spans.len(), stream.len(), "one span per routed query");
    assert_eq!(spans.iter().map(|s| s.io.reads).sum::<u64>(), reads);
}

#[test]
fn decorated_sequential_set_matches() {
    let (data, probes, stream) = inputs();
    let d2 = Device::new(DeviceConfig::new(PAGE, 32));
    let d3 = Device::new(DeviceConfig::new(PAGE, 32));
    let mut plain = full_index_set(&d2, &d3, &data.pts2, &data.pts3);
    plain.calibrate(&probes);
    d2.freeze();
    d3.freeze();
    let rec = Recorder::new();
    let mut traced = IndexSet::new();
    for slot in 0..plain.len() {
        traced.add(Traced::wrap(plain.structure(slot).fork_reader(), &rec, 0));
    }
    traced.calibrate(&probes);
    rec.clear();
    for slot in 0..plain.len() {
        assert_eq!(plain.calibration(slot), traced.calibration(slot));
    }
    assert_windows_match(&plain, &traced, &stream, &rec);
}

#[test]
fn decorated_reopened_catalog_matches() {
    let (data, probes, stream) = inputs();
    let d2 = Device::new(DeviceConfig::new(PAGE, 32));
    let d3 = Device::new(DeviceConfig::new(PAGE, 32));
    let mut set = full_index_set(&d2, &d3, &data.pts2, &data.pts3);
    set.calibrate(&probes);
    d2.freeze();
    d3.freeze();
    let dir = TempDir::new("equivalence");
    let mut cat = SnapshotCatalog::create(dir.path()).unwrap();
    for slot in 0..set.len() {
        cat.add(&format!("{slot:02}"), set.structure(slot)).unwrap();
    }
    set.save_calibration_to_catalog(&cat).unwrap();
    let plain = IndexSet::from_catalog_as(&cat, 32, ReopenBackend::Pread).unwrap();
    let rec = Recorder::new();
    let traced = serve_catalog::traced_set(&cat, &rec);
    assert_windows_match(&plain, &traced, &stream, &rec);
}

#[test]
fn decorated_sharded_set_matches() {
    let (data, probes, stream) = inputs();
    let (plain, _) = shard_resident::build(&data, &probes, None, &mut Stages::default());
    let rec = Recorder::new();
    let (traced, _) = shard_resident::build(&data, &probes, Some(&rec), &mut Stages::default());
    let mut reads = 0;
    for chunk in stream.chunks(WINDOW) {
        let a = plain.execute_parallel(chunk, 1, true);
        let b = traced.execute_parallel(chunk, 1, true);
        assert_eq!(a.answers, b.answers);
        let shards = |r: &lcrs_engine::ShardedReport| {
            r.per_shard.iter().map(|s| (s.shard, s.queries, s.io)).collect::<Vec<_>>()
        };
        assert_eq!(shards(&a), shards(&b));
        let io =
            |r: &lcrs_engine::ShardedReport| r.outcomes.iter().map(|o| o.io).collect::<Vec<_>>();
        assert_eq!(io(&a), io(&b));
        reads += b.total.reads;
    }
    let spans = rec.spans();
    assert_eq!(spans.iter().map(|s| s.io.reads).sum::<u64>(), reads);
    assert!(spans.iter().any(|s| s.shard == 1), "both shards traced");
}
