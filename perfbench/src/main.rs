//! # lcrs-perfbench — the repository benchmark
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_catalog|shard_resident|live_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one client thread, closed loop: the client sends its next
//! call only when the previous one returned. At most two threads run at
//! once, the CPUs of the machine it was written on: the two shard
//! threads of `execute_parallel` while the client waits on them, or the
//! client and the live tier's one background merge. Every timing is
//! taken here, around calls into the public API of `lcrs-engine`,
//! `lcrs-extmem` and the structures; the library carries no tracing.
//! Every answer is checked off the clock. The last stdout line is the
//! result: `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is non-zero when any operation failed.
//!
//! ## Workloads, and why each exists
//!
//! Pages are 1 KiB. The read workloads share one deployment: the
//! fifteen-slot `lcrs_bench::full_index_set` fixture over
//! `points2(Clustered, 4096, 1000, 61)` and `points3(Uniform, 1536, 2^16,
//! 62)`, calibrated with `lifted_probes(.., 81)`. That is a quarter of
//! the 16,384 + 6,144 points the workloads were first sized for: at full
//! size one catalog takes 2.07 GB and 12–16 s to set up, and a run sets up
//! three times. `--seed` draws the traffic: a 4,000-query six-class
//! `lifted_oracle` stream (1440:640:480:576:576:288) in a seeded order, a
//! different one per workload, and the live preload and traces.
//! Datasets and probes stay fixed because they moved the readings more
//! than the traffic did (see `fixture.rs`).
//!
//! * `serve_catalog` — the build-once/serve-many path. Build, calibrate,
//!   freeze, save as a `SnapshotCatalog`, reopen with
//!   `IndexSet::from_catalog_as(.., 32, ReopenBackend::Pread)`, serve with
//!   a `QueryServer` (one worker, no quotas, four round-robin tenants),
//!   one `run_trace` call per 16-arrival window. It crosses every layer:
//!   serve → planner → batch → structures → device → pread. The working
//!   set (~41k pages) dwarfs the 32-page cache, so the miss path and the
//!   catalog dominate.
//! * `shard_resident` — `ShardedIndexSet::build` with two shards over the
//!   same fixture, built in memory with a 65,536-page cache per shard
//!   device (nothing is evicted inside a window), one
//!   `execute_parallel(window, 1, true)` per 16-query window. It covers
//!   routing, scatter/gather, the k-NN and top-k re-rank and the hit
//!   path, and bypasses pread and the catalog: a pread or catalog change
//!   should leave it flat.
//! * `live_churn` — the only workload that writes. A `LiveIndex` (32-page
//!   cache, delta cap 64) preloaded with 8,192 uniform points and saved
//!   with `save_to_dir`, so every mutation checkpoints durably; then four
//!   seeded `live_trace(TraceMix::default(), 1250, 2^20, 40, ..)` traces,
//!   each on a fresh set-up, with `begin_merge` every 500 ops and
//!   `commit_merge` 200 ops later (not 250: see `live_churn.rs`). It
//!   covers the delta and leveled tiers, background merges on a second
//!   thread, and the checkpoint writer.
//!
//! A read-workload run is a few rounds (three for `serve_catalog`, ten
//! for `shard_resident`) of one set-up followed by whole passes over the
//! stream for an equal share of `--seconds`; `live_churn` sets up before
//! every replay and replays all four traces, pass after pass, until
//! `--seconds` have elapsed. Set-ups and calls therefore sample the whole
//! run, not one stretch of it, and every call repeats many times: in a
//! 25 s run, 30–50 passes of 250 windows in `serve_catalog`, 100–120 in
//! `shard_resident`, 7–12 passes of 5,000 ops in `live_churn`. Counts
//! are per pass, so they repeat exactly for a seed whatever the number of
//! passes (but see the known failure in `tests/determinism_live.rs`).
//!
//! ## End-to-end metrics
//!
//! A latency sample is one call: a window for the read workloads, an
//! operation for `live_churn`, one catalog entry or one shard build for
//! the writes of the read workloads. Each distinct call is made once per
//! pass (or set-up) and keeps the fastest of its repetitions
//! (`measure::Fastest`); percentiles are then taken over the distinct
//! calls, and throughput is the operations of one pass over the sum of
//! those fastest times. The host shares its CPUs: a fixed loop runs at
//! one of two speeds, 1.7 times apart, switching several times a second,
//! with minutes-long stretches of CPU steal on top. Back to back runs of
//! one seed moved a whole-run median by 10–40% while IO counts repeated
//! exactly. Outside load only ever slows a call, so the fastest of its
//! repetitions follows the code; a change that slows every repetition
//! still shows in full. `setup_s` is the median over set-ups.
//!
//! | metric | unit | meaning |
//! |---|---|---|
//! | `setup_s` | s | inputs → ready to serve, median over set-ups |
//! | `throughput_ops_s` | 1/s | operations of one pass ÷ its client calls, each at its fastest |
//! | `query_p50_ms`, `query_p99_ms` | ms | read-call latency |
//! | `write_p50_ms`, `write_p99_ms` | ms | write-call latency: live insert/remove; one `SnapshotCatalog::add` in `serve_catalog`; one shard's build in `shard_resident` (the only writes those paths make) |
//! | `read_ios_per_query` | count | model `IoStats.reads` per query |
//! | `write_ios_per_op` | count | model page writes per write call (pages persisted per catalog entry in `serve_catalog`) |
//! | `write_amp` | ratio | bytes written ÷ input bytes: `/proc/self/io` `wchar` over the catalog set-up (`serve_catalog`) or the measured phase (`live_churn`); page bytes built in memory (`shard_resident`) |
//! | `space_bytes_per_point` | B | catalog bytes, resident page bytes, or live-directory bytes per point |
//! | `peak_rss_mb` | MB | `VmHWM` |
//! | `ok_frac` | frac | 1 − failed ÷ attempted |
//!
//! Failures are wrong answers, `Unsupported`, `Rejected`, typed errors
//! and durability misses. `ok_frac` stands for the issue's `failed_frac`:
//! a metric must never read 0, and `failed` and `attempted` are also
//! reported on the result line. A counter that `/proc` cannot supply is
//! left out, never reported as 0.
//!
//! ## Layers and what they should move
//!
//! `--trace 1` reports the per-layer metrics instead: half the time
//! untraced, half with every structure wrapped in `decor::Traced`
//! (installed through `IndexSet::add`), plus extra timed calls to
//! `IndexSet::plan` and `shards_intersecting` over the same windows and a
//! `DeviceHandle::read_page` probe. Every workload reports every name;
//! zero means the layer does no work on that workload.
//!
//! | layer (module) | metrics | should move |
//! |---|---|---|
//! | `engine::serve` | `serve.self_ms_per_window` (window − plan − slot busy) | `query_p50_ms` on `serve_catalog` only |
//! | `engine::planner`, `engine::cost` | `planner.plan_us_per_query`, `planner.predicted_over_measured_reads`, `planner.routed_share.<kind>` | `query_p50_ms` on both read workloads; `read_ios_per_query` on `serve_catalog` |
//! | structures (`halfspace::*`, `baselines::*`, `engine::lift`, `engine::live`) | `slot.<kind>.{busy_us,reads,touches,ids}_per_query` | `query_p50_ms`, `read_ios_per_query` on the workloads routing to them |
//! | `extmem::device` | `device.hit_ratio`, `device.miss_ns`, `device.hit_ns` | `query_p50_ms` on `serve_catalog` (pread); flat on `shard_resident` |
//! | `extmem::snapshot`, `engine::catalog` | `setup.{build,calibrate,save,open}_s`, `catalog.bytes`, `device.pages.{2d,3d}` | `setup_s`, `space_bytes_per_point`, `write_amp` on `serve_catalog` |
//! | `engine::shard`, `halfspace::partition` | `shard.route_us_per_query`, `shard.mean_fanout`, `shard.imbalance`, `shard.gather_ms_per_window` | `query_p50_ms`/`query_p99_ms` on `shard_resident` only |
//! | `engine::live`, `halfspace::{leveled,delta}` | `live.{begin,commit}_merge_ms.{p50,max}`, `live.merges`, `live.parts_mean`, `live.checkpoint_bytes_per_op` | `write_p99_ms`, `query_p50_ms`, `write_amp` on `live_churn` |
//! | the decorator itself | `trace.overhead_frac` (traced ÷ untraced time per op − 1) | nothing |
//!
//! Spans are kept in memory and written after measuring to
//! `perfbench/out/trace-<workload>-<seed>.tsv`.
//!
//! ## Observed
//!
//! Two sets of ten seeds per workload (1–10), 25 s runs one after
//! another, workload by workload, on a 2-vCPU VM (Xeon, 2.1 GHz) shared
//! with other tenants. Median, then the spread: the distance between the
//! first and third quartile over the median. `live_churn`'s first set ran
//! 2,500-op traces; every other figure is of the settings above.
//!
//! | metric | `serve_catalog` A / B | `shard_resident` A / B | `live_churn` B |
//! |---|---|---|---|
//! | `setup_s` | 2.95 s, 0.13 / 3.46 s, 0.26 | 0.51 s, 0.24 / 0.60 s, 0.11 | 0.39 s, 0.07 |
//! | `throughput_ops_s` | 9212, 0.07 / 8118, 0.24 | 26979, 0.14 / 22008, 0.09 | 3436, 0.22 |
//! | `query_p50_ms` | 1.72, 0.08 / 1.94, 0.24 | 0.58, 0.13 / 0.71, 0.06 | 0.62, 0.14 |
//! | `query_p99_ms` | 2.72, 0.19 / 3.17, 0.40 | 1.09, 0.17 / 1.28, 0.12 | 1.23, 0.17 |
//! | `write_p50_ms` | 124, 0.17 / 145, 0.19 | 167, 0.04 / 221, 0.14 | 0.21, 0.23 |
//! | `write_p99_ms` | 134, 0.14 / 155, 0.33 | 171, 0.07 / 242, 0.15 | 0.40, 0.44 |
//! | `read_ios_per_query` | 40.11, 0.015 | 12.73, 0.007 | 178.1, 0.015 |
//! | `write_ios_per_op` | 29303, 0 | 19276, 0 | 0.073, 0.08 |
//! | `write_amp` | 4433, 0 | 386, 0 | 44.7, 0.04 |
//! | `space_bytes_per_point` | 80594, 0 | 7009, 0 | 83.9, 0.008 |
//! | `peak_rss_mb` | 51.5, 0.003 | 51.7, 0.008 | 7.6, 0.03 |
//!
//! Counts repeat across sets and spread 0.08 or less. Timings follow the
//! host. In a quiet stretch (set A) the fastest repetitions hold
//! `serve_catalog`'s throughput and window p50 to a 0.07–0.08 spread.
//! What they cannot remove is a slow stretch that outlasts a run: in set
//! B four consecutive `serve_catalog` runs, and five of the ten
//! `live_churn` runs, found no fast moment at all and read 25–60% slower
//! on every timing, the fastest repetitions included, which puts tails
//! past their 0.25 bound. Between sets, medians moved by up to a third
//! (`shard_resident`'s build). Re-check a timing claim against the parent
//! in alternating pairs, and a count claim on a second seed.
//!
//! First traced reading (`serve_catalog`, seed 4) for ROADMAP item 1: the
//! planner routes no query to `hs2d` (kdtree 14%, dynamic 58%,
//! tradeoff-hybrid 16%, scan 12%). Forced onto `hs2d`, the stream's 1,440
//! halfplanes cost 223 µs busy and 55.6 reads per query; forced onto the
//! scan, 132 µs and 81 reads. The paper's structure reads 31% fewer pages
//! and takes 1.7 times as long. On the reopened catalog a cached page
//! read costs about 790 ns against about 870 ns for a pread miss: the
//! scope's LRU bookkeeping, not the syscall, is most of a page touch.

use std::process::ExitCode;

use lcrs_perfbench::{run, RunConfig, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <serve_catalog|shard_resident|live_churn> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage("every flag takes a value") };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("need --workload, --seed, --seconds and --trace");
    };

    let cfg = RunConfig { workload, seed, seconds, trace, scale: Scale::BENCH };
    let out = run(&cfg);
    for m in &out.metrics.0 {
        eprintln!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
