//! Shared by the determinism tests.

use lcrs_perfbench::{run, RunConfig, Scale, Workload};

const COUNTS: [&str; 4] =
    ["read_ios_per_query", "write_ios_per_op", "space_bytes_per_point", "write_amp"];

/// Run `workload` twice on one seed and compare the count metrics bit for
/// bit (`write_amp` may be absent, but then on both runs).
pub fn assert_counts_repeat(workload: Workload) {
    let cfg = RunConfig { workload, seed: 5, seconds: 0.0, trace: false, scale: Scale::SMALL };
    let (a, b) = (run(&cfg), run(&cfg));
    assert_eq!(a.failed, 0, "{}: failures", workload.name());
    assert_eq!(a.attempted, b.attempted, "{}: work per run", workload.name());
    for name in COUNTS {
        let (x, y) = (a.metrics.get(name), b.metrics.get(name));
        assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits), "{}: {name}", workload.name());
        if name != "write_amp" {
            assert!(x.is_some_and(|v| v > 0.0), "{}: {name} must be positive", workload.name());
        }
    }
}
