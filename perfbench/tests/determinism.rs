//! The benchmark's count metrics repeat exactly for one seed: two runs
//! of a workload agree bit for bit on read IOs per query, write IOs per
//! op, bytes per point and write amplification. (Claims resting on a
//! count are re-checked on a second seed, as the entry file's header
//! says; these tests pin the first.)
//!
//! `write_amp` reads this process's `/proc/self/io` byte counter, which
//! concurrent tests would disturb, so each binary holds one test: this
//! one the read workloads, `determinism_live.rs` the live workload.

mod common;

use lcrs_perfbench::Workload;

#[test]
fn read_workload_counts_repeat_exactly() {
    common::assert_counts_repeat(Workload::ServeCatalog);
    common::assert_counts_repeat(Workload::ShardResident);
}
