//! `live_churn`'s count metrics repeat exactly for one seed (see
//! `determinism.rs`).
//!
//! Known failure: `read_ios_per_query` does not repeat. A background
//! merge builds its level through a handle scoped to the live index's
//! anchor scope (`lcrs_halfspace::leveled::build_level`), so the merge
//! thread's page accesses land in the same LRU and the same `IoStats`
//! that the foreground queries are measured through, in whatever order
//! the two threads interleave.

mod common;

use lcrs_perfbench::Workload;

#[test]
fn live_counts_repeat_exactly() {
    common::assert_counts_repeat(Workload::LiveChurn);
}
