//! The traced run's only instrument: a [`RangeIndex`] decorator that the
//! benchmark installs through `IndexSet::add`. It delegates every trait
//! method to the wrapped structure and records, per answering call, one
//! in-memory [`Span`] with the call's busy time and the `IoStats` delta
//! of the structure's device scope. Nothing is added to the library.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lcrs_engine::{Query, RangeIndex, Unsupported};
use lcrs_extmem::{DeviceHandle, IoDelta, MetaWriter};
use lcrs_halfspace::cost::CostHint;

/// Structure kinds the benchmark reports per slot: the fifteen
/// `RangeIndex` names of the canonical fixture, in slot order, plus the
/// live tier (`LiveIndex`, queried directly by `live_churn`).
pub const KINDS: [&str; 16] = [
    "hs2d",
    "ptree",
    "kdtree",
    "rtree",
    "dynamic",
    "knn",
    "hs3d",
    "tradeoff-hybrid",
    "tradeoff-shallow",
    "lift-hs3d",
    "lift-hybrid",
    "lift-shallow",
    "scan",
    "scan3",
    "lift-scan3",
    "live",
];

/// Position of `name` in [`KINDS`].
pub fn kind_id(name: &str) -> usize {
    KINDS.iter().position(|k| *k == name).unwrap_or_else(|| panic!("unknown kind {name:?}"))
}

/// One structure call: which slot kind on which shard answered, inside
/// which client window, when, for how long, and what it cost.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: u8,
    pub shard: u8,
    pub window: u32,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub io: IoDelta,
    /// Ids (or answer words) returned.
    pub ids: u32,
}

/// Span sink shared by every decorator (and fork) of one traced set.
pub struct Recorder {
    origin: Instant,
    window: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            window: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Tag the spans of the next client call with window `w`.
    pub fn set_window(&self, w: u32) {
        self.window.store(w, Ordering::Relaxed);
    }

    /// Drop everything recorded so far (e.g. calibration calls).
    pub fn clear(&self) {
        self.spans.lock().unwrap().clear();
    }

    /// The recorded spans, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }

    /// Record one call that started at `start` and ends now.
    pub fn record(&self, kind: u8, shard: u8, start: Instant, io: IoDelta, ids: usize) {
        let span = Span {
            kind,
            shard,
            window: self.window.load(Ordering::Relaxed),
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
            io,
            ids: ids as u32,
        };
        self.spans.lock().unwrap().push(span);
    }
}

/// The decorator. Answers, `IoStats` and calibration are the wrapped
/// structure's own: the decorator reads the scope's counters but never
/// touches pages.
pub struct Traced {
    inner: Box<dyn RangeIndex>,
    rec: Arc<Recorder>,
    kind: u8,
    shard: u8,
}

impl Traced {
    pub fn wrap(
        inner: Box<dyn RangeIndex>,
        rec: &Arc<Recorder>,
        shard: usize,
    ) -> Box<dyn RangeIndex> {
        let kind = kind_id(inner.name()) as u8;
        Box::new(Traced { inner, rec: Arc::clone(rec), kind, shard: shard as u8 })
    }

    fn measure<T>(
        &self,
        call: impl FnOnce(&dyn RangeIndex) -> (T, IoDelta, usize),
    ) -> (T, IoDelta) {
        let start = Instant::now();
        let (out, io, ids) = call(&*self.inner);
        self.rec.record(self.kind, self.shard, start, io, ids);
        (out, io)
    }

    fn bracketed<T>(
        &self,
        call: impl FnOnce(&dyn RangeIndex) -> T,
        ids: impl Fn(&T) -> usize,
    ) -> T {
        self.measure(|inner| {
            let before = inner.device().stats();
            let out = call(inner);
            let io = inner.device().stats().since(before);
            let n = ids(&out);
            (out, io, n)
        })
        .0
    }
}

fn answer_len(r: &Result<Vec<u64>, Unsupported>) -> usize {
    r.as_ref().map_or(0, Vec::len)
}

impl RangeIndex for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> &DeviceHandle {
        self.inner.device()
    }

    fn supports(&self, q: &Query) -> bool {
        self.inner.supports(q)
    }

    fn cost_hint(&self) -> CostHint {
        self.inner.cost_hint()
    }

    fn cost_hint_for(&self, q: &Query) -> CostHint {
        self.inner.cost_hint_for(q)
    }

    fn try_execute(&self, q: &Query) -> Result<Vec<u64>, Unsupported> {
        self.bracketed(|i| i.try_execute(q), answer_len)
    }

    fn execute(&self, q: &Query) -> Vec<u64> {
        self.bracketed(|i| i.execute(q), Vec::len)
    }

    fn try_execute_measured(&self, q: &Query) -> (Result<Vec<u64>, Unsupported>, IoDelta) {
        self.measure(|i| {
            let (out, io) = i.try_execute_measured(q);
            let n = answer_len(&out);
            (out, io, n)
        })
    }

    fn execute_measured(&self, q: &Query) -> (Vec<u64>, IoDelta) {
        self.measure(|i| {
            let (out, io) = i.execute_measured(q);
            let n = out.len();
            (out, io, n)
        })
    }

    fn fork_reader(&self) -> Box<dyn RangeIndex> {
        Box::new(Traced {
            inner: self.inner.fork_reader(),
            rec: Arc::clone(&self.rec),
            kind: self.kind,
            shard: self.shard,
        })
    }

    fn save_meta(&self, w: &mut MetaWriter) {
        self.inner.save_meta(w)
    }
}
