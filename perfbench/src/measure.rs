//! Measurement plumbing shared by the workloads: order statistics,
//! `/proc/self` readers, the metric list that becomes the result line,
//! and a self-removing scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Nearest-rank percentile (`p` in 0..=100) of `v`; `0.0` for an empty
/// sample. Sorts a copy.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Largest element; `0.0` for an empty sample.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// Wall time of each distinct call a pass makes, kept at the fastest of
/// its repetitions. Every pass repeats the same calls on the same state,
/// so a call's repetitions do the same work; what differs is the host.
/// Its CPUs change speed several times a second under outside load (a
/// fixed loop reads 12 ms in one stretch and 20 ms in the next, with no
/// steal time), and that only ever slows a call down, so the fastest
/// repetition follows the code. Percentiles are taken over the distinct
/// calls: a tail is the work of the slowest calls, not a slow moment.
#[derive(Debug, Default)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    /// One repetition of call `key` took `ms`.
    pub fn record(&mut self, key: usize, ms: f64) {
        if self.0.len() <= key {
            self.0.resize(key + 1, f64::INFINITY);
        }
        self.0[key] = self.0[key].min(ms);
    }

    fn seen(&self) -> Vec<f64> {
        self.0.iter().copied().filter(|v| v.is_finite()).collect()
    }

    /// Nearest-rank percentile over the distinct calls.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.seen(), p)
    }

    /// One pass at the fastest repetition of every call, ms.
    pub fn total_ms(&self) -> f64 {
        self.seen().iter().sum()
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One field of a `/proc/self/*` file, parsed as the first number after
/// `key`. `None` when the file or the field is missing (the metric is
/// then reported absent, never as zero).
fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Bytes this process has passed to `write`-family calls so far
/// (`wchar` of `/proc/self/io`).
pub fn wchar() -> Option<u64> {
    proc_field("/proc/self/io", "wchar:")
}

/// Peak resident set size in KiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_kib() -> Option<u64> {
    proc_field("/proc/self/status", "VmHWM:")
}

/// `after − before` of two optional counter readings.
pub fn delta(before: Option<u64>, after: Option<u64>) -> Option<u64> {
    Some(after?.saturating_sub(before?))
}

/// Total size of the regular files under `dir` (recursively).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else { return 0 };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics one run reports, in emission order. Setting a name twice
/// overwrites its value (the per-layer list starts from zero defaults).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "metric {name} changed unit");
                m.value = value;
            }
            None => self.0.push(Metric { name: name.to_string(), value, unit }),
        }
    }

    /// Set `name` when the reading exists; leave it absent otherwise.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.set(name, v, unit);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of
    /// each value (Rust's shortest round-trip float formatting).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A scratch directory under the benchmark's `out/` directory, removed
/// when dropped — also while unwinding from a panic.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes its scratch directories and trace files.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn fastest_keeps_each_calls_minimum() {
        let mut f = Fastest::default();
        f.record(2, 5.0);
        f.record(0, 3.0);
        f.record(2, 4.0);
        f.record(0, 6.0);
        assert_eq!(f.total_ms(), 7.0);
        assert_eq!(f.percentile(50.0), 3.0);
        assert_eq!(f.percentile(100.0), 4.0);
    }

    #[test]
    fn absent_proc_fields_stay_absent() {
        assert_eq!(proc_field("/proc/self/no-such-file", "wchar:"), None);
        assert_eq!(delta(None, Some(5)), None);
        let mut m = Metrics::default();
        m.set_opt("x", None, "count");
        assert!(m.0.is_empty());
    }

    #[test]
    fn temp_dir_is_removed_on_panic() {
        let path = std::panic::catch_unwind(|| {
            let d = TempDir::new("panic");
            let p = d.path().to_path_buf();
            assert!(p.is_dir());
            std::panic::panic_any(p);
        })
        .unwrap_err()
        .downcast::<PathBuf>()
        .unwrap();
        assert!(!path.exists());
    }
}
