//! Summaries of measured samples.

/// Percentiles a tail metric may report, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

/// Nearest rank (1-based) of percentile `p` among `n` samples, computed in
/// integer per-mille so that e.g. p90 of 100 samples is exactly rank 90.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest percentile on the ladder, capped at `ceiling`, that leaves
/// at least ten of `n` samples beyond it (so a tail is never one outlier).
/// Falls back to the median when even that has fewer than ten beyond it.
pub fn tail_percentile(n: usize, ceiling: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= ceiling)
        .find(|&p| n >= 10 && n - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of an ascending slice; 0 for no samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One timed op: (completion time since the phase began, latency), in ns.
pub type Sample = (u64, u64);

/// Fewest samples a slice needs to count towards a latency summary.
const MIN_SLICE_SAMPLES: usize = 20;

/// The measured phase cut into equal time slices. Every wall-clock
/// metric is computed per slice and reported as the median over slices,
/// so a host hiccup spoils one slice, not the run.
#[derive(Clone, Copy, Debug)]
pub struct Slices {
    pub slice_ns: u64,
    pub count: usize,
}

impl Slices {
    /// Slices of `slice_ns` over a phase of `elapsed_ns`; one slice
    /// covering the whole phase when fewer than `min_count` would fit.
    pub fn new(elapsed_ns: u64, slice_ns: u64, min_count: usize) -> Self {
        let count = (elapsed_ns / slice_ns.max(1)) as usize;
        if count < min_count {
            Slices { slice_ns: elapsed_ns.max(1), count: 1 }
        } else {
            Slices { slice_ns, count }
        }
    }

    /// Latencies per slice; samples past the last whole slice are dropped.
    fn split(&self, samples: &[Sample]) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); self.count];
        for &(at, ns) in samples {
            if let Some(slice) = out.get_mut((at / self.slice_ns) as usize) {
                slice.push(ns);
            }
        }
        out
    }

    /// Samples completed in each slice.
    pub fn counts(&self, sets: &[&[Sample]]) -> Vec<u64> {
        let mut counts = vec![0u64; self.count];
        for set in sets {
            for &(at, _) in *set {
                if let Some(c) = counts.get_mut((at / self.slice_ns) as usize) {
                    *c += 1;
                }
            }
        }
        counts
    }

    /// Median over slices of the samples completed per second.
    pub fn rate(&self, sets: &[&[Sample]]) -> f64 {
        let secs = self.slice_ns as f64 / 1e9;
        median(&self.counts(sets).iter().map(|&c| c as f64 / secs).collect::<Vec<_>>())
    }

    /// Median over slices of the per-slice median and tail latency.
    pub fn latency(&self, samples: &[Sample]) -> SlicedLatency {
        let mut slices: Vec<Vec<u64>> =
            self.split(samples).into_iter().filter(|s| s.len() >= MIN_SLICE_SAMPLES).collect();
        if slices.is_empty() {
            slices.push(samples.iter().map(|&(_, ns)| ns).collect());
        }
        let fewest = slices.iter().map(Vec::len).min().unwrap_or(0);
        let tail_pct = tail_percentile(fewest, 99.0);
        let (mut p50, mut tail) = (Vec::new(), Vec::new());
        for s in &mut slices {
            s.sort_unstable();
            p50.push(percentile(s, 50.0) as f64 / 1e3);
            tail.push(percentile(s, tail_pct) as f64 / 1e3);
        }
        SlicedLatency {
            p50_us: median(&p50),
            tail_us: median(&tail),
            tail_pct,
            slices: slices.len(),
            fewest,
        }
    }
}

/// A latency summary over slices.
pub struct SlicedLatency {
    pub p50_us: f64,
    pub tail_us: f64,
    /// The percentile the tail reports: the highest with ≥ 10 samples
    /// beyond it in every slice used.
    pub tail_pct: f64,
    pub slices: usize,
    /// Samples in the sparsest slice used.
    pub fewest: usize,
}

/// Mean latency of a sample set in ns; 0 for none.
pub fn mean_ns(samples: &[Sample]) -> f64 {
    ratio(samples.iter().map(|&(_, ns)| ns).sum::<u64>() as f64, samples.len() as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds this process has used, all threads, from `/proc/self/stat`
/// (utime + stime, in the kernel's fixed 100 Hz user tick); 0 if unreadable.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}
