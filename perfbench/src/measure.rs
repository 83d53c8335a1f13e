//! Clocks, sample sets and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// CPU time consumed by the whole process (every thread) so far.
pub fn process_cpu() -> Duration {
    cpu_clock(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(3) // CLOCK_THREAD_CPUTIME_ID
}

fn cpu_clock(clock: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s on
    // 64-bit Linux) that outlives the call; both clock ids used here are
    // constants the kernel defines for every process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are always available on Linux");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// A CPU set as `sched_{get,set}affinity` take it (`cpu_set_t`, 1024 bits).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer that outlives
    // the call; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restricts the calling thread to `cpu` (best effort).
pub fn pin_to_cpu(cpu: usize) {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    set_affinity(&set);
}

fn set_affinity(set: &CpuSet) {
    // SAFETY: `set` is a readable `cpu_set_t`-sized buffer that outlives
    // the call; pid 0 names the calling thread. A refusal leaves the
    // thread where it was, which only costs steadiness.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A set of measurements of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `q`-quantile by linear interpolation between closest ranks;
    /// 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The arithmetic mean; 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The highest of the usual percentiles that still has at least ten
    /// samples beyond it, as `(percentile, value)`; `None` when fewer
    /// than twenty samples exist.
    pub fn tail(&self) -> Option<(f64, f64)> {
        [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
            .into_iter()
            .find(|p| self.0.len() as f64 * (1.0 - p / 100.0) >= 10.0)
            .map(|p| (p, self.quantile(p / 100.0)))
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The samples behind `value`, when it summarizes a distribution.
    pub samples: Option<Samples>,
}

impl Metric {
    pub fn value(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value, samples: None }
    }

    /// A metric whose value is `value`, printed with the samples it
    /// summarizes.
    pub fn summary(name: &'static str, unit: &'static str, value: f64, samples: &Samples) -> Self {
        Metric { name, unit, value, samples: Some(samples.clone()) }
    }

    /// A metric whose value is the median of `samples`.
    pub fn median(name: &'static str, unit: &'static str, samples: &Samples) -> Self {
        Self::summary(name, unit, samples.median(), samples)
    }

    /// A metric whose value is the mean of `samples`.
    pub fn mean(name: &'static str, unit: &'static str, samples: &Samples) -> Self {
        Self::summary(name, unit, samples.mean(), samples)
    }

    /// A metric whose value is the mean over runs of each run's
    /// `q`-quantile; the line printed for it describes all runs' samples
    /// together.
    pub fn per_run_quantile(
        name: &'static str,
        unit: &'static str,
        runs: &[&Samples],
        q: f64,
    ) -> Self {
        let mut per_run = Samples::default();
        let mut pooled = Samples::default();
        for s in runs.iter().filter(|s| !s.is_empty()) {
            per_run.push(s.quantile(q));
            pooled.extend(s);
        }
        Self::summary(name, unit, per_run.mean(), &pooled)
    }
}

/// Prints one human-readable line per metric (median, tail percentile
/// and sample count where the metric summarizes samples), then the JSON
/// result object as the last line of standard output.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        let mut line = format!("{:<28} {:>16.6} {:<7}", m.name, m.value, m.unit);
        if let Some(s) = &m.samples {
            let _ = write!(line, " median {:.6}", s.median());
            if let Some((p, v)) = s.tail() {
                let _ = write!(line, " p{p} {v:.6}");
            }
            let _ = write!(line, " n={}", s.len());
        }
        println!("{line}");
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    json.push_str("}}");
    println!("{json}");
}

/// A small deterministic generator (SplitMix64) for workload inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}
