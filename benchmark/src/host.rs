//! Host-side measurements: sample statistics, and the noise indicators read
//! from `/proc` (no libc calls).

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Stats {
    /// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them (the
    /// exclusive method), so the spreads printed here are the ones the
    /// acceptance check computes.
    pub fn of(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let q = |k: usize| {
            if n == 1 {
                return v[0];
            }
            // Rank k*(n+1)/4, linearly interpolated between its neighbours
            // (and, as Python does, extrapolated when the rank is clamped).
            let j = (k * (n + 1) / 4).clamp(1, n - 1);
            let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Stats {
            n,
            min: v[0],
            q1: q(1),
            median: q(2),
            q3: q(3),
            max: v[n - 1],
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Stats::of(samples).median
}

/// Noise protocol. Every repetition of a run does the identical,
/// deterministic work, so one that takes more than this much longer than
/// the run's fastest was disturbed by the host (preempted, throttled, or
/// sharing its core): it is set aside, and timings are medians of the
/// rest. Here a CPU-only loop's 1-second windows ranged 0.73–1.34 s within
/// a minute; medians over all repetitions moved 63 % between runs, medians
/// over the undisturbed ones 4 %.
const DISTURBED: f64 = 0.05;

/// The samples within [`DISTURBED`] of the fastest one.
pub fn undisturbed(samples: &[f64]) -> Vec<f64> {
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    samples
        .iter()
        .copied()
        .filter(|&s| s <= best * (1.0 + DISTURBED))
        .collect()
}

/// `(on-cpu ns, run-queue wait ns)` of the calling thread, cumulative.
/// Read inside a worker thread it covers that worker alone.
pub fn thread_schedstat() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// CPU seconds (user + system) of the whole process, exited threads
/// included, from `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_cpu_s() -> f64 {
    let s = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. 12th and 13th after ')'.
    let rest = s.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stats::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Stats::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Stats::of(&[4.0]).median, 4.0);
        assert_eq!(median(&[1.0, 9.0]), 5.0);
    }

    #[test]
    fn disturbed_samples_are_set_aside() {
        let kept = undisturbed(&[1.30, 1.00, 1.04, 1.06, 1.02]);
        assert_eq!(kept, [1.00, 1.04, 1.02]);
        assert_eq!(median(&kept), 1.02);
        assert_eq!(undisturbed(&[2.0]), [2.0]);
    }

    #[test]
    fn proc_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cores() >= 1);
        // On-CPU time is accounted at context switches, so burn a little
        // and yield before expecting it to have moved.
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 20 {
            std::thread::yield_now();
        }
        let (cpu, _wait) = thread_schedstat();
        assert!(cpu > 0);
        assert!(process_cpu_s() >= 0.0);
    }
}
