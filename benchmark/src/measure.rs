//! The one way this benchmark turns a piece of code into a number.
//!
//! Every per-layer value goes through [`measure`] (or its interleaved A/B
//! sibling): discarded warm-up calls, repeated timed trials, and a
//! [`Stats`] summary — median, quartiles and the sample count — instead of
//! a single shot. Every end-to-end time of an in-process workload is read from
//! a [`HostClock`], which scales wall time by the host's speed at that
//! moment, and summarised by [`steady`]. The [`Host`] block records what the numbers depend on,
//! including the thread count actually used rather than a configured `0`.

use std::hint::black_box;
use std::time::Instant;

/// Fastest sample, median, quartiles and sample count of one measured
/// quantity. Unit-cost loops report their fastest sample; the rest says how
/// steady the host was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stats {
    /// Summarises `samples` (at least one).
    ///
    /// Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
    /// default exclusive method), so a spread computed here is the spread
    /// the benchmark's driver computes from the same values.
    pub fn of(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Stats {
                min: v[0],
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            // Signed: the clamp can move `j` past `i * m / 4`.
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Stats {
            min: v[0],
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }

    /// Interquartile range as a share of the median — the driver's spread.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `q`-quantile of `samples` by nearest rank (`q` in `(0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// What a run reports for a time it sampled many times on a [`HostClock`]:
/// the lower quartile. Interference only ever adds time, so the lower half
/// of the samples is the part that belongs to the program; the quartile is
/// deep enough in it to ignore bursts and, unlike the fastest sample, does
/// not hang on one lucky execution.
pub fn steady(host_clock_samples: &[f64]) -> f64 {
    percentile(host_clock_samples, 0.25)
}

/// Times `op` per call, in seconds: `warmup` discarded calls, then `trials`
/// timed ones. Each timed trial calls `op` `iters` times and reports the mean
/// of that inner loop, so nanosecond-scale operations are not lost in timer
/// granularity. Results pass through `black_box`.
pub fn measure<R>(warmup: usize, trials: usize, iters: usize, mut op: impl FnMut() -> R) -> Stats {
    let iters = iters.max(1);
    for _ in 0..warmup {
        black_box(op());
    }
    sample(0, trials, || {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(op());
        }
        t.elapsed().as_secs_f64() / iters as f64
    })
}

/// Like [`measure`], for operations that need untimed preparation per call:
/// `op` does its own timing and returns the seconds it measured.
pub fn sample(warmup: usize, trials: usize, mut op: impl FnMut() -> f64) -> Stats {
    for _ in 0..warmup {
        op();
    }
    let samples: Vec<f64> = (0..trials.max(1)).map(|_| op()).collect();
    Stats::of(&samples)
}

/// Seconds `f` takes, its result kept alive past the clock read.
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = black_box(f());
    (t.elapsed().as_secs_f64(), r)
}

/// Words in the reference kernel's table: 2 MiB, more than a core's own
/// second-level cache, so that the far walk lives in the cache the host's
/// other tenants share.
const TABLE_WORDS: usize = 1 << 18;
/// The part of the table the near walk stays in: 512 KiB, second-level cache.
const NEAR_WORDS: usize = 1 << 16;
/// Steps of each leg, sized so that the three take about a millisecond each
/// at the reference speed.
const CHAIN_STEPS: u64 = 400_000;
const NEAR_STEPS: u64 = 100_000;
const FAR_STEPS: u64 = 50_000;

/// Seconds one pass of the reference kernel takes at the host speed every
/// end-to-end time is scaled to: the middle of what the two-core cloud host
/// this benchmark was written on gives when its neighbours are quiet. It is
/// a definition, not a measurement; changing it rescales every time.
pub const REFERENCE_KERNEL_S: f64 = 0.003;

fn reference_table() -> &'static [u64] {
    static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 88_172_645_463_325_252u64;
        (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    })
}

/// A walk whose next index and next branch both depend on the word just
/// loaded: nothing to prefetch, nothing to predict — the access pattern of
/// an interpreter or a simulator, which is what the benchmark times.
fn walk(table: &[u64], steps: u64) -> u64 {
    let mask = table.len() as u64 - 1;
    let (mut x, mut acc) = (12_345u64, 0u64);
    for i in 0..steps {
        let v = table[(x & mask) as usize];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v ^ i);
        } else {
            acc = acc.rotate_left(7) ^ v;
        }
        x = (x >> 3) ^ v ^ acc;
    }
    acc
}

/// One pass of the reference kernel on the calling thread, in seconds. Its
/// three legs each follow one thing a shared host takes away in phases: the
/// core's clock (a dependent multiply–add chain that touches no memory),
/// the core's own cache (the near walk) and the shared cache and memory
/// behind it (the far walk). It uses nothing of the repository, so no
/// change to the program can move it.
fn reference_kernel_s() -> f64 {
    let table = reference_table();
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..CHAIN_STEPS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    black_box(x ^ walk(&table[..NEAR_WORDS], NEAR_STEPS) ^ walk(table, FAR_STEPS));
    t.elapsed().as_secs_f64()
}

/// A clock that reads in seconds of the reference host.
///
/// On the shared hosts this benchmark runs on, speed moves by tens of
/// percent in phases of seconds to minutes (clock steps, neighbours filling
/// the shared cache), so the wall time of the same work follows the host,
/// whatever statistic summarises it. The clock therefore runs the reference
/// kernel, on as many threads as the work uses, right before and right
/// after whatever it times, and scales the wall time by how much slower or
/// faster than the reference speed the host was around it. A time read from
/// it is what the work would have taken on a host at that speed.
pub struct HostClock {
    threads: usize,
    /// The kernel's time when last sampled: the "before" of the next call.
    last_kernel_s: f64,
}

impl HostClock {
    pub fn new(threads: usize) -> HostClock {
        reference_table();
        let mut clock = HostClock {
            threads: threads.max(1),
            last_kernel_s: 0.0,
        };
        clock.last_kernel_s = clock.kernel_s();
        clock
    }

    /// Mean kernel time over `threads` concurrent passes.
    fn kernel_s(&self) -> f64 {
        let total: f64 = std::thread::scope(|s| {
            let others: Vec<_> = (1..self.threads)
                .map(|_| s.spawn(reference_kernel_s))
                .collect();
            let own = reference_kernel_s();
            own + others
                .into_iter()
                .map(|h| h.join().expect("reference kernel does not panic"))
                .sum::<f64>()
        });
        total / self.threads as f64
    }

    /// Times `f`: its wall seconds scaled to the reference host, and its
    /// result.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (f64, R) {
        let before = self.last_kernel_s;
        let (wall, result) = time(f);
        self.last_kernel_s = self.kernel_s();
        let around = (before + self.last_kernel_s) / 2.0;
        (wall * REFERENCE_KERNEL_S / around, result)
    }
}

/// Interleaved A/B timing: after one discarded call of each side, `a` and
/// `b` alternate for `trials` pairs (the leading side alternates too), so
/// both see the same caches, clocks and neighbours. This is what a
/// one-cold-run-then-one-warm-run comparison gets wrong.
pub fn measure_ab(trials: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (Stats, Stats) {
    a();
    b();
    let mut sa = Vec::with_capacity(trials);
    let mut sb = Vec::with_capacity(trials);
    let time = |f: &mut dyn FnMut(), into: &mut Vec<f64>| {
        let t = Instant::now();
        f();
        into.push(t.elapsed().as_secs_f64());
    };
    for k in 0..trials.max(1) {
        if k % 2 == 0 {
            time(&mut a, &mut sa);
            time(&mut b, &mut sb);
        } else {
            time(&mut b, &mut sb);
            time(&mut a, &mut sa);
        }
    }
    (Stats::of(&sa), Stats::of(&sb))
}

/// Compute threads every workload uses: two, or one on a single-core host.
/// Fixed so that a number means the same on a bigger machine.
pub fn compute_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used, 0 where `/proc` is not
/// available.
pub fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The comm field may contain spaces; numbered fields start after ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11).and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    // USER_HZ is 100 on every mainstream Linux.
    (utime + stime) / 100.0
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub threads: usize,
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
    pub profile: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        let first_line = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().next().map(str::to_string))
                .unwrap_or_else(|| "unknown".into())
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            threads: compute_threads(),
            nproc: nproc(),
            cpu,
            rustc: first_line("rustc", &["--version"]),
            commit: first_line("git", &["rev-parse", "HEAD"]),
            profile: if cfg!(debug_assertions) {
                "debug (numbers are not comparable)"
            } else {
                "release: opt-level 3, debug info, no LTO"
            },
        }
    }

    pub fn to_json(&self) -> String {
        use avgi_faultsim::json::escape;
        format!(
            "{{\"threads\":{},\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"profile\":\"{}\"}}",
            self.threads,
            self.nproc,
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.commit),
            escape(self.profile),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Stats::of(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert_eq!(s.min, 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Stats::of(&[3., 1., 2.]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Stats::of(&[1., 2.]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((Stats::of(&[10., 10., 10., 11.]).spread() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn host_clock_reads_the_reference_kernel_at_its_reference_time() {
        // Whatever the host's speed, twenty passes of the kernel itself
        // must read as twenty reference passes: kernel time cancels.
        let mut clock = HostClock::new(1);
        let mut reads = Vec::new();
        for _ in 0..15 {
            let (host_s, _) = clock.time(|| (0..20).map(|_| reference_kernel_s()).sum::<f64>());
            reads.push(host_s / 20.0 / REFERENCE_KERNEL_S);
        }
        let read = steady(&reads);
        assert!(
            (0.8..1.25).contains(&read),
            "read {read} reference passes per pass"
        );
    }

    #[test]
    fn measure_counts_trials_and_runs_warmup() {
        let mut calls = 0;
        let s = measure(2, 5, 3, || calls += 1);
        assert_eq!((s.n, calls), (5, 2 + 5 * 3));
        let (mut na, mut nb) = (0, 0);
        let (a, b) = measure_ab(4, || na += 1, || nb += 1);
        assert_eq!((a.n, b.n, na, nb), (4, 4, 5, 5));
    }
}
