//! What the host did while the benchmark ran: the slow-down its neighbours
//! caused, which the time metrics are reported without, and the kernel's
//! counters, which are covariates: they explain a disagreement between two
//! runs and never excuse one.

use crate::metrics::quantile;
use std::fs;
use std::time::Instant;

/// How much the host slowed one phase of a run, read from samples of that
/// phase's own unit of work (`workloads::Probes`): the mean sample over the
/// quiet one. No constant enters: the probed code is the timed code, so its
/// sensitivity to whatever the neighbours do — a busy sibling hyperthread, a
/// contended cache — is the timed code's own, today's and any later
/// change's alike (README, "Host").
#[derive(Default)]
pub struct SlowDown {
    samples_us: Vec<f64>,
}

impl SlowDown {
    /// Runs `probe` once untimed, so that the timed calls find its buffers
    /// in cache as the inside of an op does, then `times` times timed.
    pub fn sample(&mut self, times: usize, mut probe: impl FnMut()) {
        probe();
        for _ in 0..times {
            let t0 = Instant::now();
            probe();
            self.samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// The unit's time when no neighbour was in the way: the 1st percentile
    /// of the samples. A unit is well under a millisecond, so even on a
    /// loaded host a few percent of them fall between the neighbour's
    /// bursts. Not the minimum: about one timing in several thousand on
    /// this host reads half its neighbours' (README, "Host").
    pub fn quiet_us(&self) -> f64 {
        quantile(&self.samples_us, 0.01)
    }

    /// Mean of the samples without the slowest 1 %. The mean, not the
    /// median, because it is linear in how often the neighbour is there: a
    /// neighbour present a third of the time slows a third of the samples
    /// and leaves the median alone. Trimmed, because one 50 ms
    /// descheduling inside a 0.1 ms sample would move a plain mean by 15 %.
    pub fn mean_us(&self) -> f64 {
        let mut sorted = self.samples_us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        let kept = &sorted[..(sorted.len() * 99).div_ceil(100)];
        kept.iter().sum::<f64>() / kept.len() as f64
    }

    /// `mean_us / quiet_us`: 1.1 on this host at its quietest, up to 2 in
    /// the worst runs seen.
    pub fn factor(&self) -> f64 {
        self.mean_us() / self.quiet_us()
    }
}

/// Peak resident set of this process (`VmHWM`), in MB of 1024 kB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(on-CPU ns, runnable-but-waiting ns)` summed over this process's live
/// threads, from `/proc/self/task/*/schedstat`.
fn sched_ns() -> Option<(u64, u64)> {
    let mut sum = (0u64, 0u64);
    for task in fs::read_dir("/proc/self/task").ok()? {
        // A thread may exit between the listing and the read.
        let Ok(text) = fs::read_to_string(task.ok()?.path().join("schedstat")) else {
            continue;
        };
        let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        sum.0 += fields.next()??;
        sum.1 += fields.next()??;
    }
    Some(sum)
}

/// `(steal, total)` jiffies of the whole machine, from `/proc/stat`.
fn machine_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user, so the first eight columns are the whole.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// A measurement window over the threads alive at both of its ends.
pub struct Window {
    t0: Instant,
    sched: Option<(u64, u64)>,
    jiffies: Option<(u64, u64)>,
}

/// What the kernel's counters say the host did during a window.
pub struct Covariates {
    /// Process CPU time over wall time: ≤ 1 when one thread is busy at a
    /// time, which is what every workload promises.
    pub cpu_per_wall: f64,
    /// Time this process's threads were runnable but not running, over
    /// wall time: another tenant had the core.
    pub run_delay_share: f64,
    /// Share of the machine's CPU time stolen by the hypervisor.
    pub steal_share: f64,
}

impl Window {
    pub fn open() -> Self {
        Self {
            t0: Instant::now(),
            sched: sched_ns(),
            jiffies: machine_jiffies(),
        }
    }

    /// Covariates since `open`; a field the host does not expose reads 0.
    pub fn close(self) -> Covariates {
        let wall_ns = self.t0.elapsed().as_nanos() as f64;
        let (cpu, delay) = match (self.sched, sched_ns()) {
            (Some(a), Some(b)) => (b.0.saturating_sub(a.0), b.1.saturating_sub(a.1)),
            _ => (0, 0),
        };
        let steal_share = match (self.jiffies, machine_jiffies()) {
            (Some(a), Some(b)) if b.1 > a.1 => b.0.saturating_sub(a.0) as f64 / (b.1 - a.1) as f64,
            _ => 0.0,
        };
        Covariates {
            cpu_per_wall: cpu as f64 / wall_ns,
            run_delay_share: delay as f64 / wall_ns,
            steal_share,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_down_is_the_mean_sample_over_the_quiet_one() {
        // 100 samples: 75 quiet ones of 10 µs, 24 slowed to 20 µs, and one
        // 5 ms descheduling, which the trimmed mean drops.
        let mut samples_us = vec![10.0; 75];
        samples_us.extend([20.0; 24]);
        samples_us.push(5000.0);
        let slow_down = SlowDown { samples_us };
        assert_eq!(slow_down.quiet_us(), 10.0);
        assert!((slow_down.mean_us() - (750.0 + 480.0) / 99.0).abs() < 1e-9);
        assert!((slow_down.factor() - 1230.0 / 990.0).abs() < 1e-9);

        let mut calls = 0;
        let mut timed = SlowDown::default();
        timed.sample(4, || calls += 1);
        // One untimed warm-up call, then the four samples.
        assert_eq!((calls, timed.samples_us.len()), (5, 4));
        assert!(timed.factor() >= 1.0);
    }

    #[test]
    fn proc_readers_answer_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 1.0);
            let window = Window::open();
            std::hint::black_box((0..100_000u64).sum::<u64>());
            let c = window.close();
            // No upper bound here: the other tests' threads share the process.
            assert!(c.cpu_per_wall >= 0.0 && c.run_delay_share >= 0.0);
            assert!((0.0..=1.0).contains(&c.steal_share));
        }
    }
}
