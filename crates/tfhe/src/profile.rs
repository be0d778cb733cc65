//! Per-phase latency accounting used to regenerate Figure 1 of the paper
//! (the FFT / IFFT / other breakdown of TFHE gate latency).
//!
//! Counters are thread-local, so parallel benchmark runners do not need
//! locks; each worker reads its own breakdown.
//!
//! Naming follows TFHE's convention (which the paper uses): **IFFT** is the
//! coefficient → Lagrange transform (applied to decomposed digits, 4–6× per
//! blind-rotation step) and **FFT** is the Lagrange → coefficient transform
//! (2× per step), which is why IFFT dominates in Figure 1.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The latency phases of a TFHE gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Coefficient → Lagrange transforms (TFHE's "IFFT").
    Ifft,
    /// Lagrange → coefficient transforms (TFHE's "FFT").
    Fft,
    /// TGSW scale/add work: bootstrapping-key bundle construction.
    TgswScale,
    /// Key switching.
    KeySwitch,
    /// Everything else (decomposition, pointwise MACs, rotations, linear
    /// gate algebra, sample extraction).
    Other,
}

const PHASES: usize = 5;

fn index(phase: Phase) -> usize {
    match phase {
        Phase::Ifft => 0,
        Phase::Fft => 1,
        Phase::TgswScale => 2,
        Phase::KeySwitch => 3,
        Phase::Other => 4,
    }
}

thread_local! {
    static COUNTERS: RefCell<[Duration; PHASES]> = const { RefCell::new([Duration::ZERO; PHASES]) };
    static CALLS: RefCell<[u64; PHASES]> = const { RefCell::new([0; PHASES]) };
    static ENABLED: RefCell<bool> = const { RefCell::new(false) };
}

/// Enables profiling on this thread and clears previous counters.
pub fn start() {
    COUNTERS.with(|c| *c.borrow_mut() = [Duration::ZERO; PHASES]);
    CALLS.with(|c| *c.borrow_mut() = [0; PHASES]);
    ENABLED.with(|e| *e.borrow_mut() = true);
}

/// Disables profiling on this thread (counters are retained).
pub fn stop() {
    ENABLED.with(|e| *e.borrow_mut() = false);
}

/// Returns `true` if profiling is active on this thread.
fn enabled() -> bool {
    ENABLED.with(|e| *e.borrow())
}

/// Runs `f`, attributing its wall time to `phase` when profiling is active.
#[inline]
pub(crate) fn timed<T>(phase: Phase, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed();
    COUNTERS.with(|c| c.borrow_mut()[index(phase)] += dt);
    CALLS.with(|c| c.borrow_mut()[index(phase)] += 1);
    out
}

/// A snapshot of the per-phase totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Coefficient → Lagrange transform time.
    pub ifft: Duration,
    /// Lagrange → coefficient transform time.
    pub fft: Duration,
    /// Bundle (TGSW scale/add) time.
    pub tgsw_scale: Duration,
    /// Key-switch time.
    pub key_switch: Duration,
    /// Everything else.
    pub other: Duration,
    /// Coefficient → Lagrange call count.
    pub ifft_calls: u64,
    /// Lagrange → coefficient call count.
    pub fft_calls: u64,
}

impl Breakdown {
    /// Total accounted time.
    fn total(&self) -> Duration {
        self.ifft + self.fft + self.tgsw_scale + self.key_switch + self.other
    }

    /// Fraction (0–1) of total time in a phase.
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let part = match phase {
            Phase::Ifft => self.ifft,
            Phase::Fft => self.fft,
            Phase::TgswScale => self.tgsw_scale,
            Phase::KeySwitch => self.key_switch,
            Phase::Other => self.other,
        };
        part.as_secs_f64() / total
    }
}

/// Reads this thread's counters.
pub fn snapshot() -> Breakdown {
    let counters = COUNTERS.with(|c| *c.borrow());
    let calls = CALLS.with(|c| *c.borrow());
    Breakdown {
        ifft: counters[0],
        fft: counters[1],
        tgsw_scale: counters[2],
        key_switch: counters[3],
        other: counters[4],
        ifft_calls: calls[0],
        fft_calls: calls[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_costs_nothing() {
        stop();
        let before = snapshot();
        timed(Phase::Ifft, || std::thread::sleep(Duration::from_millis(1)));
        assert_eq!(snapshot(), before);
    }

    #[test]
    fn attributes_time_to_phases() {
        start();
        timed(Phase::Ifft, || std::thread::sleep(Duration::from_millis(2)));
        timed(Phase::Fft, || std::thread::sleep(Duration::from_millis(1)));
        let snap = snapshot();
        stop();
        assert!(snap.ifft >= Duration::from_millis(2));
        assert!(snap.fft >= Duration::from_millis(1));
        assert_eq!(snap.ifft_calls, 1);
        assert_eq!(snap.fft_calls, 1);
        // A live sleep overruns by whatever the host's scheduler adds, so
        // the ratio of two is not a test: the fractions are read off fixed
        // durations.
        let ms = Duration::from_millis;
        let fixed = Breakdown {
            ifft: ms(2),
            fft: ms(1),
            key_switch: ms(1),
            ..Breakdown::default()
        };
        assert!(fixed.fraction(Phase::Ifft) > fixed.fraction(Phase::Fft));
        assert_eq!(fixed.fraction(Phase::Ifft), 0.5);
        let sum: f64 = [
            Phase::Ifft,
            Phase::Fft,
            Phase::TgswScale,
            Phase::KeySwitch,
            Phase::Other,
        ]
        .map(|p| fixed.fraction(p))
        .iter()
        .sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn start_resets() {
        start();
        timed(Phase::Other, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        start();
        let snap = snapshot();
        stop();
        assert_eq!(snap.other, Duration::ZERO);
    }

    #[test]
    fn fraction_sums_to_one() {
        start();
        timed(Phase::Ifft, || std::thread::sleep(Duration::from_millis(1)));
        timed(Phase::KeySwitch, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let snap = snapshot();
        stop();
        let sum: f64 = [
            Phase::Ifft,
            Phase::Fft,
            Phase::TgswScale,
            Phase::KeySwitch,
            Phase::Other,
        ]
        .iter()
        .map(|&p| snap.fraction(p))
        .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
