//! Register-file bank-conflict analysis.
//!
//! The paper's Figure 7 sizes the register files asymmetrically: a TGSW
//! cluster gets **2 banks** because TGSW scale operations stream
//! sequentially ("strong spatial locality" — one bank is read while the
//! other is written), while an EP core gets **8 banks** to serve the
//! *irregular* accesses of FFT/IFFT butterflies. This module makes that
//! design argument checkable: it generates the exact address traces of the
//! kernels, maps them to banks, counts same-cycle conflicts, and confirms
//! the paper's sizing — 2 banks suffice for TGSW streams, FFT needs the
//! wider fan-out, and the depth-first flow (Figure 2b) is gentler on the
//! banks than breadth-first.
//!
//! The same two flows differ in how often they read the twiddle buffer
//! (§4.1): [`breadth_first_twiddle_reads`] and
//! [`depth_first_twiddle_reads`] give the counts per transform in closed
//! form.

/// How addresses map to banks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankMapping {
    /// `bank = addr mod banks` — simple interleaving.
    Interleaved,
    /// XOR-folds *every* `log2(banks)`-bit slice of the address into the
    /// bank index, so any power-of-two stride flips at least one bank bit
    /// — the standard conflict-free skew for FFT access patterns.
    XorFold,
}

impl BankMapping {
    /// The bank an address maps to.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two.
    pub fn bank_of(self, addr: usize, banks: usize) -> usize {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        match self {
            BankMapping::Interleaved => addr % banks,
            BankMapping::XorFold => {
                let shift = banks.trailing_zeros();
                let mut folded = 0usize;
                let mut rest = addr;
                while rest != 0 {
                    folded ^= rest;
                    rest >>= shift;
                }
                folded % banks
            }
        }
    }
}

/// A cycle-by-cycle address trace: each inner vector holds the addresses
/// issued in one cycle (one per lane).
pub type Trace = Vec<Vec<usize>>;

/// Counts stalls: each cycle, a bank serves `ports` accesses; every extra
/// access beyond that adds one stall.
pub fn conflict_cycles(trace: &Trace, banks: usize, ports: usize, mapping: BankMapping) -> usize {
    assert!(ports > 0, "banks need at least one port");
    let mut stalls = 0;
    let mut hits = vec![0usize; banks];
    for cycle in trace {
        hits.iter_mut().for_each(|h| *h = 0);
        for &addr in cycle {
            hits[mapping.bank_of(addr, banks)] += 1;
        }
        stalls += hits.iter().map(|&h| h.saturating_sub(ports)).sum::<usize>();
    }
    stalls
}

/// The sequential double-buffered trace of a TGSW scale operation:
/// `lanes` consecutive reads per cycle walking a polynomial front to back.
pub fn tgsw_stream_trace(poly_len: usize, lanes: usize) -> Trace {
    (0..poly_len.div_ceil(lanes))
        .map(|c| {
            (0..lanes.min(poly_len - c * lanes))
                .map(|l| c * lanes + l)
                .collect()
        })
        .collect()
}

/// The breadth-first radix-2 FFT trace: for each stage, butterflies issue
/// paired accesses `(i, i + half)` — power-of-two strides that collide on
/// interleaved banks.
pub fn breadth_first_fft_trace(m: usize, lanes: usize) -> Trace {
    assert!(m.is_power_of_two());
    let mut trace = Trace::new();
    let mut len = 2;
    while len <= m {
        let half = len / 2;
        let mut pending: Vec<usize> = Vec::new();
        for start in (0..m).step_by(len) {
            for k in 0..half {
                pending.push(start + k);
                pending.push(start + k + half);
                if pending.len() >= 2 * lanes {
                    trace.push(std::mem::take(&mut pending));
                }
            }
        }
        if !pending.is_empty() {
            trace.push(pending);
        }
        len *= 2;
    }
    trace
}

/// The depth-first trace: sub-transforms complete before moving on, so
/// each cycle's accesses stay within one contiguous sub-block.
pub fn depth_first_fft_trace(m: usize, lanes: usize) -> Trace {
    assert!(m.is_power_of_two());
    let mut trace = Trace::new();
    depth_first_rec(0, m, lanes, &mut trace);
    trace
}

fn depth_first_rec(base: usize, len: usize, lanes: usize, trace: &mut Trace) {
    if len < 2 {
        return;
    }
    let half = len / 2;
    depth_first_rec(base, half, lanes, trace);
    depth_first_rec(base + half, half, lanes, trace);
    let mut pending: Vec<usize> = Vec::new();
    for k in 0..half {
        pending.push(base + k);
        pending.push(base + k + half);
        if pending.len() >= 2 * lanes {
            trace.push(std::mem::take(&mut pending));
        }
    }
    if !pending.is_empty() {
        trace.push(pending);
    }
}

/// Twiddle-buffer reads of one breadth-first radix-2 transform of `m`
/// points (Figure 2a): one read per butterfly, `(M/2)·log₂M`.
///
/// # Panics
///
/// Panics if `m` is not a power of two.
pub fn breadth_first_twiddle_reads(m: usize) -> usize {
    assert!(m.is_power_of_two());
    m / 2 * m.trailing_zeros() as usize
}

/// Twiddle-buffer reads of one depth-first conjugate-pair transform of `m`
/// points (Figure 2b, §4.1). A combine of `half` butterflies pairs
/// butterfly `k` with butterfly `half − k`, whose twiddle
/// `w^{half−k} = −conj(w^k)` comes from the same read, so it costs
/// `⌊half/2⌋ + 1` reads. Summed over the `M/len` combines of every length
/// `len = 2 … M` that is `(log₂M − 1)·M/4 + M − 1`: 1535 against
/// breadth-first's 2304 at the paper's `M = 512`.
///
/// # Panics
///
/// Panics if `m` is not a power of two of at least 2.
pub fn depth_first_twiddle_reads(m: usize) -> usize {
    assert!(m >= 2 && m.is_power_of_two());
    (m.trailing_zeros() as usize - 1) * m / 4 + m - 1
}

/// Summary of a kernel/bank-configuration pairing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BankReport {
    /// Total issue cycles in the trace.
    pub cycles: usize,
    /// Stall cycles added by bank conflicts.
    pub stalls: usize,
}

impl BankReport {
    /// Fractional slowdown from conflicts (0 = conflict-free).
    pub fn overhead(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.stalls as f64 / self.cycles as f64
    }
}

/// Evaluates a trace against a banking configuration (dual-ported banks,
/// as in the paper's "read a register bank while write the other").
pub fn evaluate(trace: &Trace, banks: usize, mapping: BankMapping) -> BankReport {
    BankReport {
        cycles: trace.len(),
        stalls: conflict_cycles(trace, banks, 2, mapping),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: usize = 512; // the paper's transform size
    const LANES: usize = 4;

    #[test]
    fn tgsw_stream_needs_only_two_banks() {
        // Paper: "each TGSW cluster has only two register banks, since the
        // memory accesses during a TGSW scale operation have strong
        // spatial locality".
        let trace = tgsw_stream_trace(1024, 2);
        let r = evaluate(&trace, 2, BankMapping::Interleaved);
        assert_eq!(
            r.stalls, 0,
            "sequential streams must be conflict-free on 2 banks"
        );
    }

    #[test]
    fn fft_on_two_banks_thrashes() {
        let trace = breadth_first_fft_trace(M, LANES);
        let two = evaluate(&trace, 2, BankMapping::Interleaved);
        assert!(
            two.overhead() > 0.5,
            "2 banks should thrash: {}",
            two.overhead()
        );
    }

    #[test]
    fn eight_banks_with_xor_fold_tame_the_fft() {
        // Paper: EP cores get 8 banks "to serve the irregular memory
        // accesses in FFT and IFFT kernels".
        let trace = breadth_first_fft_trace(M, LANES);
        let eight_plain = evaluate(&trace, 8, BankMapping::Interleaved);
        let eight_xor = evaluate(&trace, 8, BankMapping::XorFold);
        assert!(
            eight_xor.overhead() < eight_plain.overhead() + 1e-12,
            "XOR folding should not hurt: {} vs {}",
            eight_xor.overhead(),
            eight_plain.overhead()
        );
        assert!(
            eight_xor.overhead() < 0.1,
            "8 XOR-folded dual-ported banks should almost never stall: {}",
            eight_xor.overhead()
        );
        let two = evaluate(&trace, 2, BankMapping::Interleaved);
        assert!(eight_xor.overhead() < two.overhead());
    }

    #[test]
    fn depth_first_no_worse_than_breadth_first() {
        // The Figure 2(b) flow keeps accesses inside contiguous blocks,
        // which the XOR-folded banks exploit.
        let bf = evaluate(&breadth_first_fft_trace(M, LANES), 8, BankMapping::XorFold);
        let df = evaluate(&depth_first_fft_trace(M, LANES), 8, BankMapping::XorFold);
        assert!(
            df.overhead() <= bf.overhead() + 1e-12,
            "depth-first {} vs breadth-first {}",
            df.overhead(),
            bf.overhead()
        );
    }

    #[test]
    fn traces_cover_all_butterflies() {
        // Each radix-2 stage touches every element once: M·log2(M)/2
        // butterflies → M·log2(M) accesses.
        let accesses: usize = breadth_first_fft_trace(M, LANES).iter().map(Vec::len).sum();
        assert_eq!(accesses, M * M.trailing_zeros() as usize);
        let df_accesses: usize = depth_first_fft_trace(M, LANES).iter().map(Vec::len).sum();
        assert_eq!(df_accesses, accesses);
    }

    /// Twiddle loads of the breadth-first flow, stage by stage: one per
    /// butterfly.
    fn counted_breadth_first_reads(m: usize) -> usize {
        let mut reads = 0;
        let mut len = 2;
        while len <= m {
            reads += m / len * (len / 2);
            len *= 2;
        }
        reads
    }

    /// Twiddle loads of the conjugate-pair flow, combine by combine:
    /// butterfly `k` loads `w^k` and its mirror `half − k` reuses it.
    fn counted_depth_first_reads(len: usize) -> usize {
        if len < 2 {
            return 0;
        }
        let half = len / 2;
        let loads = (0..half).filter(|&k| k <= half - k).count();
        2 * counted_depth_first_reads(half) + loads
    }

    #[test]
    fn twiddle_read_closed_forms_match_the_counted_flows() {
        for log in 1..=12 {
            let m = 1usize << log;
            assert_eq!(
                breadth_first_twiddle_reads(m),
                counted_breadth_first_reads(m),
                "M={m}"
            );
            assert_eq!(
                depth_first_twiddle_reads(m),
                counted_depth_first_reads(m),
                "M={m}"
            );
        }
    }

    #[test]
    fn conjugate_pairs_cut_twiddle_reads() {
        // (M, depth-first, breadth-first) as a software conjugate-pair
        // transform with a read counter reported them for one forward
        // transform at ring degrees 8, 64 and 1024.
        for (m, depth_first, breadth_first) in [(4, 4, 4), (32, 63, 80), (512, 1535, 2304)] {
            assert_eq!(depth_first_twiddle_reads(m), depth_first, "M={m}");
            assert_eq!(breadth_first_twiddle_reads(m), breadth_first, "M={m}");
        }
        // §4.1: sharing a read between conjugate butterflies saves a third
        // of them at the paper's size.
        assert!(3 * depth_first_twiddle_reads(M) < 2 * breadth_first_twiddle_reads(M));
    }

    #[test]
    fn more_banks_never_hurt() {
        let trace = breadth_first_fft_trace(128, LANES);
        let mut prev = usize::MAX;
        for banks in [2usize, 4, 8, 16] {
            let stalls = conflict_cycles(&trace, banks, 2, BankMapping::XorFold);
            assert!(stalls <= prev, "banks={banks}");
            prev = stalls;
        }
    }

    #[test]
    fn bank_mapping_is_total() {
        for mapping in [BankMapping::Interleaved, BankMapping::XorFold] {
            for addr in 0..1024 {
                assert!(mapping.bank_of(addr, 8) < 8);
            }
        }
    }
}
