//! The codec's speculative-preallocation cap, pinned with a measuring
//! allocator: a truncated stream whose length prefix claims a huge
//! payload must fail with **no allocation anywhere near the claimed
//! size** — the decoder reserves at most `PREALLOC_BYTES` (16 KiB) up
//! front and only grows past that cap as actual payload bytes arrive.
//! Without the cap, a 9-byte datagram claiming a `MAX_LEN` payload would
//! reserve megabytes before the first read hits EOF.
//!
//! This integration test is its own binary, so the `#[global_allocator]`
//! hook is isolated from the rest of the suite.

use matcha_tfhe::session::{OutcomeFrame, SessionOutcome};
use matcha_tfhe::{
    CircuitNetlist, Codec, Counterexample, LweCiphertext, RejectReason, TrlweCiphertext,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper tracking the largest single allocation
/// request **per thread**, so the measured windows stay correct when
/// libtest runs this binary's tests concurrently.
struct PeakAlloc;

thread_local! {
    // const-initialized: accessing it inside the allocator cannot itself
    // allocate (no lazy TLS initialization).
    static THREAD_PEAK: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    THREAD_PEAK.with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

fn reset_peak() {
    THREAD_PEAK.with(|c| c.set(0));
}

fn peak() -> usize {
    THREAD_PEAK.with(|c| c.get())
}

/// The prealloc cap plus slack for the decoder's fixed-size scratch
/// (error strings, the 1 KiB read chunk). Far below the multi-megabyte
/// reserve an uncapped `Vec::with_capacity(claimed)` would make.
const CEILING: usize = 64 * 1024;

/// 1 << 20 — the codec's `MAX_LEN`, the largest length prefix that
/// passes validation. A claim this size must still not be trusted with
/// a matching preallocation.
const HUGE: u32 = 1 << 20;

/// Builds a message header whose first body field (the element count,
/// at offset 5, after the 4-byte magic and 1-byte version) claims
/// `HUGE` elements — and then ends. Decoding must hit EOF, not OOM.
fn truncated_huge_claim<T: Codec>(sample: &T) -> Vec<u8> {
    let valid = sample.to_bytes();
    let mut bytes = valid[..9].to_vec();
    bytes[5..9].copy_from_slice(&HUGE.to_le_bytes());
    bytes
}

fn assert_bounded_failure<T: Codec>(bytes: Vec<u8>) {
    reset_peak();
    let result = T::from_bytes(&bytes);
    let seen = peak();
    assert!(result.is_err(), "truncated huge claim must not decode");
    assert!(
        seen < CEILING,
        "decoding a truncated stream claiming {HUGE} elements allocated a \
         {seen}-byte block (cap is {CEILING})"
    );
}

#[test]
fn huge_lwe_claim_fails_without_large_allocation() {
    let sample = LweCiphertext::trivial(matcha_math::Torus32::ZERO, 4);
    let bytes = truncated_huge_claim(&sample);
    assert_bounded_failure::<LweCiphertext>(bytes);
}

#[test]
fn huge_trlwe_claim_fails_without_large_allocation() {
    let sample = TrlweCiphertext::zero(16);
    let bytes = truncated_huge_claim(&sample);
    assert_bounded_failure::<TrlweCiphertext>(bytes);
}

#[test]
fn huge_netlist_claim_fails_without_large_allocation() {
    let mut net = CircuitNetlist::new();
    let a = net.input();
    net.mark_output(a);
    let bytes = truncated_huge_claim(&net);
    assert_bounded_failure::<CircuitNetlist>(bytes);
}

#[test]
fn huge_counterexample_claim_fails_without_large_allocation() {
    // The `NotEquivalent` reject payload's first count (the widths list)
    // sits deeper than the generic helper patches: 4 magic + 1 version +
    // 8 id + 1 outcome tag + 1 reason tag + 4 output = offset 19.
    let frame = OutcomeFrame {
        id: 7,
        outcome: SessionOutcome::Rejected(RejectReason::NotEquivalent {
            output: 0,
            counterexample: Counterexample::from_bits(vec![true; 16]),
        }),
    };
    let valid = frame.to_bytes();
    let mut bytes = valid[..23].to_vec();
    bytes[19..23].copy_from_slice(&HUGE.to_le_bytes());
    assert_bounded_failure::<OutcomeFrame>(bytes);
}

#[test]
fn honest_large_payload_still_decodes() {
    // The cap must not break real decoding: a genuinely large ciphertext
    // (bigger than the 16 KiB prealloc cap) roundtrips fine — growth past
    // the cap is paid for by bytes actually received.
    let big = TrlweCiphertext::zero(4096); // 32 KiB of torus words
    let bytes = big.to_bytes();
    reset_peak();
    let back = TrlweCiphertext::from_bytes(&bytes).unwrap();
    assert_eq!(back, big);
}
