//! A recording is untrusted input: decoding crafted bytes must fail with
//! an error that says where, without first asking the heap for memory the
//! bytes could never fill, and without truncating out-of-range ids. Each
//! element count is bounded by the bytes left, so a short file claiming
//! 2^40 elements allocates nothing large.
//!
//! The test binary installs a global allocator that records, per thread,
//! the largest single request made.

use etpn::rec::{RecError, Recording};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

/// Forwards to the system allocator, recording the largest request.
struct PeakRequest;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the peak is a const-
// initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakRequest = PeakRequest;

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Magic, a zero design fingerprint, and no env fingerprint, policy,
/// seed, checkpoint interval, ring or repeat: 22 bytes.
fn header() -> Vec<u8> {
    let mut b = b"ETPNREC\x01".to_vec();
    b.extend([0; 8]);
    b.extend([0; 6]);
    b
}

const HUGE: u64 = 1 << 40;

#[test]
fn huge_claimed_counts_fail_without_large_allocations() {
    let mut inputs = Vec::new();

    // 31 bytes: no streams, no faults, first step 0, 2^40 checkpoints.
    let mut b = header();
    b.extend([0, 0, 0]);
    varint(&mut b, HUGE);
    assert_eq!(b.len(), 31);
    inputs.push(("checkpoints", b));

    // One stream `a` claiming 2^40 values.
    let mut b = header();
    b.extend([1, 1, b'a']);
    varint(&mut b, HUGE);
    inputs.push(("stream values", b));

    // One checkpoint at step 0 whose marking claims 2^40 places.
    let mut b = header();
    b.extend([0, 0, 0, 1, 0]);
    varint(&mut b, HUGE);
    inputs.push(("checkpoint marking", b));

    // No checkpoints, then 2^40 rows.
    let mut b = header();
    b.extend([0, 0, 0, 0]);
    varint(&mut b, HUGE);
    inputs.push(("rows", b));

    for (what, bytes) in inputs {
        PEAK.with(|p| p.set(0));
        let result = Recording::from_bytes(&bytes);
        let peak = PEAK.with(Cell::get);
        assert!(
            matches!(result, Err(RecError::Corrupt { .. })),
            "{what}: {result:?}"
        );
        assert!(
            peak <= 4096,
            "{what}: a {}-byte input asked for a {peak}-byte allocation",
            bytes.len()
        );
    }
}

fn corrupt(bytes: &[u8]) -> (usize, String) {
    match Recording::from_bytes(bytes) {
        Err(RecError::Corrupt { offset, detail }) => (offset, detail),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn counts_beyond_the_bytes_left_are_rejected_where_they_stand() {
    let mut b = header();
    b.extend([0, 0, 0]); // no streams, no faults, first step 0
    varint(&mut b, HUGE); // checkpoints
    let (offset, detail) = corrupt(&b);
    assert_eq!(offset, b.len());
    assert!(
        detail.contains("claims 1099511627776 elements, only 0 bytes left"),
        "{detail}"
    );
    // A count the bytes left could hold passes the bound and fails on
    // the element it cannot decode.
    let mut b = header();
    b.extend([1, 1, b'a', 1, 7]);
    assert!(corrupt(&b).1.contains("bad value tag 7"));
}

#[test]
fn a_non_utf8_stream_name_reports_the_bad_byte() {
    let mut b = header();
    b.extend([1, 3, b'o', 0xFF, b'k']); // one stream named "o\xFFk"
    let (offset, detail) = corrupt(&b);
    assert_eq!(offset, b.len() - 2, "{detail}");
    assert!(detail.contains("not UTF-8"), "{detail}");
}

#[test]
fn ids_and_bits_above_u32_are_rejected_not_truncated() {
    let mut b = header();
    b.extend([0, 1, 0]); // no streams, one fault, site kind 0
    varint(&mut b, 1 << 32); // site
    assert!(corrupt(&b).1.contains("fault site 4294967296 exceeds u32"));

    let mut b = header();
    b.extend([0, 0, 0, 1, 0, 1]); // one checkpoint at step 0 over one place
    varint(&mut b, 1 << 32); // its token count
    assert!(corrupt(&b).1.contains("token count"));

    let mut b = header();
    b.extend([0, 0, 0, 0, 1, 0, 0, 0, 1]); // one row with one event
    varint(&mut b, u64::from(u32::MAX) + 1); // its arc id
    assert!(corrupt(&b).1.contains("arc id"));
}
