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

#[test]
fn counts_are_bounded_by_the_least_width_of_their_elements() {
    // 4 096 checkpoints, then 4 096 rows, each claimed over 4 096 zero
    // bytes: one byte per element would fit, but a checkpoint takes at
    // least 12 bytes and a row at least 5.
    for (what, prefix) in [("checkpoints", &[0u8, 0, 0][..]), ("rows", &[0, 0, 0, 0])] {
        let mut b = header();
        b.extend(prefix);
        varint(&mut b, 4096);
        b.resize(b.len() + 4096, 0);
        let result = decode_bounded(what, &b, 16, || Recording::from_bytes(&b));
        assert!(
            matches!(result, Err(RecError::Corrupt { .. })),
            "{what}: {result:?}"
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
    b.extend([0; 5]); // padding to a checkpoint's 12-byte minimum
    assert!(corrupt(&b).1.contains("token count"));

    let mut b = header();
    b.extend([0, 0, 0, 0, 1, 0, 0, 0, 1]); // one row with one event
    varint(&mut b, u64::from(u32::MAX) + 1); // its arc id
    assert!(corrupt(&b).1.contains("arc id"));
}

// The decode fuzz battery: seeded, deterministic mutants of real
// encodings go through every binary decoder, and each must decode or
// return its typed error, without a panic and without one allocation
// beyond a stated multiple of the mutant's length plus 4 KiB.
//
// Inputs: recordings of catalogue runs (a full journal, a ring and a
// faulty run), coverage images of catalogue runs, and the etpnd journal
// in `tests/golden/etpnd_legacy_data`, both whole and frame by frame.
// Mutants: every truncation, a single-byte xor at every offset of inputs
// under 4 KiB, and `SEEDED_MUTANTS` seeded multi-byte overwrites. A
// recording that decodes must then compare with the unmutated recording
// it came from as `etpnc why` does (`DivergenceReport::between` and its
// renderings against the design), and a coverage image that decodes must
// merge into the unmutated DB it came from; either may be refused with
// an error, again without a panic.

use etpn::core::Etpn;
use etpn::cov::CovDb;
use etpn::rec::{Checkpoint, DivergenceReport, RecordConfig};
use etpn::serve::persist::{scan, split_trace_frame};
use etpn::sim::{Fault, FaultKind, FaultPlan, FaultSite, FaultWindow, Simulator};
use etpn::workloads::by_name;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeded multi-byte mutants per input.
const SEEDED_MUTANTS: usize = 256;

/// A splitmix64 stream: the battery's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Call `f` with a name and the bytes of every mutant of `input`.
fn for_each_mutant(input: &[u8], seed: u64, mut f: impl FnMut(&str, &[u8])) {
    for n in 0..input.len() {
        f(&format!("cut at {n}"), &input[..n]);
    }
    let mut rng = Rng(seed);
    let mut buf = input.to_vec();
    if input.len() < 4096 {
        for i in 0..input.len() {
            let mask = 1 + rng.below(255) as u8;
            buf[i] ^= mask;
            f(&format!("xor {mask:#04x} at {i}"), &buf);
            buf[i] ^= mask;
        }
    }
    for k in 0..SEEDED_MUTANTS {
        buf.copy_from_slice(input);
        for _ in 0..2 + rng.below(7) {
            let at = rng.below(buf.len());
            buf[at] = match rng.below(3) {
                0 => 0xFF,
                1 => 0x00,
                _ => rng.next() as u8,
            };
        }
        f(&format!("seeded mutant {k}"), &buf);
    }
}

/// Run `decode` on `input`: it must not panic, and no single allocation
/// may exceed `multiple` × the input length + 4 KiB.
fn decode_bounded<T>(what: &str, input: &[u8], multiple: usize, decode: impl FnOnce() -> T) -> T {
    PEAK.with(|p| p.set(0));
    let out = catch_unwind(AssertUnwindSafe(decode));
    let peak = PEAK.with(Cell::get);
    let out = out.unwrap_or_else(|_| panic!("{what}: the decoder panicked"));
    let bound = multiple * input.len() + 4096;
    assert!(
        peak <= bound,
        "{what}: a {}-byte input asked for a {peak}-byte allocation (bound {bound})",
        input.len()
    );
    out
}

/// Merge a decoded DB into the DB it was mutated from: success or a
/// refusal, never a panic.
fn merges_or_refuses(what: &str, base: &CovDb, db: &CovDb) {
    let mut acc = base.clone();
    if catch_unwind(AssertUnwindSafe(|| acc.merge(db))).is_err() {
        panic!("{what}: merging the decoded DB panicked");
    }
}

/// Compare a decoded mutant with its source as `etpnc why` does: a
/// report, or a refusal, never a panic.
fn compares_or_refuses(what: &str, g: &Etpn, source: &Recording, mutant: &Recording) {
    let why = || {
        if let Ok(Some(rep)) = DivergenceReport::between(g, source, mutant) {
            let _ = (rep.text(g), rep.json(g), rep.dot_heat(g));
        }
    };
    if catch_unwind(AssertUnwindSafe(why)).is_err() {
        panic!("{what}: comparing the decoded recording with its source panicked");
    }
}

/// Recordings of catalogue runs: a full journal, a ring, and a run with
/// a stuck-at fault; plus the golden recording of a faulty `etpnc record`.
/// Each comes with the design it was recorded on.
fn recordings() -> Vec<(&'static str, Etpn, Vec<u8>)> {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/rec/gcd_fault.etpnrec"
    );
    let record = |name: &str, cfg: RecordConfig, steps: u64, faulty: bool| {
        let w = by_name(name).expect("catalogue workload");
        let d = etpn::synth::compile_source(&w.source).expect("workload compiles");
        let mut sim = Simulator::new(&d.etpn, w.env()).with_recorder(cfg);
        for (reg, v) in &d.reg_inits {
            sim = sim.init_register(reg, *v);
        }
        if faulty {
            let x = d.etpn.dp.vertex_by_name("x").expect("gcd has register x");
            sim = sim.with_faults(FaultPlan::single(Fault {
                site: FaultSite::Port(d.etpn.dp.vertex(x).outputs[0]),
                kind: FaultKind::StuckAt0,
                window: FaultWindow::Permanent(3),
            }));
        }
        let trace = sim.run(steps).expect("recorded run succeeds");
        let bytes = trace.recording.expect("recording captured").to_bytes();
        (d.etpn, bytes)
    };
    let (gcd, full) = record("gcd", RecordConfig::full(8), 10_000, false);
    let (diffeq, ring) = record("diffeq", RecordConfig::ring(16, 4), 10_000, false);
    let (_, faulty) = record("gcd", RecordConfig::full(8), 120, true);
    let example = etpn::synth::compile_source(include_str!("../examples/gcd.hdl"))
        .expect("gcd compiles")
        .etpn;
    vec![
        ("full gcd", gcd.clone(), full),
        ("ring diffeq", diffeq, ring),
        ("faulty gcd", gcd, faulty),
        (
            "golden",
            example,
            std::fs::read(golden).expect("golden recording"),
        ),
    ]
}

#[test]
fn mutated_recordings_decode_or_fail_typed() {
    // A count is bounded by the bytes left at one element per byte, so
    // the widest preallocated element, a checkpoint, sets the multiple.
    let multiple = std::mem::size_of::<Checkpoint>();
    for (seed, (name, g, bytes)) in recordings().into_iter().enumerate() {
        let source = Recording::from_bytes(&bytes).expect("source decodes");
        for_each_mutant(&bytes, seed as u64, |what, input| {
            let what = format!("{name}, {what}");
            let decoded = decode_bounded(&what, input, multiple, || Recording::from_bytes(input));
            if let Ok(mutant) = decoded {
                compares_or_refuses(&what, &g, &source, &mutant);
            }
        });
    }
}

/// Coverage images of catalogue runs with coverage on.
fn coverage_images() -> Vec<(&'static str, Vec<u8>)> {
    ["gcd", "diffeq", "fir16"]
        .into_iter()
        .map(|name| {
            let w = by_name(name).expect("catalogue workload");
            let d = etpn::synth::compile_source(&w.source).expect("workload compiles");
            let mut sim = Simulator::new(&d.etpn, w.env()).with_coverage();
            for (reg, v) in &d.reg_inits {
                sim = sim.init_register(reg, *v);
            }
            let trace = sim.run(w.max_steps).expect("covered run succeeds");
            (name, trace.cov.expect("coverage collected").to_bytes())
        })
        .collect()
}

#[test]
fn mutated_coverage_images_decode_and_merge_or_fail_typed() {
    for (seed, (name, bytes)) in coverage_images().into_iter().enumerate() {
        let base = CovDb::from_bytes(&bytes).expect("image decodes");
        for_each_mutant(&bytes, 100 + seed as u64, |what, input| {
            let what = format!("{name}, {what}");
            if let Ok(db) = decode_bounded(&what, input, 1, || CovDb::from_bytes(input)) {
                merges_or_refuses(&what, &base, &db);
            }
        });
    }
}

#[test]
fn mutated_journal_frames_decode_and_merge_or_fail_typed() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/etpnd_legacy_data/cov.journal"
    );
    let journal = std::fs::read(path).expect("legacy coverage journal");
    let decode_frame = |frame: &[u8]| CovDb::from_bytes(split_trace_frame(frame).1);
    let (frames, end) = scan(&journal);
    assert_eq!((frames.len(), end), (2, journal.len()));
    let bases: Vec<CovDb> = frames
        .iter()
        .map(|f| decode_frame(f).expect("legacy frame decodes"))
        .collect();

    // Each frame payload on its own.
    for (i, frame) in frames.iter().enumerate() {
        for_each_mutant(frame, 200 + i as u64, |what, input| {
            let what = format!("frame {i}, {what}");
            if let Ok(db) = decode_bounded(&what, input, 1, || decode_frame(input)) {
                merges_or_refuses(&what, &bases[i], &db);
            }
        });
    }
    // The whole journal image: frame recovery, then every recovered frame.
    for_each_mutant(&journal, 300, |what, input| {
        let what = format!("journal, {what}");
        let dbs = decode_bounded(&what, input, 4, || {
            let (frames, _) = scan(input);
            frames
                .into_iter()
                .filter_map(|f| decode_frame(f).ok())
                .collect::<Vec<_>>()
        });
        for db in &dbs {
            merges_or_refuses(&what, &bases[0], db);
        }
    });
}
