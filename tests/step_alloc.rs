//! A steady-state step of the compiled engine allocates nothing: its
//! scratch lists are reused across steps and the persistent step values
//! are updated in place, so step cost follows the step's activity rather
//! than the heap. The same holds with a ring recording on: the ring trims
//! its columns in place. Building and cloning a design allocate per arena,
//! not per named object or relation list: names of up to 22 bytes and id
//! lists of up to three ids sit inline, and the generator sizes each arena
//! once.
//!
//! The test binary installs a counting global allocator. Counts are kept
//! per thread, so tests running in parallel do not disturb each other.

use etpn_rec::RecordConfig;
use etpn_sim::{CompiledDesign, FiringPolicy, ScriptedEnv, Simulator};
use etpn_workloads::cyclic_net;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to the system allocator, counting every allocation made.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a const-
// initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn steady_state_compiled_steps_do_not_allocate() {
    let g = cyclic_net(7, 256);
    for policy in [
        FiringPolicy::MaximalStep,
        FiringPolicy::RandomMaximal { seed: 3 },
        FiringPolicy::SingleRandom { seed: 3 },
    ] {
        let mut sim = Simulator::new(&g, ScriptedEnv::new())
            .with_policy(policy)
            .with_coverage();
        // Several laps, so every scratch list has reached its working size.
        for _ in 0..4096 {
            assert!(matches!(sim.step_once(), Ok(Some(_))));
        }
        let before = allocations();
        for _ in 0..1024 {
            assert!(matches!(sim.step_once(), Ok(Some(_))));
        }
        let made = allocations() - before;
        assert_eq!(
            made, 0,
            "{policy:?}: 1024 steady-state steps allocated {made} times"
        );
    }
}

/// Allocations made by `run(steps)` on the net, from construction on.
fn allocations_of_a_run(g: &etpn_core::Etpn, steps: u64, record: Option<RecordConfig>) -> u64 {
    let before = allocations();
    let mut sim = Simulator::new(g, ScriptedEnv::new());
    if let Some(cfg) = record {
        sim = sim.with_recorder(cfg);
    }
    let trace = sim.run(steps).expect("the net runs");
    assert_eq!(trace.steps, steps);
    drop(trace);
    allocations() - before
}

/// A ring recording stays bounded and allocation-free once it has
/// trimmed a few times: doubling the run adds exactly the allocations
/// it adds to an unrecorded run. The cadence checkpoints only at step 0.
#[test]
fn steady_state_ring_recording_does_not_allocate() {
    let g = cyclic_net(7, 256);
    let ring = Some(RecordConfig::ring(64, 1 << 20));
    let growth = |record: Option<RecordConfig>| {
        // A first run registers the run's metrics in the global registry.
        allocations_of_a_run(&g, 64, record);
        allocations_of_a_run(&g, 8192, record) - allocations_of_a_run(&g, 4096, record)
    };
    assert_eq!(growth(ring), growth(None));
    let trace = Simulator::new(&g, ScriptedEnv::new())
        .with_recorder(RecordConfig::ring(64, 1 << 20))
        .run(4096)
        .expect("the net runs");
    let rec = trace.recording.expect("recording captured");
    assert_eq!((rec.first_step, rec.len()), (4096 - 64, 64));
    assert!(
        rec.checkpoints.is_empty(),
        "the step-0 checkpoint was evicted"
    );
}

#[test]
fn cloning_a_design_allocates_only_its_arena_buffers() {
    let g = cyclic_net(7, 1024);
    let before = allocations();
    let copy = g.clone();
    let made = allocations() - before;
    assert_eq!(copy, g);
    // The five arenas, the two per-port arc rows and the one id list too
    // long to sit inline (the shared constant's fan-out); no name.
    assert!(made <= 16, "cloning allocated {made} times");
}

#[test]
fn building_and_compiling_a_design_allocate_per_object() {
    let before = allocations();
    let g = etpn_workloads::random_net(1, 1024);
    let built = allocations() - before;
    // Seven arena buffers sized once, the fan-out list's doublings and
    // validation's one mark vector: 2 879 names cost nothing.
    assert!(built <= 32, "building allocated {built} times");
    let before = allocations();
    let compiled = CompiledDesign::compile(&g);
    let made = allocations() - before;
    assert!(!compiled.is_fallback());
    assert!(made <= 100, "compiling allocated {made} times");
}
