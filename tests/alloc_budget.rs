//! Allocation budget of the simulator's run phase.
//!
//! A counting global allocator tallies every allocation (and reallocation)
//! the simulator makes while it runs the `examples/stream_checksum`
//! configuration: HotelReservation, seed 5, 5 s at 2 krps. Only calls into
//! the `Sim` are counted (`submit`, `run_until`, `drain_completions`), on
//! this thread only, so compilation, boot and the workload generator stay
//! out of it. The count is exact and repeats across processes, so it is
//! pinned: an allocation added to the per-event path moves it by thousands.
//! If a change moves it on purpose, update the pin to the printed count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blueprint::apps::{hotel_reservation as hr, WiringOpts};
use blueprint::core::Blueprint;
use blueprint::simrt::SimConfig;
use blueprint::workload::generator::{OpenLoopGen, Phase};

/// Run-phase allocations of the `stream_checksum` configuration.
const RUN_ALLOCS: u64 = 42_185;

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

/// Forwards to the system allocator and counts calls.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // the `new_size` requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` with this thread's allocations counted.
fn counted<T>(f: impl FnOnce() -> T) -> T {
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    out
}

#[test]
fn stream_checksum_run_allocations_are_pinned() {
    let app = Blueprint::new()
        .without_artifacts()
        .compile(&hr::workflow(), &hr::wiring(&WiringOpts::default()))
        .expect("compiles");
    let mut sim = app
        .simulation_with(SimConfig {
            seed: 5,
            ..Default::default()
        })
        .expect("boots");
    let gen = OpenLoopGen::new(
        vec![Phase::new(5, 2_000.0)],
        hr::paper_mix(),
        hr::ENTITIES,
        5,
    );
    let end = gen.duration_ns();
    let mut completions = 0;
    for arrival in gen {
        completions += counted(|| {
            sim.run_until(arrival.at_ns);
            sim.submit(&arrival.entry, &arrival.method, arrival.entity)
                .expect("submit");
            sim.drain_completions().len()
        });
    }
    completions += counted(|| {
        sim.run_until(end + 5_000_000_000);
        sim.drain_completions().len()
    });
    let allocs = COUNT.with(Cell::get);
    assert_eq!(completions, 10_162, "the run is the stream_checksum run");
    assert_eq!(
        allocs,
        RUN_ALLOCS,
        "run-phase allocations: {allocs} ({:.2} per request)",
        allocs as f64 / completions as f64
    );
}
