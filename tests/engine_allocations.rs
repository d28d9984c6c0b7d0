//! Heap traffic of the pruned engine on a warm thread.
//!
//! A counting global allocator tallies allocations and reallocations on
//! the calling thread only, so tests running beside this one do not
//! disturb the count. After one warm-up sweep of the catalog (every entry
//! under every model, fresh-query configuration), a second sweep must
//! stay under a pinned ceiling of allocations plus reallocations per
//! [`enumerate_pruned`] call. The ceiling holds the engine arena to its
//! purpose: a fork copies into a spent behaviour's allocations, and the
//! claim table, frontier and scratch buffers keep their capacity from
//! one query to the next on the same thread. Before the arena, the same
//! sweep made 152.7 per call (124.6 allocations and 28.1 reallocations).
//!
//! Print the measured figures with:
//! `cargo test --release --test engine_allocations -- --nocapture`

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use samm::core::enumerate::EnumConfig;
use samm::core::pruned::enumerate_pruned;
use samm::litmus::{catalog, ModelSel};

/// The system allocator, counting this thread's calls.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // Fails only while the thread is being torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations plus reallocations a warm `enumerate_pruned`
/// call may make, averaged over the catalog sweep. The arena measured
/// 47.7 (40.0 allocations and 7.7 reallocations), about 19 of them the
/// outcome set the call returns; forking without the spare pool, or
/// building the root outside it, goes over.
const CEILING_PER_CALL: f64 = 52.0;

/// One sweep's totals: calls, allocations, reallocations.
fn sweep() -> (u64, u64, u64) {
    let config = EnumConfig::builder().keep_executions(false).build();
    let entries = catalog::all();
    let (mut calls, mut allocs, mut reallocs) = (0, 0, 0);
    for entry in &entries {
        for model in ModelSel::ALL {
            let policy = model.policy();
            let before = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
            let result = enumerate_pruned(&entry.test.program, &policy, &config);
            allocs += ALLOCS.with(Cell::get) - before.0;
            reallocs += REALLOCS.with(Cell::get) - before.1;
            calls += 1;
            assert!(result.is_ok(), "{} under {}", entry.test.name, model.name());
        }
    }
    (calls, allocs, reallocs)
}

#[test]
fn a_warm_enumeration_stays_under_the_allocation_ceiling() {
    sweep();
    let (calls, allocs, reallocs) = sweep();
    let per_call = |n: u64| n as f64 / calls as f64;
    println!(
        "{calls} calls: {:.1} allocations + {:.1} reallocations per call",
        per_call(allocs),
        per_call(reallocs)
    );
    assert_eq!(calls, 144, "the catalog sweep covers 24 entries × 6 models");
    let total = per_call(allocs + reallocs);
    assert!(
        total <= CEILING_PER_CALL,
        "{total:.1} allocations + reallocations per warm call, ceiling {CEILING_PER_CALL:.1}"
    );
}
