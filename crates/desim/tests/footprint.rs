//! What one simulated process costs the heap: `spawn_async` boxes the
//! future it is given once, and allocates nothing else of its size.
//!
//! A byte-counting global allocator local to this binary tallies the fresh
//! blocks (`alloc`) made on the test's own thread. The kernel's per-process
//! tables grow by `realloc`, amortised over many spawns, and are not
//! counted: what is measured is the storage a process brings with it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use desim::{AsyncHandle, SimDuration, Simulation};

struct CountingBytes;

thread_local! {
    static FRESH_BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally is a const-initialised
// thread-local `Cell` with no destructor, so updating it never allocates.
unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = FRESH_BYTES.try_with(|c| c.set(c.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingBytes = CountingBytes;

fn fresh_bytes() -> usize {
    FRESH_BYTES.with(Cell::get)
}

/// Slack per process beyond its future: nothing else of the process's own
/// is allocated, so this only has to absorb a small fixed header.
const SLACK: usize = 64;

/// A process body that keeps `N` bytes alive across an `.await`, so its
/// future is at least that large.
async fn padded<const N: usize>(h: AsyncHandle, tag: u8) -> u8 {
    let pad = [tag; N];
    h.advance(SimDuration::from_nanos(1)).await;
    black_box(&pad)[N - 1]
}

/// Spawn `n` processes of `N` padding bytes after a first, unmeasured one
/// (which sizes the kernel's tables), and return the future's size and
/// the fresh bytes each measured `spawn_async` allocated.
fn measure<const N: usize>(n: usize) -> (usize, Vec<usize>) {
    let mut sim = Simulation::new();
    let names: Vec<String> = (0..=n).map(|i| format!("p{i}")).collect();
    let mut names = names.into_iter();
    let mut results = vec![sim.spawn_async(names.next().unwrap(), |h| padded::<N>(h, 0))];
    let size = Cell::new(0);
    let mut spent = Vec::with_capacity(n);
    for (i, name) in names.enumerate() {
        let tag = i as u8 + 1;
        let before = fresh_bytes();
        // Moving a prebuilt `String` in as the name allocates nothing.
        let result = sim.spawn_async(name, |h| {
            let fut = padded::<N>(h, tag);
            size.set(std::mem::size_of_val(&fut));
            fut
        });
        spent.push(fresh_bytes() - before);
        results.push(result);
    }
    sim.run().unwrap();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.take(), Some(i as u8), "process {i} lost its output");
    }
    (size.get(), spent)
}

fn assert_stored_once<const N: usize>() {
    let (size, spent) = measure::<N>(16);
    assert!(size >= N, "a {N}-byte pad makes a future of {size} bytes");
    for (i, bytes) in spent.into_iter().enumerate() {
        assert!(
            (size..=size + SLACK).contains(&bytes),
            "spawn {i}: a {size}-byte future cost {bytes} fresh bytes, \
             not at most {size} + {SLACK}"
        );
    }
}

#[test]
fn spawn_async_stores_a_small_future_once() {
    assert_stored_once::<64>();
}

#[test]
fn spawn_async_stores_a_rank_sized_future_once() {
    assert_stored_once::<480>();
}

#[test]
fn spawn_async_stores_a_large_future_once() {
    assert_stored_once::<4096>();
}

#[test]
fn the_report_keeps_no_spare_capacity() {
    // `finish_times` outlives the run; built by an in-place `collect` it
    // would keep the process table's larger allocation alive with it.
    let mut sim = Simulation::new();
    for i in 0..1000u64 {
        sim.spawn_async(format!("p{i}"), move |h| async move {
            h.advance(SimDuration::from_nanos(i)).await;
        });
    }
    let report = sim.run().unwrap();
    assert_eq!(report.finish_times.len(), 1000);
    assert_eq!(report.finish_times.capacity(), 1000);
}
