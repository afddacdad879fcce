//! The counting global allocator.
//!
//! `natbench` installs this as its `#[global_allocator]`; it forwards
//! every call to the system allocator unchanged and counts calls, bytes
//! asked for and bytes given back on the way. The counts feed
//! `dut_heap_mb` (live bytes across set-up) and the `*.allocs_per_kpkt`
//! layer metrics (allocations inside timed calls, on every thread).
//!
//! Counting must not cost what it measures: three `lock xadd`s per call
//! were 20 ns per allocate/free pair, 5 % of `hits-resident`. So each
//! thread counts in a slot of its own — single writer, plain load and
//! store, no locked instruction — and a reader sums the slots. The
//! counters are statistics only (nothing is published through them),
//! hence `Relaxed` throughout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// One thread's counters, on a cache line of its own.
#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }
}

/// Slots: one per thread ever started, the last shared by any beyond
/// that (a run starts a few dozen: one runtime worker per set-up).
const SLOTS: usize = 1024;
static TABLE: [Slot; SLOTS] = [const { Slot::new() }; SLOTS];
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot index; `usize::MAX` until its first call.
    /// Const-initialised and without a destructor, so touching it never
    /// allocates and it outlives every other thread-local.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> usize {
    MY_SLOT
        .try_with(|c| {
            if c.get() == usize::MAX {
                c.set(CLAIMED.fetch_add(1, Relaxed).min(SLOTS - 1));
            }
            c.get()
        })
        .unwrap_or(SLOTS - 1)
}

/// Add `by` to a counter of slot `i`: a plain read-modify-write where
/// this thread is the only writer, an atomic one on the shared slot.
fn bump(i: usize, counter: &AtomicU64, by: u64) {
    if i == SLOTS - 1 {
        counter.fetch_add(by, Relaxed);
    } else {
        counter.store(counter.load(Relaxed).wrapping_add(by), Relaxed);
    }
}

fn count_alloc(size: usize) {
    let i = my_slot();
    bump(i, &TABLE[i].allocs, 1);
    bump(i, &TABLE[i].bytes, size as u64);
}

fn count_free(size: usize) {
    let i = my_slot();
    bump(i, &TABLE[i].freed, size as u64);
}

/// The allocator itself (a unit type; all state is in the statics).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments verbatim to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch
// no allocator state, do not allocate, and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`. Forwarded (not emulated) so large
        // zeroed tables keep coming from lazily-zeroed pages.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from
        // `System`, and are passed back unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count_alloc(new_size);
            count_free(layout.size());
        }
        p
    }
}

/// The counters at one instant, summed over all threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocation calls so far (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes asked for so far.
    pub bytes: u64,
    /// Bytes live right now: asked for minus given back. Exact whenever
    /// no other thread is mid-call.
    pub live: u64,
}

/// Read the counters.
pub fn snapshot() -> Snapshot {
    let owned = CLAIMED.load(Relaxed).min(SLOTS - 1);
    let mut s = Snapshot::default();
    let mut freed = 0u64;
    for slot in TABLE[..owned].iter().chain(&TABLE[SLOTS - 1..]) {
        s.allocs += slot.allocs.load(Relaxed);
        s.bytes = s.bytes.wrapping_add(slot.bytes.load(Relaxed));
        freed = freed.wrapping_add(slot.freed.load(Relaxed));
    }
    s.live = s.bytes.wrapping_sub(freed);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_live_bytes_across_threads() {
        // Other tests allocate concurrently, so only lower bounds hold.
        let before = snapshot();
        let v: Vec<u8> = vec![0u8; 1 << 20];
        let mid = snapshot();
        assert!(mid.allocs > before.allocs);
        assert!(mid.bytes - before.bytes >= 1 << 20);
        // Freed on another thread, counted in that thread's slot.
        std::thread::spawn(move || drop(v)).join().unwrap();
        assert!(snapshot().allocs > mid.allocs, "the spawn itself allocates");
        assert!(CLAIMED.load(Relaxed) >= 2, "two threads, two slots");
    }
}
