//! A frame's length prefix is a claim, not a promise: reading a frame
//! that announces the 64 MiB cap and then ends must not reserve the
//! announced size before the payload arrives. A counting global
//! allocator measures the peak heap growth across one `read_frame` call.
//! The file holds a single test so nothing else allocates meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            let live = LIVE.fetch_add(new_size, Ordering::SeqCst) + new_size;
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_short_frame_allocates_only_what_arrived() {
    let claimed = dvm_farm::proto::MAX_FRAME;
    let wire = format!("{claimed}\nHELLO").into_bytes();
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let result = dvm_farm::proto::read_frame(&mut wire.as_slice());
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert!(
        result.is_err(),
        "a frame 5 bytes into {claimed} was accepted"
    );
    assert!(
        peak < 1 << 20,
        "reading a truncated {claimed}-byte frame peaked at {peak} heap bytes"
    );
}
