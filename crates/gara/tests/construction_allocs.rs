//! Building a table or a broker costs what it did before the tree's write
//! path changed: nothing is sized, reserved or set aside at construction.
//!
//! `SlotTable::new` allocates nothing (a broker creates one per managed
//! channel and per host CPU, most of which never see a reservation), the
//! first admission allocates the root leaf and the slot map, and
//! `Gara::new` allocates nothing either.

use mpichgq_gara::{Gara, SlotTable};
use mpichgq_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Calls this thread has made to `alloc` / `realloc`.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the count lives in
// a `const`-initialised thread-local without a destructor, so touching it
// neither allocates nor runs after the thread's locals are gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(p, l, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

#[test]
fn construction_allocates_nothing_it_did_not_before() {
    let t = SimTime::from_secs;
    let (n, mut st) = allocs(|| SlotTable::new(1_000));
    assert_eq!(n, 0, "SlotTable::new allocates");
    // The root leaf and the slot map.
    let (n, id) = allocs(|| st.try_insert(t(0), t(10), 5));
    assert!(n <= 2, "{n} allocations in the first admission");
    // Refusals, queries and a second slot in the same leaf: none.
    let (n, _) = allocs(|| {
        let refused = st.try_insert(t(0), t(10), 1_000).is_err();
        let room = st.available(t(0), t(20));
        let b = st.try_insert(t(5), t(15), 5).unwrap();
        (refused, room, st.try_resize(b, 7), st.remove(b))
    });
    assert_eq!(n, 0, "steady-state operations allocate");
    assert!(st.remove(id.unwrap()));

    let (n, _gara) = allocs(Gara::new);
    assert_eq!(n, 0, "Gara::new allocates");
}
