//! `parse` allocates what the parsed document keeps and little else.
//!
//! A document shaped like the packet-lifecycle Chrome trace (each span an
//! object of 7 members, one of them a 4-member `args` object, with 3 string
//! values drawn from 4 distinct texts) costs per span its two containers,
//! each allocated once at its final size, and its eleven keys. A string
//! value is allocated once per distinct text in the document, and no
//! buffer grows per value.

use mpichgq_obs::{parse, JsonValue, JsonWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const SPANS: u64 = 2_000;
const TEXTS: [&str; 4] = ["queue", "tx", "X", "n5p49152-n0p10000.tcp"];

/// `{"traceEvents":[…]}` with `SPANS` spans as the lifecycle trace writes
/// them.
fn trace() -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for i in 0..SPANS {
        w.begin_object();
        w.key("name");
        w.string(TEXTS[i as usize % 2]);
        w.key("ph");
        w.string(TEXTS[2]);
        w.key("ts");
        w.raw_fmt(format_args!("{}.{:03}", i * 7, i % 1000));
        w.key("dur");
        w.raw_fmt(format_args!("{}.{:03}", i % 40, i % 997));
        w.key("pid");
        w.u64(i % 12);
        w.key("tid");
        w.u64(1);
        w.key("args");
        w.begin_object();
        w.key("pkt");
        w.u64(i / 3);
        w.key("flow");
        w.string(TEXTS[3]);
        w.key("ts_ns");
        w.u64(i * 7_000 + i % 1000);
        w.key("dur_ns");
        w.u64(i % 40 * 1000 + i % 997);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[test]
fn a_trace_costs_two_containers_and_eleven_keys_per_span() {
    let text = trace();
    let before = allocs();
    let doc = parse(&text).expect("writer output parses");
    let used = allocs() - before;

    let spans = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(spans.len() as u64, SPANS);
    let last = &spans[SPANS as usize - 1];
    assert_eq!(last.get("name").and_then(JsonValue::as_str), Some("tx"));
    assert_eq!(last.get("ts").and_then(JsonValue::as_f64), Some(13993.999));
    let args = last.get("args").unwrap();
    assert_eq!(args.members().unwrap().len(), 4);
    assert_eq!(args.get("flow").and_then(JsonValue::as_str), Some(TEXTS[3]));

    let bound = SPANS * 13 + 64;
    assert!(
        used <= bound,
        "parsing {SPANS} spans took {used} allocations, more than {bound}"
    );
}
