//! The flight recorder: a bounded ring buffer of sim-timestamped events.
//!
//! Disabled by default; a `record` call then costs one predictable branch.
//! When enabled, the ring keeps the newest `capacity` events and counts
//! what it had to overwrite, so a snapshot always says how much history it
//! is missing.

use crate::json::JsonWriter;
use mpichgq_sim::SimTime;

/// One recorded event. `kind` is a static label (`"tcp.rto"`,
/// `"drop.policed"`, ...); `key` and `value` are event-specific numbers
/// (a channel index and a queue depth, a socket id and a cwnd, ...).
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    pub at: SimTime,
    pub kind: &'static str,
    pub key: u64,
    pub value: i64,
}

/// Bounded ring buffer of [`TraceEvent`]s.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    ring: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Total events offered while enabled (recorded + overwritten).
    total: u64,
    capacity: usize,
    enabled: bool,
}

impl FlightRecorder {
    /// Enable recording with a ring of `capacity` events. Re-enabling
    /// clears previous history.
    pub fn enable(&mut self, capacity: usize) {
        assert!(capacity > 0, "flight recorder with zero capacity");
        self.ring = Vec::with_capacity(capacity);
        self.head = 0;
        self.total = 0;
        self.capacity = capacity;
        self.enabled = true;
    }

    /// Events overwritten because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.total - self.ring.len() as u64
    }

    /// Record an event. The disabled path is a single branch — callers on
    /// hot paths invoke this unconditionally.
    #[inline]
    pub fn record(&mut self, at: SimTime, kind: &'static str, key: u64, value: i64) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            at,
            kind,
            key,
            value,
        });
    }

    // Not `#[cold]`: this *is* the hot path whenever tracing is enabled.
    // Only the wrap/overwrite branch, taken once the ring is full, carries
    // the cold hint.
    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        self.total += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.wrap_push(ev);
        }
    }

    #[cold]
    fn wrap_push(&mut self, ev: TraceEvent) {
        self.ring[self.head] = ev;
        self.head = (self.head + 1) % self.capacity;
    }

    /// Held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (newer, older) = self.ring.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// Write the recorder state as one JSON object.
    ///
    /// # Schema
    ///
    /// ```json
    /// {
    ///   "capacity": u64,   // ring size in events (0 when disabled)
    ///   "recorded": u64,   // total events offered while enabled
    ///   "dropped":  u64,   // events overwritten (recorded - retained)
    ///   "events": [        // retained events, oldest first
    ///     {
    ///       "t_ns":  u64,  // sim time, nanoseconds
    ///       "kind":  str,  // static label, e.g. "tcp.rto"
    ///       "key":   u64,  // event subject (channel, socket, flow index)
    ///       "value": i64   // event payload (depth, cwnd, delay); signed
    ///     }, ...
    ///   ]
    /// }
    /// ```
    ///
    /// Note the asymmetry inside each event object: `key` is unsigned
    /// (identifiers never go negative) while `value` is **signed** —
    /// consumers must parse the two fields with different integer types.
    /// `tests/observability.rs` pins this with a parse round-trip.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("capacity");
        w.u64(self.capacity as u64);
        w.key("recorded");
        w.u64(self.total);
        w.key("dropped");
        w.u64(self.dropped());
        w.key("events");
        w.begin_array();
        for ev in self.events() {
            w.begin_object();
            w.key("t_ns");
            w.u64(ev.at.as_nanos());
            w.key("kind");
            w.string(ev.kind);
            w.key("key");
            w.u64(ev.key);
            w.key("value");
            w.i64(ev.value);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        let mut fr = FlightRecorder::default();
        fr.enable(3);
        for i in 0..5u64 {
            fr.record(SimTime::from_nanos(i), "ev", i, i as i64);
        }
        assert_eq!(fr.total, 5);
        assert_eq!(fr.ring.len(), 3);
        assert_eq!(fr.dropped(), 2);
        // The ring holds the *newest* events, oldest first.
        let keys: Vec<u64> = fr.events().map(|e| e.key).collect();
        assert_eq!(keys, vec![2, 3, 4]);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        // The disabled path must not allocate or retain anything: the ring
        // stays empty and nothing is counted, so instrumentation sites can
        // call record() unconditionally.
        let mut fr = FlightRecorder::default();
        for i in 0..1000u64 {
            fr.record(SimTime::from_nanos(i), "ev", i, 0);
        }
        assert_eq!(fr.total, 0);
        assert_eq!(fr.ring.len(), 0);
        assert_eq!(fr.ring.capacity(), 0);
    }
}
