//! Benchmark-side spans for the traced pass: recorded in memory around the
//! calls into each layer, written at exit as Chrome trace-event JSON that
//! Perfetto loads. Spans inside the product code are a later issue.

use mpichgq_obs::JsonWriter;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: String,
    start_us: f64,
    dur_us: f64,
    /// The span that was open when this one began (what caused it).
    parent: Option<usize>,
    args: Vec<(&'static str, f64)>,
}

/// Handle to an open span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. With `on == false` every call is a no-op, so workload
/// code calls it unconditionally and untraced repetitions pay one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.t0.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now_us = self.t0.elapsed().as_secs_f64() * 1e6;
        while let Some(top) = self.open.pop() {
            self.spans[top].dur_us = now_us - self.spans[top].start_us;
            if top == id {
                break;
            }
        }
    }

    /// Attach a count measured at this boundary (events, packets, allocs).
    pub fn arg(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(id) = id.0 {
            self.spans[id].args.push((key, value));
        }
    }

    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let r = f(self);
        self.end(id);
        r
    }

    /// Self time per span: duration minus the part its children cover.
    fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us;
            }
        }
        own
    }

    /// `(name, total seconds, self seconds, calls)` aggregated by span name,
    /// in first-seen order.
    pub fn summary(&self) -> Vec<(String, f64, f64, u64)> {
        let own = self.self_us();
        let mut rows: Vec<(String, f64, f64, u64)> = Vec::new();
        for (s, own_us) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += s.dur_us / 1e6;
                    r.2 += own_us / 1e6;
                    r.3 += 1;
                }
                None => rows.push((s.name.clone(), s.dur_us / 1e6, own_us / 1e6, 1)),
            }
        }
        rows
    }

    /// Chrome trace-event document: one complete (`"ph":"X"`) event per
    /// span, nested by time on a single track.
    pub fn chrome_json(&self, process_name: &str) -> String {
        let own = self.self_us();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.string("ms");
        w.key("traceEvents");
        w.begin_array();
        w.begin_object();
        w.key("name");
        w.string("process_name");
        w.key("ph");
        w.string("M");
        w.key("pid");
        w.u64(1);
        w.key("args");
        w.begin_object();
        w.key("name");
        w.string(process_name);
        w.end_object();
        w.end_object();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.key("name");
            w.string(&s.name);
            w.key("ph");
            w.string("X");
            w.key("pid");
            w.u64(1);
            w.key("tid");
            w.u64(1);
            w.key("ts");
            w.f64(s.start_us);
            w.key("dur");
            w.f64(s.dur_us);
            w.key("args");
            w.begin_object();
            w.key("id");
            w.u64(i as u64);
            if let Some(p) = s.parent {
                w.key("parent");
                w.u64(p as u64);
            }
            w.key("self_us");
            w.f64(own[i]);
            for (k, v) in &s.args {
                w.key(k);
                w.f64(*v);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_json_parses() {
        let mut t = Tracer::new(true);
        let run = t.begin("run");
        for _ in 0..3 {
            let s = t.begin("run.slice");
            t.arg(s, "events", 7.0);
            t.end(s);
        }
        t.end(run);
        let rows = t.summary();
        assert_eq!(rows[0].0, "run");
        assert_eq!(rows[1], ("run.slice".to_string(), rows[1].1, rows[1].2, 3));
        assert!((rows[0].1 - rows[0].2 - rows[1].1).abs() < 1e-9);
        let doc = mpichgq_obs::parse(&t.chrome_json("x")).expect("trace parses");
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 5);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("run");
        t.arg(id, "events", 1.0);
        t.end(id);
        assert!(t.summary().is_empty());
    }
}
