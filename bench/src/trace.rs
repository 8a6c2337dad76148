//! Spans recorded in memory from one epoch and written, when the run ends,
//! in Chrome trace-event format (opens in Perfetto or `chrome://tracing`).
//!
//! The benchmark records spans from outside the engine, around its calls
//! into each layer: `setup` › {`convert`, `open`, `engine_new`, `warmup`}
//! and `round` › `query` › `device_read`. Spans inside the engine are a
//! later change to the engine itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// One finished span. `parent` 0 means a root; spans of one query share
/// its `query` id (0 outside any query).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub query: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Track the span is drawn on (Chrome's `tid`); spans on one track
    /// must nest or be disjoint.
    pub track: u32,
    /// Counters attached to the span (`args` in the trace file).
    pub counters: Vec<(String, Json)>,
}

impl Span {
    fn to_event(&self) -> Json {
        let mut args = vec![
            ("id".to_string(), Json::from(self.id)),
            ("parent".to_string(), Json::from(self.parent)),
            ("query".to_string(), Json::from(self.query)),
            // Exact bounds: `ts`/`dur` are microseconds and lose the ns.
            ("start_ns".to_string(), Json::from(self.start_ns)),
            ("end_ns".to_string(), Json::from(self.end_ns)),
        ];
        args.extend(self.counters.iter().cloned());
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("cat", Json::from("blazebench")),
            ("ph", Json::from("X")),
            ("ts", Json::from(self.start_ns as f64 / 1e3)),
            (
                "dur",
                Json::from(self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3),
            ),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(u64::from(self.track))),
            ("args", Json::Obj(args)),
        ])
    }

    /// Reads a span back from the plan a parent hands its worker.
    pub fn from_json(j: &Json) -> Option<Span> {
        Some(Span {
            id: j.get("id")?.as_u64()?,
            parent: j.get("parent")?.as_u64()?,
            query: j.get("query")?.as_u64()?,
            name: j.get("name")?.as_str()?.to_string(),
            start_ns: j.get("start_ns")?.as_u64()?,
            end_ns: j.get("end_ns")?.as_u64()?,
            track: j.get("track")?.as_u64()? as u32,
            counters: j.get("counters")?.as_obj()?.to_vec(),
        })
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id)),
            ("parent", Json::from(self.parent)),
            ("query", Json::from(self.query)),
            ("name", Json::from(self.name.as_str())),
            ("start_ns", Json::from(self.start_ns)),
            ("end_ns", Json::from(self.end_ns)),
            ("track", Json::from(u64::from(self.track))),
            ("counters", Json::Obj(self.counters.clone())),
        ])
    }
}

/// Tracks: Perfetto nests spans by containment within one `tid`.
pub const TRACK_SETUP: u32 = 0;
pub const TRACK_CLIENT0: u32 = 1;
pub const TRACK_DEVICE: u32 = 9;

/// Collects spans; shared by the client threads of a worker.
#[derive(Debug)]
pub struct Tracer {
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// `first_id` keeps a worker's ids clear of the spans its parent made.
    pub fn new(first_id: u64) -> Self {
        Self {
            next_id: AtomicU64::new(first_id),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Ids are handed out before the work starts so children can name
    /// their parent while it is still open.
    pub fn alloc_id(&self) -> u64 {
        // Relaxed: a unique counter, it publishes nothing else.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a tracer client panicked")
            .push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("a tracer client panicked"))
    }
}

/// One device read as the probe decorator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceRead {
    pub start_ns: u64,
    pub end_ns: u64,
    pub offset: u64,
    pub bytes: u64,
    /// The span that was current when the read was issued.
    pub parent: u64,
    pub query: u64,
}

/// The reads of one probed device, plus the span they are charged to. The
/// harness names the current span before each query (or, with two clients
/// on one engine, before each round: a read cannot be told apart by client).
#[derive(Debug, Default)]
pub struct ReadLog {
    reads: Mutex<Vec<DeviceRead>>,
    current_parent: AtomicU64,
    current_query: AtomicU64,
}

impl ReadLog {
    pub fn set_current(&self, parent: u64, query: u64) {
        // SeqCst: set by a client thread, read by the engine's IO thread.
        self.current_parent.store(parent, Ordering::SeqCst);
        self.current_query.store(query, Ordering::SeqCst);
    }

    pub fn record(&self, start_ns: u64, end_ns: u64, offset: u64, bytes: u64) {
        let read = DeviceRead {
            start_ns,
            end_ns,
            offset,
            bytes,
            parent: self.current_parent.load(Ordering::SeqCst),
            query: self.current_query.load(Ordering::SeqCst),
        };
        self.reads
            .lock()
            .expect("a device reader panicked")
            .push(read);
    }

    pub fn len(&self) -> usize {
        self.reads.lock().expect("a device reader panicked").len()
    }

    pub fn snapshot(&self) -> Vec<DeviceRead> {
        self.reads.lock().expect("a device reader panicked").clone()
    }
}

/// Converts device reads into `device_read` spans under their parents.
pub fn read_spans(reads: &[DeviceRead], tracer: &Tracer) -> Vec<Span> {
    reads
        .iter()
        .map(|r| Span {
            id: tracer.alloc_id(),
            parent: r.parent,
            query: r.query,
            name: "device_read".into(),
            start_ns: r.start_ns,
            end_ns: r.end_ns,
            track: TRACK_DEVICE,
            counters: vec![
                ("offset".into(), Json::from(r.offset)),
                ("bytes".into(), Json::from(r.bytes)),
            ],
        })
        .collect()
}

/// The Chrome trace-event document for `spans`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    Json::obj([
        ("displayTimeUnit", Json::from("ms")),
        (
            "traceEvents",
            Json::Arr(spans.iter().map(Span::to_event).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::now_ns;
    use std::collections::HashMap;

    fn span(tracer: &Tracer, name: &str, parent: u64, query: u64, f: impl FnOnce(u64)) -> u64 {
        let id = tracer.alloc_id();
        let start_ns = now_ns();
        f(id);
        tracer.push(Span {
            id,
            parent,
            query,
            name: name.into(),
            start_ns,
            end_ns: now_ns(),
            track: TRACK_CLIENT0,
            counters: vec![("n".into(), Json::from(1u64))],
        });
        id
    }

    #[test]
    fn trace_file_is_well_formed_and_children_lie_inside_parents() {
        let tracer = Tracer::new(1000);
        let log = ReadLog::default();
        span(&tracer, "round", 0, 0, |round| {
            for _ in 0..3 {
                let query = tracer.alloc_id();
                span(&tracer, "query", round, query, |q| {
                    log.set_current(q, query);
                    for i in 0..4u64 {
                        let t0 = now_ns();
                        std::hint::black_box(vec![0u8; 4096]);
                        log.record(t0, now_ns(), i * 4096, 4096);
                    }
                });
            }
        });
        let mut spans = tracer.take();
        spans.extend(read_spans(&log.snapshot(), &tracer));
        assert_eq!(spans.len(), 1 + 3 + 12);

        let text = chrome_trace(&spans).to_string();
        let doc = Json::parse(&text).expect("the trace file parses as JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), spans.len());
        let bounds: HashMap<u64, (u64, u64)> = events
            .iter()
            .map(|e| {
                let a = e.get("args").unwrap();
                assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
                assert!(e.get("ts").unwrap().as_f64().is_some());
                assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
                (
                    a.get("id").unwrap().as_u64().unwrap(),
                    (
                        a.get("start_ns").unwrap().as_u64().unwrap(),
                        a.get("end_ns").unwrap().as_u64().unwrap(),
                    ),
                )
            })
            .collect();
        assert_eq!(bounds.len(), spans.len(), "span ids are unique");
        let mut children = 0;
        for e in events {
            let a = e.get("args").unwrap();
            let parent = a.get("parent").unwrap().as_u64().unwrap();
            if parent == 0 {
                continue;
            }
            children += 1;
            let (ps, pe) = bounds[&parent];
            let (s, en) = bounds[&a.get("id").unwrap().as_u64().unwrap()];
            assert!(ps <= s && en <= pe, "child [{s},{en}] outside [{ps},{pe}]");
            if e.get("name").unwrap().as_str() == Some("device_read") {
                assert_eq!(
                    a.get("query").unwrap().as_u64().unwrap(),
                    spans.iter().find(|s| s.id == parent).unwrap().query,
                    "a read carries its query's id"
                );
            }
        }
        assert_eq!(children, 15);
    }

    #[test]
    fn spans_survive_the_plan_round_trip() {
        let s = Span {
            id: 3,
            parent: 1,
            query: 0,
            name: "convert".into(),
            start_ns: 10,
            end_ns: 20,
            track: TRACK_SETUP,
            counters: vec![("bytes".into(), Json::from(64u64))],
        };
        assert_eq!(Span::from_json(&s.to_json()), Some(s));
    }
}
