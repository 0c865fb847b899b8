//! Span recording around the benchmark's calls into each layer.
//!
//! Spans live in memory while a traced run executes and are written out
//! once at the end: a Chrome trace-event file (open it in Perfetto or
//! `chrome://tracing`) and a per-layer self-time table. A layer's self
//! time is its spans' durations minus the parts their child spans cover.
//! When tracing is off, [`Tracer::span`] returns an inert guard and
//! records nothing.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::util::Json;

/// Most spans written to one trace file, to keep it small enough for a
/// viewer.
pub const MAX_EVENTS: usize = 20_000;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub thread: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

/// An open span; records itself when dropped or [`SpanGuard::end`]ed.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    start: Instant,
    id: u64,
    parent: Option<u64>,
    request: u64,
    thread: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` for request `request` under `parent`
    /// (a span id from [`SpanGuard::id`]) on logical thread `thread`.
    pub fn span(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        thread: u64,
    ) -> SpanGuard<'_> {
        let id = if self.enabled {
            self.next_id
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        } else {
            0
        };
        SpanGuard {
            tracer: self,
            name,
            start: Instant::now(),
            id,
            parent,
            request,
            thread,
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }

    /// Self time and count per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        let mut child_cover: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_cover.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &spans {
            let total = s.end_ns - s.start_ns;
            // children of one span never overlap (each traced call is
            // sequential), so their summed durations are the covered part
            let covered = child_cover.get(&s.id).copied().unwrap_or(0).min(total);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += total as f64 * 1e-9;
            e.self_s += (total - covered) as f64 * 1e-9;
        }
        out
    }

    /// Write the Chrome trace-event JSON of the first [`MAX_EVENTS`]
    /// spans to `path` (the self-time table covers every span).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| s.start_ns);
        let events: Vec<Json> = spans
            .iter()
            .take(MAX_EVENTS)
            .map(|s| {
                Json::obj()
                    .with("name", s.name)
                    .with("cat", s.name.split('.').next().unwrap_or(s.name))
                    .with("ph", "X")
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .with("pid", 1usize)
                    .with("tid", s.thread)
                    .with(
                        "args",
                        Json::obj()
                            .with("span", s.id)
                            .with("parent", s.parent.unwrap_or(0))
                            .with("request", s.request),
                    )
            })
            .collect();
        let doc = Json::obj()
            .with("displayTimeUnit", "ms")
            .with("traceEvents", Json::Arr(events));
        std::fs::write(path, doc.render())
    }
}

/// Accumulated time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> Option<u64> {
        self.tracer.enabled.then_some(self.id)
    }

    pub fn end(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let end = Instant::now();
        let start_ns = self.start.duration_since(self.tracer.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.tracer.epoch).as_nanos() as u64;
        self.tracer.spans.lock().unwrap().push(Span {
            name: self.name,
            start_ns,
            end_ns,
            id: self.id,
            parent: self.parent,
            request: self.request,
            thread: self.thread,
        });
    }
}
