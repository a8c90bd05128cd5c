//! Spans recorded by the traced run: one per call the benchmark makes
//! into a layer, kept in memory and written out as JSON when the run
//! ends. Counts are attached to the span in which the work happened.

use serde::Value;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`regsim saxpy`, `POST /jobs`, `core.rename`, ...).
    pub name: String,
    /// The layer the call enters (`host`, `serve`, `sim`, `core`, ...).
    pub layer: &'static str,
    /// Microseconds since the tracer started.
    pub start_us: u64,
    /// Microseconds since the tracer started; equals `start_us` while
    /// the span is open.
    pub end_us: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The repetition (or probe pass) the span belongs to.
    pub run: u64,
    /// Work counted inside the span.
    pub counts: Vec<(String, f64)>,
}

/// An in-memory span recorder. A tracer that is off records nothing, so
/// the untraced run pays no more than a branch per call site.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer whose clock starts now.
    pub fn on() -> Tracer {
        Tracer {
            origin: Instant::now(),
            on: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        run: u64,
    ) -> usize {
        if !self.on {
            return 0;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: now,
            end_us: now,
            parent,
            run,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Records a finished span of known duration ending now (for calls
    /// timed by a layer's own clock).
    pub fn record(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        run: u64,
        seconds: f64,
    ) -> usize {
        if !self.on {
            return 0;
        }
        let end = self.now_us();
        let start = end.saturating_sub((seconds * 1e6) as u64);
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: start,
            end_us: end,
            parent,
            run,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attaches a count to span `id`.
    pub fn count(&mut self, id: usize, key: &str, value: f64) {
        if self.on {
            self.spans[id].counts.push((key.to_string(), value));
        }
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("layer".to_string(), Value::Str(s.layer.to_string())),
                    ("start_us".to_string(), Value::UInt(s.start_us)),
                    ("end_us".to_string(), Value::UInt(s.end_us)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("run".to_string(), Value::UInt(s.run)),
                ];
                if !s.counts.is_empty() {
                    fields.push((
                        "counts".to_string(),
                        Value::Object(
                            s.counts
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                                .collect(),
                        ),
                    ));
                }
                Value::Object(fields)
            })
            .collect();
        serde_json::to_string_pretty(&Value::Object(vec![(
            "spans".to_string(),
            Value::Array(spans),
        )]))
        .expect("span JSON serializes")
    }
}
