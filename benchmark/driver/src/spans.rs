//! In-memory spans around the driver's calls into each layer.
//!
//! A span is `(name, start, end, parent)`; times are nanoseconds since the
//! recorder was created. Spans stay in memory until the run ends, when the
//! orchestrator merges them under its own root span and writes
//! `benchmark/out/trace-<workload>.json`.

use std::time::Instant;

use crate::json::Json;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    ///
    /// # Panics
    /// Panics when no span is open: enter/exit calls are paired in code.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without a matching enter");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name);
        let r = f();
        (r, self.exit())
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Int(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_link_to_their_parent() {
        let mut spans = Spans::new();
        spans.enter("root");
        let ((), inner) = spans.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.time("child", || ());
        let outer = spans.exit();
        assert!(inner >= 0.002 && outer >= inner);
        let Json::Arr(items) = spans.to_json() else {
            panic!("array")
        };
        assert_eq!(items.len(), 3);
        let parent_of = |i: usize| match &items[i] {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == "parent").unwrap().1.clone(),
            _ => panic!("object"),
        };
        assert_eq!(parent_of(0), Json::Null);
        assert_eq!(parent_of(1), Json::Int(0));
        assert_eq!(parent_of(2), Json::Int(0));
    }
}
