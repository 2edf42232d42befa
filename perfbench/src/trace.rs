//! The benchmark's own spans: one around each call it makes into a
//! layer's public API. Spans stay in memory until the run ends and are
//! then written out with the result document.

use std::time::Instant;

/// One timed call: the per-layer metric it feeds, its interval in
/// microseconds since the trace began, and the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An in-memory span recorder with a stack of open spans.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Trace {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Milliseconds of every span named `name`, in recording order.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Milliseconds of the first span named `name` (0 when absent).
    pub fn first_ms(&self, name: &str) -> f64 {
        self.ms_of(name).first().copied().unwrap_or(0.0)
    }

    /// Every recorded span as a JSON array.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    r#"{{"id":{},"name":"{}","start_us":{:.1},"end_us":{:.1},"parent":{}}}"#,
                    s.id,
                    s.name,
                    s.start_us,
                    s.end_us,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time() {
        let mut t = Trace::default();
        let v = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.first_ms("outer") >= t.first_ms("inner"));
        assert!(t.first_ms("inner") >= 2.0);
        assert!(t.to_json().starts_with(r#"[{"id":0,"name":"outer""#));
    }
}
