//! The span recorder. Spans are taken from the benchmark's own code,
//! around its calls into each layer's public functions; the library is not
//! instrumented. They are kept in memory and written as JSON lines when
//! the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// started; spans of one request share `request`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; `None` while the recorder is off, so untraced
/// ops run the same code path minus the bookkeeping.
pub type Open = Option<u32>;

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
    on: bool,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            on,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Opens a root span and starts a new request id for it and its
    /// descendants.
    pub fn enter_request(&mut self, name: &'static str) -> Open {
        if self.on {
            self.request += 1;
        }
        self.enter(name)
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            request: self.request,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Per-span self time in nanoseconds: the span's duration minus the part
/// of it its direct children cover. Children of one parent run one after
/// another on the recording thread, so their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// `(name, spans, total ns, self ns)` per span name, in first-seen order —
/// the where-did-the-time-go table a traced run prints.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let own = self_times_ns(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let total = s.end_ns - s.start_ns;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += total;
                r.3 += own_ns;
            }
            None => rows.push((s.name, 1, total, own_ns)),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // request [0,100) → submit [5,25), wait [25,90) → execute [30,80).
        let spans = [
            span(0, None, "request", 0, 100),
            span(1, Some(0), "submit", 5, 25),
            span(2, Some(0), "wait", 25, 90),
            span(3, Some(2), "execute", 30, 80),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 20, 15, 50]);
        let rows = summary(&spans);
        assert_eq!(rows[0], ("request", 1, 100, 15));
        assert_eq!(rows[2], ("wait", 1, 65, 15));
    }

    #[test]
    fn recorder_nests_numbers_requests_and_goes_quiet_when_off() {
        let mut rec = Recorder::new(true);
        let r = rec.enter_request("request");
        let a = rec.enter("a");
        rec.exit(a);
        rec.exit(r);
        rec.set_on(false);
        let r = rec.enter_request("request");
        assert_eq!(r, None);
        rec.exit(r);
        rec.set_on(true);
        let r = rec.enter_request("request");
        rec.exit(r);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[1].request), (Some(0), 1));
        assert_eq!((spans[2].parent, spans[2].request), (None, 2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
