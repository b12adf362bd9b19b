//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each layer's public functions.
//! A span's name is `<layer>.<call>`; its parent is the span open when it
//! started, and every span of one simulation carries that simulation's
//! run id (0 outside any simulation). Spans stay in memory and are
//! written out once, when the benchmark ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One finished (or still open) span, in nanoseconds since the tracer
/// started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub run: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records spans when enabled; a disabled tracer only calls through.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to simulation `run`.
    pub fn span<T>(&self, name: &'static str, run: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                run,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        // Close the span even if `f` unwinds, so a failed simulation
        // leaves a well-formed trace behind.
        struct Close<'a>(&'a Tracer, usize);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                let end = self.0.now_ns();
                self.0.open.borrow_mut().pop();
                self.0.spans.borrow_mut()[self.1].end_ns = end;
            }
        }
        let _close = Close(self, id);
        f()
    }

    /// Index of the next span to be recorded, to mark where a pass begins.
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Host seconds per layer over the spans recorded in `from..to`:
    /// total duration and self time (duration minus the part covered by
    /// child spans) summed per `<layer>.<call>` name and per layer.
    pub fn totals(&self, from: usize, to: usize) -> BTreeMap<String, f64> {
        let spans = &self.spans.borrow()[..to];
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(from) {
            let dur = (s.end_ns - s.start_ns) as f64 / 1e9;
            let own = (s.end_ns - s.start_ns - child_ns[i]) as f64 / 1e9;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(format!("{}_s", s.name)).or_insert(0.0) += dur;
            *out.entry(format!("{layer}.self_s")).or_insert(0.0) += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("engine.execute", 0, || {
            t.span("device.run", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let totals = t.totals(0, t.mark());
        let exec = totals["engine.execute_s"];
        let run = totals["device.run_s"];
        assert!(run >= 0.02 && exec >= run);
        assert!((totals["engine.self_s"] - (exec - run)).abs() < 1e-9);
        assert_eq!(totals["device.self_s"], run);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("device.run", 1, || 7), 7);
        assert_eq!(t.mark(), 0);
    }
}
