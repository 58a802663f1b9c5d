//! The benchmark's own spans: one per call into a layer's public function
//! and one per layer replay, kept in memory and written out at the end.
//!
//! Timing is always taken (the end-to-end metrics need it); spans are only
//! recorded while the tracer is on, so an untraced run pays one
//! `Instant::now` pair per timed call and nothing else.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was built.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was timed, e.g. `Machine::run` or `replay.workloads`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the workload instance the span belongs to.
    pub run: u64,
}

/// An open span: close it with [`Tracer::close`].
#[must_use = "close the span to get its duration"]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (open spans stay open).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags spans opened from now on with workload instance `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            let ns = self.ns_at(start);
            self.spans.push(Span {
                name,
                start_ns: ns,
                end_ns: ns,
                parent: self.stack.last().copied(),
                run: self.run,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { start, index }
    }

    /// Closes `span` and returns its duration in seconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = span.index {
            self.spans[i].end_ns = self.ns_at(end);
            // Spans close innermost first; tolerate an out-of-order close
            // by removing exactly this span from the stack.
            if let Some(pos) = self.stack.iter().rposition(|&s| s == i) {
                self.stack.remove(pos);
            }
        }
        end.duration_since(span.start).as_secs_f64()
    }

    /// Times `f` as span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.open(name);
        let r = f();
        (r, self.close(span))
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines: `name`, `start_ns`, `end_ns`,
    /// `parent` (index or null), `run`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.run
            )?;
        }
        out.flush()
    }

    fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_nesting_only_when_on() {
        let mut t = Tracer::new(true);
        t.set_run(3);
        let outer = t.open("outer");
        let ((), _) = t.time("inner", || ());
        let secs = t.close(outer);
        assert!(secs >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 3);
        assert!(spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        let ((), d) = off.time("x", || ());
        assert!(d >= 0.0);
        assert!(off.spans().is_empty());
    }
}
