//! In-memory span recorder for the traced run.
//!
//! Spans wrap calls into the program's public functions from the
//! benchmark's side: each records its name, start, end and the span
//! that was open when it began (its parent). Nothing is written until
//! the run ends; [`Tracer::self_times`] then charges every span its
//! duration minus the part its children cover, so the per-layer numbers
//! add up to the traced wall instead of double counting nested calls.
//!
//! A tracer belongs to one thread. Multi-threaded workloads give each
//! thread its own tracer and [`Tracer::absorb`] them at the end. A
//! tracer made by [`Tracer::off`] records nothing, so one code path
//! serves the untraced and the traced pass.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Which thread-local tracer recorded the span (0 for the main one).
    pub lane: usize,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    lane: usize,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: usize) -> Tracer {
        Tracer {
            on: true,
            epoch,
            lane,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now(), 0)
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                lane: self.lane,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Moves another tracer's spans into this one, re-basing parents.
    pub fn absorb(&self, other: Tracer) {
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        for mut s in other.spans.into_inner() {
            s.parent = s.parent.map(|p| p + base);
            spans.push(s);
        }
    }

    /// Self time (seconds) per span name: duration minus the time the
    /// span's direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total self time of all spans (seconds): the traced time covered
    /// by some named layer.
    pub fn covered_s(&self) -> f64 {
        self.self_times().values().sum()
    }

    /// The spans as a JSON array, for the trace file written at exit.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"lane\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.lane,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(Instant::now(), 0);
        let wall = Instant::now();
        t.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(10))
            });
        });
        let wall = wall.elapsed().as_secs_f64();
        let st = t.self_times();
        assert!(st["inner"] >= 0.010 && st["outer"] >= 0.005, "{st:?}");
        // Nested spans are not double counted: together they cover the
        // outer span once.
        assert!(t.covered_s() <= wall, "{st:?} over {wall}");
        assert_eq!(t.count("inner"), 1);
    }
}
