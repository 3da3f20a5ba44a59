//! In-memory span recorder for the traced replica runs.
//!
//! A span wraps one of the benchmark's own calls into a workspace crate
//! and is named `layer.detail` (`reconstruct.twoway`, `codec.decode`, …);
//! the layer is the part before the first dot. Spans nest: a span opened
//! while another is open records it as its parent, and a layer's *self
//! time* is its spans' durations minus the time their child spans cover.
//! Spans stay in memory until [`finish`] hands them back; nothing is
//! written while the measured work runs.
//!
//! Recording is per thread and the replicas run on one thread, so self
//! times add up to wall time and [`Trace::coverage`] is a plain share.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span; times in nanoseconds since the recording started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices (into `spans`) of the spans currently open, innermost last.
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier recording.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        })
    });
}

/// Stops recording and returns everything recorded since [`start`].
pub fn finish() -> Trace {
    let recorder = RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("trace::finish called without trace::start");
    assert!(recorder.open.is_empty(), "trace finished with open spans");
    Trace {
        spans: recorder.spans,
        counters: recorder.counters,
    }
}

/// Runs `f` inside a span called `name`. Without an active recording the
/// call is made directly.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let index = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        let parent = rec.open.last().copied();
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let index = rec.spans.len() - 1;
        rec.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard.as_mut().expect("recording ended inside a span");
            rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
            let closed = rec.open.pop();
            debug_assert_eq!(closed, Some(index));
        });
    }
    out
}

/// Adds `delta` to the counter `name` (no-op without a recording).
pub fn count(name: &'static str, delta: f64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.counters.entry(name).or_insert(0.0) += delta;
        }
    });
}

/// A finished recording.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Self time of every span, in seconds, indexed like `spans`.
    fn self_seconds(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(span, &child)| span.duration_ns().saturating_sub(child) as f64 * 1e-9)
            .collect()
    }

    /// Self time (seconds) summed over spans whose name is `name` or
    /// starts with `name.` — a whole layer (`"codec"`) or one detail
    /// (`"codec.decode"`).
    pub fn self_s(&self, name: &str) -> f64 {
        let selfs = self.self_seconds();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(span, _)| matches_prefix(span.name, name))
            .map(|(_, s)| s)
            .sum()
    }

    /// Number of spans named `name` (or under it).
    pub fn calls(&self, name: &str) -> usize {
        self.spans
            .iter()
            .filter(|span| matches_prefix(span.name, name))
            .count()
    }

    /// Durations (seconds) of every span named exactly `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Duration (seconds) of the outermost spans: the traced wall time.
    pub fn wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|span| span.parent.is_none())
            .map(|span| span.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Share of the traced wall time that some layer span (anything
    /// below the outermost `bench` span) accounts for as self time.
    pub fn coverage(&self) -> f64 {
        let selfs = self.self_seconds();
        let layered: f64 = self
            .spans
            .iter()
            .zip(selfs)
            .filter(|(span, _)| span.layer() != "bench")
            .map(|(_, s)| s)
            .sum();
        ratio(layered, self.wall_s())
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

fn matches_prefix(span_name: &str, name: &str) -> bool {
    span_name == name
        || (span_name.len() > name.len()
            && span_name.starts_with(name)
            && span_name.as_bytes()[name.len()] == b'.')
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let start = Instant::now();
        while start.elapsed().as_millis() < u128::from(ms) {}
    }

    #[test]
    fn self_time_excludes_child_spans() {
        start();
        span("bench", || {
            span("codec.encode", || {
                spin(4);
                span("channel.pool", || spin(6));
            });
            count("cluster.reads", 2.0);
        });
        let t = finish();
        assert_eq!(t.calls("codec"), 1);
        assert_eq!(t.calls("codec.encode"), 1);
        assert_eq!(t.calls("code"), 0, "prefixes match whole name parts");
        let (encode, pool, wall) = (t.self_s("codec"), t.self_s("channel"), t.wall_s());
        // Spins last at least their length; preemption can only add time,
        // so only lower bounds and orderings are asserted.
        assert!(encode >= 0.004 && pool >= 0.006);
        assert!(encode + pool <= wall + 1e-9);
        assert!(t.coverage() > 0.0 && t.coverage() <= 1.0 + 1e-9);
        assert_eq!(t.counter("cluster.reads"), 2.0);
        assert_eq!(t.counter("absent"), 0.0);
    }

    #[test]
    fn spans_without_a_recording_just_run() {
        assert_eq!(span("codec.decode", || 7), 7);
        count("ignored", 1.0);
    }
}
