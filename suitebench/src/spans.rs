//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded only around this benchmark's own calls into each
//! crate's public API. Each span carries its name, start, end, parent
//! and the id of the pass (one sweep, or one toolchain pass) it belongs
//! to, plus the recording thread, because the `tia-par` workers run
//! spans that overlap in time: self time is computed per thread.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one recorder.
    pub id: u64,
    /// The span that caused this one, possibly on another thread.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.sim`.
    pub name: &'static str,
    /// What the span worked on, e.g. a workload name; may be empty.
    pub detail: &'static str,
    /// Recording thread (a small per-process index).
    pub thread: u64,
    /// The pass this span belongs to.
    pub pass: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_index() -> u64 {
    THREAD.with(|t| *t)
}

/// Collects spans in memory; they are written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    pass: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            pass: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the pass id stamped on every span recorded from now on.
    pub fn set_pass(&self, pass: u64) {
        self.pass.store(pass, Ordering::Relaxed);
    }

    /// Records an already timed span under `parent`.
    pub fn record(
        &self,
        name: &'static str,
        detail: &'static str,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name,
            detail,
            thread: thread_index(),
            pass: self.pass.load(Ordering::Relaxed),
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("span list is never poisoned")
            .push(span);
        id
    }

    /// Copies of the spans recorded during `pass`.
    pub fn pass_spans(&self, pass: u64) -> Vec<Span> {
        let spans = self.spans.lock().expect("span list is never poisoned");
        spans.iter().filter(|s| s.pass == pass).cloned().collect()
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list is never poisoned"))
    }
}

/// A possibly absent recorder: untraced runs pass `Tracer(None)` and
/// every call below reduces to running the closure.
#[derive(Debug, Clone, Copy)]
pub struct Tracer<'a>(pub Option<&'a Recorder>);

impl Tracer<'_> {
    /// Runs `f` inside a span whose parent is the innermost span open
    /// on this thread.
    pub fn span<R>(&self, name: &'static str, detail: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_under(None, name, detail, f)
    }

    /// Runs `f` inside a span under `parent` — for spans whose cause is
    /// on another thread — or, when `parent` is `None`, under the
    /// innermost span open on this thread.
    pub fn span_under<R>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(rec) = self.0 else {
            return f();
        };
        let parent = parent.or_else(|| self.current());
        let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = rec.now_ns();
        OPEN.with(|open| open.borrow_mut().push(id));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end_ns = rec.now_ns();
        let span = Span {
            id,
            parent,
            name,
            detail,
            thread: thread_index(),
            pass: rec.pass.load(Ordering::Relaxed),
            start_ns,
            end_ns,
        };
        rec.spans
            .lock()
            .expect("span list is never poisoned")
            .push(span);
        out
    }

    /// The innermost span open on this thread, if tracing.
    pub fn current(&self) -> Option<u64> {
        self.0?;
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// The recorder clock, if tracing.
    pub fn now_ns(&self) -> Option<u64> {
        self.0.map(Recorder::now_ns)
    }

    /// Records an already timed span under the innermost open span.
    pub fn record(&self, name: &'static str, detail: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(rec) = self.0 {
            rec.record(name, detail, self.current(), start_ns, end_ns);
        }
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children **on the same thread**. A child on another
/// thread (a `tia-par` worker) does not reduce its parent's self time —
/// the parent's thread really was waiting — and two workers' children
/// overlapping in time are never subtracted from each other, so self
/// times are never negative and each thread's self times add up to the
/// time that thread spent inside spans.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    let thread_of: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            if thread_of.get(&parent) == Some(&span.thread) {
                children.entry(parent).or_default().push(span);
            }
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered: Vec<(u64, u64)> = children
                .get(&span.id)
                .into_iter()
                .flatten()
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .filter(|(start, end)| start < end)
                .collect();
            let duration = span.end_ns.saturating_sub(span.start_ns);
            (span.id, duration - union_length(&mut covered))
        })
        .collect()
}

/// Total length of the union of half-open intervals.
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self seconds per `(name, detail)` over the spans of one pass.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), f64> {
    let own = self_times(spans);
    let mut totals = BTreeMap::new();
    for span in spans {
        *totals.entry((span.name, span.detail)).or_insert(0.0) += own[&span.id] as f64 / 1e9;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        thread: u64,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            detail: "",
            thread,
            pass: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    /// A sweep on thread 0 whose parallel phase fans out to two
    /// workers: their spans overlap each other in time.
    fn two_worker_sweep() -> Vec<Span> {
        vec![
            span(1, None, "sweep", 0, 0, 1000),
            span(2, Some(1), "par.explore", 0, 100, 900),
            // Worker 1: one measurement with a simulation inside.
            span(3, Some(2), "store.measure", 1, 100, 600),
            span(4, Some(3), "core.sim", 1, 150, 550),
            // Worker 2 overlaps worker 1 for 400 ns.
            span(5, Some(2), "store.measure", 2, 200, 880),
            span(6, Some(5), "core.sim", 2, 210, 700),
            span(7, Some(5), "core.sim", 2, 700, 870),
            span(8, Some(1), "export.encode", 0, 900, 1000),
        ]
    }

    #[test]
    fn cross_thread_children_do_not_reduce_self_time() {
        let own = self_times(&two_worker_sweep());
        // The sweep's only same-thread children cover 100..1000.
        assert_eq!(own[&1], 100);
        // par.explore waited on the workers for its whole duration;
        // subtracting both workers' overlapping spans would have
        // driven it to 800 − (500 + 680) < 0.
        assert_eq!(own[&2], 800);
        assert_eq!(own[&3], 100);
        assert_eq!(own[&4], 400);
        assert_eq!(own[&5], 680 - 490 - 170);
        assert_eq!(own[&8], 100);
    }

    #[test]
    fn each_threads_self_time_adds_up_to_its_busy_time() {
        let spans = two_worker_sweep();
        let own = self_times(&spans);
        let per_thread = |thread: u64| -> u64 {
            spans
                .iter()
                .filter(|s| s.thread == thread)
                .map(|s| own[&s.id])
                .sum()
        };
        assert_eq!(per_thread(0), 1000);
        assert_eq!(per_thread(1), 500);
        assert_eq!(per_thread(2), 680);
    }

    #[test]
    fn layer_totals_sum_self_time_across_workers() {
        let totals = self_seconds_by_layer(&two_worker_sweep());
        let ns = |name| (totals[&(name, "")] * 1e9).round() as u64;
        assert_eq!(ns("core.sim"), 400 + 490 + 170);
        assert_eq!(ns("store.measure"), 100 + 20);
    }

    #[test]
    fn recorder_nests_spans_and_tags_the_pass() {
        let rec = Recorder::default();
        let tracer = Tracer(Some(&rec));
        rec.set_pass(7);
        let outer_id = tracer.span("outer", "", || {
            tracer.span("inner", "x", || ());
            tracer.current()
        });
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span");
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        assert_eq!(Some(outer.id), outer_id);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans.iter().all(|s| s.pass == 7));
        assert_eq!(Tracer(None).span("untraced", "", || 5), 5);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn spans_from_real_workers_never_get_negative_self_time() {
        let rec = Recorder::default();
        let tracer = Tracer(Some(&rec));
        tracer.span("par.explore", "", || {
            let parent = tracer.current();
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        tracer.span_under(parent, "store.measure", "", || {
                            // Both workers are inside their spans at once.
                            barrier.wait();
                            tracer.span("core.sim", "", || barrier.wait());
                        });
                    });
                }
            });
        });
        let spans = rec.take();
        let own = self_times(&spans);
        let explore = spans
            .iter()
            .find(|s| s.name == "par.explore")
            .expect("span");
        assert_eq!(own[&explore.id], explore.end_ns - explore.start_ns);
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "store.measure").collect();
        assert_eq!(workers.len(), 2);
        assert_ne!(workers[0].thread, workers[1].thread);
        assert!(workers.iter().all(|s| s.parent == Some(explore.id)));
    }
}
