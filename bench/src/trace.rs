//! In-memory span recorder for the traced run.
//!
//! One span per call from the benchmark into a layer of the system:
//! name, start, end, and the span that was open on the same thread when
//! it began. Everything lives in `bench/`; nothing inside the system is
//! instrumented. Spans are written out once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Recording stops here; later spans are only counted as dropped.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub thread: u32,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    threads: AtomicU32,
    dropped: AtomicU32,
}

thread_local! {
    /// Open spans of this thread, innermost last, and the thread's id.
    static OPEN: RefCell<(Vec<u32>, Option<u32>)> = const { RefCell::new((Vec::new(), None)) };
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            threads: AtomicU32::new(0),
            dropped: AtomicU32::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let id = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let thread =
                *open.1.get_or_insert_with(|| self.threads.fetch_add(1, Ordering::Relaxed));
            let parent = open.0.last().copied();
            let mut spans = self.spans.lock().expect("span list poisoned");
            if spans.len() >= MAX_SPANS {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let id = spans.len() as u32;
            spans.push(SpanRecord { name, start_ns, end_ns: start_ns, parent, thread });
            open.0.push(id);
            Some(id)
        });
        SpanGuard { tracer: self, id }
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    pub fn dropped(&self) -> u32 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| open.borrow_mut().0.retain(|open_id| *open_id != id));
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[id as usize].end_ns = end_ns;
        }
    }
}

/// Opens a span when tracing is on.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(name))
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover (children may overlap each other and
/// may stick out of the parent; the cover is their union, clipped).
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut cover = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    cover += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(cover)
        })
        .collect()
}

pub fn totals_by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// The span file: one JSON document, spans in the order they began.
pub fn render_json(workload: &str, seed: u64, spans: &[SpanRecord], dropped: u32) -> String {
    let mut out = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{dropped},\"spans\":[\n"
    );
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"thread\":{}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.thread,
            if id + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRecord {
        SpanRecord { name, start_ns: start, end_ns: end, parent, thread: 0 }
    }

    #[test]
    fn self_time_with_nested_children() {
        // root [0,100] > a [10,60] > b [20,30]; root > c [70,90]
        let spans = [
            rec("l.root", 0, 100, None),
            rec("l.a", 10, 60, Some(0)),
            rec("l.b", 20, 30, Some(1)),
            rec("l.c", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_with_overlapping_and_protruding_children() {
        // Children [10,50] and [30,70] overlap: cover is [10,70] = 60.
        // A third child [90,120] sticks out: only [90,100] counts.
        let spans = [
            rec("l.root", 0, 100, None),
            rec("l.x", 10, 50, Some(0)),
            rec("l.y", 30, 70, Some(0)),
            rec("l.z", 90, 120, Some(0)),
            rec("l.inside", 35, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["l.root"], NameTotals { calls: 1, total_ns: 100, self_ns: 30 });
    }

    #[test]
    fn guards_link_parents_per_thread() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("a.outer");
            {
                let _inner = tracer.span("a.inner");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _other = tracer.span("b.other");
                });
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        // Another thread's span has no parent here: causes are not
        // followed across threads from outside the system.
        assert_eq!(spans[2].parent, None);
        assert_ne!(spans[2].thread, spans[0].thread);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let json = render_json("w", 1, &spans, 0);
        assert!(json.contains("\"name\":\"a.inner\"") && json.contains("\"parent\":0"));
    }
}
