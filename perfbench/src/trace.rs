//! In-memory span recording around calls into the workspace's layers.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public function; nothing inside the program is instrumented. Spans
//! nest per thread (the vendored rayon runs nested parallel calls
//! inline, so a span's children always run on its thread), are kept in
//! memory, and are written out as JSONL when the run ends. A layer's
//! self time is its span's duration minus the union of its children's
//! intervals.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Cell index within the pass (`u32::MAX` outside any cell).
    pub cell: u32,
    /// Fold index within the cell (`u32::MAX` outside any fold).
    pub fold: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Serializes the tests that record spans (the buffer is global).
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off. Off, [`span`] costs one atomic load.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span buffer lock: a recording thread panicked"),
    )
}

/// An open span (its `end_ns` is set when it closes); closes when
/// dropped.
pub struct Guard {
    open: Option<Span>,
}

/// Opens a span named `name` for `cell`/`fold` (use `u32::MAX` for none).
pub fn span(name: &'static str, cell: u32, fold: u32) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard {
        open: Some(Span {
            id,
            parent,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            cell,
            fold,
        }),
    }
}

/// Runs `f` inside a span.
pub fn timed<T>(name: &'static str, cell: u32, fold: u32, f: impl FnOnce() -> T) -> T {
    let _g = span(name, cell, fold);
    f()
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        // Never panic in drop: a poisoned buffer just loses this span.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its direct children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<(usize, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get(&s.id)
                .map_or(0, |ivs| union_len(ivs, s.start_ns, s.end_ns));
            (i, dur.saturating_sub(covered))
        })
        .collect()
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut ivs: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    ivs.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in ivs {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// Per-name totals: (count, summed self time in ns, every duration in
/// ns), keyed by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, Vec<u64>)> {
    let mut out: BTreeMap<&'static str, (u64, u64, Vec<u64>)> = BTreeMap::new();
    for (i, self_ns) in self_times(spans) {
        let s = &spans[i];
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
        e.2.push(s.end_ns.saturating_sub(s.start_ns));
    }
    out
}

/// The spans as JSONL, one object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cell\":{},\"fold\":{}}}\n",
            s.id, s.name, s.start_ns, s.end_ns, s.cell, s.fold
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            cell: 0,
            fold: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(&[], 0, 100), 0);
        assert_eq!(union_len(&[(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(union_len(&[(0, 200)], 50, 100), 50);
        assert_eq!(union_len(&[(10, 20), (20, 30)], 0, 100), 20);
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        // Parent 0..100 with children 10..40 and 30..60 (overlapping:
        // union 50) and grandchild 12..20 inside the first child.
        let spans = vec![
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 40),
            sp(3, Some(1), 30, 60),
            sp(4, Some(2), 12, 20),
        ];
        let st: BTreeMap<usize, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(st[&0], 50);
        assert_eq!(st[&1], 22);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&3], 8);
        // Without overlap, self times partition the root's duration.
        let flat = vec![
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 40),
            sp(3, Some(1), 50, 60),
        ];
        let total: u64 = self_times(&flat).iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recorded_spans_nest_per_thread() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        {
            let _outer = span("test.outer", 7, 1);
            let _inner = span("test.inner", 7, 1);
        }
        set_enabled(false);
        let _off = span("test.off", 0, 0);
        drop(_off);
        let spans: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
