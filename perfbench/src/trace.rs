//! Benchmark-side spans for the traced run. Every public call the
//! benchmark makes into a layer is wrapped in [`span`], which records
//! name, start, end, parent span and op id. Spans stay in memory until
//! [`take`]; [`chrome_events`] renders them for a Perfetto-loadable
//! Chrome trace. With tracing off, [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    pub op: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static OP: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Relaxed);
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Relaxed);
}

/// Tags every span recorded from now on with op id `op`.
pub fn set_op(op: u64) {
    OP.store(op, Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get().map_or(0, |e| e.elapsed().as_nanos() as u64)
}

/// Pops this thread's span stack when dropped, so a panicking call
/// (isolated by the campaign engine) leaves the stack consistent.
struct Pop;

impl Drop for Pop {
    fn drop(&mut self) {
        STACK.with(|s| s.borrow_mut().pop());
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let pop = Pop;
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    drop(pop);
    let span = Span {
        name,
        id,
        parent,
        op: OP.load(Relaxed),
        tid: TID.with(|t| *t),
        start_ns,
        end_ns,
    };
    SPANS
        .lock()
        .expect("span log poisoned: a thread panicked while pushing a span")
        .push(span);
    r
}

/// The innermost open span on this thread (0 if none): the parent to
/// hand to work this thread fans out to pool workers.
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Runs `f` on this thread with `parent` as the enclosing span of every
/// span `f` opens.
pub fn under<R>(parent: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Relaxed) {
        return f();
    }
    STACK.with(|s| s.borrow_mut().push(parent));
    let _pop = Pop;
    f()
}

/// Drains the recorded spans.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span log poisoned: a thread panicked while pushing a span"),
    )
}

/// Calls, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Per-name totals over `spans`. A span's self time is its duration
/// minus the part of its interval that its child spans cover (children
/// that ran concurrently on several workers are merged, not summed).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let (mut lo, mut hi) = (0u64, 0u64);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                if a > hi {
                    covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = hi.max(b);
                }
            }
            covered += hi - lo;
        }
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ms += dur as f64 * 1e-6;
        t.self_ms += dur.saturating_sub(covered) as f64 * 1e-6;
    }
    out
}

/// Chrome trace events (`"ph":"X"`, pid 2) for `spans`, one JSON object
/// per element.
pub fn chrome_events(spans: &[Span]) -> Vec<String> {
    spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 * 1e-3,
                s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-3,
                s.tid,
                s.op,
                s.id,
                s.parent
            )
        })
        .collect()
}
