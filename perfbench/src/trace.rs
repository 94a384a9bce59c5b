//! The traced run's span recorder.
//!
//! Spans are recorded only by the benchmark's own code, around each call
//! into a layer's public function: name (`<layer>.<call>`), start, end,
//! parent span and op id. They are kept in memory and written out once
//! at exit. A span's self time is its duration minus the time its child
//! spans cover; the root span of every op is named `op`, so its self time
//! is the op time no layer span accounts for (the `unattributed` row).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers a span name may start with, in table order. `unattributed`
/// is the self time of the root `op` spans.
pub const LAYERS: [&str; 10] = [
    "workloads",
    "core",
    "regalloc",
    "sim",
    "harness",
    "ace",
    "store",
    "server",
    "timing",
    "unattributed",
];

/// Op id of spans recorded during set-up rather than inside an op.
pub const SETUP_OP: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
    })
}

thread_local! {
    /// (op id, open span ids) of the calling thread.
    static STACK: RefCell<(u64, Vec<u64>)> = const { RefCell::new((SETUP_OP, Vec::new())) };
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name`, a child of the innermost open span
/// on this thread.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    // Relaxed: the id only has to be unique, it publishes nothing.
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    let (op, parent) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.1.last().copied();
        s.1.push(id);
        (s.0, parent)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().1.pop());
    recorder()
        .spans
        .lock()
        .expect("span list lock poisoned")
        .push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
    out
}

/// Runs `f` as op `op`: a root span named `op` whose descendants carry
/// the op id. Returns the result and the op's (CPU, wall) time in
/// seconds, as [`crate::util::Stopwatch`] measures them.
pub fn op<R>(op: u64, f: impl FnOnce() -> R) -> (R, (f64, f64)) {
    let saved = STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), (op, Vec::new())));
    let t = crate::util::Stopwatch::start();
    let out = span("op", f);
    let times = t.stop();
    STACK.with(|s| *s.borrow_mut() = saved);
    (out, times)
}

/// Total duration in ms of every span named `name`.
pub fn total_ms(name: &str) -> f64 {
    let spans = recorder().spans.lock().expect("span list lock poisoned");
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum()
}

/// Number of spans named `name`.
pub fn count(name: &str) -> usize {
    let spans = recorder().spans.lock().expect("span list lock poisoned");
    spans.iter().filter(|s| s.name == name).count()
}

/// The layer a span name belongs to: its first `.`-separated component,
/// or `unattributed` for the root `op` spans.
pub fn layer_of(name: &str) -> &'static str {
    let prefix = name.split('.').next().unwrap_or(name);
    LAYERS
        .iter()
        .copied()
        .find(|&l| l == prefix)
        .unwrap_or("unattributed")
}

/// Self time in ms per span name, over the spans recorded inside ops
/// (set-up excluded). The `op` entry is the unattributed time; the
/// entries sum to the total op time.
pub fn self_by_name() -> BTreeMap<&'static str, f64> {
    let spans = recorder().spans.lock().expect("span list lock poisoned");
    let in_ops = || spans.iter().filter(|s| s.op != SETUP_OP);
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in in_ops() {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in in_ops() {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        *out.entry(s.name).or_default() +=
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Writes every recorded span as one JSON object per line.
pub fn write_spans(path: &Path) -> std::io::Result<usize> {
    let spans = recorder().spans.lock().expect("span list lock poisoned");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        let op = if s.op == SETUP_OP {
            "\"setup\"".to_string()
        } else {
            s.op.to_string()
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"op\": {op}, \"name\": \"{}\", \
             \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            s.id,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}
