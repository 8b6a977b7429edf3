//! `focus-trace`: scoped-span profiler, counter registry, and run-report
//! emitter for the FOCUS workspace. Zero dependencies.
//!
//! # Spans
//!
//! A span is a named region of work opened by [`span!`] (or [`span_guard`])
//! and closed when the returned RAII guard drops. Spans nest: the registry
//! aggregates them into a tree keyed by *static* span names, so every run of
//! the same code produces the same tree structure and the same call counts —
//! only the recorded nanoseconds vary. Each thread keeps its own open-span
//! stack; a worker thread entering a span starts its own path from the root,
//! so the tree shape never depends on which worker observed a region first
//! (the hot paths only open spans on the coordinating thread anyway).
//!
//! # Counters
//!
//! [`counter_add`] / [`counter_set`] maintain named `u64` counters (GEMM
//! calls by shape class, segments assigned, routing decisions, pool traffic,
//! counted FLOPs). Like spans they are keyed by static names and ordered
//! deterministically (`BTreeMap`). The plan compiler's static verifier
//! reports through this registry too: the `plan/verify` span times each
//! verification pass, `plan/verify_dead` records how many dead instructions
//! the last verified plan carried (always 0 for compiler output, which runs
//! DCE first), and `plan/verify_rejects` counts plans the verifier refused —
//! a nonzero value means a compiler bug failed a step.
//!
//! # Disabled cost
//!
//! Tracing defaults to **off**. Every public entry point first performs a
//! single relaxed atomic load and returns an inert value when disabled, so
//! instrumented hot paths pay one predictable branch — the trainstep bench
//! asserts the total is under 2 % of a train step. Traced values are
//! observability output only and must never feed model computation.

#![forbid(unsafe_code)]

pub mod clock;
pub mod report;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Enabled-path invocations of `span_guard` + counter updates; the trainstep
/// bench multiplies this by a measured per-call cost to bound the overhead
/// the same call sites would add in disabled mode.
static API_CALLS: AtomicU64 = AtomicU64::new(0);

/// Turns tracing on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enabled-path API invocations so far (monotone; survives [`reset`]).
pub fn api_calls() -> u64 {
    API_CALLS.load(Ordering::Relaxed)
}

/// One node of the aggregated span tree, stored in a flat arena. Children
/// are found (or created) by `(parent, static name)`, so repeated entries of
/// the same region accumulate instead of multiplying nodes.
struct NodeData {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
}

struct Registry {
    /// Arena; index 0 is the synthetic root.
    nodes: Vec<NodeData>,
    counters: BTreeMap<&'static str, u64>,
}

impl Registry {
    const fn new() -> Registry {
        Registry { nodes: Vec::new(), counters: BTreeMap::new() }
    }

    fn ensure_root(&mut self) {
        if self.nodes.is_empty() {
            self.nodes.push(NodeData { name: "", children: Vec::new(), calls: 0, total_ns: 0 });
        }
    }

    /// Index of `parent`'s child named `name`, creating it on first entry.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        self.ensure_root();
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let id = self.nodes.len();
        self.nodes.push(NodeData { name, children: Vec::new(), calls: 0, total_ns: 0 });
        self.nodes[parent].children.push(id);
        id
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

thread_local! {
    /// This thread's stack of open span node indices.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().expect("focus-trace registry mutex poisoned")
}

/// RAII guard returned by [`span_guard`]; records the elapsed time into the
/// span tree on drop. The inert (disabled) form does nothing.
pub struct SpanGuard {
    /// `Some((node index, start ns))` when tracing was enabled at entry.
    live: Option<(usize, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((node, start_ns)) = self.live.take() else { return };
        let elapsed = clock::now_ns().saturating_sub(start_ns);
        {
            let mut reg = registry();
            reg.ensure_root();
            if let Some(n) = reg.nodes.get_mut(node) {
                n.calls += 1;
                n.total_ns += elapsed;
            }
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop back to this node even if an inner guard leaked (e.g. was
            // forgotten); keeps the stack consistent per thread.
            if let Some(at) = s.iter().rposition(|&n| n == node) {
                s.truncate(at);
            }
        });
    }
}

/// Opens a span named `name` under the current thread's innermost open span
/// (or the root). Disabled mode costs one relaxed load and returns an inert
/// guard.
#[inline]
pub fn span_guard(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    API_CALLS.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let node = registry().child(parent, name);
    STACK.with(|s| s.borrow_mut().push(node));
    SpanGuard { live: Some((node, clock::now_ns())) }
}

/// Opens a scoped span: `span!("cluster/assign")` binds an RAII guard that
/// closes the span at end of scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _focus_trace_span = $crate::span_guard($name);
    };
}

/// Adds `delta` to the counter `name` (no-op while disabled).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    API_CALLS.fetch_add(1, Ordering::Relaxed);
    *registry().counters.entry(name).or_insert(0) += delta;
}

/// Sets the counter `name` to an absolute value (no-op while disabled).
/// For gauges snapshotted from elsewhere, e.g. pool resident bytes.
#[inline]
pub fn counter_set(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    API_CALLS.fetch_add(1, Ordering::Relaxed);
    registry().counters.insert(name, value);
}

/// Clears the span tree and all counters (`api_calls` is monotone and
/// deliberately survives, as does the enabled flag).
pub fn reset() {
    let mut reg = registry();
    reg.nodes.clear();
    reg.counters.clear();
    STACK.with(|s| s.borrow_mut().clear());
}

/// One aggregated span in a [`snapshot_spans`] tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Static name the span was opened with (e.g. `"model/forward"`).
    pub name: &'static str,
    /// Times this region was entered.
    pub calls: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Nested spans, in first-entry order (deterministic).
    pub children: Vec<SpanNode>,
}

fn build_tree(reg: &Registry, node: usize) -> Vec<SpanNode> {
    reg.nodes[node]
        .children
        .iter()
        .map(|&c| SpanNode {
            name: reg.nodes[c].name,
            calls: reg.nodes[c].calls,
            total_ns: reg.nodes[c].total_ns,
            children: build_tree(reg, c),
        })
        .collect()
}

/// Snapshot of the aggregated span forest (children of the synthetic root).
pub fn snapshot_spans() -> Vec<SpanNode> {
    let mut reg = registry();
    reg.ensure_root();
    build_tree(&reg, 0)
}

/// Snapshot of every counter, in name order.
pub fn snapshot_counters() -> Vec<(&'static str, u64)> {
    registry().counters.iter().map(|(&k, &v)| (k, v)).collect()
}

/// Timing-free signature of a span forest: nesting + names + call counts.
/// Two runs that did the same work produce identical signatures regardless
/// of how long anything took — the trainstep bench asserts this across
/// thread counts.
pub fn structure_signature(spans: &[SpanNode]) -> String {
    fn rec(out: &mut String, nodes: &[SpanNode], depth: usize) {
        // Sort siblings by name so first-entry order (which a future
        // instrumentation site might legitimately change between modes)
        // never affects the signature.
        let mut sorted: Vec<&SpanNode> = nodes.iter().collect();
        sorted.sort_by_key(|n| n.name);
        for n in sorted {
            out.push_str(&"  ".repeat(depth));
            out.push_str(n.name);
            out.push('x');
            out.push_str(&n.calls.to_string());
            out.push('\n');
            rec(out, &n.children, depth + 1);
        }
    }
    let mut out = String::new();
    rec(&mut out, spans, 0);
    out
}

/// Flattens a span forest to `(name, calls, total_ns)` rows for quick
/// membership checks (distinct names across the whole tree).
pub fn flatten_spans(spans: &[SpanNode]) -> Vec<(&'static str, u64, u64)> {
    let mut rows = Vec::new();
    fn rec(rows: &mut Vec<(&'static str, u64, u64)>, nodes: &[SpanNode]) {
        for n in nodes {
            rows.push((n.name, n.calls, n.total_ns));
            rec(rows, &n.children);
        }
    }
    rec(&mut rows, spans);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    // The registry is process-global; tests that reset/enable must not
    // interleave.
    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    fn with_clean_trace<R>(f: impl FnOnce() -> R) -> R {
        let _g = TEST_LOCK.lock().expect("trace test lock");
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = TEST_LOCK.lock().expect("trace test lock");
        reset();
        set_enabled(false);
        {
            span!("quiet");
            counter_add("quiet/count", 3);
        }
        assert!(snapshot_spans().is_empty());
        assert!(snapshot_counters().is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        with_clean_trace(|| {
            for _ in 0..3 {
                span!("outer");
                {
                    span!("inner");
                }
                {
                    span!("inner");
                }
            }
            let spans = snapshot_spans();
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].name, "outer");
            assert_eq!(spans[0].calls, 3);
            assert_eq!(spans[0].children.len(), 1, "same name aggregates");
            assert_eq!(spans[0].children[0].name, "inner");
            assert_eq!(spans[0].children[0].calls, 6);
        });
    }

    #[test]
    fn sibling_spans_form_distinct_children() {
        with_clean_trace(|| {
            {
                span!("parent");
                {
                    span!("a");
                }
                {
                    span!("b");
                }
            }
            let spans = snapshot_spans();
            let names: Vec<_> = spans[0].children.iter().map(|c| c.name).collect();
            assert_eq!(names, vec!["a", "b"]);
        });
    }

    #[test]
    fn counters_accumulate_and_set() {
        with_clean_trace(|| {
            counter_add("gemm/nn_tiled", 2);
            counter_add("gemm/nn_tiled", 3);
            counter_set("pool/resident_bytes", 41);
            counter_set("pool/resident_bytes", 40);
            let c = snapshot_counters();
            assert_eq!(c, vec![("gemm/nn_tiled", 5), ("pool/resident_bytes", 40)]);
        });
    }

    #[test]
    fn structure_signature_ignores_timings() {
        with_clean_trace(|| {
            {
                span!("work");
                {
                    span!("sub");
                }
            }
            let a = structure_signature(&snapshot_spans());
            reset();
            {
                span!("work");
                {
                    span!("sub");
                }
            }
            let b = structure_signature(&snapshot_spans());
            assert_eq!(a, b);
            assert!(a.contains("workx1"));
            assert!(a.contains("subx1"));
        });
    }

    #[test]
    fn worker_thread_spans_start_from_root() {
        with_clean_trace(|| {
            {
                span!("main_side");
                std::thread::scope(|s| {
                    s.spawn(|| {
                        span!("worker_side");
                    });
                });
            }
            let spans = snapshot_spans();
            let top: Vec<_> = spans.iter().map(|n| n.name).collect();
            assert!(top.contains(&"main_side"));
            assert!(
                top.contains(&"worker_side"),
                "a worker's span must not nest under another thread's open span"
            );
        });
    }

    #[test]
    fn reset_clears_tree_and_counters() {
        with_clean_trace(|| {
            {
                span!("gone");
            }
            counter_add("gone/count", 1);
            reset();
            assert!(snapshot_spans().is_empty());
            assert!(snapshot_counters().is_empty());
        });
    }

    #[test]
    fn api_calls_is_monotone_and_counts_enabled_calls() {
        with_clean_trace(|| {
            let before = api_calls();
            {
                span!("counted");
            }
            counter_add("counted/c", 1);
            assert_eq!(api_calls(), before + 2);
        });
    }
}
