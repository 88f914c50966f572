//! # tenblock-obs
//!
//! Zero-dependency execution observability for the tenblock workspace:
//! lightweight tracing spans (name, parent, wall time, thread) plus
//! per-kernel counters (nonzeros, bytes of factor/tensor traffic per the
//! paper's Section IV model, flops, strip/block counts).
//!
//! Everything is recorded through the [`Recorder`] trait. The default
//! implementation ([`NoopRecorder`]) does nothing, and the cloneable
//! [`Rec`] handle caches `enabled()` as a plain bool, so an instrumented
//! hot loop pays one predictable branch when tracing is off.
//!
//! [`TraceRecorder`] is the in-memory collector behind `--trace` and the
//! serve `trace` command. It exports two JSON shapes, both hand-rolled
//! (this crate has no dependencies, not even on the serve JSON type):
//!
//! * [`TraceRecorder::to_chrome_json`] — a `chrome://tracing` /
//!   Perfetto-compatible event array,
//! * [`TraceRecorder::to_span_tree_json`] — the nested span tree, for
//!   programmatic inspection over the wire.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// Locks the trace state, recovering the guard if a panicking traced thread
/// poisoned it — a half-recorded span is still worth reporting.
#[expect(
    clippy::disallowed_methods,
    reason = "the poison-recovering wrapper itself"
)]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Identifier of one span within a recorder. `SpanId::NONE` (0) is the
/// sentinel returned by disabled recorders; operations on it are no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span" sentinel.
    pub const NONE: SpanId = SpanId(0);

    /// True for every id except [`SpanId::NONE`].
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// An annotation value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    /// Numeric value (counters, sizes, fits).
    Num(f64),
    /// Text value (kernel names, grid descriptions).
    Str(String),
}

/// Per-kernel work and traffic counters, following the paper's Section IV
/// performance model (Eq. 1 and 2). Byte fields are the *model* traffic at
/// `alpha = 0` (every factor access misses), the same worst-case bound
/// `tenblock_analysis::roofline` computes, so recorded counters can be
/// checked against the analytical model directly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCounters {
    /// Nonzeros processed.
    pub nnz: u64,
    /// Fibers traversed (for blocked kernels: summed over blocks).
    pub fibers: u64,
    /// Rank (columns of the factor matrices).
    pub rank: u64,
    /// Floating-point operations: `2·R·(nnz + F)` (Eq. 2).
    pub flops: u64,
    /// Tensor-stream bytes: `8·(2·nnz + 2·F)` words of value/index data
    /// (the first two terms of Eq. 1).
    pub tensor_bytes: u64,
    /// Factor-matrix bytes at `alpha = 0`: `8·R·(nnz + F)` (the last two
    /// terms of Eq. 1).
    pub factor_bytes: u64,
    /// Rank strips executed (1 when rank blocking is off).
    pub strips: u64,
    /// Non-empty MB blocks traversed (1 when MB is off).
    pub blocks: u64,
}

impl KernelCounters {
    /// Counters for a fiber-factored kernel (the SPLATT family): the
    /// Section IV model with `alpha = 0`.
    pub fn fibered_model(nnz: u64, fibers: u64, rank: u64) -> Self {
        KernelCounters {
            nnz,
            fibers,
            rank,
            flops: 2 * rank * (nnz + fibers),
            tensor_bytes: 8 * (2 * nnz + 2 * fibers),
            factor_bytes: 8 * rank * (nnz + fibers),
            strips: 1,
            blocks: 1,
        }
    }

    /// Counters for the coordinate-format kernel: no fiber factoring, so
    /// both factor rows are touched per nonzero (`3·R·nnz` flops,
    /// `2·R·nnz` factor words).
    pub fn coo_model(nnz: u64, rank: u64) -> Self {
        KernelCounters {
            nnz,
            fibers: nnz,
            rank,
            flops: 3 * rank * nnz,
            tensor_bytes: 8 * 2 * nnz,
            factor_bytes: 8 * 2 * rank * nnz,
            strips: 1,
            blocks: 1,
        }
    }

    /// Sets the rank-strip count.
    pub fn with_strips(mut self, strips: u64) -> Self {
        self.strips = strips;
        self
    }

    /// Sets the MB block count.
    pub fn with_blocks(mut self, blocks: u64) -> Self {
        self.blocks = blocks;
        self
    }

    /// Total model traffic, tensor stream + factors — comparable to
    /// `RooflineInputs::traffic_bytes()` at `alpha = 0`.
    pub fn total_bytes(&self) -> u64 {
        self.tensor_bytes + self.factor_bytes
    }
}

/// Shared counters for the out-of-core streaming path. The streaming
/// MTTKRP driver's prefetch and compute threads both update one instance
/// (hence atomics, relaxed — these are monotonic tallies, not
/// synchronization), and the CLI report and serve spill tier read
/// [`StreamStats::snapshot`] at the end of a run.
#[derive(Debug, Default)]
pub struct StreamStats {
    /// Tiles loaded from the source, summed over every pass.
    pub tiles_loaded: std::sync::atomic::AtomicU64,
    /// Bytes streamed from the source (tile encoding size), all passes.
    pub bytes_streamed: std::sync::atomic::AtomicU64,
    /// Nanoseconds the compute thread spent waiting on the prefetcher —
    /// the I/O time double buffering failed to hide.
    pub prefetch_stall_ns: std::sync::atomic::AtomicU64,
    /// Tile loads retried after a transient I/O error (each retry that
    /// eventually fed a tile to the kernel, all passes).
    pub tile_retries: std::sync::atomic::AtomicU64,
    /// Nanoseconds the prefetch thread spent loading tiles (read, decode,
    /// retry backoff). With `prefetch_prepare_ns` and the stall it says
    /// whether a pass was I/O-, prepare- or compute-bound.
    pub prefetch_load_ns: std::sync::atomic::AtomicU64,
    /// Nanoseconds the prefetch thread spent putting loaded tiles into
    /// kernel axes and fiber order.
    pub prefetch_prepare_ns: std::sync::atomic::AtomicU64,
}

impl StreamStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one tile of `bytes` loaded from the source.
    pub fn add_tile(&self, bytes: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.tiles_loaded.fetch_add(1, Relaxed);
        self.bytes_streamed.fetch_add(bytes, Relaxed);
    }

    /// Records compute-side stall time waiting for a prefetched tile.
    pub fn add_stall_ns(&self, ns: u64) {
        self.prefetch_stall_ns
            .fetch_add(ns, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records one transient-error retry of a tile load.
    pub fn add_retry(&self) {
        self.tile_retries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records the prefetch thread's busy time on one tile, split into
    /// loading and preparing it.
    pub fn add_prefetch_ns(&self, load_ns: u64, prepare_ns: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.prefetch_load_ns.fetch_add(load_ns, Relaxed);
        self.prefetch_prepare_ns.fetch_add(prepare_ns, Relaxed);
    }

    /// A plain-value copy of the counters.
    pub fn snapshot(&self) -> StreamSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        StreamSnapshot {
            tiles_loaded: self.tiles_loaded.load(Relaxed),
            bytes_streamed: self.bytes_streamed.load(Relaxed),
            prefetch_stall_ns: self.prefetch_stall_ns.load(Relaxed),
            tile_retries: self.tile_retries.load(Relaxed),
            prefetch_load_ns: self.prefetch_load_ns.load(Relaxed),
            prefetch_prepare_ns: self.prefetch_prepare_ns.load(Relaxed),
        }
    }
}

/// Point-in-time copy of [`StreamStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// Tiles loaded from the source, summed over every pass.
    pub tiles_loaded: u64,
    /// Bytes streamed from the source (tile encoding size), all passes.
    pub bytes_streamed: u64,
    /// Compute-thread wait on the prefetcher, in nanoseconds.
    pub prefetch_stall_ns: u64,
    /// Tile loads retried after a transient I/O error.
    pub tile_retries: u64,
    /// Prefetch-thread time spent loading tiles, in nanoseconds.
    pub prefetch_load_ns: u64,
    /// Prefetch-thread time spent preparing loaded tiles, in nanoseconds.
    pub prefetch_prepare_ns: u64,
}

/// The recording sink. Every method has a no-op default so a custom
/// recorder only implements what it cares about; [`Recorder::enabled`]
/// gates all instrumentation.
pub trait Recorder: Send + Sync {
    /// Whether instrumentation should record at all. Checked once per
    /// [`Rec`] construction and cached.
    fn enabled(&self) -> bool {
        false
    }

    /// Opens a span named `name` on the calling thread. The parent is the
    /// innermost span still open on this thread.
    fn span_start(&self, _name: &str) -> SpanId {
        SpanId::NONE
    }

    /// Closes a span.
    fn span_end(&self, _id: SpanId) {}

    /// Attaches a key/value annotation to an open span.
    fn annotate(&self, _id: SpanId, _key: &str, _value: Attr) {}

    /// Attaches kernel counters to an open span.
    fn counters(&self, _id: SpanId, _c: &KernelCounters) {}
}

/// The default recorder: records nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Cloneable handle to a [`Recorder`], the type instrumented code carries.
/// `enabled` is cached at construction so the disabled path is a bool
/// check, not a virtual call.
#[derive(Clone)]
pub struct Rec {
    enabled: bool,
    inner: Arc<dyn Recorder>,
}

impl Default for Rec {
    fn default() -> Self {
        Rec::noop()
    }
}

impl std::fmt::Debug for Rec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rec")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl Rec {
    /// The disabled handle.
    pub fn noop() -> Self {
        Rec {
            enabled: false,
            inner: Arc::new(NoopRecorder),
        }
    }

    /// Wraps a recorder.
    pub fn new(inner: Arc<dyn Recorder>) -> Self {
        Rec {
            enabled: inner.enabled(),
            inner,
        }
    }

    /// Whether spans will actually be recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; the returned guard closes it on drop. When the
    /// recorder is disabled this allocates nothing and records nothing.
    #[inline]
    pub fn span(&self, name: &str) -> Span<'_> {
        if !self.enabled {
            return Span { rec: None };
        }
        let id = self.inner.span_start(name);
        Span {
            rec: Some((&*self.inner, id)),
        }
    }

    /// The underlying recorder.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.inner
    }
}

/// RAII span guard returned by [`Rec::span`]. All methods are no-ops when
/// tracing is disabled.
pub struct Span<'a> {
    rec: Option<(&'a dyn Recorder, SpanId)>,
}

impl Span<'_> {
    /// True when this span is actually being recorded.
    #[inline]
    pub fn active(&self) -> bool {
        self.rec.is_some()
    }

    /// Attaches a numeric annotation.
    pub fn annotate_num(&self, key: &str, value: f64) {
        if let Some((r, id)) = self.rec {
            r.annotate(id, key, Attr::Num(value));
        }
    }

    /// Attaches a text annotation.
    pub fn annotate_str(&self, key: &str, value: &str) {
        if let Some((r, id)) = self.rec {
            r.annotate(id, key, Attr::Str(value.to_string()));
        }
    }

    /// Attaches kernel counters.
    pub fn counters(&self, c: &KernelCounters) {
        if let Some((r, id)) = self.rec {
            r.counters(id, c);
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((r, id)) = self.rec {
            r.span_end(id);
        }
    }
}

/// One recorded span, as captured by [`TraceRecorder`].
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    /// Span id (1-based; 0 never appears).
    pub id: u64,
    /// Parent span id, or 0 for roots.
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Small dense thread index (0 = first thread seen).
    pub thread: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch (`start_ns` if never closed).
    pub end_ns: u64,
    /// Annotations in attach order.
    pub attrs: Vec<(String, Attr)>,
    /// Kernel counters, when attached.
    pub counters: Option<KernelCounters>,
}

impl SpanSnapshot {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct TraceState {
    spans: Vec<SpanSnapshot>,
    /// Per-thread stack of open span ids (parent tracking).
    stacks: HashMap<ThreadId, Vec<u64>>,
    /// Dense thread numbering in first-seen order.
    threads: HashMap<ThreadId, u64>,
}

/// In-memory collecting recorder: spans with parents, monotone timestamps
/// from one epoch, per-thread nesting, annotations, and counters.
///
/// Collection takes one short mutex hold per span event. Spans are opened
/// at kernel/iteration granularity (never per nonzero), so contention is
/// negligible next to the work being traced.
pub struct TraceRecorder {
    epoch: Instant,
    state: Mutex<TraceState>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A fresh recorder; its epoch (timestamp zero) is now.
    pub fn new() -> Self {
        TraceRecorder {
            epoch: Instant::now(),
            state: Mutex::new(TraceState::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// All spans recorded so far, in start order.
    pub fn snapshot(&self) -> Vec<SpanSnapshot> {
        lock(&self.state).spans.clone()
    }

    /// Serializes the trace as a `chrome://tracing` JSON array of complete
    /// (`"ph": "X"`) events; timestamps and durations in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.snapshot();
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                json_str(&s.name),
                fmt_us(s.start_ns),
                fmt_us(s.dur_ns()),
                s.thread,
                args_json(s),
            ));
        }
        out.push(']');
        out
    }

    /// Serializes the trace as a nested span tree:
    /// `{"spans": [{"name", "thread", "start_us", "dur_us", "args",
    /// "children": [...]}, ...]}`.
    pub fn to_span_tree_json(&self) -> String {
        let spans = self.snapshot();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut roots = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent == 0 {
                roots.push(i);
            } else {
                children.entry(s.parent).or_default().push(i);
            }
        }
        fn emit(
            out: &mut String,
            idx: usize,
            spans: &[SpanSnapshot],
            children: &HashMap<u64, Vec<usize>>,
        ) {
            let s = &spans[idx];
            out.push_str(&format!(
                "{{\"name\":{},\"thread\":{},\"start_us\":{},\"dur_us\":{},\"args\":{},\"children\":[",
                json_str(&s.name),
                s.thread,
                fmt_us(s.start_ns),
                fmt_us(s.dur_ns()),
                args_json(s),
            ));
            if let Some(kids) = children.get(&s.id) {
                for (i, &k) in kids.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit(out, k, spans, children);
                }
            }
            out.push_str("]}");
        }
        let mut out = String::from("{\"spans\":[");
        for (i, &r) in roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            emit(&mut out, r, &spans, &children);
        }
        out.push_str("]}");
        out
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &str) -> SpanId {
        let now = self.now_ns();
        let tid = std::thread::current().id();
        let mut st = lock(&self.state);
        let next_thread = st.threads.len() as u64;
        let thread = *st.threads.entry(tid).or_insert(next_thread);
        let id = st.spans.len() as u64 + 1;
        let stack = st.stacks.entry(tid).or_default();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        st.spans.push(SpanSnapshot {
            id,
            parent,
            name: name.to_string(),
            thread,
            start_ns: now,
            end_ns: now,
            attrs: Vec::new(),
            counters: None,
        });
        SpanId(id)
    }

    fn span_end(&self, id: SpanId) {
        if !id.is_some() {
            return;
        }
        let now = self.now_ns();
        let tid = std::thread::current().id();
        let mut st = lock(&self.state);
        if let Some(s) = st.spans.get_mut(id.0 as usize - 1) {
            s.end_ns = now;
        }
        if let Some(stack) = st.stacks.get_mut(&tid) {
            if let Some(pos) = stack.iter().rposition(|&x| x == id.0) {
                stack.remove(pos);
            }
        }
    }

    fn annotate(&self, id: SpanId, key: &str, value: Attr) {
        if !id.is_some() {
            return;
        }
        let mut st = lock(&self.state);
        if let Some(s) = st.spans.get_mut(id.0 as usize - 1) {
            s.attrs.push((key.to_string(), value));
        }
    }

    fn counters(&self, id: SpanId, c: &KernelCounters) {
        if !id.is_some() {
            return;
        }
        let mut st = lock(&self.state);
        if let Some(s) = st.spans.get_mut(id.0 as usize - 1) {
            s.counters = Some(*c);
        }
    }
}

/// Nanoseconds → microseconds with 3 decimals (chrome trace unit).
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Formats an f64 as a JSON number (non-finite values degrade to 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `"args"` object for one span: annotations then counters.
fn args_json(s: &SpanSnapshot) -> String {
    let mut parts: Vec<String> = s
        .attrs
        .iter()
        .map(|(k, v)| {
            let val = match v {
                Attr::Num(n) => json_num(*n),
                Attr::Str(t) => json_str(t),
            };
            format!("{}:{}", json_str(k), val)
        })
        .collect();
    if let Some(c) = &s.counters {
        for (k, v) in [
            ("nnz", c.nnz),
            ("fibers", c.fibers),
            ("rank", c.rank),
            ("flops", c.flops),
            ("tensor_bytes", c.tensor_bytes),
            ("factor_bytes", c.factor_bytes),
            ("strips", c.strips),
            ("blocks", c.blocks),
        ] {
            parts.push(format!("{}:{}", json_str(k), v));
        }
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_inert() {
        let rec = Rec::noop();
        assert!(!rec.enabled());
        let s = rec.span("anything");
        assert!(!s.active());
        s.annotate_num("x", 1.0);
        s.counters(&KernelCounters::fibered_model(10, 5, 4));
        drop(s);
    }

    #[test]
    fn spans_nest_per_thread() {
        let tr = Arc::new(TraceRecorder::new());
        let rec = Rec::new(tr.clone());
        assert!(rec.enabled());
        {
            let outer = rec.span("outer");
            outer.annotate_str("kind", "test");
            {
                let inner = rec.span("inner");
                inner.annotate_num("n", 3.0);
            }
            let sibling = rec.span("sibling");
            drop(sibling);
        }
        let spans = tr.snapshot();
        assert_eq!(spans.len(), 3);
        let outer = &spans[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].parent, outer.id);
        assert_eq!(spans[2].parent, outer.id);
        // timestamps are monotone and children are inside the parent
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[1].start_ns >= outer.start_ns);
        assert!(spans[1].end_ns <= outer.end_ns);
    }

    #[test]
    fn separate_threads_get_separate_roots() {
        let tr = Arc::new(TraceRecorder::new());
        let rec = Rec::new(tr.clone());
        let r2 = rec.clone();
        let handle = std::thread::spawn(move || {
            let _s = r2.span("worker");
        });
        let _main = rec.span("main");
        drop(_main);
        handle.join().unwrap();
        let spans = tr.snapshot();
        assert_eq!(spans.len(), 2);
        // both are roots: the worker's span must not parent under main's
        assert!(spans.iter().all(|s| s.parent == 0));
        let threads: std::collections::HashSet<u64> = spans.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 2);
    }

    #[test]
    fn counters_model_matches_formulas() {
        let c = KernelCounters::fibered_model(1000, 200, 16);
        assert_eq!(c.flops, 2 * 16 * 1200);
        assert_eq!(c.tensor_bytes, 8 * (2 * 1000 + 2 * 200));
        assert_eq!(c.factor_bytes, 8 * 16 * 1200);
        assert_eq!(c.total_bytes(), c.tensor_bytes + c.factor_bytes);
        let c = c.with_strips(4).with_blocks(8);
        assert_eq!((c.strips, c.blocks), (4, 8));
    }

    #[test]
    fn chrome_json_shape_and_escaping() {
        let tr = Arc::new(TraceRecorder::new());
        let rec = Rec::new(tr.clone());
        {
            let s = rec.span("odd\"name\n");
            s.annotate_num("v", 2.5);
            s.counters(&KernelCounters::coo_model(10, 2));
        }
        let json = tr.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"odd\\\"name\\n\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"v\":2.5"));
        assert!(json.contains("\"nnz\":10"));
        assert!(json.contains("\"factor_bytes\":320"));
    }

    #[test]
    fn span_tree_nests_children() {
        let tr = Arc::new(TraceRecorder::new());
        let rec = Rec::new(tr.clone());
        {
            let _a = rec.span("a");
            let _b = rec.span("b");
        }
        let tree = tr.to_span_tree_json();
        // "b" must appear inside "a"'s children array
        let a = tree.find("\"name\":\"a\"").unwrap();
        let b = tree.find("\"name\":\"b\"").unwrap();
        assert!(b > a, "{tree}");
        assert!(tree.starts_with("{\"spans\":["));
    }
}
