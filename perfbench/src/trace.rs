//! In-memory spans around the benchmark's calls into each layer, and a
//! counting allocator.
//!
//! Spans are recorded only in the traced phase; with tracing off,
//! `enter`/`exit` return at once. The allocator counts in every phase, so
//! allocation counts can be compared across phases exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation (and reallocation) of the process, on any
/// thread, then defers to the system allocator.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// (`Relaxed`: they publish no other data).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and allocated bytes since process start.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u32,
}

/// Span recorder. A span's parent is the innermost span open when it
/// began; spans of one request share its request id.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    req: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Self time (ns) and call count of every span name.
#[derive(Default)]
pub struct LayerTimes(BTreeMap<&'static str, (u64, u64)>);

impl LayerTimes {
    /// Summed self time of `name`, in ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |t| t.0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |t| t.1)
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            req: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_request(&mut self, req: usize) {
        self.req = req as u32;
    }

    /// Make room for `n` more spans, so that recording them allocates
    /// nothing inside a section whose allocations are counted.
    pub fn reserve(&mut self, n: usize) {
        if self.on {
            self.spans.reserve(n);
        }
    }

    /// Open a span; close it with [`Tracer::exit`].
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: self.req,
        });
    }

    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = end;
    }

    /// Per-name self time, a span's self time being its duration minus
    /// the time its child spans cover.
    pub fn layer_times(&self) -> LayerTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = LayerTimes::default();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.0.entry(s.name).or_default();
            t.0 += dur.saturating_sub(child);
            t.1 += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}
