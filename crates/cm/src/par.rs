//! Host-side data-parallel kernels.
//!
//! The simulator executes elementwise SIMD instructions on rayon's
//! work-stealing pool when the VP set is large enough to amortise
//! fork/join overhead, and sequentially otherwise (the pool honours the
//! `UC_THREADS` environment variable; see the `rayon` shim). Every kernel
//! here is either a pure elementwise map — identical for any thread count
//! by construction — or an order-sensitive fold (scan/reduce building
//! blocks) that is chunked by [`chunk_at`], a pure function of the
//! element count alone. Chunk layout never depends on the thread count,
//! so even float folds, which are sensitive to association order, are
//! bit-identical under any `UC_THREADS` — simulations stay deterministic.
//! Cycle charges depend only on the op class and the VP-set size, never on
//! the data or the pool, so cost accounting is thread-count-independent
//! too. Most ops charge *before* they run and write nothing when the
//! charge traps; NEWS shifts, router sends and gets, scans, reductions,
//! `read_context` and `fill_unconditional` charge *after*, so a trapped
//! charge there leaves the destination already written.
//!
//! Elementwise kernels pick the op once per instruction and run one
//! monomorphic loop per (op, operand shape). Ops that cannot trap store
//! through a branch-free mask: binops (`zip2_masked`), copies, fills,
//! casts and unary ops. Integer division keeps the branch
//! (`zip2_guarded`), and so does the router's gather, whose inactive
//! addresses may be out of range. Immediates are `Splat` operands, never
//! materialised fields. NEWS shifts (`shift_masked`) copy contiguous
//! runs; only the border span of each block sees the border policy.
//!
//! The chunked fan-outs are allocation-free: per-chunk partials land in
//! caller-provided stack arrays (chunk counts are bounded by
//! [`MAX_CHUNKS`]) and the pool's batch dispatch queues `Copy` chunk
//! descriptors rather than boxed closures, so a warm simulator performs
//! zero heap allocations per parallel op at **any** size and thread
//! count — `crates/cm/tests/alloc_count.rs` asserts this on both sides
//! of `PAR_THRESHOLD`.

use rayon::prelude::*;
use std::ops::Range;

/// Below this many elements the sequential path is used.
pub const PAR_THRESHOLD: usize = 1 << 13;

/// Smallest number of elements one pool job processes (the
/// `with_min_len` chunking hint on every parallel pipeline here).
pub const CHUNK_MIN: usize = 1 << 10;

/// Upper bound on the number of chunks [`chunk_count`] produces. Bounds
/// the sequential chunk-combine step of scans/reductions while leaving
/// enough chunks for every realistic pool size to balance load.
pub const MAX_CHUNKS: usize = 64;

/// Elements per chunk for a `len`-element partition: at least
/// [`CHUNK_MIN`], at most [`MAX_CHUNKS`] chunks.
fn chunk_size(len: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(CHUNK_MIN)
}

/// Number of chunks `0..len` partitions into — a pure function of `len`
/// alone, **never** of the thread count, so order-sensitive folds over
/// these chunks (float scans/reductions) associate identically under any
/// `UC_THREADS` setting. Always `<=` [`MAX_CHUNKS`].
pub fn chunk_count(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.div_ceil(chunk_size(len))
    }
}

/// The `k`-th chunk of the `0..len` partition (`k < chunk_count(len)`).
pub fn chunk_at(len: usize, k: usize) -> Range<usize> {
    let c = chunk_size(len);
    (k * c)..((k + 1) * c).min(len)
}

/// Apply `f` to every chunk of `0..len` in parallel, writing chunk `k`'s
/// result to `out[k]`; returns the chunk count. `out` is caller-provided
/// (a stack array, typically `[id; MAX_CHUNKS]`) so the fan-out performs
/// no heap allocation. Chunk layout is [`chunk_at`]'s, so the results
/// are deterministic for any thread count.
pub fn map_chunks_into<O, F>(len: usize, out: &mut [O; MAX_CHUNKS], f: F) -> usize
where
    O: Send,
    F: Fn(Range<usize>) -> O + Sync,
{
    let n = chunk_count(len);
    if n <= 1 || len < PAR_THRESHOLD {
        for (k, slot) in out.iter_mut().enumerate().take(n) {
            *slot = f(chunk_at(len, k));
        }
    } else {
        (0..n)
            .into_par_iter()
            .zip(out[..n].par_iter_mut())
            .with_min_len(1)
            .for_each(|(k, slot)| *slot = f(chunk_at(len, k)));
    }
    n
}

/// Run `f(k, chunk, &mut data[chunk])` for every chunk of
/// `0..data.len()` in parallel — the in-place sibling of
/// [`map_chunks_into`] for per-chunk passes that write disjoint regions
/// (the blocked scan's second pass). Allocation-free.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    let len = data.len();
    let n = chunk_count(len);
    if n <= 1 || len < PAR_THRESHOLD {
        let mut rest = data;
        for k in 0..n {
            let r = chunk_at(len, k);
            let (head, tail) = rest.split_at_mut(r.len());
            f(k, r, head);
            rest = tail;
        }
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    (0..n).into_par_iter().with_min_len(1).for_each(|k| {
        let r = chunk_at(len, k);
        // Chunks are disjoint, so the derived `&mut` slices never alias.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()) };
        f(k, r, chunk);
    });
}

/// Raw pointer that may cross threads; writes are to disjoint chunks.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Elementwise map of one slice.
pub fn map1<A, O, F>(a: &[A], f: F) -> Vec<O>
where
    A: Sync,
    O: Send,
    F: Fn(&A) -> O + Sync + Send,
{
    if a.len() >= PAR_THRESHOLD {
        a.par_iter().with_min_len(CHUNK_MIN).map(&f).collect()
    } else {
        a.iter().map(&f).collect()
    }
}

/// Elementwise map of two equal-length slices.
///
/// Panics if lengths differ; the machine validates shapes before calling.
pub fn map2<A, B, O, F>(a: &[A], b: &[B], f: F) -> Vec<O>
where
    A: Sync,
    B: Sync,
    O: Send,
    F: Fn(&A, &B) -> O + Sync + Send,
{
    assert_eq!(a.len(), b.len(), "map2 length mismatch");
    if a.len() >= PAR_THRESHOLD {
        a.par_iter()
            .zip(b.par_iter())
            .with_min_len(CHUNK_MIN)
            .map(|(x, y)| f(x, y))
            .collect()
    } else {
        a.iter().zip(b.iter()).map(|(x, y)| f(x, y)).collect()
    }
}

/// Elementwise map of three equal-length slices.
pub fn map3<A, B, C, O, F>(a: &[A], b: &[B], c: &[C], f: F) -> Vec<O>
where
    A: Sync,
    B: Sync,
    C: Sync,
    O: Send,
    F: Fn(&A, &B, &C) -> O + Sync + Send,
{
    assert_eq!(a.len(), b.len(), "map3 length mismatch");
    assert_eq!(a.len(), c.len(), "map3 length mismatch");
    if a.len() >= PAR_THRESHOLD {
        a.par_iter()
            .zip(b.par_iter())
            .zip(c.par_iter())
            .with_min_len(CHUNK_MIN)
            .map(|((x, y), z)| f(x, y, z))
            .collect()
    } else {
        a.iter()
            .zip(b.iter())
            .zip(c.iter())
            .map(|((x, y), z)| f(x, y, z))
            .collect()
    }
}

/// Indexed elementwise map: `out[i] = f(i)`.
pub fn map_index<O, F>(len: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync + Send,
{
    if len >= PAR_THRESHOLD {
        (0..len).into_par_iter().with_min_len(CHUNK_MIN).map(&f).collect()
    } else {
        (0..len).map(&f).collect()
    }
}

/// Masked in-place commit: `dst[i] = src[i]` wherever `mask[i]`.
pub fn commit_masked<T: Copy + Send + Sync>(dst: &mut [T], src: &[T], mask: &[bool]) {
    assert_eq!(dst.len(), src.len(), "commit length mismatch");
    assert_eq!(dst.len(), mask.len(), "commit mask length mismatch");
    for_each_run_mut(dst, &|r, d| store_masked(d, src[r.clone()].iter().copied(), &mask[r]));
}

/// Masked in-place elementwise map of one source: `dst[i] = f(a[i])`
/// wherever `mask[i]`. Branch-free like `zip2_masked`, so `f` must not
/// trap (casts and wrapping unary ops).
pub fn apply1_masked<A, T, F>(dst: &mut [T], a: &[A], mask: &[bool], f: F)
where
    A: Sync,
    T: Copy + Send,
    F: Fn(&A) -> T + Sync,
{
    assert_eq!(dst.len(), a.len(), "apply1 length mismatch");
    assert_eq!(dst.len(), mask.len(), "apply1 mask length mismatch");
    for_each_run_mut(dst, &|r, d| store_masked(d, a[r.clone()].iter().map(&f), &mask[r]));
}

/// Run `f(range, &mut dst[range])` over all of `dst`: in one piece below
/// [`PAR_THRESHOLD`], else on the pool over the [`chunk_at`] partition.
/// `f` is a trait object so the pool plumbing is compiled once per
/// element type, not once per kernel; the per-element loop inside `f`
/// stays monomorphic.
fn for_each_run_mut<T: Send>(dst: &mut [T], f: &(dyn Fn(Range<usize>, &mut [T]) + Sync)) {
    if dst.len() < PAR_THRESHOLD {
        f(0..dst.len(), dst);
    } else {
        for_each_chunk_mut(dst, |_, r, chunk| f(r, chunk));
    }
}

/// Branch-free masked store: `dst[i] = if mask[i] { src[i] } else { dst[i] }`.
/// Every element is read and written back, which lets the loop vectorise.
#[inline(always)]
fn store_masked<T: Copy>(dst: &mut [T], src: impl Iterator<Item = T>, mask: &[bool]) {
    for ((d, &m), s) in dst.iter_mut().zip(mask).zip(src) {
        *d = if m { s } else { *d };
    }
}

/// A source operand of an elementwise kernel: a slice with one value per
/// element, or one value broadcast to every element ([`Splat`]).
pub(crate) trait Operand<T>: Copy + Sync {
    /// The operand's values at positions `r`.
    fn elems(self, r: Range<usize>) -> impl Iterator<Item = T>;
}

impl<T: Copy + Sync> Operand<T> for &[T] {
    #[inline(always)]
    fn elems(self, r: Range<usize>) -> impl Iterator<Item = T> {
        self[r].iter().copied()
    }
}

/// An immediate broadcast to every element, without materialising it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Splat<T>(pub(crate) T);

impl<T: Copy + Sync> Operand<T> for Splat<T> {
    #[inline(always)]
    fn elems(self, _: Range<usize>) -> impl Iterator<Item = T> {
        std::iter::repeat(self.0)
    }
}

/// Branch-free masked map of two operands:
/// `dst[i] = if mask[i] { f(x[i], y[i]) } else { dst[i] }`. `f` runs at
/// every position, active or not, so it must not trap; ops that can
/// (integer division) use [`zip2_guarded`].
pub(crate) fn zip2_masked<A, B, O, X, Y, F>(dst: &mut [O], x: X, y: Y, mask: &[bool], f: F)
where
    O: Copy + Send,
    X: Operand<A>,
    Y: Operand<B>,
    F: Fn(A, B) -> O + Sync,
{
    assert_eq!(dst.len(), mask.len(), "zip2 mask length mismatch");
    for_each_run_mut(dst, &|r, d| {
        let vals = x.elems(r.clone()).zip(y.elems(r.clone())).map(|(a, b)| f(a, b));
        store_masked(d, vals, &mask[r]);
    });
}

/// Masked map of two operands that evaluates `f` only at active
/// positions: `dst[i] = f(x[i], y[i])` wherever `mask[i]`. Integer `Div`
/// and `Mod` use it, so an inactive zero divisor is never evaluated.
pub(crate) fn zip2_guarded<A, B, O, X, Y, F>(dst: &mut [O], x: X, y: Y, mask: &[bool], f: F)
where
    O: Send,
    X: Operand<A>,
    Y: Operand<B>,
    F: Fn(A, B) -> O + Sync,
{
    assert_eq!(dst.len(), mask.len(), "zip2 mask length mismatch");
    for_each_run_mut(dst, &|r, d| {
        let args = x.elems(r.clone()).zip(y.elems(r.clone()));
        for ((d, &m), (a, b)) in d.iter_mut().zip(&mask[r]).zip(args) {
            if m {
                *d = f(a, b);
            }
        }
    });
}

/// Branch-free masked select (the `select` op):
/// `dst[i] = if cond[i] { a[i] } else { b[i] }` wherever `mask[i]`.
pub(crate) fn select_masked<T: Copy + Send + Sync>(
    dst: &mut [T],
    cond: &[bool],
    a: &[T],
    b: &[T],
    mask: &[bool],
) {
    assert_eq!(dst.len(), mask.len(), "select mask length mismatch");
    for_each_run_mut(dst, &|r, d| {
        let picks = cond[r.clone()].iter().zip(&a[r.clone()]).zip(&b[r.clone()]);
        store_masked(d, picks.map(|((&c, &x), &y)| if c { x } else { y }), &mask[r]);
    });
}

/// One span of a block-periodic NEWS shift. Block-relative destinations
/// `start..end` copy the contiguous source run that begins at
/// block-relative position `from`, or take the border value when `from`
/// is `None`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShiftSpan {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) from: Option<usize>,
}

/// NEWS shift kernel. `dst`, `src` and `mask` are cut into blocks of
/// `block` elements, and every block follows the same `spans`: each span
/// is one contiguous masked copy, or for a border span a masked store of
/// `fill` (`None` leaves the destination as it was). `src` must not
/// alias `dst`.
pub(crate) fn shift_masked<T: Copy + Send + Sync>(
    dst: &mut [T],
    src: &[T],
    mask: &[bool],
    block: usize,
    spans: &[ShiftSpan],
    fill: Option<T>,
) {
    assert_eq!(dst.len(), src.len(), "shift length mismatch");
    assert_eq!(dst.len(), mask.len(), "shift mask length mismatch");
    assert!(block > 0 && dst.len().is_multiple_of(block), "shift block must tile the field");
    for_each_run_mut(dst, &|r, d| {
        let mut base = r.start - r.start % block;
        while base < r.end {
            for s in spans {
                let lo = (base + s.start).max(r.start);
                let hi = (base + s.end).min(r.end);
                if lo >= hi {
                    continue;
                }
                let (dd, m) = (&mut d[lo - r.start..hi - r.start], &mask[lo..hi]);
                match (s.from, fill) {
                    (Some(from), _) => {
                        let at = lo - s.start + from;
                        store_masked(dd, src[at..at + (hi - lo)].iter().copied(), m);
                    }
                    (None, Some(v)) => store_masked(dd, std::iter::repeat(v), m),
                    (None, None) => {}
                }
            }
            base += block;
        }
    });
}

/// Masked in-place indexed map: `dst[i] = f(i)` wherever `mask[i]`
/// (iota, coordinates, per-VP PRNG).
pub fn apply_index_masked<T, F>(dst: &mut [T], mask: &[bool], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync + Send,
{
    assert_eq!(dst.len(), mask.len(), "apply_index mask length mismatch");
    if dst.len() >= PAR_THRESHOLD {
        (0..dst.len())
            .into_par_iter()
            .zip(dst.par_iter_mut())
            .zip(mask.par_iter())
            .with_min_len(CHUNK_MIN)
            .for_each(|((i, d), &m)| {
                if m {
                    *d = f(i);
                }
            });
    } else {
        for ((i, d), &m) in dst.iter_mut().enumerate().zip(mask) {
            if m {
                *d = f(i);
            }
        }
    }
}

/// Masked fill: `dst[i] = value` wherever `mask[i]` (`set_imm`).
pub fn fill_masked<T: Copy + Send + Sync>(dst: &mut [T], value: T, mask: &[bool]) {
    assert_eq!(dst.len(), mask.len(), "fill mask length mismatch");
    for_each_run_mut(dst, &|r, d| store_masked(d, std::iter::repeat(value), &mask[r]));
}

/// Masked gather: `dst[i] = src[addrs[i]]` wherever `mask[i]` — the
/// router's **get** inner loop. Addresses at active positions must be in
/// bounds (the router validates before calling).
pub fn gather_masked<T: Copy + Send + Sync>(
    dst: &mut [T],
    src: &[T],
    addrs: &[i64],
    mask: &[bool],
) {
    assert_eq!(dst.len(), addrs.len(), "gather address length mismatch");
    assert_eq!(dst.len(), mask.len(), "gather mask length mismatch");
    if dst.len() >= PAR_THRESHOLD {
        dst.par_iter_mut()
            .zip(addrs.par_iter())
            .zip(mask.par_iter())
            .with_min_len(CHUNK_MIN)
            .for_each(|((d, &a), &m)| {
                if m {
                    *d = src[a as usize];
                }
            });
    } else {
        for ((d, &a), &m) in dst.iter_mut().zip(addrs).zip(mask) {
            if m {
                *d = src[a as usize];
            }
        }
    }
}

/// Unmasked fill: `dst[i] = value` everywhere.
pub fn fill<T: Copy + Send + Sync>(dst: &mut [T], value: T) {
    if dst.len() >= PAR_THRESHOLD {
        dst.par_iter_mut().with_min_len(CHUNK_MIN).for_each(|d| *d = value);
    } else {
        dst.iter_mut().for_each(|d| *d = value);
    }
}

/// Parallel existence test over two slices: does `f(a[i], b[i])` hold
/// anywhere? The boolean answer is chunking-independent, so callers that
/// need a *deterministic witness* (e.g. the first offending router
/// address) re-scan sequentially after a `true` answer.
pub fn any2<A, B, F>(a: &[A], b: &[B], f: F) -> bool
where
    A: Sync,
    B: Sync,
    F: Fn(&A, &B) -> bool + Sync,
{
    assert_eq!(a.len(), b.len(), "any2 length mismatch");
    if a.len() < PAR_THRESHOLD {
        return a.iter().zip(b).any(|(x, y)| f(x, y));
    }
    let mut hits = [false; MAX_CHUNKS];
    let n = map_chunks_into(a.len(), &mut hits, |r| r.into_iter().any(|i| f(&a[i], &b[i])));
    hits[..n].iter().any(|&hit| hit)
}

/// Parallel fold of the `mask`-active elements of `v` with an associative
/// `fold`, starting from `id`: per-chunk folds run on the pool (partials
/// landing in a stack array), then the partials are folded in chunk
/// order. Chunk layout is [`chunk_at`], so the association — and hence
/// even float results — is identical for any thread count.
pub fn fold_active<T, F>(v: &[T], mask: &[bool], id: T, fold: F) -> T
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    assert_eq!(v.len(), mask.len(), "fold mask length mismatch");
    if v.len() < PAR_THRESHOLD {
        return v
            .iter()
            .zip(mask)
            .filter(|(_, &m)| m)
            .fold(id, |acc, (&x, _)| fold(acc, x));
    }
    let mut parts = [id; MAX_CHUNKS];
    let n = map_chunks_into(v.len(), &mut parts, |r| {
        r.into_iter()
            .filter(|&i| mask[i])
            .fold(id, |acc, i| fold(acc, v[i]))
    });
    parts[..n].iter().fold(id, |acc, &x| fold(acc, x))
}

/// Index of the first `mask`-active element, scanning chunks in parallel.
pub fn first_active(mask: &[bool]) -> Option<usize> {
    if mask.len() < PAR_THRESHOLD {
        return mask.iter().position(|&m| m);
    }
    let mut parts = [None; MAX_CHUNKS];
    let n = map_chunks_into(mask.len(), &mut parts, |r| r.into_iter().find(|&i| mask[i]));
    parts[..n].iter().find_map(|&hit| hit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map1_small_and_large() {
        let small: Vec<i64> = (0..100).collect();
        assert_eq!(map1(&small, |&x| x + 1)[99], 100);
        let large: Vec<i64> = (0..(PAR_THRESHOLD as i64 + 5)).collect();
        let out = map1(&large, |&x| x * 2);
        assert_eq!(out.len(), large.len());
        assert_eq!(out[PAR_THRESHOLD], 2 * PAR_THRESHOLD as i64);
    }

    #[test]
    fn map2_and_map3() {
        let a = vec![1i64, 2, 3];
        let b = vec![10i64, 20, 30];
        let c = vec![true, false, true];
        assert_eq!(map2(&a, &b, |x, y| x + y), vec![11, 22, 33]);
        assert_eq!(map3(&a, &b, &c, |x, y, &m| if m { *x } else { *y }), vec![1, 20, 3]);
    }

    #[test]
    fn map_index_identity() {
        assert_eq!(map_index(4, |i| i as i64), vec![0, 1, 2, 3]);
    }

    #[test]
    fn commit_respects_mask() {
        let mut d = vec![0i64; 4];
        commit_masked(&mut d, &[1, 2, 3, 4], &[true, false, true, false]);
        assert_eq!(d, vec![1, 0, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn map2_length_mismatch_panics() {
        map2(&[1], &[1, 2], |a: &i32, b: &i32| a + b);
    }

    #[test]
    fn chunks_cover_exactly() {
        for len in [0usize, 1, CHUNK_MIN - 1, CHUNK_MIN, PAR_THRESHOLD, 1 << 16, (1 << 16) + 7] {
            let n = chunk_count(len);
            assert!(n <= MAX_CHUNKS);
            let mut next = 0;
            for k in 0..n {
                let r = chunk_at(len, k);
                assert_eq!(r.start, next, "contiguous at len={len}");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, len, "covers 0..len for len={len}");
        }
    }

    #[test]
    fn map_chunks_into_orders_partials() {
        let len = PAR_THRESHOLD + 17;
        let mut parts = [0usize; MAX_CHUNKS];
        let n = map_chunks_into(len, &mut parts, |r| r.len());
        assert_eq!(n, chunk_count(len));
        assert_eq!(parts[..n].iter().sum::<usize>(), len);
        for (k, &got) in parts[..n].iter().enumerate() {
            assert_eq!(got, chunk_at(len, k).len());
        }
    }

    #[test]
    fn gather_and_fill() {
        let mut d = vec![0i64; 4];
        gather_masked(&mut d, &[10, 20, 30], &[2, 0, 1, 2], &[true, true, false, true]);
        assert_eq!(d, vec![30, 10, 0, 30]);
        fill(&mut d, 7);
        assert_eq!(d, vec![7; 4]);
    }

    #[test]
    fn any2_small_and_large() {
        let a: Vec<i64> = (0..(PAR_THRESHOLD as i64 + 3)).collect();
        let b = vec![0i64; a.len()];
        assert!(any2(&a, &b, |&x, _| x == PAR_THRESHOLD as i64));
        assert!(!any2(&a, &b, |&x, _| x < 0));
        assert!(any2(&a[..3], &b[..3], |&x, &y| x > y));
    }

    #[test]
    fn fold_active_matches_sequential() {
        let n = PAR_THRESHOLD + 123;
        let v: Vec<i64> = (0..n as i64).collect();
        let mask: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let par = fold_active(&v, &mask, 0i64, |a, b| a.wrapping_add(b));
        let seq: i64 = v.iter().zip(&mask).filter(|(_, &m)| m).map(|(&x, _)| x).sum();
        assert_eq!(par, seq);
        assert_eq!(fold_active(&v, &vec![false; n], i64::MAX, i64::min), i64::MAX);
    }

    #[test]
    fn first_active_finds_first() {
        let n = PAR_THRESHOLD + 50;
        let mut mask = vec![false; n];
        assert_eq!(first_active(&mask), None);
        mask[n - 2] = true;
        assert_eq!(first_active(&mask), Some(n - 2));
        mask[3] = true;
        assert_eq!(first_active(&mask), Some(3));
        assert_eq!(first_active(&[false, true]), Some(1));
    }

    #[test]
    fn for_each_chunk_mut_writes_disjoint_chunks() {
        for len in [10usize, PAR_THRESHOLD + 33] {
            let mut data = vec![0usize; len];
            for_each_chunk_mut(&mut data, |k, r, chunk| {
                assert_eq!(chunk.len(), r.len());
                for (off, d) in chunk.iter_mut().enumerate() {
                    *d = k * 1_000_000 + r.start + off;
                }
            });
            for (i, &x) in data.iter().enumerate() {
                let k = if len < PAR_THRESHOLD { 0 } else { i / chunk_at(len, 0).len() };
                assert_eq!(x, k * 1_000_000 + i, "slot {i}");
            }
        }
    }
}
