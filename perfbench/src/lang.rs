//! The language workloads: UC programs driven through
//! `Program::{compile_with_defines, write_int_array, run, read_*_array}`.
//!
//! The programs are the paper's §3/§5 kernels with their self-initialising
//! `par` statements removed: every input (graph, walls, keys, grid values)
//! is generated from the seed and written with `write_int_array`, and
//! every output is checked against a reference that does not run on
//! `uc_cm` (`uc_seqc::oracle`, `sort`, counting loops, plain-Rust sweeps).

use std::time::Instant;

use uc_core::{lexer, mapping, opt, parser, sema, Diagnostics, ExecConfig, Program};
use uc_seqc::oracle;

use crate::stats::Rng;
use crate::trace::{alloc_snapshot, Tracer};
use crate::{Counts, Sample, Workload};

/// Figure 4/6's program: APSP with O(N²) parallelism, `seq` over k.
const FIG6: &str = r#"
#define N 8
index_set I:i = {0..N-1}, J:j = I, K:k = I;
int d[N][N];
main() {
    seq (K)
        par (I, J)
            st (d[i][k] + d[k][j] < d[i][j])
                d[i][j] = d[i][k] + d[k][j];
}
"#;

/// Figure 5/7's program: APSP with O(N³) parallelism, LOGN min-plus rounds.
const FIG7: &str = r#"
#define N 8
#define LOGN 3
index_set I:i = {0..N-1}, J:j = I, K:k = I;
index_set L:l = {0..LOGN-1};
int d[N][N];
main() {
    seq (L)
        par (I, J)
            d[i][j] = $<(K; d[i][k] + d[k][j]);
}
"#;

/// `examples/uc/shortest_path.uc`: Floyd-Warshall with a front-end `for`.
const SHORTEST_PATH: &str = r#"
#define N 8
index_set I:i = {0..N-1}, J:j = I;
int w[N][N];
int k;
main() {
    for (k = 0; k < N; k = k + 1) {
        par (I, J) st (w[i][k] + w[k][j] < w[i][j])
            w[i][j] = w[i][k] + w[k][j];
    }
}
"#;

/// `examples/uc/ranksort.uc` (§3.2).
const RANKSORT: &str = r#"
#define N 16
index_set I:i = {0..N-1}, J:j = I;
int a[N], rank[N], sorted[N];
main() {
    par (I) rank[i] = $+(J st (a[j] < a[i] || (a[j] == a[i] && j < i)) 1);
    par (I) sorted[rank[i]] = a[i];
}
"#;

/// `examples/uc/jacobi.uc`; the grid's initial values arrive in `init`.
const JACOBI: &str = r#"
#define N 8
#define STEPS 10
index_set I:i = {0..N-1}, J:j = I;
int init[N][N];
float u[N][N], v[N][N];
int t;
main() {
    par (I, J) u[i][j] = init[i][j];
    for (t = 0; t < STEPS; t = t + 1) {
        par (I, J) st (i > 0 && i < N-1 && j > 0 && j < N-1)
            v[i][j] = (u[i-1][j] + u[i+1][j] + u[i][j-1] + u[i][j+1]) / 4.0;
        par (I, J) st (i > 0 && i < N-1 && j > 0 && j < N-1)
            u[i][j] = v[i][j];
    }
}
"#;

/// Figure 8's grid-goal `*par` fixpoint; walls, start and the unreached
/// sentinel arrive in `a`.
const GRID: &str = r#"
#define N 16
#define WALLV 2147483648
index_set I:i = {0..N-1}, J:j = I;
int a[N][N];
main() {
    *par (I, J)
        st (a[i][j] != WALLV && (i != 0 || j != 0)
            && min(min(a[i-1][j], a[i+1][j]), min(a[i][j-1], a[i][j+1])) + 1 < a[i][j])
        a[i][j] = min(min(a[i-1][j], a[i+1][j]), min(a[i][j-1], a[i][j+1])) + 1;
}
"#;

/// §4's digit histogram (the processor-optimization example).
const HISTOGRAM: &str = r#"
#define N 1024
index_set I:i = {0..N-1}, J:j = {0..9};
int samples[N];
int count[10];
main() {
    par (J)
        count[j] = $+(I st (samples[i] == j) 1);
}
"#;

const WALLV: i64 = 1 << 31;
const DMAX: i64 = 1 << 30;
/// Share of grid cells that are walls; (0,0) and its two neighbours stay open.
const WALL_DENSITY: f64 = 0.15;
/// Compiles per program in a traced set-up: the phase times of a single
/// cold compile are too noisy to subtract from its total
/// (`compile.rest_us`), and the large workloads compile only in set-up.
const TRACED_COMPILES: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    Fig6,
    Fig7,
    ShortestPath,
    Ranksort,
    Jacobi,
    Grid,
    Histogram,
}

impl Kernel {
    const ALL: [Kernel; 7] = [
        Kernel::Fig6,
        Kernel::Fig7,
        Kernel::ShortestPath,
        Kernel::Ranksort,
        Kernel::Jacobi,
        Kernel::Grid,
        Kernel::Histogram,
    ];

    fn source(self) -> &'static str {
        match self {
            Kernel::Fig6 => FIG6,
            Kernel::Fig7 => FIG7,
            Kernel::ShortestPath => SHORTEST_PATH,
            Kernel::Ranksort => RANKSORT,
            Kernel::Jacobi => JACOBI,
            Kernel::Grid => GRID,
            Kernel::Histogram => HISTOGRAM,
        }
    }

    fn input_array(self) -> &'static str {
        match self {
            Kernel::Fig6 | Kernel::Fig7 => "d",
            Kernel::ShortestPath => "w",
            Kernel::Ranksort => "a",
            Kernel::Jacobi => "init",
            Kernel::Grid => "a",
            Kernel::Histogram => "samples",
        }
    }

    fn output_array(self) -> &'static str {
        match self {
            Kernel::Fig6 | Kernel::Fig7 => "d",
            Kernel::ShortestPath => "w",
            Kernel::Ranksort => "sorted",
            Kernel::Jacobi => "u",
            Kernel::Grid => "a",
            Kernel::Histogram => "count",
        }
    }
}

/// One compiled-program configuration: a kernel at a problem size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Variant {
    kernel: Kernel,
    n: usize,
    /// Jacobi sweeps (ignored by the other kernels).
    steps: usize,
}

impl Variant {
    fn defines(&self) -> Vec<(&'static str, i64)> {
        let mut d = vec![("N", self.n as i64)];
        match self.kernel {
            Kernel::Fig7 => d.push(("LOGN", (usize::BITS - (self.n - 1).leading_zeros()) as i64)),
            Kernel::Jacobi => d.push(("STEPS", self.steps as i64)),
            _ => {}
        }
        d
    }

    /// Seeded input for the kernel's input array, in logical order.
    fn input(&self, rng: &mut Rng) -> Vec<i64> {
        let n = self.n;
        match self.kernel {
            Kernel::Fig6 | Kernel::Fig7 | Kernel::ShortestPath => {
                let mut d: Vec<i64> = (0..n * n).map(|_| rng.range(1, 99)).collect();
                for i in 0..n {
                    d[i * n + i] = 0;
                }
                d
            }
            Kernel::Ranksort => (0..n).map(|_| rng.range(0, 2 * n as i64)).collect(),
            Kernel::Jacobi => (0..n * n).map(|_| rng.range(0, 100)).collect(),
            Kernel::Grid => {
                let open = |i: usize| i == 0 || i == 1 || i == n;
                (0..n * n)
                    .map(|i| match i {
                        0 => 0,
                        _ if !open(i) && rng.chance(WALL_DENSITY) => WALLV,
                        _ => DMAX,
                    })
                    .collect()
            }
            Kernel::Histogram => (0..n).map(|_| rng.range(0, 9)).collect(),
        }
    }

    /// The kernel's output computed without `uc_cm`.
    fn reference(&self, input: &[i64]) -> Output {
        let n = self.n;
        match self.kernel {
            Kernel::Fig6 | Kernel::Fig7 | Kernel::ShortestPath => {
                Output::Ints(oracle::floyd_warshall(input.to_vec(), n))
            }
            Kernel::Ranksort => {
                let mut v = input.to_vec();
                v.sort();
                Output::Ints(v)
            }
            Kernel::Jacobi => {
                let mut u: Vec<f64> = input.iter().map(|&x| x as f64).collect();
                let mut v = u.clone();
                for _ in 0..self.steps {
                    for i in 1..n - 1 {
                        for j in 1..n - 1 {
                            v[i * n + j] = (u[(i - 1) * n + j]
                                + u[(i + 1) * n + j]
                                + u[i * n + j - 1]
                                + u[i * n + j + 1])
                                / 4.0;
                        }
                    }
                    for i in 1..n - 1 {
                        for j in 1..n - 1 {
                            u[i * n + j] = v[i * n + j];
                        }
                    }
                }
                Output::Floats(u)
            }
            Kernel::Grid => {
                let walls: Vec<bool> = input.iter().map(|&x| x == WALLV).collect();
                let dist = oracle::grid_bfs(n, n, &walls);
                Output::Ints(
                    dist.iter()
                        .zip(&walls)
                        .map(|(d, &w)| match (d, w) {
                            (_, true) => WALLV,
                            (Some(d), false) => *d as i64,
                            (None, false) => DMAX,
                        })
                        .collect(),
                )
            }
            Kernel::Histogram => {
                let mut count = vec![0i64; 10];
                for &s in input {
                    count[s as usize] += 1;
                }
                Output::Ints(count)
            }
        }
    }
}

#[derive(PartialEq, Debug)]
enum Output {
    Ints(Vec<i64>),
    Floats(Vec<f64>),
}

/// One request of the deck: a variant and its seeded input.
struct Entry {
    variant: usize,
    input: Vec<i64>,
    /// Filled on first use, outside the timed section.
    expected: Option<Output>,
}

/// Which language workload, and so which variants its deck draws from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum LangKind {
    /// Every request compiles; all VP sets stay below `PAR_THRESHOLD`.
    Small,
    /// Router/ALU-heavy APSP above the threshold, compiled in set-up.
    Apsp,
    /// NEWS/context/scan-heavy grid and Jacobi, compiled in set-up.
    Grid,
}

/// The deck: the requests a run cycles through, in seeded order, plus the
/// variants they use. Built before set-up, so set-up time excludes it.
pub struct Deck {
    kind: LangKind,
    variants: Vec<Variant>,
    entries: Vec<Entry>,
}

impl Deck {
    pub fn new(kind: LangKind, seed: u64) -> Deck {
        let mut rng = Rng::new(seed);
        let v = |kernel, n| Variant {
            kernel,
            n,
            steps: 10,
        };
        // (variant, copies in the deck)
        let plan: Vec<(Variant, usize)> = match kind {
            // Every (program, N) pair once: the draw is a seeded order and
            // seeded inputs over a fixed grid, so the latency distribution
            // has the same shape for every seed.
            LangKind::Small => Kernel::ALL
                .iter()
                .flat_map(|&k| (4..=16).map(move |n| (v(k, n), 1)))
                .collect(),
            // Latency clusters by variant. Of the 25 requests, ranks 10-15
            // are fig7 at N=29 and 21-25 fig6, so `req_ms.p50` (rank 12.5)
            // and `req_ms.p90` (rank 22.5) fall inside a cluster rather
            // than on the edge between two.
            LangKind::Apsp => (24..=32)
                .map(|n| (v(Kernel::Fig7, n), if n == 29 { 5 } else { 2 }))
                .chain([(v(Kernel::Fig6, 96), 4)])
                .collect(),
            LangKind::Grid => vec![
                (v(Kernel::Grid, 91), 3),
                (v(Kernel::Grid, 96), 3),
                (
                    Variant {
                        kernel: Kernel::Jacobi,
                        n: 128,
                        steps: 90,
                    },
                    3,
                ),
            ],
        };
        let mut variants = Vec::new();
        let mut entries = Vec::new();
        for (variant, copies) in plan {
            variants.push(variant);
            for _ in 0..copies {
                let input = variant.input(&mut rng);
                entries.push(Entry {
                    variant: variants.len() - 1,
                    input,
                    expected: None,
                });
            }
        }
        rng.shuffle(&mut entries);
        Deck {
            kind,
            variants,
            entries,
        }
    }
}

/// A language workload after set-up.
pub struct LangWorkload {
    deck: Deck,
    /// One compiled program per variant, unless every request compiles.
    programs: Vec<Program>,
    tokens: u64,
}

/// Separate calls into each front-end phase on the variant's source, so
/// the traced phase can time them one by one. Returns the tokens lexed.
fn trace_front_end(v: &Variant, t: &mut Tracer) -> Result<u64, String> {
    let src = v.kernel.source();
    let mut diags = Diagnostics::default();
    t.enter("frontend");
    t.enter("lexer");
    let tokens = lexer::lex(src, &mut diags).tokens.len() as u64;
    t.exit();
    t.enter("parser");
    let unit = parser::parse(src, &mut diags);
    t.exit();
    let mut unit = unit.ok_or_else(|| diags.to_string())?;
    for (name, value) in v.defines() {
        match unit.defines.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => unit.defines.push((name.to_string(), value)),
        }
    }
    t.enter("opt");
    opt::fold_unit(&mut unit);
    t.exit();
    t.enter("sema");
    let checked = sema::check(unit, &mut diags);
    t.exit();
    let checked = checked.ok_or_else(|| diags.to_string())?;
    t.enter("mapping");
    mapping::interpret_maps(&checked, &mut diags);
    t.exit();
    t.exit();
    Ok(tokens)
}

fn compile(v: &Variant, t: &mut Tracer) -> Result<Program, String> {
    t.enter("compile");
    let p = Program::compile_with_defines(v.kernel.source(), ExecConfig::default(), &v.defines());
    t.exit();
    p.map_err(|d| d.to_string())
}

impl LangWorkload {
    /// Compile every program of the workload and run each once (the
    /// warm-up). Front-end spans are recorded when `t` is on, over
    /// `TRACED_COMPILES` compiles per program; the warm-up runs are not
    /// traced.
    pub fn setup(deck: Deck, t: &mut Tracer) -> Result<LangWorkload, String> {
        let mut w = LangWorkload {
            deck,
            programs: Vec::new(),
            tokens: 0,
        };
        let compiles = if t.is_on() { TRACED_COMPILES } else { 1 };
        for (vi, v) in w.deck.variants.clone().iter().enumerate() {
            let mut p = None;
            for _ in 0..compiles {
                if t.is_on() {
                    w.tokens += trace_front_end(v, t)?;
                }
                p = Some(compile(v, t)?);
            }
            let mut p = p.expect("compiled at least once");
            let entry = w
                .deck
                .entries
                .iter()
                .find(|e| e.variant == vi)
                .expect("variant used");
            p.write_int_array(v.kernel.input_array(), &entry.input)
                .map_err(|e| e.to_string())?;
            p.run().map_err(|e| e.to_string())?;
            if w.deck.kind != LangKind::Small {
                w.programs.push(p);
            }
        }
        Ok(w)
    }
}

impl Workload for LangWorkload {
    fn deck_len(&self) -> usize {
        self.deck.entries.len()
    }

    fn request(&mut self, e: usize, t: &mut Tracer) -> Sample {
        let vi = self.deck.entries[e].variant;
        let v = self.deck.variants[vi];
        let small = self.deck.kind == LangKind::Small;
        let mut s = Sample::default();
        let mut fresh = None;
        t.enter("request");
        let start = Instant::now();
        if small {
            match compile(&v, t) {
                Ok(p) => fresh = Some(p),
                Err(_) => {
                    t.exit();
                    s.ns = start.elapsed().as_nanos() as u64;
                    return s;
                }
            }
        }
        let p = match fresh.as_mut() {
            Some(p) => p,
            None => &mut self.programs[vi],
        };
        let entry = &self.deck.entries[e];
        t.enter("io.write");
        let wrote = p.write_int_array(v.kernel.input_array(), &entry.input);
        t.exit();
        p.reset_clock();
        let live_before = p.machine().live_fields() as i64;
        t.enter("exec.run");
        let (a0, b0) = alloc_snapshot();
        let ran = p.run();
        let (a1, b1) = alloc_snapshot();
        t.exit();
        let m = p.machine();
        let c = m.counters();
        s.counts = Counts {
            cycles: m.cycles(),
            ops: [c.alu, c.context, c.news, c.router, c.scan, c.front_end],
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
        };
        s.mem_bytes = m.mem_bytes();
        s.high_water = m.scratch_high_water() as u64;
        t.enter("io.read");
        let out = match v.kernel {
            Kernel::Jacobi => p
                .read_float_array(v.kernel.output_array())
                .map(Output::Floats),
            _ => p.read_int_array(v.kernel.output_array()).map(Output::Ints),
        };
        t.exit();
        s.ns = start.elapsed().as_nanos() as u64;
        t.exit();
        // Leak check: a fresh program's first run fills its geometry
        // caches, so a compiled-per-request program is run once more,
        // untimed, and only that repeat must leave no field live.
        s.live_delta = if let Some(p) = fresh.as_mut() {
            let live = p.machine().live_fields() as i64;
            let _ = p.run();
            p.machine().live_fields() as i64 - live
        } else {
            self.programs[vi].machine().live_fields() as i64 - live_before
        };

        // After the request's span, so traced latency excludes it.
        let front_end = if small && t.is_on() {
            trace_front_end(&v, t).map(|tokens| self.tokens += tokens)
        } else {
            Ok(())
        };

        let entry = &mut self.deck.entries[e];
        let expected = entry
            .expected
            .get_or_insert_with(|| v.reference(&entry.input));
        s.ok = front_end.is_ok()
            && wrote.is_ok()
            && ran.is_ok()
            && out.as_ref().is_ok_and(|o| o == expected);
        s
    }

    fn tally(&self, name: &str) -> u64 {
        match name {
            "lexer.tokens" => self.tokens,
            _ => 0,
        }
    }
}
