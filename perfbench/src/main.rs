//! One layered benchmark for the UC workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client: the next request is
//! sent when the previous one has finished. The requests come from a deck
//! generated from `--seed`; the loop cycles through the deck until
//! `--seconds` have passed. Every output is checked, outside the timed
//! section, against a reference that does not use the code under test.
//!
//! * `--trace 0` prints the end-to-end metrics of one untraced run.
//! * `--trace 1` splits the time into an untraced run, a traced run (spans
//!   around every call into a layer, written to `perfbench/out/`), and a
//!   child run at `UC_THREADS=1`, and prints the per-layer metrics. The
//!   deterministic counts (simulated cycles, machine ops by class, heap
//!   allocations per run) must agree exactly across the three runs.
//!
//! `sim_cycles`, `machine_ops`, `machine.ops.*` and `exec.allocs_per_req`
//! are taken over one pass of the deck, so they are fixed for a seed.
//! `req_per_s` is requests completed correctly per second spent inside
//! requests, so the untimed output checks do not count. `setup_s` is the
//! median of set-ups spread over the run: each replaces the running
//! workload with a fresh one, so it samples the same host as the
//! requests. `UC_THREADS` is the host's CPU count, or 1 for the child
//! run. Per-layer
//! metrics of a layer a workload never calls (the front end on
//! `machine_prims`, per-element machine costs on the language workloads)
//! read 0.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits 1 if any output was wrong or a count differed, and 2
//! on bad arguments or environment.

mod lang;
mod prims;
mod stats;
mod trace;

use std::process::{Command, ExitCode};
use std::time::Instant;

use stats::{median, percentile};
use trace::{LayerTimes, Tracer};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Deterministic counts of one request: equal inputs must give equal
/// counts, whatever the thread count or tracing.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Counts {
    /// Simulated CM cycles.
    pub cycles: u64,
    /// Machine instructions by class: alu, context, news, router, scan,
    /// front end.
    pub ops: [u64; 6],
    /// Heap allocations while the request ran (`Program::run`, or the op
    /// chain for `machine_prims`).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// What one request measured.
#[derive(Default)]
pub struct Sample {
    /// Latency of the timed section.
    pub ns: u64,
    /// No error, and the output matched the reference.
    pub ok: bool,
    pub counts: Counts,
    /// `Machine::live_fields` after the request minus before it.
    pub live_delta: i64,
    pub mem_bytes: u64,
    pub high_water: u64,
}

pub trait Workload {
    fn deck_len(&self) -> usize;
    /// Run deck entry `entry` once and check its output.
    fn request(&mut self, entry: usize, t: &mut Tracer) -> Sample;
    /// A workload-specific tally (`lexer.tokens`, `compiles`, or the
    /// elements an op kind touched), accumulated over traced requests.
    fn tally(&self, name: &str) -> u64;
}

const WORKLOADS: [&str; 4] = [
    "small_programs",
    "apsp_large",
    "grid_large",
    "machine_prims",
];

/// A `--trace 0` run sets up again whenever set-ups have taken less than
/// this share of the time so far, and at least `SETUP_MIN_REPS` times.
const SETUP_SHARE: f64 = 0.1;
const SETUP_MIN_REPS: usize = 3;
/// The untraced run must leave at least ten requests beyond `req_ms.p90`.
const MIN_TAIL_REQUESTS: usize = 100;
/// Warm `run_chunks` dispatches timed for `pool.dispatch_us`.
const DISPATCH_REPS: usize = 2000;
/// Elements whose chunk count `pool.dispatch_us` dispatches: fig7 at N=32.
const DISPATCH_ELEMS: usize = 1 << 15;

/// A workload's seeded inputs, generated before set-up so set-up time
/// excludes them.
enum Deck {
    Lang(lang::Deck),
    Prims(prims::Deck),
}

fn deck(workload: &str, seed: u64) -> Deck {
    match workload {
        "small_programs" => Deck::Lang(lang::Deck::new(lang::LangKind::Small, seed)),
        "apsp_large" => Deck::Lang(lang::Deck::new(lang::LangKind::Apsp, seed)),
        "grid_large" => Deck::Lang(lang::Deck::new(lang::LangKind::Grid, seed)),
        _ => Deck::Prims(prims::Deck::new(seed)),
    }
}

fn setup(deck: Deck, t: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    // Starts the pool on first use, so the first set-up pays for it.
    rayon::current_num_threads();
    Ok(match deck {
        Deck::Lang(d) => Box::new(lang::LangWorkload::setup(d, t)?),
        Deck::Prims(d) => Box::new(prims::PrimsWorkload::setup(d)?),
    })
}

/// The timed set-ups of a `--trace 0` run.
struct Setups<'a> {
    args: &'a Args,
    secs: Vec<f64>,
}

impl Setups<'_> {
    fn spent(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Replace `w` with a freshly set-up workload. The old one is dropped
    /// first, so peak RSS never holds two.
    fn redo(&mut self, w: &mut Option<Box<dyn Workload>>, t: &mut Tracer) -> Result<(), String> {
        drop(w.take());
        let d = deck(&self.args.workload, self.args.seed);
        let start = Instant::now();
        *w = Some(setup(d, t)?);
        self.secs.push(start.elapsed().as_secs_f64());
        Ok(())
    }
}

/// One closed-loop run.
struct Phase {
    lat_ms: Vec<f64>,
    busy_ns: u64,
    failed: u64,
    /// Counts of the first pass over the deck, per entry.
    first: Vec<Counts>,
    /// Later requests whose cycles or op counts differed from the same
    /// entry's first pass.
    drift: u64,
    live_delta_max: i64,
    mem_max: u64,
    high_water_max: u64,
}

impl Phase {
    fn attempted(&self) -> u64 {
        self.lat_ms.len() as u64
    }

    /// Requests completed correctly per second spent inside requests.
    fn req_per_s(&self) -> f64 {
        (self.attempted() - self.failed) as f64 / (self.busy_ns as f64 / 1e9)
    }

    fn p50(&self) -> f64 {
        median(&self.lat_ms)
    }

    fn sum(&self, f: impl Fn(&Counts) -> u64) -> u64 {
        self.first.iter().map(f).sum()
    }

    /// FNV-1a over the first pass's cycles and op counts.
    fn op_digest(&self) -> u64 {
        fnv(self
            .first
            .iter()
            .flat_map(|c| std::iter::once(c.cycles).chain(c.ops)))
    }

    fn alloc_digest(&self) -> u64 {
        fnv(self.first.iter().map(|c| c.allocs))
    }
}

fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x100_0000_01b3)
    })
}

/// Cycle through the deck until `secs` have passed and at least
/// `min_requests` (and one full pass) have completed. With `setups`, set
/// up again between requests while set-ups have taken less than
/// `SETUP_SHARE` of the time.
fn run_phase(
    w: &mut Option<Box<dyn Workload>>,
    secs: f64,
    min_requests: usize,
    t: &mut Tracer,
    mut setups: Option<&mut Setups>,
) -> Result<Phase, String> {
    let n = w.as_ref().expect("set up").deck_len();
    let mut ph = Phase {
        lat_ms: Vec::new(),
        busy_ns: 0,
        failed: 0,
        first: Vec::with_capacity(n),
        drift: 0,
        live_delta_max: 0,
        mem_max: 0,
        high_water_max: 0,
    };
    let start = Instant::now();
    let mut i = 0;
    while i < n.max(min_requests) || start.elapsed().as_secs_f64() < secs {
        let e = i % n;
        t.set_request(i);
        let s = w.as_mut().expect("set up").request(e, t);
        ph.lat_ms.push(s.ns as f64 / 1e6);
        ph.busy_ns += s.ns;
        if !s.ok || s.live_delta != 0 {
            ph.failed += 1;
        }
        if i < n {
            ph.first.push(s.counts);
        } else {
            let f = &ph.first[e];
            if f.cycles != s.counts.cycles || f.ops != s.counts.ops {
                ph.drift += 1;
            }
        }
        ph.live_delta_max = ph.live_delta_max.max(s.live_delta.abs());
        ph.mem_max = ph.mem_max.max(s.mem_bytes);
        ph.high_water_max = ph.high_water_max.max(s.high_water);
        i += 1;
        if let Some(su) = setups.as_deref_mut() {
            if su.spent() < SETUP_SHARE * start.elapsed().as_secs_f64() {
                su.redo(w, t)?;
            }
        }
    }
    Ok(ph)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// Metrics in print order: (name, value, unit).
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, m: &Metrics) {
    let body: Vec<String> =
        m.0.iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// `--trace 0`: one untraced run, with set-ups spread over it.
fn end_to_end(a: &Args) -> Result<ExitCode, String> {
    let mut t = Tracer::new(false);
    let mut setups = Setups {
        args: a,
        secs: Vec::new(),
    };
    let mut w = None;
    setups.redo(&mut w, &mut t)?;
    let ph = run_phase(
        &mut w,
        a.seconds,
        MIN_TAIL_REQUESTS,
        &mut t,
        Some(&mut setups),
    )?;
    while setups.secs.len() < SETUP_MIN_REPS {
        setups.redo(&mut w, &mut t)?;
    }
    let mut m = Metrics(Vec::new());
    m.add("req_ms.p50", ph.p50(), "ms");
    m.add("req_ms.p90", percentile(&ph.lat_ms, 0.9), "ms");
    m.add("req_per_s", ph.req_per_s(), "1/s");
    m.add("setup_s", median(&setups.secs), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MiB");
    m.add("sim_cycles", ph.sum(|c| c.cycles) as f64, "cycles");
    m.add("machine_ops", ph.sum(|c| c.ops.iter().sum()) as f64, "ops");
    let correct = ph.failed == 0 && ph.drift == 0;
    if ph.drift != 0 {
        eprintln!(
            "determinism: {} requests repeated with different cycles or op counts",
            ph.drift
        );
    }
    print_result(correct, ph.attempted(), ph.failed, &m);
    Ok(exit_code(correct))
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The summary a `--child` run prints for its parent.
struct ChildReport {
    p50: f64,
    attempted: u64,
    failed: u64,
    op_digest: u64,
    alloc_digest: u64,
}

fn child_line(ph: &Phase) -> String {
    format!(
        "child p50_ms={} attempted={} failed={} op_digest={} alloc_digest={}",
        ph.p50(),
        ph.attempted(),
        ph.failed + ph.drift,
        ph.op_digest(),
        ph.alloc_digest()
    )
}

fn parse_child(out: &str) -> Option<ChildReport> {
    let line = out.lines().rev().find(|l| l.starts_with("child "))?;
    let field = |k: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(k)?.strip_prefix('='))
    };
    Some(ChildReport {
        p50: field("p50_ms")?.parse().ok()?,
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        op_digest: field("op_digest")?.parse().ok()?,
        alloc_digest: field("alloc_digest")?.parse().ok()?,
    })
}

/// Re-run this workload in a child process at `UC_THREADS=1`: the pool is
/// sized once per process.
fn run_child(a: &Args, secs: f64) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &a.workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &secs.to_string(), "--trace", "0", "--child"])
        .output()
        .map_err(|e| format!("child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "child run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    parse_child(&stdout).ok_or_else(|| format!("child run printed no report: {stdout}"))
}

/// `--trace 1`: untraced, traced and `UC_THREADS=1` runs of a third of
/// the time each; per-layer metrics from the traced run.
fn per_layer(a: &Args) -> Result<ExitCode, String> {
    let third = a.seconds / 3.0;
    let mut off = Tracer::new(false);
    let mut w = Some(setup(deck(&a.workload, a.seed), &mut off)?);
    let plain = run_phase(&mut w, third, 0, &mut off, None)?;
    drop(w);

    let mut t = Tracer::new(true);
    let mut w = Some(setup(deck(&a.workload, a.seed), &mut t)?);
    let traced = run_phase(&mut w, third, 0, &mut t, None)?;
    let dispatch_us = pool_dispatch_us(&mut t);
    let child = run_child(a, third)?;

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", a.workload));
    t.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let lt = t.layer_times();

    let mut deterministic = true;
    for (what, ours, theirs) in [
        (
            "cycles/op counts (traced)",
            plain.op_digest(),
            traced.op_digest(),
        ),
        (
            "cycles/op counts (UC_THREADS=1)",
            plain.op_digest(),
            child.op_digest,
        ),
        (
            "allocations (traced)",
            plain.alloc_digest(),
            traced.alloc_digest(),
        ),
        (
            "allocations (UC_THREADS=1)",
            plain.alloc_digest(),
            child.alloc_digest,
        ),
    ] {
        if ours != theirs {
            eprintln!("determinism: {what} differ from the untraced run");
            deterministic = false;
        }
    }
    let drift = plain.drift + traced.drift;
    if drift != 0 {
        eprintln!("determinism: {drift} requests repeated with different cycles or op counts");
    }
    let attempted = plain.attempted() + traced.attempted() + child.attempted;
    let failed = plain.failed + traced.failed + child.failed;

    let w = w.expect("set up");
    let mut m = layer_metrics(w.as_ref(), &lt, &plain, &traced, &child, dispatch_us);
    m.add("failed_frac", failed as f64 / attempted as f64, "ratio");
    let correct = failed == 0 && drift == 0 && deterministic;
    print_result(correct, attempted, failed, &m);
    Ok(exit_code(correct))
}

/// Median of `DISPATCH_REPS` warm `run_chunks` calls over no-op chunks.
fn pool_dispatch_us(t: &mut Tracer) -> f64 {
    let chunks = uc_cm::par::chunk_count(DISPATCH_ELEMS);
    let noop = |k: usize| {
        std::hint::black_box(k);
    };
    rayon::pool::run_chunks(chunks, &noop);
    let mut us = Vec::with_capacity(DISPATCH_REPS);
    for _ in 0..DISPATCH_REPS {
        t.enter("pool.dispatch");
        let start = Instant::now();
        rayon::pool::run_chunks(chunks, &noop);
        us.push(start.elapsed().as_nanos() as f64 / 1e3);
        t.exit();
    }
    median(&us)
}

fn layer_metrics(
    w: &dyn Workload,
    lt: &LayerTimes,
    plain: &Phase,
    traced: &Phase,
    child: &ChildReport,
    dispatch_us: f64,
) -> Metrics {
    let mut m = Metrics(Vec::new());
    let us = |ns: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / n as f64
        }
    };
    let per_elem = |name: &str| {
        let elems = w.tally(name);
        if elems == 0 {
            0.0
        } else {
            lt.self_ns(name) as f64 / elems as f64
        }
    };

    // Front end: per compile, from the phase-by-phase calls.
    let compiles = lt.count("compile");
    let lex = lt.self_ns("lexer");
    let parse = lt.self_ns("parser");
    let phases = parse + lt.self_ns("opt") + lt.self_ns("sema") + lt.self_ns("mapping");
    m.add("lexer.us", us(lex, compiles), "us");
    m.add("parser.us", us(parse.saturating_sub(lex), compiles), "us");
    m.add("opt.us", us(lt.self_ns("opt"), compiles), "us");
    m.add("sema.us", us(lt.self_ns("sema"), compiles), "us");
    m.add("mapping.us", us(lt.self_ns("mapping"), compiles), "us");
    m.add("compile.us", us(lt.self_ns("compile"), compiles), "us");
    m.add(
        "compile.rest_us",
        us(lt.self_ns("compile"), compiles) - us(phases, compiles),
        "us",
    );
    m.add(
        "lexer.tokens",
        w.tally("lexer.tokens") as f64 / compiles.max(1) as f64,
        "count",
    );

    // Executor.
    let runs = lt.count("exec.run");
    let run_ns = lt.self_ns("exec.run");
    let requests = traced.attempted();
    let first_n = traced.first.len().max(1) as f64;
    let ops_per_req = traced.sum(|c| c.ops.iter().sum()) as f64 / first_n;
    m.add("exec.run_us", us(run_ns, runs), "us");
    m.add(
        "exec.ns_per_op",
        if ops_per_req == 0.0 {
            0.0
        } else {
            us(run_ns, runs) * 1e3 / ops_per_req
        },
        "ns",
    );
    m.add(
        "exec.io_us",
        us(lt.self_ns("io.write") + lt.self_ns("io.read"), requests),
        "us",
    );
    m.add(
        "exec.allocs_per_req",
        plain.sum(|c| c.allocs) as f64 / first_n,
        "count",
    );
    m.add(
        "exec.alloc_bytes_per_req",
        plain.sum(|c| c.alloc_bytes) as f64 / first_n,
        "bytes",
    );

    // Machine: ns per element by op kind (machine_prims only), and exact
    // counts over one pass of the deck.
    for (metric, span) in [
        ("ops.alu.ns_per_elem", "ops.alu"),
        ("context.ns_per_elem", "context"),
        ("news.ns_per_elem", "news"),
        ("router.send.ns_per_elem", "router.send"),
        ("router.get.ns_per_elem", "router.get"),
        ("scan.scan.ns_per_elem", "scan.scan"),
        ("scan.reduce.ns_per_elem", "scan.reduce"),
    ] {
        m.add(metric, per_elem(span), "ns");
    }
    for (k, name) in [
        "machine.ops.alu",
        "machine.ops.context",
        "machine.ops.news",
        "machine.ops.router",
        "machine.ops.scan",
        "machine.ops.front_end",
    ]
    .into_iter()
    .enumerate()
    {
        m.add(name, plain.sum(|c| c.ops[k]) as f64, "ops");
    }
    m.add(
        "machine.scratch_high_water",
        plain.high_water_max as f64,
        "count",
    );
    m.add("machine.mem_bytes", plain.mem_max as f64, "bytes");
    m.add(
        "machine.live_fields_delta",
        plain.live_delta_max.max(traced.live_delta_max) as f64,
        "count",
    );

    // Pool and tracing.
    m.add("pool.threads", rayon::current_num_threads() as f64, "count");
    m.add("pool.dispatch_us", dispatch_us, "us");
    m.add("pool.speedup", child.p50 / plain.p50(), "ratio");
    m.add(
        "trace.overhead_pct",
        (traced.p50() / plain.p50() - 1.0) * 100.0,
        "%",
    );
    m
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // An ambient executor switch would silently change what a baseline
    // measures.
    for var in ["UC_EXEC", "UC_IR_OPT"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set");
            return ExitCode::from(2);
        }
    }
    // Sizes the pool, which reads UC_THREADS once, on first use.
    let threads = if a.child {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    std::env::set_var("UC_THREADS", threads.to_string());

    let result = if a.child {
        let mut t = Tracer::new(false);
        setup(deck(&a.workload, a.seed), &mut t)
            .and_then(|w| run_phase(&mut Some(w), a.seconds, 0, &mut t, None))
            .map(|ph| {
                println!("{}", child_line(&ph));
                ExitCode::SUCCESS
            })
    } else if a.trace {
        per_layer(&a)
    } else {
        end_to_end(&a)
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(1)
    })
}
