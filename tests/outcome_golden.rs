//! Golden outcomes for every committed UC program.
//!
//! Each example, lint-corpus and hostile-corpus program is compiled and
//! run with explicitly pinned budgets, and its observable outcome is
//! rendered as one line of `tests/corpus/golden/outcomes.txt`:
//!
//! ```text
//! <path> cycles=<n> alu=<n> news=<n> router=<n> scan=<n> context=<n> front_end=<n> globals=<fnv>
//! <path> cycles=<n> ... error=<RunError debug text>
//! <path> rejected=<compile diagnostics>
//! ```
//!
//! `globals` is an FNV-1a digest over every global scalar and array
//! (sorted by name, floats by bit pattern). A run that traps records the
//! full `RunError` instead — variant, span and UC call stack. Any change
//! to simulated cycles, op counters, results or error reporting shows up
//! as a diff against the committed file. CI runs this suite under
//! `UC_THREADS=1` and `8`, so the file also pins thread-count invariance.
//!
//! After an intentional change, regenerate the file with
//! `cargo test --test outcome_golden -- --ignored` and review the diff.

use std::path::{Path, PathBuf};

use uc::lang::{ExecConfig, ExecLimits, Program};

const GOLDEN: &str = "tests/corpus/golden/outcomes.txt";

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run one program and render its golden line (without the path).
fn observe(src: &str, cfg: ExecConfig) -> String {
    let mut p = match Program::compile_with(src, cfg) {
        Ok(p) => p,
        Err(d) => return format!("rejected={}", d.to_string().trim_end().replace('\n', " | ")),
    };
    let run = p.run();
    // Capture the cost model before reading arrays back.
    let k = p.machine().counters();
    let mut line = format!(
        "cycles={} alu={} news={} router={} scan={} context={} front_end={}",
        p.cycles(),
        k.alu,
        k.news,
        k.router,
        k.scan,
        k.context,
        k.front_end
    );
    match run {
        Err(e) => line.push_str(&format!(" error={e:?}")),
        Ok(()) => {
            let mut state = String::new();
            let mut scalars = p.scalar_names();
            scalars.sort();
            for name in scalars {
                if let Some(v) = p.read_scalar(&name) {
                    state.push_str(&format!("{name} = {v:?}\n"));
                }
            }
            let mut arrays = p.array_names();
            arrays.sort();
            for name in arrays {
                if let Ok(data) = p.read_int_array(&name) {
                    state.push_str(&format!("{name} = {data:?}\n"));
                } else if let Ok(data) = p.read_float_array(&name) {
                    let bits: Vec<u64> = data.iter().map(|f| f.to_bits()).collect();
                    state.push_str(&format!("{name} = {bits:?}\n"));
                }
            }
            line.push_str(&format!(" globals={:016x}", fnv(state.as_bytes())));
        }
    }
    line
}

/// Deterministic tight budgets for the hostile corpus: every attack
/// program must trap on fuel, memory, depth or the iteration cap —
/// never the wall clock, whose timing would make the outcome flaky.
fn hostile_limits() -> ExecLimits {
    ExecLimits {
        fuel: Some(50_000),
        max_mem_bytes: Some(1 << 20),
        max_call_depth: 16,
        max_iterations: 1_000,
        ..Default::default()
    }
}

fn uc_files(dir: &str) -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "uc"))
        .map(|p| p.strip_prefix(root).unwrap().to_path_buf())
        .collect();
    files.sort();
    files
}

/// Every golden input (relative to the repo root) with its budgets.
fn corpus() -> Vec<(PathBuf, ExecLimits)> {
    let mut inputs = Vec::new();
    for f in uc_files("examples/uc") {
        inputs.push((f, ExecLimits::default()));
    }
    for f in uc_files("tests/corpus") {
        inputs.push((f, ExecLimits::default()));
    }
    for f in uc_files("tests/corpus/hostile") {
        inputs.push((f, hostile_limits()));
    }
    assert!(inputs.len() >= 20, "golden corpus shrank to {}", inputs.len());
    inputs
}

/// The golden file's contents as the executor produces them.
fn render() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = String::new();
    for (path, limits) in corpus() {
        let src = std::fs::read_to_string(root.join(&path)).unwrap();
        let cfg = ExecConfig { limits, ..Default::default() };
        out.push_str(&format!("{} {}\n", path.display(), observe(&src, cfg)));
    }
    out
}

#[test]
fn every_program_reproduces_its_golden_outcome() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    let actual = render();
    for (want, got) in golden.lines().zip(actual.lines()) {
        assert_eq!(got, want, "outcome differs from {GOLDEN}");
    }
    assert_eq!(golden.lines().count(), actual.lines().count(), "{GOLDEN} lists other programs");
}

/// Rewrites the golden file; run with `--ignored` after a reviewed change.
#[test]
#[ignore]
fn regenerate_golden_outcomes() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    std::fs::write(path, render()).unwrap();
}
