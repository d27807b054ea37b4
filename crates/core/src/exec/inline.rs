//! Whether a run may stay on the caller's thread.
//!
//! The tree-walker recurses natively once per AST level it enters and once
//! per UC call. Without recursion in the program, both are bounded by the
//! program text: the deepest call chain from `main`, with each function on
//! it contributing the nesting depth of its body. [`runs_inline`] sums that
//! depth; within [`MAX_INLINE_DEPTH`] it fits any thread's default stack,
//! so [`super::Program::run`] skips spawning its big-stack thread.

use std::collections::HashMap;

use crate::analysis::callees;
use crate::ast::{Expr, IndexSetInit, Stmt};
use crate::sema::Checked;

/// Largest summed AST depth along `main`'s deepest call chain that still
/// runs on the caller's thread.
const MAX_INLINE_DEPTH: usize = 96;

/// True when the call graph reachable from `main` has no cycle and the
/// summed AST depth of the functions along its deepest call chain is at
/// most [`MAX_INLINE_DEPTH`].
pub(super) fn runs_inline(checked: &Checked) -> bool {
    chain_depth(checked, "main", MAX_INLINE_DEPTH, &mut HashMap::new()).is_some()
}

/// Summed depth of the deepest call chain starting at `name`, or `None`
/// when that chain recurses or exceeds `budget`. `memo` holds finished
/// depths, and `None` for functions on the current path, so a call back
/// into one is a cycle. Each level spends at least one unit of `budget`,
/// which bounds this function's own recursion.
fn chain_depth(
    checked: &Checked,
    name: &str,
    budget: usize,
    memo: &mut HashMap<String, Option<usize>>,
) -> Option<usize> {
    // Builtins and undefined names add no UC frames.
    let Some(f) = checked.funcs.get(name) else { return Some(0) };
    if let Some(&done) = memo.get(name) {
        return done.filter(|&d| d <= budget);
    }
    let own = 1 + f.body.stmts.iter().map(stmt_depth).max().unwrap_or(0);
    let below = budget.checked_sub(own)?;
    memo.insert(name.to_string(), None);
    let mut deepest = 0;
    for callee in callees(f) {
        deepest = deepest.max(chain_depth(checked, &callee, below, memo)?);
    }
    memo.insert(name.to_string(), Some(own + deepest));
    Some(own + deepest)
}

fn stmt_depth(s: &Stmt) -> usize {
    let d = match s {
        Stmt::Expr(e) => expr_depth(e),
        Stmt::Decl(v) => v.dims.iter().chain(v.init.as_ref()).map(expr_depth).max().unwrap_or(0),
        Stmt::IndexSets(defs) => defs
            .iter()
            .map(|d| match &d.init {
                IndexSetInit::Range(a, b) => expr_depth(a).max(expr_depth(b)),
                IndexSetInit::List(es) => es.iter().map(expr_depth).max().unwrap_or(0),
                IndexSetInit::Alias(_) => 0,
            })
            .max()
            .unwrap_or(0),
        Stmt::Block(b) => b.stmts.iter().map(stmt_depth).max().unwrap_or(0),
        Stmt::If { cond, then_branch, else_branch, .. } => expr_depth(cond)
            .max(stmt_depth(then_branch))
            .max(else_branch.as_deref().map_or(0, stmt_depth)),
        Stmt::While { cond, body, .. } => expr_depth(cond).max(stmt_depth(body)),
        Stmt::For { init, cond, step, body, .. } => init
            .iter()
            .chain(cond)
            .chain(step)
            .map(expr_depth)
            .max()
            .unwrap_or(0)
            .max(stmt_depth(body)),
        Stmt::Return(e, _) => e.as_ref().map_or(0, expr_depth),
        Stmt::Uc(uc) => uc
            .arms
            .iter()
            .map(|a| a.pred.as_ref().map_or(0, expr_depth).max(stmt_depth(&a.body)))
            .max()
            .unwrap_or(0)
            .max(uc.others.as_deref().map_or(0, stmt_depth)),
        Stmt::Break(_) | Stmt::Continue(_) | Stmt::Empty => 0,
    };
    d + 1
}

fn expr_depth(e: &Expr) -> usize {
    let d = match e {
        Expr::IntLit(..) | Expr::FloatLit(..) | Expr::Inf(_) | Expr::Ident(..) => 0,
        Expr::Index { subs: es, .. } | Expr::Call { args: es, .. } => {
            es.iter().map(expr_depth).max().unwrap_or(0)
        }
        Expr::Unary { expr, .. } => expr_depth(expr),
        Expr::Binary { lhs, rhs, .. } => expr_depth(lhs).max(expr_depth(rhs)),
        Expr::Ternary { cond, then_e, else_e, .. } => {
            expr_depth(cond).max(expr_depth(then_e)).max(expr_depth(else_e))
        }
        Expr::Assign { target, value, .. } => expr_depth(target).max(expr_depth(value)),
        Expr::Reduce(r) => r
            .arms
            .iter()
            .map(|(p, o)| p.as_ref().map_or(0, expr_depth).max(expr_depth(o)))
            .max()
            .unwrap_or(0)
            .max(r.others.as_ref().map_or(0, expr_depth)),
    };
    d + 1
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use crate::Program;

    fn repo_file(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    fn inline(src: &str) -> bool {
        Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}")).inline
    }

    /// The source of one `pub const NAME: &str = r#"..."#;` kernel of the
    /// figure harness.
    fn bench_kernel(name: &str) -> String {
        let lib = repo_file("crates/bench/src/lib.rs");
        let start = format!("pub const {name}: &str = r#\"");
        let from = lib.find(&start).unwrap_or_else(|| panic!("{name} not found")) + start.len();
        lib[from..from + lib[from..].find("\"#;").unwrap()].to_string()
    }

    /// `depth` functions, each calling the next: `f0` from `main`.
    fn call_chain(depth: usize) -> String {
        let mut src = String::from("int out;\n");
        for k in (0..depth).rev() {
            let body = if k + 1 == depth { "n".to_string() } else { format!("f{}(n) + 1", k + 1) };
            src.push_str(&format!("int f{k}(int n) {{ return {body}; }}\n"));
        }
        src.push_str("main() { out = f0(1); }\n");
        src
    }

    #[test]
    fn paper_kernels_and_examples_run_inline() {
        assert!(inline(&bench_kernel("UC_APSP_N2")), "fig6 kernel");
        assert!(inline(&bench_kernel("UC_APSP_N3")), "fig7 kernel");
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/uc");
        let mut examples = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "uc") {
                let src = std::fs::read_to_string(&path).unwrap();
                assert!(inline(&src), "{} should run inline", path.display());
                examples += 1;
            }
        }
        assert!(examples >= 3, "examples/uc shrank to {examples}");
    }

    #[test]
    fn recursion_spawns() {
        for name in ["deep_recursion", "mutual_recursion"] {
            let src = repo_file(&format!("tests/corpus/hostile/{name}.uc"));
            assert!(!inline(&src), "{name} recurses and must spawn");
        }
    }

    #[test]
    fn deep_acyclic_call_chain_spawns() {
        // `main` and every calling function are 5 levels deep (body,
        // statement, operator, call, argument) and the last one 3, so a
        // chain of 4 sums to 23 levels and a chain of 20 to 103.
        assert!(inline(&call_chain(4)));
        assert!(!inline(&call_chain(20)));
        let mut p = Program::compile(&call_chain(20)).unwrap();
        p.run().unwrap();
        assert_eq!(p.read_int("out"), Some(20));
    }

    /// Programs nested right up to the bound, in the constructs with the
    /// deepest native recursion per level, still fit a 2 MiB thread (the
    /// default for spawned threads, and so for tests) in a debug build.
    #[test]
    fn programs_at_the_bound_fit_a_small_stack() {
        let head = "index_set I:i = {0..0};\nint x, a[1];\n";
        let mut chain = head.to_string();
        for k in (0..15).rev() {
            let call = if k == 14 { "n".to_string() } else { format!("f{}(n) + 1", k + 1) };
            chain.push_str(&format!("int f{k}(int n) {{ par (I) a[i] = n; return {call}; }}\n"));
        }
        chain.push_str("main() { x = f0(1); }\n");
        let programs = [
            format!("{head}main() {{ x = 1; {} x = 2; }}", "if (x) ".repeat(92)),
            format!("{head}main() {{ {} a[0] = 1; }}", "par (I) ".repeat(91)),
            format!(
                "{head}main() {{ par (I) {} a[0] = 1; }}",
                "par (I) st (a[i] == 0) ".repeat(89)
            ),
            format!("{head}main() {{ {} a[0] = 1; }}", "*par (I) st (a[i] == 0) ".repeat(90)),
            format!(
                "{head}main() {{ par (I) a[i] = {}1{}; }}",
                "$+(I; ".repeat(46),
                ")".repeat(46)
            ),
            chain,
        ];
        for src in programs {
            let mut p = Program::compile(&src).unwrap_or_else(|d| panic!("{d}\n{src}"));
            assert!(p.inline, "{src}");
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || p.run())
                .unwrap()
                .join()
                .unwrap()
                .unwrap_or_else(|e| panic!("{e}\n{src}"));
        }
    }
}
