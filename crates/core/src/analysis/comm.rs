//! UC110/UC111 — communication-pattern lints.
//!
//! The executor classifies every parallel array access as local, NEWS or
//! general-router traffic (`exec/access.rs`). This pass runs the same
//! symbolic classification *statically* and reports the two cases where a
//! provably-regular pattern still pays router cost — the paper's §4
//! communication-cost optimization, surfaced as a diagnostic instead of
//! silently applied:
//!
//! * **UC110** — every subscript is `axis + constant` on the matching
//!   axis, but two or more axes are displaced (`a[i-1][j-1]`). The
//!   runtime's NEWS fast path handles at most one displaced axis, so the
//!   access takes the router even though it is a regular grid shift.
//! * **UC111** — the pattern is regular but misaligned with the iteration
//!   space: transposed axes (`a[j][i]`) or an array whose shape does not
//!   conform to the space. A `map` declaration (permute/fold/copy) could
//!   turn it into local or NEWS traffic.
//!
//! Only full-rank accesses to default-mapped global arrays are
//! classified; partial-rank gathers (e.g. `a[j]` under a reduction that
//! extended the space) and re-mapped arrays legitimately use the router
//! or follow a different transform.

use super::{contiguous_lo, Finding, Pass, SetScopes};
use crate::ast::*;
use crate::sema::{self, Checked};

pub(crate) struct CommPass;

/// Static mirror of the executor's `IdxForm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SIdx {
    /// `coordinate(axis) + offset` on the current iteration space.
    AxisPlus { axis: usize, offset: i64 },
    Const,
    General,
}

/// How a walked binder relates to the iteration space.
#[derive(Debug, Clone, Copy)]
enum Bind {
    /// Element of a space axis; `lo` is `Some` for contiguous sets
    /// (`coordinate + lo`), mirroring `ElemForm::AxisPlus`.
    Axis { axis: usize, lo: Option<i64> },
    /// Sequentially bound (`seq`/`oneof`/`solve` element): a front-end
    /// value at each step, unknown statically.
    Other,
}

struct Walker<'c> {
    checked: &'c Checked,
    scopes: SetScopes<'c>,
    binders: Vec<(String, Bind)>,
    /// Extents of the current space axes (outer constructs are a prefix,
    /// as in the executor).
    dims: Vec<usize>,
    out: Vec<Finding>,
}

impl Pass for CommPass {
    fn name(&self) -> &'static str {
        "comm"
    }

    fn lints(&self) -> &'static [&'static str] {
        &["UC110", "UC111"]
    }

    fn run(&self, checked: &Checked, out: &mut Vec<Finding>) {
        let mut w = Walker {
            checked,
            scopes: SetScopes::new(checked),
            binders: Vec::new(),
            dims: Vec::new(),
            out: Vec::new(),
        };
        for f in checked.funcs_in_order() {
            w.scopes.push();
            for s in &f.body.stmts {
                w.stmt(s);
            }
            w.scopes.pop();
        }
        out.append(&mut w.out);
    }
}

impl<'c> Walker<'c> {
    fn stmt(&mut self, s: &'c Stmt) {
        match s {
            Stmt::Expr(e) => self.expr(e),
            Stmt::Decl(v) => {
                if let Some(init) = &v.init {
                    self.expr(init);
                }
            }
            Stmt::IndexSets(defs) => self.scopes.define_local(defs),
            Stmt::Block(b) => {
                self.scopes.push();
                for s in &b.stmts {
                    self.stmt(s);
                }
                self.scopes.pop();
            }
            Stmt::If { cond, then_branch, else_branch, .. } => {
                self.expr(cond);
                self.stmt(then_branch);
                if let Some(e) = else_branch {
                    self.stmt(e);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.expr(cond);
                self.stmt(body);
            }
            Stmt::For { init, cond, step, body, .. } => {
                for e in [init, cond, step].into_iter().flatten() {
                    self.expr(e);
                }
                self.stmt(body);
            }
            Stmt::Return(e, _) => {
                if let Some(e) = e {
                    self.expr(e);
                }
            }
            Stmt::Uc(uc) => {
                let pushed = self.push_sets(&uc.idxs, uc.kind == UcKind::Par);
                for arm in &uc.arms {
                    if let Some(p) = &arm.pred {
                        self.expr(p);
                    }
                    self.stmt(&arm.body);
                }
                if let Some(o) = &uc.others {
                    self.stmt(o);
                }
                self.pop_sets(pushed);
            }
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Empty => {}
        }
    }

    /// Bind the constructs' elements; `parallel` sets extend the space.
    /// Returns (binders pushed, axes pushed).
    fn push_sets(&mut self, idxs: &[String], parallel: bool) -> (usize, usize) {
        let mut pushed = (0, 0);
        for name in idxs {
            let Some(info) = self.scopes.lookup(name) else { continue };
            let bind = if parallel {
                let axis = self.dims.len();
                self.dims.push(info.elements.len());
                pushed.1 += 1;
                Bind::Axis { axis, lo: contiguous_lo(&info.elements) }
            } else {
                Bind::Other
            };
            self.binders.push((info.elem.clone(), bind));
            pushed.0 += 1;
        }
        pushed
    }

    fn pop_sets(&mut self, (binders, axes): (usize, usize)) {
        self.binders.truncate(self.binders.len() - binders);
        self.dims.truncate(self.dims.len() - axes);
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Index { base, subs, span } => {
                self.classify(base, subs, *span);
                for s in subs {
                    self.expr(s);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Unary { expr, .. } => self.expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Ternary { cond, then_e, else_e, .. } => {
                self.expr(cond);
                self.expr(then_e);
                self.expr(else_e);
            }
            Expr::Assign { target, value, .. } => {
                self.expr(target);
                self.expr(value);
            }
            Expr::Reduce(r) => {
                // A reduction evaluates its operands on the space extended
                // by its own sets, exactly like a nested `par`.
                let pushed = self.push_sets(&r.idxs, true);
                for (p, o) in &r.arms {
                    if let Some(p) = p {
                        self.expr(p);
                    }
                    self.expr(o);
                }
                if let Some(o) = &r.others {
                    self.expr(o);
                }
                self.pop_sets(pushed);
            }
            _ => {}
        }
    }

    /// Static mirror of `Program::symbolic_index`.
    fn idx_form(&self, e: &Expr) -> SIdx {
        if let Expr::Ident(name, _) = e {
            if let Some((_, bind)) = self.binders.iter().rev().find(|(n, _)| n == name) {
                return match bind {
                    Bind::Axis { axis, lo: Some(lo) } => {
                        SIdx::AxisPlus { axis: *axis, offset: *lo }
                    }
                    _ => SIdx::General,
                };
            }
        }
        if sema::const_eval(e, &self.checked.consts).is_ok() {
            return SIdx::Const;
        }
        if let Expr::Binary { op, lhs, rhs, .. } = e {
            let l = self.idx_form(lhs);
            let r = self.idx_form(rhs);
            match (op, l, r) {
                (BinaryOp::Add, SIdx::AxisPlus { axis, offset }, SIdx::Const) => {
                    if let Some(offset) = self.const_of(rhs).ok().and_then(|c| offset.checked_add(c)) {
                        return SIdx::AxisPlus { axis, offset };
                    }
                }
                (BinaryOp::Add, SIdx::Const, SIdx::AxisPlus { axis, offset }) => {
                    if let Some(offset) = self.const_of(lhs).ok().and_then(|c| offset.checked_add(c)) {
                        return SIdx::AxisPlus { axis, offset };
                    }
                }
                (BinaryOp::Sub, SIdx::AxisPlus { axis, offset }, SIdx::Const) => {
                    if let Some(offset) = self.const_of(rhs).ok().and_then(|c| offset.checked_sub(c)) {
                        return SIdx::AxisPlus { axis, offset };
                    }
                }
                _ => {}
            }
        }
        SIdx::General
    }

    fn const_of(&self, e: &Expr) -> Result<i64, crate::span::Span> {
        sema::const_eval(e, &self.checked.consts)
    }

    /// Classify one access and report UC110/UC111 when a regular pattern
    /// pays router cost.
    fn classify(&mut self, base: &str, subs: &[Expr], span: crate::span::Span) {
        if self.dims.is_empty() {
            return; // front-end access, no communication
        }
        let Some(info) = self.checked.arrays.get(base) else {
            return; // local array (per-VP or front-end scoped)
        };
        if self.checked.maps.iter().any(|m| m.target.array == base) {
            return; // re-mapped arrays follow their own transform
        }
        // Full-rank only: partial-rank gathers are genuine router traffic.
        if subs.len() != info.shape.len() || subs.len() != self.dims.len() {
            return;
        }
        let forms: Vec<SIdx> = subs.iter().map(|s| self.idx_form(s)).collect();
        if !forms.iter().all(|f| matches!(f, SIdx::AxisPlus { .. })) {
            return;
        }
        let axes: Vec<usize> = forms
            .iter()
            .map(|f| match f {
                SIdx::AxisPlus { axis, .. } => *axis,
                _ => unreachable!(),
            })
            .collect();
        let identity_axes = axes.iter().enumerate().all(|(d, &a)| a == d);
        let conforms = info.shape == self.dims;
        let access = access_text(base, subs);
        if identity_axes && conforms {
            let displaced = forms
                .iter()
                .filter(|f| !matches!(f, SIdx::AxisPlus { offset: 0, .. }))
                .count();
            if displaced > 1 {
                self.out.push(Finding {
                    code: "UC110",
                    span,
                    message: format!(
                        "`{access}` is a regular grid shift on {displaced} axes but goes \
                         through the general router; splitting it into single-axis NEWS \
                         shifts (or a `map permute`) is cheaper (§4 communication cost)"
                    ),
                });
            }
            return; // local or single-axis NEWS: optimal
        }
        // Regular but misaligned. Only flag patterns a `map` declaration
        // could actually align: axes forming a permutation of the space.
        let mut sorted = axes.clone();
        sorted.sort_unstable();
        if sorted.iter().enumerate().any(|(d, &a)| a != d) {
            return; // duplicated/partial axes: a true gather
        }
        let reason = if identity_axes {
            "the array's shape does not conform to the iteration space"
        } else {
            "its axes are transposed relative to the iteration space"
        };
        self.out.push(Finding {
            code: "UC111",
            span,
            message: format!(
                "`{access}` is a regular access pattern but {reason}, so it goes through \
                 the general router; a `map` declaration could make it local or NEWS \
                 (§4 communication cost)"
            ),
        });
    }
}

fn access_text(base: &str, subs: &[Expr]) -> String {
    use std::fmt::Write;
    let mut s = String::from(base);
    for sub in subs {
        let _ = write!(s, "[{}]", crate::pretty::expr(sub));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::super::{check_str, codes_of};
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let checked = check_str(src);
        let mut out = Vec::new();
        CommPass.run(&checked, &mut out);
        out
    }

    const GRID: &str = "index_set I:i = {0..7}, J:j = I;\nint a[8][8], b[8][8];\n";

    #[test]
    fn multi_axis_shift_is_flagged() {
        let f = findings(&format!("{GRID}main() {{ par (I, J) b[i][j] = a[i-1][j-1]; }}"));
        assert_eq!(codes_of(&f), vec!["UC110"]);
        assert!(f[0].message.contains("a[i - 1][j - 1]"), "{}", f[0].message);
    }

    #[test]
    fn single_axis_news_is_clean() {
        let f = findings(&format!(
            "{GRID}main() {{ par (I, J) b[i][j] = (a[i-1][j] + a[i+1][j] + a[i][j-1] + a[i][j+1]) / 4; }}"
        ));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn overflowing_offsets_are_not_shifts() {
        // `i` starts at 1, so the offset of `i + MAX` overflows i64: it is
        // not a regular shift, and classifying it must not panic.
        let f = findings(
            "index_set I:i = {1..8};\nint a[10], b[10];\n\
             main() { par (I) b[i] = a[i + 9223372036854775807]; }",
        );
        assert!(codes_of(&f).iter().all(|c| *c == "UC111"), "{f:?}");
    }

    #[test]
    fn transposed_axes_are_flagged() {
        let f = findings(&format!("{GRID}main() {{ par (I, J) b[i][j] = a[j][i]; }}"));
        assert_eq!(codes_of(&f), vec!["UC111"]);
        assert!(f[0].message.contains("transposed"), "{}", f[0].message);
    }

    #[test]
    fn shape_mismatch_is_flagged() {
        let f = findings(
            "index_set I:i = {0..7};\nint a[16], b[8];\nmain() { par (I) b[i] = a[i]; }",
        );
        assert_eq!(codes_of(&f), vec!["UC111"]);
        assert!(f[0].message.contains("conform"), "{}", f[0].message);
    }

    #[test]
    fn partial_rank_gather_is_clean() {
        // `a[j]` under the reduction runs on the extended [8, 8] space:
        // genuine router traffic, not a liftable regular pattern.
        let f = findings(
            "index_set I:i = {0..7}, J:j = I;\nint a[8], rank[8];\n\
             main() { par (I) rank[i] = $+(J st (a[j] < a[i]) 1); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn diagonal_gather_is_clean() {
        let f = findings(&format!("{GRID}main() {{ par (I, J) b[i][j] = a[i][i]; }}"));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn mapped_arrays_are_skipped() {
        let f = findings(
            "index_set I:i = {0..7};\nint a[8], b[8];\n\
             map (I) { permute (I) a[i+1] :- b[i]; }\n\
             main() { par (I) b[i] = a[i-1]; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn front_end_access_is_clean() {
        let f = findings("int a[4][4];\nmain() { a[0][1] = 3; }");
        assert!(f.is_empty(), "{f:?}");
    }
}
