//! Array access: the three communication classes.
//!
//! Every subscript is first analysed *symbolically*. If each dimension is
//! `axis-coordinate + constant` and the array conforms to the iteration
//! space, the access is **local** (offset 0 after the mapping transform)
//! or a **NEWS** shift (constant offset). Anything else goes through the
//! general **router**. The map section changes the transform, which is how
//! `permute (I) b[i+1] :- a[i]` turns a router/NEWS access into a local
//! one (§4 of the paper).
//!
//! Out-of-range *reads* in a parallel context yield `INF`, modelling the
//! CM convention that off-edge fetches return the border register (the
//! paper's programs rely on this, e.g. `x[i+1]` in the odd–even sort
//! predicate). Out-of-range *writes* by enabled elements are errors.

use uc_cm::{BinOp, Combine, ElemType, FieldId, ReduceOp, Scalar};

use super::space::ElemForm;
use super::{ArrayStorage, LocalVar, Program, RResult, RuntimeError, PV};
use crate::ast::{BinaryOp, Expr};
use crate::mapping::ArrayMapping;
use crate::stdlib;

/// Symbolic form of one subscript expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdxForm {
    /// `coordinate(axis) + offset` on the current space.
    AxisPlus { axis: usize, offset: i64 },
    /// A front-end constant (known now).
    Const(i64),
    /// Anything else.
    General,
}

impl Program {
    /// Find an array's storage: function-local arrays first, then globals.
    pub(crate) fn array_storage(&self, name: &str) -> RResult<ArrayStorage> {
        if let Some(frame) = self.frames.last() {
            for scope in frame.scopes.iter().rev() {
                if let Some(LocalVar::Array(st)) = scope.vars.get(name) {
                    return Ok(st.clone());
                }
            }
        }
        self.arrays
            .get(name)
            .cloned()
            .ok_or_else(|| RuntimeError::Unbound(name.to_string()))
    }

    // ---- symbolic analysis ------------------------------------------------

    /// Pure front-end evaluation: returns the scalar value of `e` iff it
    /// involves no parallel bindings and no side effects.
    pub(crate) fn try_pure_scalar(&self, e: &Expr) -> Option<Scalar> {
        // A name bound as an index element must not be resolved as a
        // front-end value.
        match e {
            Expr::IntLit(v, _) => Some(Scalar::Int(*v)),
            Expr::FloatLit(v, _) => Some(Scalar::Float(*v)),
            Expr::Inf(_) => Some(Scalar::Int(i64::MAX)),
            Expr::Ident(name, _) => {
                if self.is_ctx_elem(name) {
                    return None;
                }
                if let Some(frame) = self.frames.last() {
                    for scope in frame.scopes.iter().rev() {
                        match scope.vars.get(name) {
                            Some(LocalVar::Scalar(s)) => return Some(*s),
                            Some(_) => return None,
                            None => {}
                        }
                    }
                }
                if let Some(s) = self.globals.get(name) {
                    return Some(*s);
                }
                self.checked.consts.get(name).map(|v| Scalar::Int(*v))
            }
            Expr::Unary { op, expr, .. } => {
                let v = self.try_pure_scalar(expr)?;
                Some(match op {
                    crate::ast::UnaryOp::Neg => match v {
                        Scalar::Float(f) => Scalar::Float(-f),
                        other => Scalar::Int(other.as_int().wrapping_neg()),
                    },
                    crate::ast::UnaryOp::Not => Scalar::Int(!v.as_bool() as i64),
                    crate::ast::UnaryOp::BitNot => Scalar::Int(!v.as_int()),
                })
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.try_pure_scalar(lhs)?;
                let r = self.try_pure_scalar(rhs)?;
                super::expr::scalar_binary(*op, l, r).ok()
            }
            Expr::Ternary { cond, then_e, else_e, .. } => {
                let c = self.try_pure_scalar(cond)?;
                if c.as_bool() {
                    self.try_pure_scalar(then_e)
                } else {
                    self.try_pure_scalar(else_e)
                }
            }
            Expr::Call { name, args, .. } => match name.as_str() {
                "power2" => {
                    Some(Scalar::Int(stdlib::power2(self.try_pure_scalar(&args[0])?.as_int())))
                }
                "abs" | "ABS" => {
                    Some(Scalar::Int(self.try_pure_scalar(&args[0])?.as_int().wrapping_abs()))
                }
                "min" => Some(Scalar::Int(
                    self.try_pure_scalar(&args[0])?
                        .as_int()
                        .min(self.try_pure_scalar(&args[1])?.as_int()),
                )),
                "max" => Some(Scalar::Int(
                    self.try_pure_scalar(&args[0])?
                        .as_int()
                        .max(self.try_pure_scalar(&args[1])?.as_int()),
                )),
                _ => None,
            },
            _ => None,
        }
    }

    fn is_ctx_elem(&self, name: &str) -> bool {
        self.ctx.iter().any(|c| c.elems.iter().any(|(n, _, _)| n == name))
    }

    /// Elem-binding form for a name, searching innermost levels first.
    fn elem_form(&self, name: &str) -> Option<ElemForm> {
        for level in (0..self.ctx.len()).rev() {
            if let Some((_, _, form)) = self.ctx[level].elems.iter().find(|(n, _, _)| n == name)
            {
                return Some(*form);
            }
        }
        None
    }

    /// Classify a subscript expression.
    pub(crate) fn symbolic_index(&self, e: &Expr) -> IdxForm {
        if let Expr::Ident(name, _) = e {
            if let Some(form) = self.elem_form(name) {
                return match form {
                    ElemForm::AxisPlus { axis, lo } => IdxForm::AxisPlus { axis, offset: lo },
                    ElemForm::Opaque => IdxForm::General,
                };
            }
        }
        if let Some(s) = self.try_pure_scalar(e) {
            return IdxForm::Const(s.as_int());
        }
        if let Expr::Binary { op, lhs, rhs, .. } = e {
            let l = self.symbolic_index(lhs);
            let r = self.symbolic_index(rhs);
            match (op, l, r) {
                // checked: an overflowing constant offset falls back to
                // the general router path instead of aborting.
                (BinaryOp::Add, IdxForm::AxisPlus { axis, offset }, IdxForm::Const(c))
                | (BinaryOp::Add, IdxForm::Const(c), IdxForm::AxisPlus { axis, offset }) => {
                    if let Some(offset) = offset.checked_add(c) {
                        return IdxForm::AxisPlus { axis, offset };
                    }
                }
                (BinaryOp::Sub, IdxForm::AxisPlus { axis, offset }, IdxForm::Const(c)) => {
                    if let Some(offset) = offset.checked_sub(c) {
                        return IdxForm::AxisPlus { axis, offset };
                    }
                }
                _ => {}
            }
        }
        IdxForm::General
    }

    // ---- reads --------------------------------------------------------------

    /// Read `base[subs...]` in the current context.
    pub(crate) fn read_array(&mut self, base: &str, subs: &[Expr]) -> RResult<PV> {
        let st = self.array_storage(base)?;
        if self.ctx.is_empty() {
            // Front-end element read.
            let mut coord = Vec::with_capacity(subs.len());
            for (d, sub) in subs.iter().enumerate() {
                let v = self.eval_scalar(sub)?.as_int();
                if v < 0 || v as usize >= st.shape[d] {
                    return Err(RuntimeError::OutOfBounds { name: base.to_string() });
                }
                coord.push(v as usize);
            }
            let logical = crate::mapping::flatten(&coord, &st.shape);
            let idx = st.mapping.storage_index(logical, &st.shape, 0);
            return Ok(PV::Scalar(self.machine.read_elem(st.field, idx)?));
        }

        // Common-subexpression cache: a gather computed while this step's
        // predicates evaluated (full construct mask) may be reused by arm
        // bodies (strictly narrower masks).
        if !subs_cacheable(subs) {
            return self.read_storage(&st, subs);
        }
        let dims = self.cur_ctx().dims.clone();
        let key = (dims, access_text(base, subs));
        for level in self.cse_stack.iter().rev() {
            if let Some(&f) = level.get(&key) {
                return Ok(PV::Field { id: f, owned: false });
            }
        }
        let pv = self.read_storage(&st, subs)?;
        if self.cse_fill && !self.cse_stack.is_empty() {
            if let PV::Field { id, owned: true } = pv {
                self.cse_stack.last_mut().unwrap().insert(key, id);
                return Ok(PV::Field { id, owned: false });
            }
        }
        Ok(pv)
    }

    /// Drop every cached gather of `base` (called when `base` is written)
    /// or the whole cache (when `base` is None, e.g. a scalar that might
    /// appear in subscripts changed).
    pub(crate) fn cse_invalidate(&mut self, base: Option<&str>) {
        for level in &mut self.cse_stack {
            let doomed: Vec<_> = level
                .keys()
                .filter(|(_, text)| match base {
                    Some(b) => text.starts_with(&format!("{b}[")),
                    None => true,
                })
                .cloned()
                .collect();
            for k in doomed {
                if let Some(f) = level.remove(&k) {
                    let _ = self.machine.free(f);
                }
            }
        }
    }

    /// Enter/leave a synchronous step for the CSE cache.
    pub(crate) fn cse_push(&mut self) {
        self.cse_stack.push(std::collections::HashMap::new());
    }

    pub(crate) fn cse_pop(&mut self) {
        if let Some(level) = self.cse_stack.pop() {
            for (_, f) in level {
                let _ = self.machine.free(f);
            }
        }
    }

    /// Parallel read of a storage descriptor (also used for solve's
    /// defined-bitmaps, which mirror their array's mapping).
    pub(crate) fn read_storage(&mut self, st: &ArrayStorage, subs: &[Expr]) -> RResult<PV> {
        if self.config.optimize_access {
            if let Some(pv) = self.try_fast_read(st, subs)? {
                return Ok(pv);
            }
        }
        self.router_read(st, subs)
    }

    /// Local/NEWS read when the array conforms to the iteration space.
    fn try_fast_read(&mut self, st: &ArrayStorage, subs: &[Expr]) -> RResult<Option<PV>> {
        let dims = self.cur_ctx().dims.clone();
        let offsets: Vec<i64> = match &st.mapping {
            ArrayMapping::Default => vec![0; st.shape.len()],
            ArrayMapping::Permute { offsets } => offsets.clone(),
            ArrayMapping::Copy { .. } => {
                // §4's broadcast elimination: when the iteration space is
                // [replicas, ...shape] and the logical subscripts are the
                // trailing axis identities, every iteration point reads
                // its own replica locally instead of broadcasting from a
                // single copy through the router.
                let storage_shape = st.mapping.storage_shape(&st.shape);
                let identity = storage_shape == dims
                    && subs.iter().enumerate().all(|(d, s)| {
                        matches!(self.symbolic_index(s),
                            IdxForm::AxisPlus { axis, offset: 0 } if axis == d + 1)
                    });
                if identity {
                    let vp = self.cur_ctx().vp;
                    let dst = self.machine.alloc(vp, "~rd", st.ty)?;
                    self.machine.copy(dst, st.field)?;
                    return Ok(Some(PV::owned(dst)));
                }
                return Ok(None);
            }
            ArrayMapping::Fold { .. } => return Ok(None),
        };
        if st.shape != dims {
            return Ok(None);
        }
        let mut shifts = Vec::with_capacity(subs.len());
        let mut logical_offsets = Vec::with_capacity(subs.len());
        for (d, sub) in subs.iter().enumerate() {
            match self.symbolic_index(sub) {
                IdxForm::AxisPlus { axis, offset } if axis == d => {
                    // An unrepresentable shift takes the router instead.
                    let Some(shift) = offset.checked_sub(offsets[d]) else {
                        return Ok(None);
                    };
                    shifts.push(shift);
                    logical_offsets.push(offset);
                }
                _ => return Ok(None),
            }
        }
        // At most one displaced axis: a NEWS shift writes only *active*
        // positions, so chaining shifts would read garbage at inactive
        // intermediate positions. Multi-axis displacement (`a[i-1][j-1]`)
        // takes the router.
        if shifts.iter().filter(|&&s| s != 0).count() > 1 {
            return Ok(None);
        }
        let vp = self.cur_ctx().vp;
        let dst = self.machine.alloc(vp, "~rd", st.ty)?;
        match shifts.iter().position(|&s| s != 0) {
            None => self.machine.copy(dst, st.field)?,
            Some(d) => {
                // Toroidal shift; the logical-bounds fixup below replaces
                // wrapped positions with INF.
                self.machine
                    .news_shift(dst, st.field, d, shifts[d], uc_cm::news::Border::Wrap)?;
            }
        }
        // Fix up positions whose *logical* index fell outside the array:
        // they read INF, not a wrapped value. The validity masks depend
        // only on the geometry, so they are computed once and cached.
        for (d, &c) in logical_offsets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let ok = self.fixup_mask(&dims, d, c, st.shape[d] as i64)?;
            let inf = self.inf_field(&dims, st.ty)?;
            self.machine.select(dst, ok, dst, inf)?;
        }
        Ok(Some(PV::owned(dst)))
    }

    /// Cached "coordinate(axis)+offset is inside [0, n)" mask on the
    /// current space.
    fn fixup_mask(&mut self, dims: &[usize], axis: usize, c: i64, n: i64) -> RResult<FieldId> {
        let key = (dims.to_vec(), axis, c);
        if let Some(&f) = self.fixup_cache.get(&key) {
            return Ok(f);
        }
        // Built unconditionally (front-end DMA): the cache is shared
        // across constructs with different activity masks.
        let vp = self.cur_ctx().vp;
        let size: usize = dims.iter().product();
        let stride: usize = dims[axis + 1..].iter().product();
        let extent = dims[axis];
        let bits: Vec<bool> = (0..size)
            .map(|p| {
                // An overflowing coordinate is off the array too.
                let coord = (((p / stride) % extent) as i64).checked_add(c);
                coord.is_some_and(|k| (0..n).contains(&k))
            })
            .collect();
        let ok = self.machine.alloc_bool(vp, "~ok")?;
        self.machine.write_all(ok, uc_cm::FieldData::Bool(bits))?;
        self.fixup_cache.insert(key, ok);
        Ok(ok)
    }

    /// Cached INF broadcast field on the current space.
    fn inf_field(&mut self, dims: &[usize], ty: ElemType) -> RResult<FieldId> {
        let key = (dims.to_vec(), ty);
        if let Some(&f) = self.inf_cache.get(&key) {
            return Ok(f);
        }
        let vp = self.cur_ctx().vp;
        let inf = self.machine.alloc(vp, "~INF", ty)?;
        self.machine.fill_unconditional(inf, inf_of(ty))?;
        self.inf_cache.insert(key, inf);
        Ok(inf)
    }

    /// General gather through the router, with bounds handling.
    fn router_read(&mut self, st: &ArrayStorage, subs: &[Expr]) -> RResult<PV> {
        let vp = self.cur_ctx().vp;
        let dims = self.cur_ctx().dims.clone();
        let (addr, valid) = self.storage_address(st, subs)?;
        let dst = self.machine.alloc(vp, "~gather", st.ty)?;
        self.machine.get(dst, addr, st.field)?;
        self.machine.free(addr)?;
        if let Some(valid) = valid {
            // Out-of-range reads yield INF.
            let inf = self.inf_field(&dims, st.ty)?;
            self.machine.select(dst, valid, dst, inf)?;
            self.machine.free(valid)?;
        }
        Ok(PV::owned(dst))
    }

    /// Compute the (clamped) storage address field and an optional
    /// validity mask for a subscripted access on the current space.
    /// `None` validity means every enabled element is statically in
    /// bounds (axis-identity and in-range constant subscripts), in which
    /// case the address arithmetic is as lean as hand-written C\*'s.
    fn storage_address(
        &mut self,
        st: &ArrayStorage,
        subs: &[Expr],
    ) -> RResult<(FieldId, Option<FieldId>)> {
        let vp = self.cur_ctx().vp;
        let storage_shape = st.mapping.storage_shape(&st.shape);
        // Row-major strides over the storage shape; for Copy the logical
        // dims start at storage axis 1 (replica 0 occupies the first block).
        let mut strides = vec![1usize; storage_shape.len()];
        for i in (0..storage_shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * storage_shape[i + 1];
        }
        let dim_off = storage_shape.len() - st.shape.len();
        let space_dims = self.cur_ctx().dims.clone();

        let addr = self.machine.alloc_int(vp, "~addr")?;
        // Constant subscript contributions fold into the initial fill.
        let mut base = 0i64;
        let mut static_oob = false;
        let mut dynamic: Vec<(usize, &Expr)> = Vec::new();
        for (d, sub) in subs.iter().enumerate() {
            let n = st.shape[d] as i64;
            match self.symbolic_index(sub) {
                IdxForm::Const(c) if (0..n).contains(&c) => {
                    // Host-side mapping transform of a known coordinate.
                    let mut coord = vec![0usize; st.shape.len()];
                    coord[d] = c as usize;
                    let sc = st.mapping.storage_coord(&coord, &st.shape)[d];
                    base += sc as i64 * strides[dim_off + d] as i64;
                }
                IdxForm::Const(_) => static_oob = true,
                _ => dynamic.push((d, sub)),
            }
        }
        self.machine.fill_unconditional(addr, Scalar::Int(base))?;
        let mut valid: Option<FieldId> = None;
        if static_oob {
            let v = self.machine.alloc_bool(vp, "~valid")?;
            self.machine.fill_unconditional(v, Scalar::Bool(false))?;
            valid = Some(v);
        }

        for (d, sub) in dynamic {
            let n = st.shape[d] as i64;
            // Axis-identity over a matching extent is statically in
            // bounds: no validity tracking, one coordinate instruction.
            let statically_safe = matches!(
                self.symbolic_index(sub),
                IdxForm::AxisPlus { axis, offset: 0 }
                    if space_dims.get(axis) == Some(&(n as usize)))
                && !matches!(st.mapping, ArrayMapping::Fold { axis } if axis == d);
            let pv = self.eval(sub)?;
            let pv = self.coerce_field(pv, ElemType::Int)?;
            let PV::Field { id: vfield, owned } = pv else { unreachable!() };
            // Work on a copy so we never mutate a non-owned binding field.
            let v = self.machine.alloc_int(vp, "~sub")?;
            self.machine.copy(v, vfield)?;
            if owned {
                self.machine.free(vfield)?;
            }
            if !statically_safe {
                // Validity: 0 <= v < n (logical bounds, before mapping).
                let va = match valid {
                    Some(va) => va,
                    None => {
                        let va = self.machine.alloc_bool(vp, "~valid")?;
                        self.machine.fill_unconditional(va, Scalar::Bool(true))?;
                        valid = Some(va);
                        va
                    }
                };
                let tmpb = self.machine.alloc_bool(vp, "~vb")?;
                self.machine.binop_imm(BinOp::Ge, tmpb, v, Scalar::Int(0))?;
                self.machine.binop(BinOp::LogAnd, va, va, tmpb)?;
                self.machine.binop_imm(BinOp::Lt, tmpb, v, Scalar::Int(n))?;
                self.machine.binop(BinOp::LogAnd, va, va, tmpb)?;
                self.machine.free(tmpb)?;
            }
            // Mapping transform.
            match &st.mapping {
                ArrayMapping::Default | ArrayMapping::Copy { .. } => {}
                ArrayMapping::Permute { offsets } => {
                    if offsets[d] != 0 {
                        // (v - off).rem_euclid(n)
                        self.machine.binop_imm(BinOp::Sub, v, v, Scalar::Int(offsets[d]))?;
                        self.machine.binop_imm(BinOp::Mod, v, v, Scalar::Int(n))?;
                        self.machine.binop_imm(BinOp::Add, v, v, Scalar::Int(n))?;
                        self.machine.binop_imm(BinOp::Mod, v, v, Scalar::Int(n))?;
                    }
                }
                ArrayMapping::Fold { axis } if *axis == d => {
                    // v' = 2*min(v, n-1-v) + (v >= ceil(n/2))
                    let mirror = self.machine.alloc_int(vp, "~mir")?;
                    self.machine.binop_imm_l(BinOp::Sub, mirror, Scalar::Int(n - 1), v)?;
                    let low = self.machine.alloc_int(vp, "~low")?;
                    self.machine.binop(BinOp::Min, low, v, mirror)?;
                    self.machine.binop_imm(BinOp::Mul, low, low, Scalar::Int(2))?;
                    let hi = self.machine.alloc_bool(vp, "~hi")?;
                    self.machine
                        .binop_imm(BinOp::Ge, hi, v, Scalar::Int((n as u64).div_ceil(2) as i64))?;
                    let hii = self.machine.alloc_int(vp, "~hii")?;
                    self.machine.convert(hii, hi)?;
                    self.machine.binop(BinOp::Add, v, low, hii)?;
                    for f in [mirror, low, hi, hii] {
                        self.machine.free(f)?;
                    }
                }
                ArrayMapping::Fold { .. } => {}
            }
            if let Some(va) = valid {
                // Clamp out-of-range values to 0 so the router accepts
                // them (they are replaced by INF / excluded from writes
                // afterwards).
                let vi = self.machine.alloc_int(vp, "~vi")?;
                self.machine.convert(vi, va)?;
                self.machine.binop(BinOp::Mul, v, v, vi)?;
                self.machine.free(vi)?;
                // Clamp to the storage extent too: a permute-wrapped value
                // is always in range, but fold on odd extents can exceed it.
                let sn = storage_shape[dim_off + d] as i64;
                self.machine.binop_imm(BinOp::Mod, v, v, Scalar::Int(sn))?;
            }
            // addr += v * stride
            self.machine
                .binop_imm(BinOp::Mul, v, v, Scalar::Int(strides[dim_off + d] as i64))?;
            self.machine.binop(BinOp::Add, addr, addr, v)?;
            self.machine.free(v)?;
        }
        Ok((addr, valid))
    }

    // ---- writes -------------------------------------------------------------

    /// Store `value` into `base[subs...]`. `check_conflicts` enforces the
    /// `par` rule that distinct values may not land on one element
    /// (relaxed inside `*solve`).
    pub(crate) fn write_array(
        &mut self,
        base: &str,
        subs: &[Expr],
        value: PV,
        check_conflicts: bool,
    ) -> RResult<()> {
        self.cse_invalidate(Some(base));
        let st = self.array_storage(base)?;
        if self.ctx.is_empty() {
            let mut coord = Vec::with_capacity(subs.len());
            for (d, sub) in subs.iter().enumerate() {
                let v = self.eval_scalar(sub)?.as_int();
                if v < 0 || v as usize >= st.shape[d] {
                    return Err(RuntimeError::OutOfBounds { name: base.to_string() });
                }
                coord.push(v as usize);
            }
            let PV::Scalar(s) = value else {
                return Err(RuntimeError::NotSupported(
                    "parallel value stored from front-end context".into(),
                ));
            };
            let logical = crate::mapping::flatten(&coord, &st.shape);
            let s = super::space::coerce_scalar(s, st.ty);
            for r in 0..st.mapping.replicas() {
                let idx = st.mapping.storage_index(logical, &st.shape, r);
                self.machine.write_elem(st.field, idx, s)?;
            }
            return Ok(());
        }
        self.write_storage(&st, subs, value, check_conflicts, base)
    }

    /// Parallel store into a storage descriptor (also used for solve's
    /// defined-bitmaps).
    pub(crate) fn write_array_storage(
        &mut self,
        st: &ArrayStorage,
        subs: &[Expr],
        value: PV,
    ) -> RResult<()> {
        self.write_storage(st, subs, value, false, "~storage")
    }

    fn write_storage(
        &mut self,
        st: &ArrayStorage,
        subs: &[Expr],
        value: PV,
        check_conflicts: bool,
        base: &str,
    ) -> RResult<()> {
        let value = self.coerce_field(value, st.ty)?;
        let PV::Field { id: vfield, .. } = value else { unreachable!() };

        // Fast path: identity store onto a conforming default-mapped array.
        if self.config.optimize_access
            && st.mapping == ArrayMapping::Default
            && st.shape == self.cur_ctx().dims
            && subs.iter().enumerate().all(|(d, s)| {
                matches!(self.symbolic_index(s),
                    IdxForm::AxisPlus { axis, offset: 0 } if axis == d)
            })
        {
            self.machine.copy(st.field, vfield)?;
            self.release(value);
            return Ok(());
        }

        // General scatter.
        let (addr, valid) = self.storage_address(st, subs)?;
        if let Some(valid) = valid {
            // An enabled element writing out of range is an error.
            let vp = self.cur_ctx().vp;
            let bad = self.machine.alloc_bool(vp, "~bad")?;
            self.machine.unop(uc_cm::UnOp::Not, bad, valid)?;
            let any_bad = self.machine.reduce(bad, ReduceOp::Or)?.as_bool();
            self.machine.free(bad)?;
            self.machine.free(valid)?;
            if any_bad {
                self.machine.free(addr)?;
                self.release(value);
                return Err(RuntimeError::OutOfBounds { name: base.to_string() });
            }
        }
        let size: usize = st.shape.iter().product();
        let mut conflict = false;
        for r in 0..st.mapping.replicas() {
            let conflict_r = if r == 0 {
                self.machine.send_detect(st.field, addr, vfield, Combine::Overwrite)?
            } else {
                self.machine.binop_imm(BinOp::Add, addr, addr, Scalar::Int(size as i64))?;
                self.machine.send_detect(st.field, addr, vfield, Combine::Overwrite)?
            };
            conflict |= conflict_r;
        }
        self.machine.free(addr)?;
        self.release(value);
        if conflict && check_conflicts {
            return Err(RuntimeError::MultipleAssignment { name: base.to_string() });
        }
        Ok(())
    }

    /// Evaluate an assignment expression (including compound ops),
    /// returning the stored value.
    pub(crate) fn eval_assign(
        &mut self,
        target: &Expr,
        op: Option<BinaryOp>,
        value: &Expr,
    ) -> RResult<PV> {
        let rhs = self.eval(value)?;
        let combined = match op {
            None => rhs,
            Some(op) => {
                let old = self.eval(target)?;
                self.apply_binary(op, old, rhs)?
            }
        };
        self.store(target, combined, true)
    }

    /// Store a PV into an lvalue; returns the PV (still owned by caller).
    pub(crate) fn store(
        &mut self,
        target: &Expr,
        value: PV,
        check_conflicts: bool,
    ) -> RResult<PV> {
        match target {
            Expr::Ident(name, _) => {
                self.store_ident(name, value)?;
                Ok(value)
            }
            Expr::Index { base, subs, .. } => {
                // write_array consumes/releases a copy; keep the caller's
                // PV alive by duplicating the handle (fields are Copy ids).
                let dup = match value {
                    PV::Scalar(s) => PV::Scalar(s),
                    PV::Field { id, .. } => PV::Field { id, owned: false },
                };
                self.write_array(base, subs, dup, check_conflicts)?;
                Ok(value)
            }
            other => Err(RuntimeError::NotSupported(format!(
                "assignment target {other:?} is not an lvalue"
            ))),
        }
    }

    fn store_ident(&mut self, name: &str, value: PV) -> RResult<()> {
        // A scalar or par-local may appear inside cached subscripts:
        // conservatively drop the whole gather cache.
        self.cse_invalidate(None);
        // Par-locals and scalars; index elements are rejected by sema.
        let cur_level = self.ctx.len().wrapping_sub(1);
        if let Some(frame) = self.frames.last() {
            for (si, scope) in frame.scopes.iter().enumerate().rev() {
                match scope.vars.get(name) {
                    Some(LocalVar::ParField { field, level }) => {
                        let (field, level) = (*field, *level);
                        if level != cur_level {
                            return Err(RuntimeError::NotSupported(format!(
                                "assigning `{name}` from a more deeply nested construct"
                            )));
                        }
                        let ty = self.machine.elem_type(field)?;
                        let v = self.coerce_field(value, ty)?;
                        let PV::Field { id, .. } = v else { unreachable!() };
                        self.machine.copy(field, id)?;
                        self.release(v);
                        return Ok(());
                    }
                    Some(LocalVar::Scalar(_)) => {
                        let PV::Scalar(s) = value else {
                            return Err(RuntimeError::NotSupported(format!(
                                "assigning a parallel value to front-end scalar `{name}` \
                                 (use a reduction to combine values first)"
                            )));
                        };
                        // Invariant: `frame`/`si`/`name` were just found
                        // in the immutable borrow above; re-borrowing
                        // mutably cannot miss.
                        let frame = self.frames.last_mut().unwrap();
                        let slot = frame.scopes[si].vars.get_mut(name).unwrap();
                        let coerced = match slot {
                            LocalVar::Scalar(old) => {
                                super::space::coerce_scalar(s, old.elem_type())
                            }
                            _ => unreachable!(),
                        };
                        *slot = LocalVar::Scalar(coerced);
                        return Ok(());
                    }
                    Some(LocalVar::Array(_)) => {
                        return Err(RuntimeError::NotSupported(format!(
                            "array `{name}` assigned without subscripts"
                        )))
                    }
                    None => {}
                }
            }
        }
        if let Some(old) = self.globals.get(name).copied() {
            let PV::Scalar(s) = value else {
                return Err(RuntimeError::NotSupported(format!(
                    "assigning a parallel value to front-end scalar `{name}` \
                     (use a reduction to combine values first)"
                )));
            };
            self.globals
                .insert(name.to_string(), super::space::coerce_scalar(s, old.elem_type()));
            return Ok(());
        }
        Err(RuntimeError::Unbound(name.to_string()))
    }
}

/// Canonical text of an access, the CSE cache key.
fn access_text(base: &str, subs: &[Expr]) -> String {
    use std::fmt::Write;
    let mut s = String::from(base);
    for sub in subs {
        let _ = write!(s, "[{}]", crate::pretty::expr(sub));
    }
    s
}

/// Whether subscripts are side-effect-free and deterministic within a
/// step (no `rand()`, no user calls, no embedded assignments).
fn subs_cacheable(subs: &[Expr]) -> bool {
    fn pure(e: &Expr) -> bool {
        match e {
            Expr::IntLit(..) | Expr::FloatLit(..) | Expr::Inf(_) | Expr::Ident(..) => true,
            Expr::Index { subs, .. } => subs.iter().all(pure),
            Expr::Call { name, args, .. } => {
                matches!(name.as_str(), "power2" | "abs" | "ABS" | "min" | "max")
                    && args.iter().all(pure)
            }
            Expr::Unary { expr, .. } => pure(expr),
            Expr::Binary { lhs, rhs, .. } => pure(lhs) && pure(rhs),
            Expr::Ternary { cond, then_e, else_e, .. } => {
                pure(cond) && pure(then_e) && pure(else_e)
            }
            Expr::Assign { .. } => false,
            Expr::Reduce(_) => false,
        }
    }
    subs.iter().all(pure)
}

/// The INF a read outside the array yields, per element type.
pub(crate) fn inf_of(ty: ElemType) -> Scalar {
    match ty {
        ElemType::Int => Scalar::Int(i64::MAX),
        ElemType::Float => Scalar::Float(f64::INFINITY),
        ElemType::Bool => Scalar::Bool(false),
    }
}
