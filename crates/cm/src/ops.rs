//! Elementwise SIMD ALU operations.
//!
//! Every operation applies to all *active* VPs of one VP set (inactive VPs
//! keep their old destination values) and charges the [`crate::cost`]
//! model. Operands must live on the same VP set and have matching types;
//! the UC executor inserts explicit [`Machine::convert`] ops where the
//! language allows implicit coercion.

use crate::cost::OpClass;
use crate::field::{ElemType, FieldData, FieldId};
use crate::machine::{elem_bytes, Machine, VpSetId};
use crate::par;
use crate::{CmError, Result, Scalar};

/// Binary elementwise operations.
///
/// Arithmetic ops preserve the operand type; comparisons produce `Bool`;
/// `LogAnd`/`LogOr`/`LogXor` operate on `Bool` fields (C truthiness is the
/// executor's job). `Shl`/`Shr`/`BitAnd`/`BitOr`/`BitXor`/`Mod` are
/// integer-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Min,
    Max,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    LogAnd,
    LogOr,
    LogXor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// Whether this op yields a `Bool` field regardless of operand type.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// Whether this op is defined only on `Bool` operands.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogAnd | BinOp::LogOr | BinOp::LogXor)
    }

    /// Whether this op is defined only on `Int` operands.
    pub fn int_only(self) -> bool {
        matches!(
            self,
            BinOp::Mod | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor | BinOp::Shl | BinOp::Shr
        )
    }

    /// Result element type for operands of type `ty`.
    pub fn result_type(self, ty: ElemType) -> ElemType {
        if self.is_comparison() {
            ElemType::Bool
        } else {
            ty
        }
    }
}

/// Unary elementwise operations. `Not` is logical negation on `Bool`;
/// `BitNot` is integer complement; `Neg`/`Abs` are numeric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
    Abs,
}

/// One operand of a binary op: a field, or an immediate that reaches the
/// kernel as a [`par::Splat`].
#[derive(Debug, Clone, Copy)]
enum Arg {
    Field(FieldId),
    Imm(Scalar),
}

/// A resolved [`Arg`]: field storage, or the immediate itself.
#[derive(Clone, Copy)]
enum Src<'a> {
    Field(&'a FieldData),
    Imm(Scalar),
}

/// A typed kernel operand. At least one operand of a binop is a slice.
#[derive(Clone, Copy)]
enum Opnd<'a, T> {
    Slice(&'a [T]),
    Splat(T),
}

impl<'a> Src<'a> {
    fn ints(self) -> Opnd<'a, i64> {
        match self {
            Src::Field(FieldData::I64(v)) => Opnd::Slice(v),
            Src::Imm(Scalar::Int(x)) => Opnd::Splat(x),
            _ => unreachable!("operand types validated by binop"),
        }
    }

    fn floats(self) -> Opnd<'a, f64> {
        match self {
            Src::Field(FieldData::F64(v)) => Opnd::Slice(v),
            Src::Imm(Scalar::Float(x)) => Opnd::Splat(x),
            _ => unreachable!("operand types validated by binop"),
        }
    }

    fn bools(self) -> Opnd<'a, bool> {
        match self {
            Src::Field(FieldData::Bool(v)) => Opnd::Slice(v),
            Src::Imm(Scalar::Bool(x)) => Opnd::Splat(x),
            _ => unreachable!("operand types validated by binop"),
        }
    }
}

/// A binop over element type `T`, run once per instruction with the
/// operand shapes fixed, so each (op, shape) gets its own tight loop.
trait Kernel2<T> {
    fn run<X: par::Operand<T>, Y: par::Operand<T>>(self, x: X, y: Y);
}

/// Pick the kernel instance for the operands' shapes and run it.
fn run2<T: Copy + Sync, K: Kernel2<T>>(k: K, x: Opnd<'_, T>, y: Opnd<'_, T>) {
    match (x, y) {
        (Opnd::Slice(x), Opnd::Slice(y)) => k.run(x, y),
        (Opnd::Slice(x), Opnd::Splat(y)) => k.run(x, par::Splat(y)),
        (Opnd::Splat(x), Opnd::Slice(y)) => k.run(par::Splat(x), y),
        (Opnd::Splat(_), Opnd::Splat(_)) => unreachable!("a binop has a field operand"),
    }
}

/// The destination side of a binop: op, storage and activity mask.
struct Dst<'a> {
    op: BinOp,
    data: &'a mut FieldData,
    mask: &'a [bool],
}

impl Kernel2<i64> for Dst<'_> {
    fn run<X: par::Operand<i64>, Y: par::Operand<i64>>(self, x: X, y: Y) {
        let m = self.mask;
        match (self.op, self.data) {
            (BinOp::Add, FieldData::I64(d)) => par::zip2_masked(d, x, y, m, i64::wrapping_add),
            (BinOp::Sub, FieldData::I64(d)) => par::zip2_masked(d, x, y, m, i64::wrapping_sub),
            (BinOp::Mul, FieldData::I64(d)) => par::zip2_masked(d, x, y, m, i64::wrapping_mul),
            // Division traps on a zero divisor: evaluate active VPs only.
            (BinOp::Div, FieldData::I64(d)) => par::zip2_guarded(d, x, y, m, i64::wrapping_div),
            (BinOp::Mod, FieldData::I64(d)) => par::zip2_guarded(d, x, y, m, i64::wrapping_rem),
            (BinOp::Min, FieldData::I64(d)) => par::zip2_masked(d, x, y, m, |a: i64, b| a.min(b)),
            (BinOp::Max, FieldData::I64(d)) => par::zip2_masked(d, x, y, m, |a: i64, b| a.max(b)),
            (BinOp::BitAnd, FieldData::I64(d)) => par::zip2_masked(d, x, y, m, |a, b| a & b),
            (BinOp::BitOr, FieldData::I64(d)) => par::zip2_masked(d, x, y, m, |a, b| a | b),
            (BinOp::BitXor, FieldData::I64(d)) => par::zip2_masked(d, x, y, m, |a, b| a ^ b),
            (BinOp::Shl, FieldData::I64(d)) => {
                par::zip2_masked(d, x, y, m, |a: i64, b| a.wrapping_shl(b as u32))
            }
            (BinOp::Shr, FieldData::I64(d)) => {
                par::zip2_masked(d, x, y, m, |a: i64, b| a.wrapping_shr(b as u32))
            }
            (BinOp::Eq, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a == b),
            (BinOp::Ne, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a != b),
            (BinOp::Lt, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a < b),
            (BinOp::Le, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a <= b),
            (BinOp::Gt, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a > b),
            (BinOp::Ge, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a >= b),
            _ => unreachable!("int op validated by binop"),
        }
    }
}

impl Kernel2<f64> for Dst<'_> {
    fn run<X: par::Operand<f64>, Y: par::Operand<f64>>(self, x: X, y: Y) {
        let m = self.mask;
        match (self.op, self.data) {
            (BinOp::Add, FieldData::F64(d)) => par::zip2_masked(d, x, y, m, |a, b| a + b),
            (BinOp::Sub, FieldData::F64(d)) => par::zip2_masked(d, x, y, m, |a, b| a - b),
            (BinOp::Mul, FieldData::F64(d)) => par::zip2_masked(d, x, y, m, |a, b| a * b),
            (BinOp::Div, FieldData::F64(d)) => par::zip2_masked(d, x, y, m, |a, b| a / b),
            (BinOp::Min, FieldData::F64(d)) => par::zip2_masked(d, x, y, m, f64::min),
            (BinOp::Max, FieldData::F64(d)) => par::zip2_masked(d, x, y, m, f64::max),
            (BinOp::Eq, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a == b),
            (BinOp::Ne, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a != b),
            (BinOp::Lt, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a < b),
            (BinOp::Le, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a <= b),
            (BinOp::Gt, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a > b),
            (BinOp::Ge, FieldData::Bool(d)) => par::zip2_masked(d, x, y, m, |a, b| a >= b),
            _ => unreachable!("float op validated by binop"),
        }
    }
}

impl Kernel2<bool> for Dst<'_> {
    fn run<X: par::Operand<bool>, Y: par::Operand<bool>>(self, x: X, y: Y) {
        let m = self.mask;
        let FieldData::Bool(d) = self.data else { unreachable!("bool ops yield bool") };
        match self.op {
            BinOp::LogAnd => par::zip2_masked(d, x, y, m, |a, b| a & b),
            BinOp::LogOr => par::zip2_masked(d, x, y, m, |a, b| a | b),
            BinOp::LogXor | BinOp::Ne => par::zip2_masked(d, x, y, m, |a, b| a ^ b),
            BinOp::Eq => par::zip2_masked(d, x, y, m, |a, b| a == b),
            _ => unreachable!("bool op validated by binop"),
        }
    }
}

/// SplitMix64, used for the machine's deterministic per-VP PRNG.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Machine {
    fn same_vp(&self, ids: &[FieldId]) -> Result<usize> {
        let vp = ids[0].vp;
        for id in ids {
            if id.vp != vp {
                return Err(CmError::VpSetMismatch);
            }
        }
        self.vp_size(vp)
    }

    /// Masked memcpy between two distinct same-typed fields of one VP set
    /// (the shared tail of `copy` and identity `convert`).
    fn copy_masked_split(&mut self, dst: FieldId, src: FieldId) -> Result<()> {
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        match (d, peers.src(src)?) {
            (FieldData::I64(dv), FieldData::I64(sv)) => par::commit_masked(dv, sv, mask),
            (FieldData::F64(dv), FieldData::F64(sv)) => par::commit_masked(dv, sv, mask),
            (FieldData::Bool(dv), FieldData::Bool(sv)) => par::commit_masked(dv, sv, mask),
            _ => unreachable!("types validated by caller"),
        }
        Ok(())
    }

    /// `dst[i] = imm` for active `i`.
    pub fn set_imm(&mut self, dst: FieldId, imm: Scalar) -> Result<()> {
        let size = self.same_vp(&[dst])?;
        self.tick(OpClass::Alu, size)?;
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        match (d, imm) {
            (FieldData::I64(v), Scalar::Int(x)) => par::fill_masked(v, x, mask),
            (FieldData::F64(v), Scalar::Float(x)) => par::fill_masked(v, x, mask),
            (FieldData::Bool(v), Scalar::Bool(x)) => par::fill_masked(v, x, mask),
            (d, s) => {
                return Err(CmError::TypeMismatch {
                    expected: d.elem_type(),
                    found: s.elem_type(),
                })
            }
        }
        Ok(())
    }

    /// `dst[i] = src[i]` for active `i`. Types must match.
    pub fn copy(&mut self, dst: FieldId, src: FieldId) -> Result<()> {
        let size = self.same_vp(&[dst, src])?;
        let (dty, sty) = (self.field(dst)?.elem_type(), self.field(src)?.elem_type());
        if dty != sty {
            return Err(CmError::TypeMismatch { expected: dty, found: sty });
        }
        self.tick(OpClass::Alu, size)?;
        if dst == src {
            return Ok(());
        }
        self.copy_masked_split(dst, src)
    }

    /// `dst[i] = (dst_type) src[i]` for active `i`: numeric conversion.
    /// Int↔Float truncates toward zero; Bool↔numeric uses C truthiness.
    pub fn convert(&mut self, dst: FieldId, src: FieldId) -> Result<()> {
        let size = self.same_vp(&[dst, src])?;
        let (dty, sty) = (self.field(dst)?.elem_type(), self.field(src)?.elem_type());
        self.tick(OpClass::Alu, size)?;
        if dty == sty {
            // Identity cast: a masked memcpy, no intermediate buffer.
            if dst == src {
                return Ok(());
            }
            return self.copy_masked_split(dst, src);
        }
        // Cross-type: distinct element types means distinct fields, so the
        // source can never alias the destination.
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        match (d, peers.src(src)?) {
            (FieldData::F64(dv), FieldData::I64(sv)) => {
                par::apply1_masked(dv, sv, mask, |&x| x as f64)
            }
            (FieldData::Bool(dv), FieldData::I64(sv)) => {
                par::apply1_masked(dv, sv, mask, |&x| x != 0)
            }
            (FieldData::I64(dv), FieldData::F64(sv)) => {
                par::apply1_masked(dv, sv, mask, |&x| x as i64)
            }
            (FieldData::Bool(dv), FieldData::F64(sv)) => {
                par::apply1_masked(dv, sv, mask, |&x| x != 0.0)
            }
            (FieldData::I64(dv), FieldData::Bool(sv)) => {
                par::apply1_masked(dv, sv, mask, |&x| x as i64)
            }
            (FieldData::F64(dv), FieldData::Bool(sv)) => {
                par::apply1_masked(dv, sv, mask, |&x| (x as i64) as f64)
            }
            _ => unreachable!("identity casts handled above"),
        }
        Ok(())
    }

    /// Unary elementwise op.
    pub fn unop(&mut self, op: UnOp, dst: FieldId, src: FieldId) -> Result<()> {
        let size = self.same_vp(&[dst, src])?;
        let sty = self.field(src)?.elem_type();
        let valid = matches!(
            (op, sty),
            (UnOp::Neg | UnOp::Abs, ElemType::Int | ElemType::Float)
                | (UnOp::Not, ElemType::Bool)
                | (UnOp::BitNot, ElemType::Int)
        );
        if !valid {
            return Err(CmError::TypeMismatch { expected: ElemType::Int, found: sty });
        }
        let dty = self.field(dst)?.elem_type();
        if dty != sty {
            return Err(CmError::TypeMismatch { expected: dty, found: sty });
        }
        self.tick(OpClass::Alu, size)?;
        let tmp = if dst == src { Some(self.scratch_copy(dst)?) } else { None };
        let res: Result<()> = (|| {
            let (d, peers) = self.split_dst(dst)?;
            let mask = peers.mask(dst.vp)?;
            let s = match &tmp {
                Some(t) => t,
                None => peers.src(src)?,
            };
            match (op, d, s) {
                (UnOp::Neg, FieldData::I64(dv), FieldData::I64(sv)) => {
                    par::apply1_masked(dv, sv, mask, |&x| x.wrapping_neg())
                }
                (UnOp::Neg, FieldData::F64(dv), FieldData::F64(sv)) => {
                    par::apply1_masked(dv, sv, mask, |&x| -x)
                }
                (UnOp::Abs, FieldData::I64(dv), FieldData::I64(sv)) => {
                    // wrapping: abs(i64::MIN) must not trip overflow checks
                    par::apply1_masked(dv, sv, mask, |&x| x.wrapping_abs())
                }
                (UnOp::Abs, FieldData::F64(dv), FieldData::F64(sv)) => {
                    par::apply1_masked(dv, sv, mask, |&x| x.abs())
                }
                (UnOp::Not, FieldData::Bool(dv), FieldData::Bool(sv)) => {
                    par::apply1_masked(dv, sv, mask, |&x| !x)
                }
                (UnOp::BitNot, FieldData::I64(dv), FieldData::I64(sv)) => {
                    par::apply1_masked(dv, sv, mask, |&x| !x)
                }
                _ => unreachable!("op/type combination validated above"),
            }
            Ok(())
        })();
        if let Some(t) = tmp {
            self.scratch.put_data(t);
        }
        res
    }

    /// Binary elementwise op: `dst[i] = a[i] op b[i]` for active `i`.
    pub fn binop(&mut self, op: BinOp, dst: FieldId, a: FieldId, b: FieldId) -> Result<()> {
        self.binop_args(op, dst, Arg::Field(a), Arg::Field(b))
    }

    /// `dst[i] = a[i] op imm` for active `i`.
    pub fn binop_imm(&mut self, op: BinOp, dst: FieldId, a: FieldId, imm: Scalar) -> Result<()> {
        self.with_imm(a.vp, imm, |m| m.binop_args(op, dst, Arg::Field(a), Arg::Imm(imm)))
    }

    /// `dst[i] = imm op b[i]` for active `i` (immediate on the left, for
    /// non-commutative ops).
    pub fn binop_imm_l(&mut self, op: BinOp, dst: FieldId, imm: Scalar, b: FieldId) -> Result<()> {
        self.with_imm(b.vp, imm, |m| m.binop_args(op, dst, Arg::Imm(imm), Arg::Field(b)))
    }

    /// Run `f` under the cost of broadcasting `imm` over `vp`: the storage
    /// of an immediate field is held against the memory budget for the
    /// duration, and the broadcast is charged one ALU instruction first.
    /// The immediate itself reaches the kernel as a splat; no field is
    /// built. The charge is released on every path, errors included.
    fn with_imm(
        &mut self,
        vp: VpSetId,
        imm: Scalar,
        f: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        let size = self.vp_size(vp)?;
        let bytes = (size as u64).saturating_mul(elem_bytes(imm.elem_type()));
        self.charge_mem(bytes)?;
        let res = self.tick(OpClass::Alu, size).and_then(|()| f(self));
        self.release_mem(bytes);
        res
    }

    fn arg_type(&self, arg: Arg) -> Result<ElemType> {
        match arg {
            Arg::Field(id) => Ok(self.field(id)?.elem_type()),
            Arg::Imm(s) => Ok(s.elem_type()),
        }
    }

    /// The shared body of `binop`, `binop_imm` and `binop_imm_l`.
    fn binop_args(&mut self, op: BinOp, dst: FieldId, a: Arg, b: Arg) -> Result<()> {
        for arg in [a, b] {
            if let Arg::Field(id) = arg {
                if id.vp != dst.vp {
                    return Err(CmError::VpSetMismatch);
                }
            }
        }
        let size = self.vp_size(dst.vp)?;
        let (ta, tb) = (self.arg_type(a)?, self.arg_type(b)?);
        if ta != tb {
            return Err(CmError::TypeMismatch { expected: ta, found: tb });
        }
        match ta {
            ElemType::Int => {
                if op.is_logical() {
                    return Err(CmError::TypeMismatch {
                        expected: ElemType::Bool,
                        found: ElemType::Int,
                    });
                }
            }
            ElemType::Float => {
                if op.is_logical() || op.int_only() {
                    return Err(CmError::Unsupported("integer/logical op on float field"));
                }
            }
            ElemType::Bool => {
                if !matches!(
                    op,
                    BinOp::LogAnd | BinOp::LogOr | BinOp::LogXor | BinOp::Eq | BinOp::Ne
                ) {
                    return Err(CmError::Unsupported("arithmetic on bool field"));
                }
            }
        }
        let rty = op.result_type(ta);
        let dty = self.field(dst)?.elem_type();
        if dty != rty {
            return Err(CmError::TypeMismatch { expected: dty, found: rty });
        }
        // Active zero divisors are an error; inactive ones are fine because
        // the guarded kernel never evaluates inactive positions.
        if ta == ElemType::Int && matches!(op, BinOp::Div | BinOp::Mod) {
            let mask = self.vp(dst.vp)?.context.current();
            let zero = match b {
                Arg::Field(id) => {
                    let FieldData::I64(y) = &self.field(id)?.data else { unreachable!() };
                    par::any2(y, mask, |&q, &m| m && q == 0)
                }
                Arg::Imm(s) => s.as_int() == 0 && par::first_active(mask).is_some(),
            };
            if zero {
                return Err(CmError::DivideByZero);
            }
        }
        self.tick(OpClass::Alu, size)?;
        // Any aliased source equals dst, so one scratch copy covers both.
        let aliases = |arg: Arg| matches!(arg, Arg::Field(id) if id == dst);
        let tmp = if aliases(a) || aliases(b) { Some(self.scratch_copy(dst)?) } else { None };
        let res: Result<()> = (|| {
            let (d, peers) = self.split_dst(dst)?;
            let mask = peers.mask(dst.vp)?;
            let resolve = |arg: Arg| -> Result<Src<'_>> {
                Ok(match arg {
                    Arg::Field(id) if id == dst => Src::Field(tmp.as_ref().expect("alias copied")),
                    Arg::Field(id) => Src::Field(peers.src(id)?),
                    Arg::Imm(s) => Src::Imm(s),
                })
            };
            let (x, y) = (resolve(a)?, resolve(b)?);
            let k = Dst { op, data: d, mask };
            match ta {
                ElemType::Int => run2(k, x.ints(), y.ints()),
                ElemType::Float => run2(k, x.floats(), y.floats()),
                ElemType::Bool => run2(k, x.bools(), y.bools()),
            }
            Ok(())
        })();
        if let Some(t) = tmp {
            self.scratch.put_data(t);
        }
        res
    }

    /// Copy a field everywhere, ignoring the context mask. Used by the
    /// executor to snapshot state for fixed-point detection (`*solve`),
    /// where router scatters may have written outside the current mask.
    pub fn copy_unconditional(&mut self, dst: FieldId, src: FieldId) -> Result<()> {
        let size = self.same_vp(&[dst, src])?;
        let (dty, sty) = (self.field(dst)?.elem_type(), self.field(src)?.elem_type());
        if dty != sty {
            return Err(CmError::TypeMismatch { expected: dty, found: sty });
        }
        self.tick(OpClass::Alu, size)?;
        if dst == src {
            return Ok(());
        }
        let (d, peers) = self.split_dst(dst)?;
        d.clone_from_reusing(peers.src(src)?);
        Ok(())
    }

    /// Global test: do `a` and `b` differ anywhere (regardless of the
    /// context mask)? A combine-tree operation, charged as a scan.
    pub fn any_ne(&mut self, a: FieldId, b: FieldId) -> Result<bool> {
        let size = self.same_vp(&[a, b])?;
        let fa = &self.field(a)?.data;
        let fb = &self.field(b)?.data;
        let ne = match (fa, fb) {
            (FieldData::I64(x), FieldData::I64(y)) => par::any2(x, y, |p, q| p != q),
            (FieldData::F64(x), FieldData::F64(y)) => par::any2(x, y, |p, q| p != q),
            (FieldData::Bool(x), FieldData::Bool(y)) => par::any2(x, y, |p, q| p != q),
            (x, y) => {
                return Err(CmError::TypeMismatch {
                    expected: x.elem_type(),
                    found: y.elem_type(),
                })
            }
        };
        self.tick(OpClass::Scan, size)?;
        Ok(ne)
    }

    /// Fill a field everywhere, ignoring the context mask (front-end
    /// broadcast used for immediates and initialisation).
    pub fn fill_unconditional(&mut self, dst: FieldId, imm: Scalar) -> Result<()> {
        let size = self.same_vp(&[dst])?;
        let field = self.field_mut(dst)?;
        match (&mut field.data, imm) {
            (FieldData::I64(v), Scalar::Int(x)) => par::fill(v, x),
            (FieldData::F64(v), Scalar::Float(x)) => par::fill(v, x),
            (FieldData::Bool(v), Scalar::Bool(x)) => par::fill(v, x),
            (d, s) => {
                return Err(CmError::TypeMismatch {
                    expected: d.elem_type(),
                    found: s.elem_type(),
                })
            }
        }
        self.tick(OpClass::Alu, size)?;
        Ok(())
    }

    /// `dst[i] = cond[i] ? a[i] : b[i]` for active `i`.
    pub fn select(&mut self, dst: FieldId, cond: FieldId, a: FieldId, b: FieldId) -> Result<()> {
        let size = self.same_vp(&[dst, cond, a, b])?;
        let cty = self.field(cond)?.elem_type();
        if cty != ElemType::Bool {
            return Err(CmError::TypeMismatch { expected: ElemType::Bool, found: cty });
        }
        let (ta, tb) = (self.field(a)?.elem_type(), self.field(b)?.elem_type());
        if ta != tb {
            return Err(CmError::TypeMismatch { expected: ta, found: tb });
        }
        let dty = self.field(dst)?.elem_type();
        if dty != ta {
            return Err(CmError::TypeMismatch { expected: dty, found: ta });
        }
        self.tick(OpClass::Alu, size)?;
        let aliased = cond == dst || a == dst || b == dst;
        let tmp = if aliased { Some(self.scratch_copy(dst)?) } else { None };
        let res: Result<()> = (|| {
            let (d, peers) = self.split_dst(dst)?;
            let mask = peers.mask(dst.vp)?;
            let fc = if cond == dst { tmp.as_ref().expect("alias copied") } else { peers.src(cond)? };
            let fa = if a == dst { tmp.as_ref().expect("alias copied") } else { peers.src(a)? };
            let fb = if b == dst { tmp.as_ref().expect("alias copied") } else { peers.src(b)? };
            let FieldData::Bool(c) = fc else { unreachable!() };
            match (d, fa, fb) {
                (FieldData::I64(dv), FieldData::I64(x), FieldData::I64(y)) => {
                    par::select_masked(dv, c, x, y, mask)
                }
                (FieldData::F64(dv), FieldData::F64(x), FieldData::F64(y)) => {
                    par::select_masked(dv, c, x, y, mask)
                }
                (FieldData::Bool(dv), FieldData::Bool(x), FieldData::Bool(y)) => {
                    par::select_masked(dv, c, x, y, mask)
                }
                _ => unreachable!("types validated above"),
            }
            Ok(())
        })();
        if let Some(t) = tmp {
            self.scratch.put_data(t);
        }
        res
    }

    /// `dst[i] = i` (the VP's send address) for active `i`. `dst` must be Int.
    pub fn iota(&mut self, dst: FieldId) -> Result<()> {
        let size = self.same_vp(&[dst])?;
        self.int_data(dst)?; // type check
        self.tick(OpClass::Alu, size)?;
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        let FieldData::I64(dv) = d else { unreachable!() };
        par::apply_index_masked(dv, mask, |i| i as i64);
        Ok(())
    }

    /// `dst[i] = coordinate of VP i along axis` for active `i`.
    ///
    /// This is how index-set elements (`i`, `j`, ...) materialise on the
    /// machine: a par over `(I, J)` creates a 2-D VP set and each element
    /// identifier is the self-coordinate along one axis.
    pub fn axis_coord(&mut self, dst: FieldId, axis: usize) -> Result<()> {
        let size = self.same_vp(&[dst])?;
        self.int_data(dst)?;
        self.vp(dst.vp)?.geom.extent(axis)?;
        self.tick(OpClass::Alu, size)?;
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        let geom = peers.geom(dst.vp)?;
        let FieldData::I64(dv) = d else { unreachable!() };
        par::apply_index_masked(dv, mask, |i| {
            geom.axis_coordinate(i, axis).expect("axis checked") as i64
        });
        Ok(())
    }

    /// `dst[i] = uniform random in [0, modulus)` for active `i`,
    /// deterministic in `(seed, i)`. Models the per-processor `rand()` of
    /// the paper's benchmark initialisation.
    pub fn rand_int(&mut self, dst: FieldId, modulus: i64, seed: u64) -> Result<()> {
        if modulus <= 0 {
            return Err(CmError::DivideByZero);
        }
        let size = self.same_vp(&[dst])?;
        self.int_data(dst)?;
        self.tick(OpClass::Alu, size)?;
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        let FieldData::I64(dv) = d else { unreachable!() };
        par::apply_index_masked(dv, mask, |i| {
            (splitmix64(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)) % modulus as u64)
                as i64
        });
        Ok(())
    }

    /// Materialise the current activity mask of `dst`'s VP set into `dst`
    /// (a bool field), writing **unconditionally**. This is how nested
    /// constructs transfer their enabled set onto an extended VP set.
    pub fn read_context(&mut self, dst: FieldId) -> Result<()> {
        let size = self.same_vp(&[dst])?;
        self.bool_data(dst)?; // type check
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        let FieldData::Bool(dv) = d else { unreachable!() };
        dv.copy_from_slice(mask);
        self.tick(OpClass::Context, size)?;
        Ok(())
    }

    /// Front-end read of one element (ignores the context mask).
    pub fn read_elem(&mut self, id: FieldId, index: usize) -> Result<Scalar> {
        let size = self.vp_size(id.vp)?;
        if index >= size {
            return Err(CmError::IndexOutOfRange { index, size });
        }
        self.tick(OpClass::FrontEnd, 1)?;
        Ok(match &self.field(id)?.data {
            FieldData::I64(v) => Scalar::Int(v[index]),
            FieldData::F64(v) => Scalar::Float(v[index]),
            FieldData::Bool(v) => Scalar::Bool(v[index]),
        })
    }

    /// Front-end write of one element (ignores the context mask).
    pub fn write_elem(&mut self, id: FieldId, index: usize, value: Scalar) -> Result<()> {
        let size = self.vp_size(id.vp)?;
        if index >= size {
            return Err(CmError::IndexOutOfRange { index, size });
        }
        self.tick(OpClass::FrontEnd, 1)?;
        let field = self.field_mut(id)?;
        match (&mut field.data, value) {
            (FieldData::I64(v), Scalar::Int(x)) => v[index] = x,
            (FieldData::F64(v), Scalar::Float(x)) => v[index] = x,
            (FieldData::Bool(v), Scalar::Bool(x)) => v[index] = x,
            (d, s) => {
                return Err(CmError::TypeMismatch {
                    expected: d.elem_type(),
                    found: s.elem_type(),
                })
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn setup(n: usize) -> (Machine, crate::machine::VpSetId) {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        (m, vp)
    }

    #[test]
    fn imm_copy_convert() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_float(vp, "b").unwrap();
        m.set_imm(a, Scalar::Int(7)).unwrap();
        assert_eq!(m.read_elem(a, 2).unwrap(), Scalar::Int(7));
        m.convert(b, a).unwrap();
        assert_eq!(m.read_elem(b, 0).unwrap(), Scalar::Float(7.0));
        let c = m.alloc_int(vp, "c").unwrap();
        m.copy(c, a).unwrap();
        assert_eq!(m.read_elem(c, 3).unwrap(), Scalar::Int(7));
        assert!(m.copy(c, b).is_err(), "copy requires matching types");
    }

    #[test]
    fn binops_int() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.iota(a).unwrap(); // 0 1 2 3
        m.set_imm(b, Scalar::Int(3)).unwrap();
        m.binop(BinOp::Add, d, a, b).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[3, 4, 5, 6]);
        m.binop(BinOp::Mul, d, a, a).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 4, 9]);
        m.binop(BinOp::Max, d, a, b).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[3, 3, 3, 3]);
        m.binop(BinOp::Min, d, a, b).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 2, 3]);
        m.binop_imm(BinOp::Mod, d, a, Scalar::Int(2)).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 0, 1]);
        m.binop_imm_l(BinOp::Sub, d, Scalar::Int(10), a).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[10, 9, 8, 7]);
    }

    #[test]
    fn comparisons_produce_bool() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let t = m.alloc_bool(vp, "t").unwrap();
        m.iota(a).unwrap();
        m.binop_imm(BinOp::Lt, t, a, Scalar::Int(2)).unwrap();
        assert_eq!(m.bool_data(t).unwrap(), &[true, true, false, false]);
        m.binop_imm(BinOp::Eq, t, a, Scalar::Int(3)).unwrap();
        assert_eq!(m.bool_data(t).unwrap(), &[false, false, false, true]);
    }

    #[test]
    fn division_by_zero_only_if_active() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.set_imm(a, Scalar::Int(8)).unwrap();
        m.iota(b).unwrap(); // b[0] = 0
        assert_eq!(m.binop(BinOp::Div, d, a, b), Err(CmError::DivideByZero));
        // Deactivate VP 0 and retry: now fine.
        let nz = m.alloc_bool(vp, "nz").unwrap();
        m.binop_imm(BinOp::Ne, nz, b, Scalar::Int(0)).unwrap();
        m.push_context(nz).unwrap();
        m.binop(BinOp::Div, d, a, b).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 8, 4, 2]); // d[0] untouched
    }

    #[test]
    fn context_masks_writes() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let mask = m.alloc_bool(vp, "m").unwrap();
        m.set_imm(a, Scalar::Int(1)).unwrap();
        m.write_all(mask, FieldData::Bool(vec![true, false, true, false])).unwrap();
        m.push_context(mask).unwrap();
        m.set_imm(a, Scalar::Int(9)).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.int_data(a).unwrap(), &[9, 1, 9, 1]);
    }

    #[test]
    fn select_and_unops() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        let c = m.alloc_bool(vp, "c").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.iota(a).unwrap();
        m.binop_imm_l(BinOp::Sub, b, Scalar::Int(0), a).unwrap(); // b = -a
        m.binop_imm(BinOp::Ge, c, a, Scalar::Int(2)).unwrap();
        m.select(d, c, a, b).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, -1, 2, 3]);
        m.unop(UnOp::Neg, d, d).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, -2, -3]);
        m.unop(UnOp::Abs, d, d).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 2, 3]);
        m.unop(UnOp::Not, c, c).unwrap();
        assert_eq!(m.bool_data(c).unwrap(), &[true, true, false, false]);
    }

    #[test]
    fn axis_coordinates() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("g", &[2, 3]).unwrap();
        let i = m.alloc_int(vp, "i").unwrap();
        let j = m.alloc_int(vp, "j").unwrap();
        m.axis_coord(i, 0).unwrap();
        m.axis_coord(j, 1).unwrap();
        assert_eq!(m.int_data(i).unwrap(), &[0, 0, 0, 1, 1, 1]);
        assert_eq!(m.int_data(j).unwrap(), &[0, 1, 2, 0, 1, 2]);
        assert!(m.axis_coord(i, 2).is_err());
    }

    #[test]
    fn rand_is_deterministic_and_bounded() {
        let (mut m, vp) = setup(64);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        m.rand_int(a, 10, 42).unwrap();
        m.rand_int(b, 10, 42).unwrap();
        assert_eq!(m.int_data(a).unwrap(), m.int_data(b).unwrap());
        assert!(m.int_data(a).unwrap().iter().all(|&x| (0..10).contains(&x)));
        m.rand_int(b, 10, 43).unwrap();
        assert_ne!(m.int_data(a).unwrap(), m.int_data(b).unwrap());
        assert!(m.rand_int(a, 0, 1).is_err());
    }

    #[test]
    fn elem_access_bounds() {
        let (mut m, vp) = setup(2);
        let a = m.alloc_int(vp, "a").unwrap();
        m.write_elem(a, 1, Scalar::Int(5)).unwrap();
        assert_eq!(m.read_elem(a, 1).unwrap(), Scalar::Int(5));
        assert!(matches!(m.read_elem(a, 2), Err(CmError::IndexOutOfRange { .. })));
        assert!(m.write_elem(a, 0, Scalar::Float(1.0)).is_err());
    }

    #[test]
    fn read_context_materialises_mask() {
        let (mut m, vp) = setup(4);
        let mask = m.alloc_bool(vp, "m").unwrap();
        let out = m.alloc_bool(vp, "out").unwrap();
        m.write_all(mask, FieldData::Bool(vec![true, false, true, false])).unwrap();
        m.push_context(mask).unwrap();
        m.read_context(out).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.bool_data(out).unwrap(), &[true, false, true, false]);
        // At base context it reads all-true, even though `out` was
        // partially masked before (read_context writes unconditionally).
        m.read_context(out).unwrap();
        assert_eq!(m.bool_data(out).unwrap(), &[true; 4]);
    }

    #[test]
    fn copy_unconditional_ignores_mask() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        let none = m.alloc_bool(vp, "none").unwrap(); // all false
        m.iota(a).unwrap();
        m.push_context(none).unwrap();
        m.copy(b, a).unwrap(); // masked: no effect
        assert_eq!(m.int_data(b).unwrap(), &[0; 4]);
        m.copy_unconditional(b, a).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[0, 1, 2, 3]);
        m.pop_context(vp).unwrap();
        let f = m.alloc_float(vp, "f").unwrap();
        assert!(m.copy_unconditional(f, a).is_err());
    }

    #[test]
    fn any_ne_global_test() {
        let (mut m, vp) = setup(3);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        assert!(!m.any_ne(a, b).unwrap());
        m.write_elem(b, 2, Scalar::Int(9)).unwrap();
        assert!(m.any_ne(a, b).unwrap());
        // Ignores the context mask by design (fixed-point detection).
        let none = m.alloc_bool(vp, "none").unwrap();
        m.push_context(none).unwrap();
        assert!(m.any_ne(a, b).unwrap());
        m.pop_context(vp).unwrap();
        let f = m.alloc_float(vp, "f").unwrap();
        assert!(m.any_ne(a, f).is_err());
    }

    #[test]
    fn logical_ops_on_bool_only() {
        let (mut m, vp) = setup(2);
        let a = m.alloc_int(vp, "a").unwrap();
        let t = m.alloc_bool(vp, "t").unwrap();
        let u = m.alloc_bool(vp, "u").unwrap();
        assert!(m.binop(BinOp::LogAnd, a, a, a).is_err());
        m.write_all(t, FieldData::Bool(vec![true, false])).unwrap();
        m.write_all(u, FieldData::Bool(vec![true, true])).unwrap();
        let r = m.alloc_bool(vp, "r").unwrap();
        m.binop(BinOp::LogAnd, r, t, u).unwrap();
        assert_eq!(m.bool_data(r).unwrap(), &[true, false]);
        m.binop(BinOp::LogXor, r, t, u).unwrap();
        assert_eq!(m.bool_data(r).unwrap(), &[false, true]);
    }
}
