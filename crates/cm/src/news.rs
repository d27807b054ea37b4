//! NEWS-grid communication.
//!
//! The CM-2 arranges processors in a grid; each can exchange data with its
//! North/East/West/South neighbours far more cheaply than through the
//! general router. The simulator generalises this to any axis of the VP-set
//! geometry and any constant offset (offset ±1 is one NEWS hop; larger
//! offsets model repeated hops but are charged once — the UC compiler emits
//! power-of-two shift chains itself where it matters).
//!
//! On the host a shift is one pass of contiguous copies. Row-major layout
//! cuts a field into blocks of `extent · stride` elements, one per line
//! along the axis, and a shift moves every block the same way: its
//! destinations read one contiguous source run `offset · stride` elements
//! away, and only the `|offset| · stride` border elements take the wrap,
//! fill or keep policy. `shift_spans` builds that plan once per
//! instruction; `par::shift_masked` runs it. Offsets are reduced (wrap)
//! or clamped (fill, keep) to the extent before any arithmetic, so every
//! `i64` offset is safe.
//!
//! The shift charges its NEWS cycle *after* the data moves, like the
//! router and scan ops.

use crate::cost::OpClass;
use crate::field::{FieldData, FieldId};
use crate::machine::Machine;
use crate::par::{self, ShiftSpan};
use crate::{CmError, Result, Scalar};

/// What an off-grid fetch produces for non-toroidal shifts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Border {
    /// Coordinates wrap around (toroidal grid).
    Wrap,
    /// Off-grid fetches yield this value.
    Fill(Scalar),
    /// Off-grid positions keep their previous destination value.
    Keep,
}

impl Machine {
    /// NEWS fetch: for every active VP `p`, `dst[p] = src[q]` where `q` is
    /// the VP `offset` steps along `axis` from `p` (so `offset = +1` makes
    /// `dst[i] = src[i+1]` along that axis).
    ///
    /// `dst` and `src` must live on the same VP set and share a type.
    pub fn news_shift(
        &mut self,
        dst: FieldId,
        src: FieldId,
        axis: usize,
        offset: i64,
        border: Border,
    ) -> Result<()> {
        if dst.vp != src.vp {
            return Err(CmError::VpSetMismatch);
        }
        let geom = &self.vp(dst.vp)?.geom;
        let (size, stride, extent) = (geom.size(), geom.stride(axis)?, geom.extent(axis)?);

        let dst_ty = self.field(dst)?.elem_type();
        let src_ty = self.field(src)?.elem_type();
        if dst_ty != src_ty {
            return Err(CmError::TypeMismatch { expected: dst_ty, found: src_ty });
        }
        if let Border::Fill(s) = border {
            if s.elem_type() != dst_ty {
                return Err(CmError::TypeMismatch { expected: dst_ty, found: s.elem_type() });
            }
        }

        let spans = shift_spans(extent, stride, offset, border);
        let block = extent * stride;

        // An in-place shift reads a scratch copy of the pre-shift values.
        let tmp = if src == dst { Some(self.scratch_copy(dst)?) } else { None };
        let res: Result<()> = (|| {
            let (d, peers) = self.split_dst(dst)?;
            let mask = peers.mask(dst.vp)?;
            let sdata =
                if src == dst { tmp.as_ref().expect("alias copied") } else { peers.src(src)? };
            let fill = match border {
                Border::Fill(s) => Some(s),
                Border::Wrap | Border::Keep => None,
            };
            match (d, sdata) {
                (FieldData::I64(d), FieldData::I64(s)) => {
                    par::shift_masked(d, s, mask, block, &spans, fill.map(Scalar::as_int))
                }
                (FieldData::F64(d), FieldData::F64(s)) => {
                    par::shift_masked(d, s, mask, block, &spans, fill.map(Scalar::as_float))
                }
                (FieldData::Bool(d), FieldData::Bool(s)) => {
                    par::shift_masked(d, s, mask, block, &spans, fill.map(Scalar::as_bool))
                }
                _ => unreachable!("types validated above"),
            }
            Ok(())
        })();
        if let Some(t) = tmp {
            self.scratch.put_data(t);
        }
        res?;

        self.tick(OpClass::News, size)?;
        Ok(())
    }
}

/// The per-block plan of a shift by `offset` along an axis of `extent`
/// coordinates spaced `stride` elements apart: a run of destinations that
/// copy a contiguous source run, then (or, for negative offsets, after)
/// the destinations off the grid. `Wrap` makes both spans copies.
pub(crate) fn shift_spans(
    extent: usize,
    stride: usize,
    offset: i64,
    border: Border,
) -> [ShiftSpan; 2] {
    let block = extent * stride;
    if matches!(border, Border::Wrap) {
        // `extent` fits in i64 (geometries are capped at i64::MAX VPs).
        let k = offset.rem_euclid(extent as i64) as usize * stride;
        return [
            ShiftSpan { start: 0, end: block - k, from: Some(k) },
            ShiftSpan { start: block - k, end: block, from: Some(0) },
        ];
    }
    let k = offset.unsigned_abs().min(extent as u64) as usize * stride;
    if offset >= 0 {
        [
            ShiftSpan { start: 0, end: block - k, from: Some(k) },
            ShiftSpan { start: block - k, end: block, from: None },
        ]
    } else {
        [
            ShiftSpan { start: 0, end: k, from: None },
            ShiftSpan { start: k, end: block, from: Some(0) },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn line(n: usize) -> (Machine, FieldId, FieldId) {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        m.iota(a).unwrap();
        (m, a, b)
    }

    #[test]
    fn shift_right_fetches_left_neighbor() {
        let (mut m, a, b) = line(4);
        // b[i] = a[i-1], border filled with -1
        m.news_shift(b, a, 0, -1, Border::Fill(Scalar::Int(-1))).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[-1, 0, 1, 2]);
    }

    #[test]
    fn shift_left_fetches_right_neighbor() {
        let (mut m, a, b) = line(4);
        m.news_shift(b, a, 0, 1, Border::Fill(Scalar::Int(99))).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[1, 2, 3, 99]);
    }

    #[test]
    fn wrap_is_toroidal() {
        let (mut m, a, b) = line(4);
        m.news_shift(b, a, 0, 1, Border::Wrap).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[1, 2, 3, 0]);
        m.news_shift(b, a, 0, -1, Border::Wrap).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[3, 0, 1, 2]);
    }

    #[test]
    fn keep_leaves_border_untouched() {
        let (mut m, a, b) = line(3);
        m.set_imm(b, Scalar::Int(7)).unwrap();
        m.news_shift(b, a, 0, 1, Border::Keep).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[1, 2, 7]);
    }

    #[test]
    fn two_dimensional_axes() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("g", &[2, 3]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        m.iota(a).unwrap(); // [0 1 2; 3 4 5]
        m.news_shift(b, a, 0, 1, Border::Fill(Scalar::Int(0))).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[3, 4, 5, 0, 0, 0]);
        m.news_shift(b, a, 1, -1, Border::Fill(Scalar::Int(0))).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[0, 0, 1, 0, 3, 4]);
    }

    #[test]
    fn context_masks_news_writes() {
        let (mut m, a, b) = line(4);
        let vp = a.vp_set();
        let mask = m.alloc_bool(vp, "m").unwrap();
        m.write_all(mask, FieldData::Bool(vec![true, false, true, false])).unwrap();
        m.set_imm(b, Scalar::Int(-7)).unwrap();
        m.push_context(mask).unwrap();
        m.news_shift(b, a, 0, 1, Border::Wrap).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[1, -7, 3, -7]);
    }

    #[test]
    fn errors() {
        let (mut m, a, b) = line(4);
        assert!(m.news_shift(b, a, 1, 1, Border::Wrap).is_err(), "bad axis");
        let f = m.alloc_float(a.vp_set(), "f").unwrap();
        assert!(m.news_shift(f, a, 0, 1, Border::Wrap).is_err(), "type mismatch");
        assert!(
            m.news_shift(f, a, 0, 1, Border::Fill(Scalar::Int(0))).is_err(),
            "fill type mismatch"
        );
    }

    #[test]
    fn news_charges_news_class() {
        let (mut m, a, b) = line(4);
        let before = m.counters().news;
        m.news_shift(b, a, 0, 1, Border::Wrap).unwrap();
        assert_eq!(m.counters().news, before + 1);
    }
}
