//! VP-set geometries.
//!
//! A Connection Machine VP set is configured with an n-dimensional
//! *geometry*. Every virtual processor has a coordinate vector and a
//! row-major *send address* (linear index) used by the router. NEWS-grid
//! communication moves data along one axis of the geometry at a time.

use crate::{CmError, Result};

/// An n-dimensional VP-set shape.
///
/// Coordinates are row-major: the last axis varies fastest, exactly like a
/// C array `a[d0][d1]...[dk]`, which is how the UC compiler lays out
/// program arrays on the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    dims: Vec<usize>,
    /// Row-major strides; `strides[i]` is the linear distance between
    /// neighbours along axis `i`.
    strides: Vec<usize>,
    size: usize,
}

impl Geometry {
    /// Create a geometry. Fails with [`CmError::BadGeometry`] on an empty
    /// dimension list, any zero extent, or a total size that overflows
    /// `usize` (hostile inputs must trap, not wrap).
    pub fn new(dims: &[usize]) -> Result<Self> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(CmError::BadGeometry);
        }
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] =
                strides[i + 1].checked_mul(dims[i + 1]).ok_or(CmError::BadGeometry)?;
        }
        let size = strides[0].checked_mul(dims[0]).ok_or(CmError::BadGeometry)?;
        // Addresses and NEWS deltas are computed in i64; keep the whole
        // address space representable there.
        if size > i64::MAX as usize {
            return Err(CmError::BadGeometry);
        }
        Ok(Geometry { dims: dims.to_vec(), strides, size })
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of virtual processors.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Extent of one axis.
    pub fn extent(&self, axis: usize) -> Result<usize> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(CmError::AxisOutOfRange { axis, rank: self.rank() })
    }

    /// All extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Row-major stride of one axis.
    pub fn stride(&self, axis: usize) -> Result<usize> {
        self.strides
            .get(axis)
            .copied()
            .ok_or(CmError::AxisOutOfRange { axis, rank: self.rank() })
    }

    /// Linear send address of a coordinate vector.
    ///
    /// Returns `None` if the coordinate has the wrong rank or is outside
    /// the geometry.
    pub fn address(&self, coord: &[usize]) -> Option<usize> {
        if coord.len() != self.dims.len() {
            return None;
        }
        let mut addr = 0usize;
        for ((&c, &d), &s) in coord.iter().zip(&self.dims).zip(&self.strides) {
            if c >= d {
                return None;
            }
            addr += c * s;
        }
        Some(addr)
    }

    /// Coordinate vector of a linear send address.
    pub fn coordinate(&self, mut addr: usize) -> Option<Vec<usize>> {
        if addr >= self.size {
            return None;
        }
        let mut coord = Vec::with_capacity(self.dims.len());
        for &s in &self.strides {
            coord.push(addr / s);
            addr %= s;
        }
        Some(coord)
    }

    /// The coordinate of `addr` along a single axis, without materialising
    /// the whole coordinate vector.
    #[inline]
    pub fn axis_coordinate(&self, addr: usize, axis: usize) -> Result<usize> {
        let s = self.stride(axis)?;
        let d = self.extent(axis)?;
        Ok((addr / s) % d)
    }

    /// The linear address of the neighbour of `addr` that lies `offset`
    /// steps along `axis`, or `None` when the neighbour falls off the grid
    /// (non-wrapping NEWS).
    #[inline]
    pub fn neighbor(&self, addr: usize, axis: usize, offset: i64) -> Result<Option<usize>> {
        let s = self.stride(axis)?;
        let d = self.extent(axis)? as i64;
        let c = ((addr / s) % d as usize) as i64;
        // An overflowing coordinate is off the grid too.
        let Some(nc) = c.checked_add(offset).filter(|nc| (0..d).contains(nc)) else {
            return Ok(None);
        };
        let delta = (nc - c) * s as i64;
        Ok(Some((addr as i64 + delta) as usize))
    }

    /// Like [`Geometry::neighbor`] but toroidal: coordinates wrap.
    #[inline]
    pub fn neighbor_wrap(&self, addr: usize, axis: usize, offset: i64) -> Result<usize> {
        let s = self.stride(axis)?;
        let d = self.extent(axis)? as i64;
        let c = ((addr / s) % d as usize) as i64;
        // Reduce the offset first: `c + offset` could overflow.
        let nc = (c + (offset.rem_euclid(d) - d)).rem_euclid(d);
        let delta = (nc - c) * s as i64;
        Ok((addr as i64 + delta) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_geometries() {
        assert_eq!(Geometry::new(&[]), Err(CmError::BadGeometry));
        assert_eq!(Geometry::new(&[4, 0]), Err(CmError::BadGeometry));
    }

    #[test]
    fn row_major_addresses() {
        let g = Geometry::new(&[3, 4]).unwrap();
        assert_eq!(g.size(), 12);
        assert_eq!(g.rank(), 2);
        assert_eq!(g.address(&[0, 0]), Some(0));
        assert_eq!(g.address(&[0, 3]), Some(3));
        assert_eq!(g.address(&[1, 0]), Some(4));
        assert_eq!(g.address(&[2, 3]), Some(11));
        assert_eq!(g.address(&[3, 0]), None);
        assert_eq!(g.address(&[0, 4]), None);
        assert_eq!(g.address(&[0]), None);
    }

    #[test]
    fn coordinates_invert_addresses() {
        let g = Geometry::new(&[2, 3, 4]).unwrap();
        for addr in 0..g.size() {
            let c = g.coordinate(addr).unwrap();
            assert_eq!(g.address(&c), Some(addr));
        }
        assert_eq!(g.coordinate(g.size()), None);
    }

    #[test]
    fn axis_coordinate_matches_full_coordinate() {
        let g = Geometry::new(&[5, 7]).unwrap();
        for addr in 0..g.size() {
            let c = g.coordinate(addr).unwrap();
            assert_eq!(g.axis_coordinate(addr, 0).unwrap(), c[0]);
            assert_eq!(g.axis_coordinate(addr, 1).unwrap(), c[1]);
        }
    }

    #[test]
    fn neighbors_bounded() {
        let g = Geometry::new(&[3, 3]).unwrap();
        // middle cell (1,1) = addr 4
        assert_eq!(g.neighbor(4, 0, 1).unwrap(), Some(7));
        assert_eq!(g.neighbor(4, 0, -1).unwrap(), Some(1));
        assert_eq!(g.neighbor(4, 1, 1).unwrap(), Some(5));
        assert_eq!(g.neighbor(4, 1, -1).unwrap(), Some(3));
        // corner falls off
        assert_eq!(g.neighbor(0, 0, -1).unwrap(), None);
        assert_eq!(g.neighbor(8, 1, 1).unwrap(), None);
        // long strides fall off too
        assert_eq!(g.neighbor(0, 0, 3).unwrap(), None);
    }

    #[test]
    fn neighbors_wrap() {
        let g = Geometry::new(&[3, 3]).unwrap();
        assert_eq!(g.neighbor_wrap(0, 0, -1).unwrap(), 6);
        assert_eq!(g.neighbor_wrap(8, 1, 1).unwrap(), 6);
        assert_eq!(g.neighbor_wrap(4, 0, 3).unwrap(), 4); // full loop
        assert_eq!(g.neighbor_wrap(4, 1, -4).unwrap(), 3);
    }

    #[test]
    fn extreme_offsets_do_not_overflow() {
        let g = Geometry::new(&[3, 3]).unwrap();
        assert_eq!(g.neighbor(4, 0, i64::MAX).unwrap(), None);
        assert_eq!(g.neighbor(4, 1, i64::MIN).unwrap(), None);
        // i64::MAX = 1 (mod 3), i64::MIN = 1 (mod 3).
        assert_eq!(g.neighbor_wrap(4, 0, i64::MAX).unwrap(), 7);
        assert_eq!(g.neighbor_wrap(4, 1, i64::MIN).unwrap(), 5);
    }

    #[test]
    fn axis_errors() {
        let g = Geometry::new(&[3]).unwrap();
        assert!(matches!(g.extent(1), Err(CmError::AxisOutOfRange { .. })));
        assert!(matches!(g.neighbor(0, 2, 1), Err(CmError::AxisOutOfRange { .. })));
    }
}
