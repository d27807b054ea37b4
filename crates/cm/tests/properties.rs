//! Property-based tests of the simulator's core invariants.

use proptest::prelude::*;
use uc_cm::cost::{CostModel, OpClass};
use uc_cm::{
    news::Border, BinOp, CmError, Combine, ElemType, FieldData, Geometry, Machine, ReduceOp, Scalar,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Geometry address/coordinate are mutual inverses for any shape.
    #[test]
    fn geometry_roundtrip(dims in prop::collection::vec(1usize..6, 1..4)) {
        let g = Geometry::new(&dims).unwrap();
        for addr in 0..g.size() {
            let c = g.coordinate(addr).unwrap();
            prop_assert_eq!(g.address(&c), Some(addr));
            for (axis, &coord) in c.iter().enumerate() {
                prop_assert_eq!(g.axis_coordinate(addr, axis).unwrap(), coord);
            }
        }
    }

    /// Toroidal neighbours compose: +k then -k is the identity.
    #[test]
    fn wrap_neighbors_invert(dims in prop::collection::vec(1usize..6, 1..3),
                             offset in -7i64..7) {
        let g = Geometry::new(&dims).unwrap();
        for addr in 0..g.size() {
            for axis in 0..g.rank() {
                let there = g.neighbor_wrap(addr, axis, offset).unwrap();
                let back = g.neighbor_wrap(there, axis, -offset).unwrap();
                prop_assert_eq!(back, addr);
            }
        }
    }

    /// A router send along a permutation delivers exactly the permuted
    /// data (no loss, no duplication).
    #[test]
    fn router_permutation(perm in prop::collection::vec(0usize..32, 2..32)) {
        // Make `perm` a permutation of 0..n.
        let n = perm.len();
        let mut p: Vec<usize> = (0..n).collect();
        for (k, &r) in perm.iter().enumerate() {
            p.swap(k, r % n);
        }
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_int(vp, "d").unwrap();
        let data: Vec<i64> = (0..n as i64).map(|x| x * 10 + 1).collect();
        m.write_all(src, FieldData::I64(data.clone())).unwrap();
        m.write_all(addr, FieldData::I64(p.iter().map(|&x| x as i64).collect())).unwrap();
        let conflict = m.send_detect(dst, addr, src, Combine::Overwrite).unwrap();
        prop_assert!(!conflict, "permutation cannot collide");
        let out = match m.read_all(dst).unwrap() {
            FieldData::I64(v) => v,
            _ => unreachable!(),
        };
        for i in 0..n {
            prop_assert_eq!(out[p[i]], data[i]);
        }
    }

    /// get(send(x)) round-trips through any permutation.
    #[test]
    fn gather_inverts_scatter(perm in prop::collection::vec(0usize..24, 2..24)) {
        let n = perm.len();
        let mut p: Vec<usize> = (0..n).collect();
        for (k, &r) in perm.iter().enumerate() {
            p.swap(k, r % n);
        }
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let mid = m.alloc_int(vp, "mid").unwrap();
        let back = m.alloc_int(vp, "back").unwrap();
        let data: Vec<i64> = (0..n as i64).map(|x| 7 - 3 * x).collect();
        m.write_all(src, FieldData::I64(data.clone())).unwrap();
        m.write_all(addr, FieldData::I64(p.iter().map(|&x| x as i64).collect())).unwrap();
        m.send(mid, addr, src, Combine::Overwrite).unwrap();
        m.get(back, addr, mid).unwrap();
        prop_assert_eq!(m.read_all(back).unwrap(), FieldData::I64(data));
    }

    /// Machine reductions equal sequential folds under arbitrary masks.
    #[test]
    fn reduce_equals_fold(data in prop::collection::vec(-100i64..100, 1..64),
                          mask in prop::collection::vec(any::<bool>(), 1..64)) {
        let n = data.len().min(mask.len());
        let data = &data[..n];
        let mask = &mask[..n];
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let mk = m.alloc_bool(vp, "m").unwrap();
        m.write_all(a, FieldData::I64(data.to_vec())).unwrap();
        m.write_all(mk, FieldData::Bool(mask.to_vec())).unwrap();
        m.push_context(mk).unwrap();
        let active: Vec<i64> =
            data.iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x).collect();
        prop_assert_eq!(
            m.reduce(a, ReduceOp::Add).unwrap().as_int(),
            active.iter().sum::<i64>()
        );
        prop_assert_eq!(
            m.reduce(a, ReduceOp::Min).unwrap().as_int(),
            active.iter().min().copied().unwrap_or(i64::MAX)
        );
        prop_assert_eq!(
            m.reduce(a, ReduceOp::Max).unwrap().as_int(),
            active.iter().max().copied().unwrap_or(i64::MIN)
        );
        m.pop_context(vp).unwrap();
    }

    /// Inclusive scan equals the running fold; exclusive is the shifted
    /// variant.
    #[test]
    fn scan_equals_running_fold(data in prop::collection::vec(-50i64..50, 1..48)) {
        let n = data.len();
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.write_all(a, FieldData::I64(data.clone())).unwrap();
        m.scan(d, a, ReduceOp::Add, true, None).unwrap();
        let mut acc = 0i64;
        let incl: Vec<i64> = data.iter().map(|&x| { acc += x; acc }).collect();
        prop_assert_eq!(m.read_all(d).unwrap(), FieldData::I64(incl.clone()));
        m.scan(d, a, ReduceOp::Add, false, None).unwrap();
        let excl: Vec<i64> =
            std::iter::once(0).chain(incl[..n - 1].iter().copied()).collect();
        prop_assert_eq!(m.read_all(d).unwrap(), FieldData::I64(excl));
    }

    /// NEWS shift with wrap equals index rotation.
    #[test]
    fn news_wrap_is_rotation(data in prop::collection::vec(-50i64..50, 2..32),
                             offset in -5i64..5) {
        let n = data.len();
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.write_all(a, FieldData::I64(data.clone())).unwrap();
        m.news_shift(d, a, 0, offset, Border::Wrap).unwrap();
        let expect: Vec<i64> = (0..n)
            .map(|i| data[(i as i64 + offset).rem_euclid(n as i64) as usize])
            .collect();
        prop_assert_eq!(m.read_all(d).unwrap(), FieldData::I64(expect));
    }

    /// The cycle clock is deterministic: the same op sequence charges the
    /// same cycles regardless of the data.
    #[test]
    fn clock_is_data_independent(a_data in prop::collection::vec(-9i64..9, 8..9),
                                 b_data in prop::collection::vec(-9i64..9, 8..9)) {
        let run = |data: &[i64]| -> u64 {
            let mut m = Machine::with_defaults();
            let vp = m.new_vp_set("v", &[8]).unwrap();
            let a = m.alloc_int(vp, "a").unwrap();
            let b = m.alloc_int(vp, "b").unwrap();
            m.write_all(a, FieldData::I64(data.to_vec())).unwrap();
            m.binop(BinOp::Add, b, a, a).unwrap();
            m.binop_imm(BinOp::Mul, b, b, Scalar::Int(3)).unwrap();
            m.reduce(b, ReduceOp::Max).unwrap();
            m.cycles()
        };
        prop_assert_eq!(run(&a_data), run(&b_data));
    }
}

/// SplitMix64 — a self-contained generator so the reference data below
/// does not depend on the machine's own `rand_int`.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Fields big enough to cross `par::PAR_THRESHOLD` take the parallel
// branch of every wired hot path; these properties pin parallel results
// to sequential references computed inline. Sizes straddle the threshold
// (just below, at, and above) so both branches and the boundary itself
// are exercised. Fewer cases than above — each case moves ~16k elements.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Router send with random (colliding) addresses equals a sequential
    /// sender-order loop, for every combining mode, on both sides of the
    /// parallel threshold.
    #[test]
    fn parallel_send_matches_sequential_reference(seed in 0u64..u64::MAX,
                                                  delta in 0usize..3) {
        let n = uc_cm::par::PAR_THRESHOLD - 1 + delta * 2048;
        let dst_n = n / 4;
        let data: Vec<i64> = (0..n).map(|i| mix(seed, i as u64) as i64 % 1000).collect();
        let addrs: Vec<i64> = (0..n).map(|i| (mix(!seed, i as u64) % dst_n as u64) as i64).collect();
        for combine in [Combine::Overwrite, Combine::Add, Combine::Min, Combine::Max] {
            let mut m = Machine::with_defaults();
            let vp = m.new_vp_set("senders", &[n]).unwrap();
            let dvp = m.new_vp_set("receivers", &[dst_n]).unwrap();
            let src = m.alloc_int(vp, "s").unwrap();
            let addr = m.alloc_int(vp, "a").unwrap();
            let dst = m.alloc_int(dvp, "d").unwrap();
            m.write_all(src, FieldData::I64(data.clone())).unwrap();
            m.write_all(addr, FieldData::I64(addrs.clone())).unwrap();
            m.fill_unconditional(dst, Scalar::Int(-1)).unwrap();
            m.send(dst, addr, src, combine).unwrap();

            let mut expect = vec![-1i64; dst_n];
            let mut hit = vec![false; dst_n];
            for (&v, &a) in data.iter().zip(&addrs) {
                let a = a as usize;
                expect[a] = if !hit[a] {
                    v
                } else {
                    match combine {
                        Combine::Overwrite => v,
                        Combine::Add => expect[a] + v,
                        Combine::Min => expect[a].min(v),
                        Combine::Max => expect[a].max(v),
                        _ => unreachable!(),
                    }
                };
                hit[a] = true;
            }
            prop_assert_eq!(m.read_all(dst).unwrap(), FieldData::I64(expect));
        }
    }

    /// Router get through random addresses equals direct indexing above
    /// and below the threshold, and leaves masked-off VPs untouched.
    #[test]
    fn parallel_get_matches_direct_indexing(seed in 0u64..u64::MAX,
                                            delta in 0usize..3) {
        let n = uc_cm::par::PAR_THRESHOLD - 1 + delta * 2048;
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let table = m.alloc_int(vp, "t").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let out = m.alloc_int(vp, "o").unwrap();
        let mk = m.alloc_bool(vp, "m").unwrap();
        let data: Vec<i64> = (0..n).map(|i| mix(seed, i as u64) as i64 % 9973).collect();
        let addrs: Vec<i64> = (0..n).map(|i| (mix(!seed, i as u64) % n as u64) as i64).collect();
        let mask: Vec<bool> = (0..n).map(|i| !mix(seed ^ 0xA5A5, i as u64).is_multiple_of(4)).collect();
        m.write_all(table, FieldData::I64(data.clone())).unwrap();
        m.write_all(addr, FieldData::I64(addrs.clone())).unwrap();
        m.write_all(mk, FieldData::Bool(mask.clone())).unwrap();
        m.fill_unconditional(out, Scalar::Int(-3)).unwrap();
        m.push_context(mk).unwrap();
        m.get(out, addr, table).unwrap();
        m.pop_context(vp).unwrap();
        let expect: Vec<i64> = (0..n)
            .map(|i| if mask[i] { data[addrs[i] as usize] } else { -3 })
            .collect();
        prop_assert_eq!(m.read_all(out).unwrap(), FieldData::I64(expect));
    }

    /// The blocked two-pass parallel scan equals the running fold at
    /// sizes just below, at, and above the parallel threshold.
    #[test]
    fn parallel_scan_matches_running_fold(seed in 0u64..u64::MAX,
                                          delta in 0usize..5) {
        let n = uc_cm::par::PAR_THRESHOLD - 2 + delta;
        let data: Vec<i64> = (0..n).map(|i| mix(seed, i as u64) as i64 % 100).collect();
        let mask: Vec<bool> = (0..n).map(|i| !mix(!seed, i as u64).is_multiple_of(3)).collect();
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        let mk = m.alloc_bool(vp, "m").unwrap();
        m.write_all(a, FieldData::I64(data.clone())).unwrap();
        m.write_all(mk, FieldData::Bool(mask.clone())).unwrap();
        m.fill_unconditional(d, Scalar::Int(0)).unwrap();
        m.push_context(mk).unwrap();
        m.scan(d, a, ReduceOp::Add, true, None).unwrap();
        m.pop_context(vp).unwrap();
        let mut acc = 0i64;
        let expect: Vec<i64> = (0..n)
            .map(|i| if mask[i] { acc += data[i]; acc } else { 0 })
            .collect();
        prop_assert_eq!(m.read_all(d).unwrap(), FieldData::I64(expect));

        prop_assert_eq!(
            m.reduce(a, ReduceOp::Add).unwrap().as_int(),
            data.iter().sum::<i64>()
        );
    }

    /// Elementwise chains above the threshold equal the scalar loop.
    #[test]
    fn parallel_elementwise_matches_scalar_loop(seed in 0u64..u64::MAX) {
        let n = uc_cm::par::PAR_THRESHOLD + 517;
        let av: Vec<i64> = (0..n).map(|i| mix(seed, i as u64) as i64 % 500 - 250).collect();
        let bv: Vec<i64> = (0..n).map(|i| mix(!seed, i as u64) as i64 % 500 - 250).collect();
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        let c = m.alloc_int(vp, "c").unwrap();
        m.write_all(a, FieldData::I64(av.clone())).unwrap();
        m.write_all(b, FieldData::I64(bv.clone())).unwrap();
        m.binop(BinOp::Mul, c, a, b).unwrap();
        m.binop(BinOp::Max, c, c, a).unwrap();
        m.binop_imm(BinOp::Add, c, c, Scalar::Int(13)).unwrap();
        let expect: Vec<i64> =
            av.iter().zip(&bv).map(|(&x, &y)| (x * y).max(x) + 13).collect();
        prop_assert_eq!(m.read_all(c).unwrap(), FieldData::I64(expect));
    }
}

// ---------------------------------------------------------------------
// NEWS shifts against coordinate arithmetic.
// ---------------------------------------------------------------------

/// Where each destination of a NEWS shift reads from, worked out from
/// row-major coordinates: `Some(q)` for source VP `q`, `None` off the
/// grid. Arithmetic is in i128 so no offset can overflow.
fn news_sources(dims: &[usize], axis: usize, offset: i64, wrap: bool) -> Vec<Option<usize>> {
    let size: usize = dims.iter().product();
    (0..size)
        .map(|p| {
            let mut coord = vec![0usize; dims.len()];
            let mut rest = p;
            for d in (0..dims.len()).rev() {
                coord[d] = rest % dims[d];
                rest /= dims[d];
            }
            let extent = dims[axis] as i128;
            let mut c = coord[axis] as i128 + offset as i128;
            if wrap {
                c = c.rem_euclid(extent);
            } else if !(0..extent).contains(&c) {
                return None;
            }
            coord[axis] = c as usize;
            Some(
                coord
                    .iter()
                    .zip(dims)
                    .fold(0, |addr, (&c, &d)| addr * d + c),
            )
        })
        .collect()
}

/// A field of `ty` built from per-element draws.
fn field_of(ty: ElemType, n: usize, seed: u64) -> FieldData {
    match ty {
        ElemType::Int => FieldData::I64((0..n).map(|i| int_value(mix(seed, i as u64))).collect()),
        ElemType::Float => {
            FieldData::F64((0..n).map(|i| float_value(mix(seed, i as u64))).collect())
        }
        ElemType::Bool => FieldData::Bool((0..n).map(|i| mix(seed, i as u64) & 1 == 1).collect()),
    }
}

/// Element `i` of a field as a scalar.
fn elem(f: &FieldData, i: usize) -> Scalar {
    match f {
        FieldData::I64(v) => Scalar::Int(v[i]),
        FieldData::F64(v) => Scalar::Float(v[i]),
        FieldData::Bool(v) => Scalar::Bool(v[i]),
    }
}

/// A field's elements as bit patterns, so float results compare exactly
/// (NaN included).
fn bits(f: &FieldData) -> Vec<u64> {
    (0..f.len()).map(|i| scalar_bits(elem(f, i))).collect()
}

fn scalar_bits(s: Scalar) -> u64 {
    match s {
        Scalar::Int(x) => x as u64,
        Scalar::Float(x) => x.to_bits(),
        Scalar::Bool(x) => x as u64,
    }
}

/// Shift a random `ty` field of shape `dims` along every axis, by every
/// offset in `-(extent+1)..=extent+1` (or just `offsets` when given) plus
/// `i64::MIN` and `i64::MAX`, under every border policy, both into
/// another field and in place, and compare with [`news_sources`].
fn check_news(
    dims: &[usize],
    ty: ElemType,
    seed: u64,
    offsets: Option<&[i64]>,
) -> Result<(), String> {
    let n: usize = dims.iter().product();
    let mask: Vec<bool> = (0..n)
        .map(|i| !mix(seed ^ 0x5A5A, i as u64).is_multiple_of(3))
        .collect();
    let src_data = field_of(ty, n, seed);
    let old_data = field_of(ty, n, !seed);
    let fill = elem(&field_of(ty, 1, seed ^ 0xF111), 0);
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("g", dims).unwrap();
    let src = m.alloc(vp, "src", ty).unwrap();
    let dst = m.alloc(vp, "dst", ty).unwrap();
    let mk = m.alloc_bool(vp, "mask").unwrap();
    m.write_all(mk, FieldData::Bool(mask.clone())).unwrap();
    m.push_context(mk).unwrap();
    for axis in 0..dims.len() {
        let e = dims[axis] as i64;
        let mut offs: Vec<i64> = match offsets {
            Some(o) => o.to_vec(),
            None => (-(e + 1)..=e + 1).collect(),
        };
        offs.extend([i64::MIN, i64::MAX]);
        for &offset in &offs {
            for border in [Border::Wrap, Border::Fill(fill), Border::Keep] {
                let from = news_sources(dims, axis, offset, border == Border::Wrap);
                for in_place in [false, true] {
                    let (target, input) = if in_place {
                        m.write_all(dst, src_data.clone()).unwrap();
                        (dst, &src_data)
                    } else {
                        m.write_all(src, src_data.clone()).unwrap();
                        m.write_all(dst, old_data.clone()).unwrap();
                        (dst, &old_data)
                    };
                    let source = if in_place { dst } else { src };
                    let (cycles, news) = (m.cycles(), m.counters().news);
                    m.news_shift(target, source, axis, offset, border).unwrap();
                    let expect: Vec<u64> = (0..n)
                        .map(|p| {
                            let old = scalar_bits(elem(input, p));
                            match (mask[p], from[p], border) {
                                (false, _, _) => old,
                                (true, Some(q), _) => scalar_bits(elem(&src_data, q)),
                                (true, None, Border::Fill(v)) => scalar_bits(v),
                                (true, None, _) => old,
                            }
                        })
                        .collect();
                    let got = bits(&m.read_all(target).unwrap());
                    prop_assert_eq!(
                        got,
                        expect,
                        "dims {:?} axis {} offset {} {:?} in_place {}",
                        dims,
                        axis,
                        offset,
                        border,
                        in_place
                    );
                    prop_assert_eq!(m.counters().news, news + 1);
                    let charge = CostModel::default().charge(OpClass::News, n, m.phys_procs());
                    // read_all charges a front-end op; the shift one NEWS op.
                    let front = CostModel::default().charge(OpClass::FrontEnd, n, m.phys_procs());
                    prop_assert_eq!(m.cycles() - cycles, charge + front);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small grids of rank 1-3, every axis, offset, border and type.
    #[test]
    fn news_shift_matches_coordinate_reference(dims in prop::collection::vec(1usize..6, 1..4),
                                               seed in 0u64..u64::MAX,
                                               ty in 0usize..3) {
        let ty = [ElemType::Int, ElemType::Float, ElemType::Bool][ty];
        check_news(&dims, ty, seed, None)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fields on both sides of `PAR_THRESHOLD`, where the shift runs on
    /// the pool in chunks that cut across blocks.
    #[test]
    fn parallel_news_shift_matches_coordinate_reference(seed in 0u64..u64::MAX,
                                                        shape in 0usize..6) {
        let t = uc_cm::par::PAR_THRESHOLD;
        let dims: Vec<usize> = match shape {
            0 => vec![t - 1],
            1 => vec![t + 1],
            2 => vec![64, 128],
            3 => vec![67, 131],
            4 => vec![3, 50, 55],
            _ => vec![2, 7, 585],
        };
        let offsets = [-2, -1, 0, 1, 3, 64, -131];
        check_news(&dims, ElemType::Int, seed, Some(&offsets))?;
    }
}

// ---------------------------------------------------------------------
// ALU binops against a scalar reference.
// ---------------------------------------------------------------------

/// Integer draws: edge values a third of the time (zero divisors,
/// `i64::MIN / -1`, shift counts of 64 and more), small values otherwise.
fn int_value(r: u64) -> i64 {
    const EDGE: [i64; 10] = [0, 1, -1, 63, 64, 65, 127, i64::MIN, i64::MAX, -64];
    if r.is_multiple_of(3) {
        EDGE[(r / 3 % 10) as usize]
    } else {
        (r >> 8) as i64 % 1000 - 500
    }
}

fn float_value(r: u64) -> f64 {
    const EDGE: [f64; 8] = [
        0.0,
        -0.0,
        1.5,
        -2.25,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
    ];
    if r.is_multiple_of(3) {
        EDGE[(r / 3 % 8) as usize]
    } else {
        ((r >> 8) as i64 % 1000 - 500) as f64 / 7.0
    }
}

const ALL_BINOPS: [BinOp; 21] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Min,
    BinOp::Max,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::BitXor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::LogAnd,
    BinOp::LogOr,
    BinOp::LogXor,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

/// What `a op b` means, element by element; `None` when the machine must
/// reject the op for this operand type.
fn scalar_binop(op: BinOp, a: Scalar, b: Scalar) -> Option<Scalar> {
    use Scalar::{Bool as B, Float as F, Int as I};
    Some(match (a, b) {
        (I(a), I(b)) => match op {
            BinOp::Add => I(a.wrapping_add(b)),
            BinOp::Sub => I(a.wrapping_sub(b)),
            BinOp::Mul => I(a.wrapping_mul(b)),
            BinOp::Div => I(a.wrapping_div(b)),
            BinOp::Mod => I(a.wrapping_rem(b)),
            BinOp::Min => I(a.min(b)),
            BinOp::Max => I(a.max(b)),
            BinOp::BitAnd => I(a & b),
            BinOp::BitOr => I(a | b),
            BinOp::BitXor => I(a ^ b),
            // The shift count is taken modulo 64.
            BinOp::Shl => I(a.wrapping_shl(b as u32)),
            BinOp::Shr => I(a.wrapping_shr(b as u32)),
            BinOp::Eq => B(a == b),
            BinOp::Ne => B(a != b),
            BinOp::Lt => B(a < b),
            BinOp::Le => B(a <= b),
            BinOp::Gt => B(a > b),
            BinOp::Ge => B(a >= b),
            BinOp::LogAnd | BinOp::LogOr | BinOp::LogXor => return None,
        },
        (F(a), F(b)) => match op {
            BinOp::Add => F(a + b),
            BinOp::Sub => F(a - b),
            BinOp::Mul => F(a * b),
            BinOp::Div => F(a / b),
            BinOp::Min => F(a.min(b)),
            BinOp::Max => F(a.max(b)),
            BinOp::Eq => B(a == b),
            BinOp::Ne => B(a != b),
            BinOp::Lt => B(a < b),
            BinOp::Le => B(a <= b),
            BinOp::Gt => B(a > b),
            BinOp::Ge => B(a >= b),
            _ => return None,
        },
        (B(a), B(b)) => match op {
            BinOp::LogAnd => B(a && b),
            BinOp::LogOr => B(a || b),
            BinOp::LogXor => B(a != b),
            BinOp::Eq => B(a == b),
            BinOp::Ne => B(a != b),
            _ => return None,
        },
        _ => unreachable!("operands share a type"),
    })
}

/// How a binop's operands are supplied.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    FieldField,
    FieldImm,
    ImmField,
    /// `binop(op, x, x, y)`
    AliasLeft,
    /// `binop(op, y, x, y)`
    AliasRight,
    /// `binop_imm(op, x, x, imm)`
    AliasFieldImm,
    /// `binop_imm_l(op, y, imm, y)`
    AliasImmField,
}

const SHAPES: [Shape; 7] = [
    Shape::FieldField,
    Shape::FieldImm,
    Shape::ImmField,
    Shape::AliasLeft,
    Shape::AliasRight,
    Shape::AliasFieldImm,
    Shape::AliasImmField,
];

/// Run `op` on `ty` operands in `shape` under `mask` and compare the
/// destination, the error (if any), the cycles and every op counter with
/// what the scalar reference implies.
fn check_binop(
    op: BinOp,
    ty: ElemType,
    shape: Shape,
    seed: u64,
    mask: &[bool],
) -> Result<(), String> {
    let n = mask.len();
    let (xs, ys) = (field_of(ty, n, seed), field_of(ty, n, !seed));
    let imm = elem(&field_of(ty, 1, seed ^ 0x1337), 0);
    let imm_left = matches!(shape, Shape::ImmField | Shape::AliasImmField);
    let imm_right = matches!(shape, Shape::FieldImm | Shape::AliasFieldImm);
    let x_at = |i| if imm_left { imm } else { elem(&xs, i) };
    let y_at = |i| if imm_right { imm } else { elem(&ys, i) };
    let one = match ty {
        ElemType::Int => Scalar::Int(1),
        ElemType::Float => Scalar::Float(1.0),
        ElemType::Bool => Scalar::Bool(true),
    };
    let rty = scalar_binop(op, one, one).map(|s| s.elem_type());

    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("v", &[n]).unwrap();
    let x = m.alloc(vp, "x", ty).unwrap();
    let y = m.alloc(vp, "y", ty).unwrap();
    let d = m.alloc(vp, "d", rty.unwrap_or(ty)).unwrap();
    let mk = m.alloc_bool(vp, "m").unwrap();
    m.write_all(x, xs.clone()).unwrap();
    m.write_all(y, ys.clone()).unwrap();
    let d_old = field_of(rty.unwrap_or(ty), n, seed ^ 0xD57);
    m.write_all(d, d_old.clone()).unwrap();
    m.write_all(mk, FieldData::Bool(mask.to_vec())).unwrap();
    m.push_context(mk).unwrap();

    let (cycles, counters, live, mem) = (
        m.cycles(),
        m.counters().clone(),
        m.live_fields(),
        m.mem_bytes(),
    );
    let (target, res) = match shape {
        Shape::FieldField => (d, m.binop(op, d, x, y)),
        Shape::FieldImm => (d, m.binop_imm(op, d, x, imm)),
        Shape::ImmField => (d, m.binop_imm_l(op, d, imm, y)),
        Shape::AliasLeft => (x, m.binop(op, x, x, y)),
        Shape::AliasRight => (y, m.binop(op, y, x, y)),
        Shape::AliasFieldImm => (x, m.binop_imm(op, x, x, imm)),
        Shape::AliasImmField => (y, m.binop_imm_l(op, y, imm, y)),
    };
    let before = if target == x {
        &xs
    } else if target == y {
        &ys
    } else {
        &d_old
    };
    let dst_ty = before.elem_type();
    let zero_divisor = ty == ElemType::Int
        && matches!(op, BinOp::Div | BinOp::Mod)
        && (0..n).any(|i| mask[i] && y_at(i) == Scalar::Int(0));
    let ok = rty == Some(dst_ty) && !zero_divisor;
    let what = format!("{op:?} on {ty:?} as {shape:?}");

    // An immediate's broadcast costs one ALU op before validation; the
    // op itself costs one more once validated.
    let alu_ops = u64::from(imm_left || imm_right) + u64::from(ok);
    let mut expect_counters = counters;
    expect_counters.alu += alu_ops;
    prop_assert_eq!(*m.counters(), expect_counters, "{}: counters", what);
    let alu = CostModel::default().charge(OpClass::Alu, n, m.phys_procs());
    prop_assert_eq!(m.cycles() - cycles, alu_ops * alu, "{}: cycles", what);
    prop_assert_eq!(
        (m.live_fields(), m.mem_bytes()),
        (live, mem),
        "{}: leaked",
        what
    );

    let expect: Vec<u64> = if ok {
        prop_assert!(res.is_ok(), "{}: {:?}", what, res);
        (0..n)
            .map(|i| {
                if mask[i] {
                    scalar_bits(scalar_binop(op, x_at(i), y_at(i)).unwrap())
                } else {
                    scalar_bits(elem(before, i))
                }
            })
            .collect()
    } else {
        if zero_divisor && rty == Some(dst_ty) {
            prop_assert_eq!(res, Err(CmError::DivideByZero), "{}", what);
        } else {
            prop_assert!(res.is_err(), "{}: must be rejected", what);
        }
        bits(before)
    };
    m.pop_context(vp).unwrap();
    prop_assert_eq!(
        bits(&m.read_all(target).unwrap()),
        expect,
        "{}: values",
        what
    );
    Ok(())
}

/// Every op, type and operand shape under `mask`, and again with every
/// zero divisor masked off (which must then never trap).
fn check_all_binops(seed: u64, mask: &[bool]) -> Result<(), String> {
    for ty in [ElemType::Int, ElemType::Float, ElemType::Bool] {
        for op in ALL_BINOPS {
            for shape in SHAPES {
                check_binop(op, ty, shape, seed, mask)?;
                // The divisor of this shape: field `y`, or the immediate.
                let imm_right = matches!(shape, Shape::FieldImm | Shape::AliasFieldImm);
                let divisors = if imm_right {
                    field_of(ty, 1, seed ^ 0x1337)
                } else {
                    field_of(ty, mask.len(), !seed)
                };
                let safe: Vec<bool> = (0..mask.len())
                    .map(|i| {
                        mask[i] && elem(&divisors, if imm_right { 0 } else { i }) != Scalar::Int(0)
                    })
                    .collect();
                check_binop(op, ty, shape, seed, &safe)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Small fields: all 21 ops x 3 types x 7 operand shapes.
    #[test]
    fn binops_match_scalar_reference(seed in 0u64..u64::MAX, n in 1usize..40) {
        let mask: Vec<bool> = (0..n).map(|i| !mix(seed ^ 0xACE, i as u64).is_multiple_of(4)).collect();
        check_all_binops(seed, &mask)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same at sizes on both sides of `PAR_THRESHOLD`.
    #[test]
    fn parallel_binops_match_scalar_reference(seed in 0u64..u64::MAX, delta in 0usize..3) {
        let n = uc_cm::par::PAR_THRESHOLD - 1 + delta * 1029;
        let mask: Vec<bool> = (0..n).map(|i| !mix(seed ^ 0xACE, i as u64).is_multiple_of(4)).collect();
        check_all_binops(seed, &mask)?;
    }

    /// `select` picks per element under the mask, aliased or not.
    #[test]
    fn select_matches_scalar_reference(seed in 0u64..u64::MAX, delta in 0usize..3) {
        let n = [5, uc_cm::par::PAR_THRESHOLD - 1, uc_cm::par::PAR_THRESHOLD + 1029][delta];
        let mask: Vec<bool> = (0..n).map(|i| !mix(seed ^ 0xACE, i as u64).is_multiple_of(4)).collect();
        let cond: Vec<bool> = (0..n).map(|i| mix(seed ^ 0xC0, i as u64) & 1 == 1).collect();
        for alias in [false, true] {
            let (xs, ys) = (field_of(ElemType::Float, n, seed), field_of(ElemType::Float, n, !seed));
            let old = field_of(ElemType::Float, n, seed ^ 0xD57);
            let mut m = Machine::with_defaults();
            let vp = m.new_vp_set("v", &[n]).unwrap();
            let (x, y, d) = (m.alloc_float(vp, "x").unwrap(), m.alloc_float(vp, "y").unwrap(), m.alloc_float(vp, "d").unwrap());
            let (c, mk) = (m.alloc_bool(vp, "c").unwrap(), m.alloc_bool(vp, "m").unwrap());
            m.write_all(x, xs.clone()).unwrap();
            m.write_all(y, ys.clone()).unwrap();
            m.write_all(d, old.clone()).unwrap();
            m.write_all(c, FieldData::Bool(cond.clone())).unwrap();
            m.write_all(mk, FieldData::Bool(mask.clone())).unwrap();
            m.push_context(mk).unwrap();
            let target = if alias { x } else { d };
            let before = if alias { &xs } else { &old };
            let alu = m.counters().alu;
            m.select(target, c, x, y).unwrap();
            prop_assert_eq!(m.counters().alu, alu + 1);
            m.pop_context(vp).unwrap();
            let expect: Vec<u64> = (0..n)
                .map(|i| match (mask[i], cond[i]) {
                    (false, _) => scalar_bits(elem(before, i)),
                    (true, true) => scalar_bits(elem(&xs, i)),
                    (true, false) => scalar_bits(elem(&ys, i)),
                })
                .collect();
            prop_assert_eq!(bits(&m.read_all(target).unwrap()), expect);
        }
    }
}

/// Integer edge cases pinned to explicit values, not to a reference.
#[test]
fn integer_edge_cases() {
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("v", &[6]).unwrap();
    let a = m.alloc_int(vp, "a").unwrap();
    let b = m.alloc_int(vp, "b").unwrap();
    let d = m.alloc_int(vp, "d").unwrap();
    let write =
        |m: &mut Machine, f, v: [i64; 6]| m.write_all(f, FieldData::I64(v.to_vec())).unwrap();
    write(&mut m, a, [i64::MIN, i64::MIN, 7, -7, 5, 1]);
    write(&mut m, b, [-1, 1, 64, 65, 127, -1]);
    m.binop(BinOp::Div, d, a, b).unwrap();
    assert_eq!(m.int_data(d).unwrap(), &[i64::MIN, i64::MIN, 0, 0, 0, -1]);
    m.binop(BinOp::Mod, d, a, b).unwrap();
    assert_eq!(m.int_data(d).unwrap(), &[0, 0, 7, -7, 5, 0]);
    // Shift counts are taken modulo 64.
    m.binop(BinOp::Shl, d, a, b).unwrap();
    assert_eq!(m.int_data(d).unwrap(), &[0, 0, 7, -14, i64::MIN, i64::MIN]);
    m.binop(BinOp::Shr, d, a, b).unwrap();
    assert_eq!(m.int_data(d).unwrap(), &[-1, i64::MIN >> 1, 7, -4, 0, 0]);
    m.binop_imm_l(BinOp::Div, d, Scalar::Int(i64::MIN), b)
        .unwrap();
    assert_eq!(m.int_data(d).unwrap()[0], i64::MIN);
}
