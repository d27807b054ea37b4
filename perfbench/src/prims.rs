//! The `machine_prims` workload: seeded op chains issued straight to
//! `uc_cm::Machine`, with no front end or executor involved.
//!
//! The machine, its VP sets and fields are built during set-up; a request
//! restores the fields' seeded contents (untimed), then times one chain.
//! Chains come in two families, one per large language workload. A
//! family's chains replay the machine calls that workload was counted
//! issuing ([`APSP_TRAFFIC`], [`GRID_TRAFFIC`]), on VP sets of the sizes it
//! runs on, so the traffic is measured rather than guessed. Results are
//! checked against plain-Rust arithmetic.

use std::time::Instant;

use uc_cm::news::Border;
use uc_cm::{BinOp, Combine, FieldData, FieldId, Machine, MachineConfig, ReduceOp, VpSetId};

use crate::stats::Rng;
use crate::trace::{alloc_snapshot, Tracer};
use crate::{Counts, Sample, Workload};

/// A kind of machine call a chain issues.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    /// `binop` on int fields.
    Bin(BinOp),
    /// `binop` comparing int fields into a bool field.
    Cmp(BinOp),
    /// `binop` on bool fields.
    Logic(BinOp),
    Select,
    Copy,
    /// `fill_unconditional` of an int immediate.
    Fill,
    /// `push_context` and `pop_context`, issued in pairs.
    Context,
    /// `news_shift` by ±1 along either axis, `Border::Wrap`.
    News,
    /// `send` with `Combine::Min`.
    Send,
    Get,
    /// `reduce` with `ReduceOp::Or` over a bool field.
    Reduce,
}

/// Machine calls by kind, with their counts.
type Traffic = [(Kind, u64)];

/// `Machine` calls of one deck pass of `apsp_large` after set-up (seed 1),
/// counted per method and operator by a one-off build of `uc_cm` that
/// tallied every metered call. Folded in: `set_imm` (105) and `iota` (105)
/// as `Fill`. Left out: `read_context` (105, context class) and the 75
/// front-end reads and writes.
const APSP_TRAFFIC: [(Kind, u64); 9] = [
    (Kind::Bin(BinOp::Add), 2061),
    (Kind::Bin(BinOp::Mul), 1188),
    (Kind::Bin(BinOp::Div), 105),
    (Kind::Cmp(BinOp::Lt), 384),
    (Kind::Copy, 2061),
    (Kind::Fill, 2481),
    (Kind::Context, 978),
    (Kind::Get, 1293),
    (Kind::Send, 105),
];

/// As [`APSP_TRAFFIC`], for `grid_large`. Folded in: Jacobi's float `Add`
/// (810) and `Div` (270) as int ops, `convert` (3) as `Copy`. Left out: the
/// 27 front-end reads and writes. The 5544 NEWS shifts split evenly over
/// the four directions, all `Border::Wrap`.
const GRID_TRAFFIC: [(Kind, u64); 14] = [
    (Kind::Bin(BinOp::Min), 6696),
    (Kind::Bin(BinOp::Add), 3042),
    (Kind::Bin(BinOp::Div), 270),
    (Kind::Cmp(BinOp::Ne), 3348),
    (Kind::Cmp(BinOp::Lt), 2196),
    (Kind::Cmp(BinOp::Gt), 1080),
    (Kind::Logic(BinOp::LogAnd), 3852),
    (Kind::Logic(BinOp::LogOr), 1116),
    (Kind::Select, 5544),
    (Kind::Copy, 3051),
    (Kind::Fill, 8010),
    (Kind::Context, 3312),
    (Kind::News, 5544),
    (Kind::Reduce, 1116),
];

/// Ops per chain, besides the one prefix scan. The executor issues no
/// prefix scans; each chain carries one only so `scan.scan.ns_per_elem`
/// has something to time.
const CHAIN_OPS: usize = 48;

/// VP-set geometries: Figure 8's grids at 91 and 96 rows, fig6's 96x96,
/// Jacobi's 128x128, and fig7's cubes at N=29 and N=32.
const GEOMETRIES: [&[usize]; 5] = [
    &[91, 91],
    &[96, 96],
    &[128, 128],
    &[29, 29, 29],
    &[32, 32, 32],
];

/// (traffic, geometry, chains). Per family, chains per size follow the
/// ops that workload issues at that size. A chain's latency follows its
/// size and mix, neither of which depends on the seed. Of the 25 chains,
/// `req_ms.p50` (rank 12.5) falls inside the continuum of the 18 at 91x91
/// and 96x96, and `req_ms.p90` (rank 22.5) on the 29x29x29 chain that
/// carries a send, between well-separated neighbours.
const PLAN: [(&Traffic, usize, usize); 6] = [
    (&GRID_TRAFFIC, 0, 4),
    (&GRID_TRAFFIC, 1, 5),
    (&GRID_TRAFFIC, 2, 3),
    (&APSP_TRAFFIC, 1, 9),
    (&APSP_TRAFFIC, 3, 2),
    (&APSP_TRAFFIC, 4, 2),
];

/// Int fields the chains compute on; one more, never written, holds the
/// nonzero divisors.
const FIELDS: usize = 4;
const DIVISOR: usize = FIELDS;
/// Bool fields the chains compute on, besides the two context masks.
const BOOLS: usize = 2;

/// Op kinds as timed, also the span names of the traced run.
const KINDS: [&str; 7] = [
    "ops.alu",
    "context",
    "news",
    "router.send",
    "router.get",
    "scan.scan",
    "scan.reduce",
];

#[derive(Clone, Copy, Debug)]
enum Op {
    Bin {
        op: BinOp,
        dst: usize,
        a: usize,
        b: usize,
    },
    Cmp {
        op: BinOp,
        dst: usize,
        a: usize,
        b: usize,
    },
    Logic {
        op: BinOp,
        dst: usize,
        a: usize,
        b: usize,
    },
    Select {
        dst: usize,
        cond: usize,
        a: usize,
        b: usize,
    },
    Copy {
        dst: usize,
        src: usize,
    },
    Fill {
        dst: usize,
        imm: i64,
    },
    Push {
        mask: usize,
    },
    Pop,
    News {
        dst: usize,
        src: usize,
        axis: usize,
        offset: i64,
    },
    Send {
        dst: usize,
        src: usize,
    },
    Get {
        dst: usize,
        src: usize,
    },
    Scan {
        dst: usize,
        src: usize,
        inclusive: bool,
    },
    Reduce {
        src: usize,
    },
}

impl Op {
    /// Index into [`KINDS`].
    fn kind(&self) -> usize {
        match self {
            Op::Bin { .. }
            | Op::Cmp { .. }
            | Op::Logic { .. }
            | Op::Select { .. }
            | Op::Copy { .. }
            | Op::Fill { .. } => 0,
            Op::Push { .. } | Op::Pop => 1,
            Op::News { .. } => 2,
            Op::Send { .. } => 3,
            Op::Get { .. } => 4,
            Op::Scan { .. } => 5,
            Op::Reduce { .. } => 6,
        }
    }
}

/// Seeded contents of one VP set's fields.
struct SetInput {
    dims: &'static [usize],
    ints: [Vec<i64>; FIELDS + 1],
    bools: [Vec<bool>; BOOLS],
    addr: Vec<i64>,
    masks: [Vec<bool>; 2],
}

struct Chain {
    set: usize,
    ops: Vec<Op>,
    /// Final field contents and reduce results, computed on first use.
    expected: Option<Expected>,
}

type Expected = ([Vec<i64>; FIELDS + 1], [Vec<bool>; BOOLS], Vec<bool>);

/// Inputs and chains, generated from the seed before set-up.
pub struct Deck {
    sets: Vec<SetInput>,
    chains: Vec<Chain>,
}

/// A seeded op of kind `k`.
fn gen_op(rng: &mut Rng, k: Kind) -> Op {
    let int = |rng: &mut Rng| rng.below(FIELDS);
    let bool_ = |rng: &mut Rng| rng.below(BOOLS);
    match k {
        Kind::Bin(op) => Op::Bin {
            op,
            dst: int(rng),
            a: int(rng),
            b: if op == BinOp::Div { DIVISOR } else { int(rng) },
        },
        Kind::Cmp(op) => Op::Cmp {
            op,
            dst: bool_(rng),
            a: int(rng),
            b: int(rng),
        },
        Kind::Logic(op) => Op::Logic {
            op,
            dst: bool_(rng),
            a: bool_(rng),
            b: bool_(rng),
        },
        Kind::Select => Op::Select {
            dst: int(rng),
            cond: bool_(rng),
            a: int(rng),
            b: int(rng),
        },
        Kind::Copy => Op::Copy {
            dst: int(rng),
            src: int(rng),
        },
        Kind::Fill => Op::Fill {
            dst: int(rng),
            imm: rng.range(-1000, 1000),
        },
        Kind::News => Op::News {
            dst: int(rng),
            src: int(rng),
            axis: rng.below(2),
            offset: if rng.chance(0.5) { 1 } else { -1 },
        },
        Kind::Send => Op::Send {
            dst: int(rng),
            src: int(rng),
        },
        Kind::Get => Op::Get {
            dst: int(rng),
            src: int(rng),
        },
        Kind::Reduce => Op::Reduce { src: bool_(rng) },
        Kind::Context => unreachable!("context ops are placed in pairs"),
    }
}

/// `chains` chains replaying `traffic`. The family's ops are dealt round
/// the chains like cards, so every chain gets the same mix to within one
/// op of each kind and the mix does not depend on the seed; the seed
/// picks the order and operands.
fn gen_family(rng: &mut Rng, traffic: &Traffic, chains: usize) -> Vec<Vec<Op>> {
    let total: u64 = traffic.iter().map(|&(_, n)| n).sum();
    let share = |n: u64| n as f64 / total as f64 * CHAIN_OPS as f64;
    let context: u64 = traffic
        .iter()
        .filter(|&&(k, _)| k == Kind::Context)
        .map(|&(_, n)| n)
        .sum();
    let pairs = (share(context) / 2.0).round().max(1.0) as usize;
    let body_ops = (CHAIN_OPS - 2 * pairs) * chains;
    let body_total = total - context;
    let pool: Vec<Kind> = traffic
        .iter()
        .filter(|&&(k, _)| k != Kind::Context)
        .flat_map(|&(k, n)| {
            let copies = (n as f64 / body_total as f64 * body_ops as f64).round() as usize;
            std::iter::repeat_n(k, copies)
        })
        .collect();
    (0..chains)
        .map(|c| {
            let mut body: Vec<Op> = pool
                .iter()
                .skip(c)
                .step_by(chains)
                .map(|&k| gen_op(rng, k))
                .collect();
            body.push(Op::Scan {
                dst: rng.below(FIELDS),
                src: rng.below(FIELDS),
                inclusive: rng.chance(0.5),
            });
            rng.shuffle(&mut body);
            with_context(rng, body, pairs)
        })
        .collect()
}

/// Insert `pairs` context pushes and pops, one pair per equal segment of
/// the body, so masked regions never nest.
fn with_context(rng: &mut Rng, body: Vec<Op>, pairs: usize) -> Vec<Op> {
    let pairs = pairs.clamp(1, body.len().max(1));
    let seg = body.len() / pairs;
    let mut ops = Vec::with_capacity(body.len() + 2 * pairs);
    for (p, chunk) in body.chunks(seg.max(1)).enumerate() {
        if p >= pairs {
            ops.extend_from_slice(chunk);
            continue;
        }
        let half = chunk.len() / 2;
        let open = rng.below(half + 1).min(chunk.len() - 1);
        let close = (half + rng.below(chunk.len() - half)).max(open);
        for (i, op) in chunk.iter().enumerate() {
            if i == open {
                ops.push(Op::Push { mask: p % 2 });
            }
            ops.push(*op);
            if i == close {
                ops.push(Op::Pop);
            }
        }
    }
    ops
}

impl Deck {
    pub fn new(seed: u64) -> Deck {
        let mut rng = Rng::new(seed);
        let sets = GEOMETRIES
            .iter()
            .map(|&dims| {
                let n: usize = dims.iter().product();
                let mut ints = || (0..n).map(|_| rng.range(-1000, 1000)).collect::<Vec<i64>>();
                let [a, b, c, d] = [ints(), ints(), ints(), ints()];
                let divisor = (0..n)
                    .map(|_| rng.range(1, 9) * if rng.chance(0.5) { 1 } else { -1 })
                    .collect();
                let addr = (0..n).map(|_| rng.below(n) as i64).collect();
                let mut bits = |p: f64| (0..n).map(|_| rng.chance(p)).collect::<Vec<bool>>();
                SetInput {
                    dims,
                    ints: [a, b, c, d, divisor],
                    bools: [bits(0.5), bits(0.5)],
                    addr,
                    masks: [bits(0.75), bits(0.75)],
                }
            })
            .collect();
        let mut chains = Vec::new();
        for &(traffic, set, copies) in &PLAN {
            for ops in gen_family(&mut rng, traffic, copies) {
                chains.push(Chain {
                    set,
                    ops,
                    expected: None,
                });
            }
        }
        rng.shuffle(&mut chains);
        Deck { sets, chains }
    }
}

fn int_binop(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.wrapping_div(b),
        BinOp::Min => a.min(b),
        _ => unreachable!("chains use only the ops above"),
    }
}

fn int_cmp(op: BinOp, a: i64, b: i64) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Gt => a > b,
        BinOp::Ne => a != b,
        _ => unreachable!("chains use only the comparisons above"),
    }
}

fn logic(op: BinOp, a: bool, b: bool) -> bool {
    match op {
        BinOp::LogAnd => a && b,
        BinOp::LogOr => a || b,
        _ => unreachable!("chains use only the logic ops above"),
    }
}

/// The chain's effect computed with plain Rust vectors.
fn reference(input: &SetInput, ops: &[Op]) -> Expected {
    let n = input.addr.len();
    let mut f = input.ints.clone();
    let mut b = input.bools.clone();
    let mut active = vec![true; n];
    let mut reduces = Vec::new();
    let addr = |i: usize| input.addr[i] as usize;
    for op in ops {
        let on = (0..n).filter(|&i| active[i]);
        match *op {
            Op::Bin { op, dst, a, b: y } => {
                let (x, y) = (f[a].clone(), f[y].clone());
                for i in on {
                    f[dst][i] = int_binop(op, x[i], y[i]);
                }
            }
            Op::Cmp { op, dst, a, b: y } => {
                for i in on {
                    b[dst][i] = int_cmp(op, f[a][i], f[y][i]);
                }
            }
            Op::Logic { op, dst, a, b: y } => {
                let (x, y) = (b[a].clone(), b[y].clone());
                for i in on {
                    b[dst][i] = logic(op, x[i], y[i]);
                }
            }
            Op::Select { dst, cond, a, b: y } => {
                let (x, y) = (f[a].clone(), f[y].clone());
                for i in on {
                    f[dst][i] = if b[cond][i] { x[i] } else { y[i] };
                }
            }
            Op::Copy { dst, src } => {
                let s = f[src].clone();
                for i in on {
                    f[dst][i] = s[i];
                }
            }
            Op::Fill { dst, imm } => f[dst].fill(imm),
            Op::Push { mask } => {
                for (a, m) in active.iter_mut().zip(&input.masks[mask]) {
                    *a &= *m;
                }
            }
            Op::Pop => active = vec![true; n],
            Op::News {
                dst,
                src,
                axis,
                offset,
            } => {
                let [rows, cols] = [input.dims[0] as i64, input.dims[1] as i64];
                let s = f[src].clone();
                for p in on {
                    let (r, c) = (p as i64 / cols, p as i64 % cols);
                    let (r, c) = if axis == 0 {
                        ((r + offset).rem_euclid(rows), c)
                    } else {
                        (r, (c + offset).rem_euclid(cols))
                    };
                    f[dst][p] = s[(r * cols + c) as usize];
                }
            }
            Op::Send { dst, src } => {
                let s = f[src].clone();
                let mut hit = vec![false; n];
                for i in on {
                    let (a, v) = (addr(i), s[i]);
                    let d = &mut f[dst][a];
                    *d = if hit[a] { (*d).min(v) } else { v };
                    hit[a] = true;
                }
            }
            Op::Get { dst, src } => {
                let s = f[src].clone();
                for i in on {
                    f[dst][i] = s[addr(i)];
                }
            }
            Op::Scan {
                dst,
                src,
                inclusive,
            } => {
                let s = f[src].clone();
                let mut acc = 0i64;
                for i in on {
                    if inclusive {
                        acc = acc.wrapping_add(s[i]);
                        f[dst][i] = acc;
                    } else {
                        f[dst][i] = acc;
                        acc = acc.wrapping_add(s[i]);
                    }
                }
            }
            Op::Reduce { src } => reduces.push({ on }.any(|i| b[src][i])),
        }
    }
    (f, b, reduces)
}

/// One VP set of the warmed machine.
struct Set {
    vp: VpSetId,
    size: u64,
    ints: [FieldId; FIELDS + 1],
    bools: [FieldId; BOOLS],
    addr: FieldId,
    masks: [FieldId; 2],
}

pub struct PrimsWorkload {
    m: Machine,
    deck: Deck,
    sets: Vec<Set>,
    /// Reduce results of the running chain (capacity reserved in set-up).
    reduces: Vec<bool>,
    /// Elements touched per op kind, over traced requests.
    elems: [u64; KINDS.len()],
}

impl PrimsWorkload {
    /// Build the machine, allocate and fill every field, and warm it by
    /// running every chain once.
    pub fn setup(deck: Deck) -> Result<PrimsWorkload, String> {
        let err = |e: uc_cm::CmError| e.to_string();
        let mut m = Machine::new(MachineConfig::default());
        let mut sets = Vec::new();
        for (k, input) in deck.sets.iter().enumerate() {
            let vp = m.new_vp_set(&format!("set{k}"), input.dims).map_err(err)?;
            let mut alloc = |data: FieldData| -> uc_cm::Result<FieldId> {
                let id = m.alloc(vp, "f", data.elem_type())?;
                m.write_all(id, data)?;
                Ok(id)
            };
            let mut ints = Vec::new();
            for data in &input.ints {
                ints.push(alloc(FieldData::I64(data.clone())).map_err(err)?);
            }
            let mut bools = Vec::new();
            for data in input.bools.iter().chain(&input.masks) {
                bools.push(alloc(FieldData::Bool(data.clone())).map_err(err)?);
            }
            let addr = alloc(FieldData::I64(input.addr.clone())).map_err(err)?;
            sets.push(Set {
                vp,
                size: input.addr.len() as u64,
                ints: ints.try_into().expect("one id per int field"),
                bools: [bools[0], bools[1]],
                addr,
                masks: [bools[2], bools[3]],
            });
        }
        let max_reduces = deck.chains.iter().map(|c| c.ops.len()).max().unwrap_or(0);
        let mut w = PrimsWorkload {
            m,
            deck,
            sets,
            reduces: Vec::with_capacity(max_reduces),
            elems: [0; KINDS.len()],
        };
        let mut off = Tracer::new(false);
        for e in 0..w.deck.chains.len() {
            w.restore(w.deck.chains[e].set).map_err(err)?;
            w.exec(e, &mut off).map_err(err)?;
        }
        Ok(w)
    }

    /// Write the set's seeded field contents back.
    fn restore(&mut self, set: usize) -> uc_cm::Result<()> {
        let (ids, input) = (&self.sets[set], &self.deck.sets[set]);
        for (id, data) in ids.ints.iter().zip(&input.ints).take(FIELDS) {
            self.m.write_all(*id, FieldData::I64(data.clone()))?;
        }
        for (id, data) in ids.bools.iter().zip(&input.bools) {
            self.m.write_all(*id, FieldData::Bool(data.clone()))?;
        }
        Ok(())
    }

    /// Issue chain `e`'s ops, one span per op when tracing.
    fn exec(&mut self, e: usize, t: &mut Tracer) -> uc_cm::Result<()> {
        let chain = &self.deck.chains[e];
        let set = &self.sets[chain.set];
        let m = &mut self.m;
        self.reduces.clear();
        let f = |k: usize| set.ints[k];
        let b = |k: usize| set.bools[k];
        for op in &chain.ops {
            t.enter(KINDS[op.kind()]);
            let r = match *op {
                Op::Bin { op, dst, a, b: y } => m.binop(op, f(dst), f(a), f(y)),
                Op::Cmp { op, dst, a, b: y } => m.binop(op, b(dst), f(a), f(y)),
                Op::Logic { op, dst, a, b: y } => m.binop(op, b(dst), b(a), b(y)),
                Op::Select { dst, cond, a, b: y } => m.select(f(dst), b(cond), f(a), f(y)),
                Op::Copy { dst, src } => m.copy(f(dst), f(src)),
                Op::Fill { dst, imm } => m.fill_unconditional(f(dst), uc_cm::Scalar::Int(imm)),
                Op::Push { mask } => m.push_context(set.masks[mask]),
                Op::Pop => m.pop_context(set.vp),
                Op::News {
                    dst,
                    src,
                    axis,
                    offset,
                } => m.news_shift(f(dst), f(src), axis, offset, Border::Wrap),
                Op::Send { dst, src } => m.send(f(dst), set.addr, f(src), Combine::Min),
                Op::Get { dst, src } => m.get(f(dst), set.addr, f(src)),
                Op::Scan {
                    dst,
                    src,
                    inclusive,
                } => m.scan(f(dst), f(src), ReduceOp::Add, inclusive, None),
                Op::Reduce { src } => m
                    .reduce(b(src), ReduceOp::Or)
                    .map(|s| self.reduces.push(s.as_bool())),
            };
            t.exit();
            r?;
            if t.is_on() {
                self.elems[op.kind()] += set.size;
            }
        }
        Ok(())
    }
}

impl Workload for PrimsWorkload {
    fn deck_len(&self) -> usize {
        self.deck.chains.len()
    }

    fn request(&mut self, e: usize, t: &mut Tracer) -> Sample {
        let set = self.deck.chains[e].set;
        let mut s = Sample::default();
        if self.restore(set).is_err() {
            return s;
        }
        self.m.reset_clock();
        let live_before = self.m.live_fields() as i64;
        t.reserve(self.deck.chains[e].ops.len() + 1);
        t.enter("request");
        let start = Instant::now();
        let (a0, b0) = alloc_snapshot();
        let ran = self.exec(e, t);
        let (a1, b1) = alloc_snapshot();
        s.ns = start.elapsed().as_nanos() as u64;
        t.exit();
        let c = self.m.counters();
        s.counts = Counts {
            cycles: self.m.cycles(),
            ops: [c.alu, c.context, c.news, c.router, c.scan, c.front_end],
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
        };
        s.live_delta = self.m.live_fields() as i64 - live_before;
        s.mem_bytes = self.m.mem_bytes();
        s.high_water = self.m.scratch_high_water() as u64;

        let chain = &mut self.deck.chains[e];
        let input = &self.deck.sets[set];
        let (ints, bools, reduces) = chain
            .expected
            .get_or_insert_with(|| reference(input, &chain.ops));
        let ids = &self.sets[set];
        s.ok = ran.is_ok()
            && *reduces == self.reduces
            && ids
                .ints
                .iter()
                .zip(ints.iter())
                .all(|(id, want)| self.m.int_data(*id).is_ok_and(|got| got == want))
            && ids
                .bools
                .iter()
                .zip(bools.iter())
                .all(|(id, want)| self.m.bool_data(*id).is_ok_and(|got| got == want));
        s
    }

    fn tally(&self, name: &str) -> u64 {
        KINDS
            .iter()
            .position(|k| *k == name)
            .map_or(0, |k| self.elems[k])
    }
}
