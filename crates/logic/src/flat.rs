//! Flat struct-of-arrays circuits and the one forward gate kernel.
//!
//! [`FlatCircuit`] is the only circuit representation: the compiler of
//! [`crate::circuit`] appends each gate straight into these arrays, and
//! every evaluation runs over them. The layout is the one the
//! compile-once / evaluate-many workloads of the paper's §3 block
//! constructions deserve:
//!
//! * **dense `u32` ids in topological order** — gate `g`'s children all
//!   have ids `< g`, so evaluation is one forward loop, no recursion, no
//!   hashing;
//! * **struct-of-arrays layout** — parallel slices `ops` / `var_slot` /
//!   `(off, len)` spans into one packed `children` vector: no per-gate
//!   allocation anywhere;
//! * **a distinct-variable slot table** — weights are resolved *once per
//!   distinct variable* into a dense slice, and the per-gate step just
//!   indexes it;
//! * **one kernel, two lanes** — gates are priced in exactly one place:
//!   a per-gate step generic over the lane type, driven by one
//!   gate-major forward pass that prices `k` weightings per walk of
//!   `ops`. The hybrid exact lane (machine words until an op overflows,
//!   then bignum) answers every `Rational`; the interval lane
//!   ([`Interval`], certified outward-rounded `f64`) answers comparisons
//!   ([`FlatCircuit::le_exact`]) and reruns the exact lane only when its
//!   enclosure straddles the threshold. Single evaluation is the pass
//!   with one lane, and [`crate::priced::PricedCircuit`] builds its exact
//!   state with the pass and re-prices single gates with the step.
//!
//! Exactness contract: for every circuit and every weight function,
//! `flat.eval_exact(w) == circuit.evaluate(w) == wmc_brute_force(f, w)`
//! (`Rational` equality, i.e. bit identity in lowest terms) — enforced by
//! `tests/flat_suite.rs` and the engine's property suites. The plain
//! `Rational` evaluator of [`crate::circuit`] is kept only as that
//! reference.

use crate::circuit::Valuation;
use crate::cnf::Var;
use crate::wmc::WeightFn;
use gfomc_arith::{Certifies, Interval, Rat64, Rational};

/// Cap on `gates × lanes` cells held live by one forward pass; batches
/// wider than `MAX_BATCH_CELLS / gate_count` lanes are priced in
/// consecutive chunks (exact arithmetic, so chunking cannot change any
/// value).
const MAX_BATCH_CELLS: usize = 1 << 18;

/// One gate value of the hybrid exact lane: machine words while every
/// intermediate fits ([`Rat64`]), exact bignum from the first overflow on.
/// Both forms are in lowest terms, so materializing a lane via
/// [`LaneVal::to_rational`] is bit-identical to an all-bignum evaluation.
#[derive(Clone, Debug)]
pub(crate) enum LaneVal {
    /// Machine-word value (the common case: no heap traffic at all).
    S(Rat64),
    /// Spilled to exact bignum.
    B(Rational),
}

impl LaneVal {
    #[inline]
    fn is_zero(&self) -> bool {
        match self {
            LaneVal::S(r) => r.is_zero(),
            LaneVal::B(r) => r.is_zero(),
        }
    }

    /// The exact value, materialized (canonical lowest terms either way).
    #[inline]
    pub(crate) fn to_rational(&self) -> Rational {
        match self {
            LaneVal::S(r) => Rational::from(*r),
            LaneVal::B(r) => r.clone(),
        }
    }
}

/// One distinct variable's weight, resolved once per weighting: the exact
/// probability, its complement (computed once here instead of once per
/// decision gate), and their machine-word forms when they fit.
#[derive(Clone, Debug)]
pub(crate) struct SlotW {
    pub(crate) p: Rational,
    pub(crate) pc: Rational,
    ps: Option<Rat64>,
    pcs: Option<Rat64>,
}

impl SlotW {
    pub(crate) fn new(p: Rational) -> SlotW {
        let pc = p.complement();
        SlotW {
            ps: p.to_rat64(),
            pcs: pc.to_rat64(),
            p,
            pc,
        }
    }
}

/// A lane of the forward pass: the value one gate holds under one
/// weighting, and the arithmetic of the five gate kinds on it.
pub(crate) trait Lane: Clone {
    /// A distinct variable's weight, as this lane reads it.
    type Weight;
    /// The constant `0`.
    const ZERO: Self;
    /// The constant `1`.
    const ONE: Self;
    /// Resolves one exact probability.
    fn weight(p: Rational) -> Self::Weight;
    /// The leaf value `w(v)`.
    fn leaf(w: &Self::Weight) -> Self;
    /// `self · kid` for one child of a product gate.
    fn times(&self, kid: &Self) -> Self;
    /// Whether a product at this value can stop multiplying: the value
    /// is final whatever the remaining children are.
    fn absorbs(&self) -> bool;
    /// The Shannon gate `w·hi + (1 − w)·lo`.
    fn decision(w: &Self::Weight, hi: &Self, lo: &Self) -> Self;
    /// This lane's slabs of an arena: slot weights and gate values.
    fn slabs(arena: &mut EvalArena) -> (&mut Vec<Self::Weight>, &mut Vec<Self>);
}

/// The exact lane. Products stop multiplying once they reach zero; the
/// result is the same zero either way, and the short cut skips the rest
/// of the children.
impl Lane for LaneVal {
    type Weight = SlotW;
    const ZERO: Self = LaneVal::S(Rat64::ZERO);
    const ONE: Self = LaneVal::S(Rat64::ONE);

    fn weight(p: Rational) -> SlotW {
        SlotW::new(p)
    }

    #[inline]
    fn leaf(w: &SlotW) -> LaneVal {
        match w.ps {
            Some(r) => LaneVal::S(r),
            None => LaneVal::B(w.p.clone()),
        }
    }

    #[inline]
    fn times(&self, kid: &LaneVal) -> LaneVal {
        match (self, kid) {
            (LaneVal::S(x), LaneVal::S(y)) => match x.checked_mul(*y) {
                Some(r) => LaneVal::S(r),
                None => LaneVal::B(&Rational::from(*x) * &Rational::from(*y)),
            },
            (a, b) => LaneVal::B(&a.to_rational() * &b.to_rational()),
        }
    }

    #[inline]
    fn absorbs(&self) -> bool {
        self.is_zero()
    }

    #[inline]
    fn decision(s: &SlotW, hi: &LaneVal, lo: &LaneVal) -> LaneVal {
        if let (Some(p), Some(pc), LaneVal::S(h), LaneVal::S(l)) = (s.ps, s.pcs, hi, lo) {
            if let Some(t1) = p.checked_mul(*h) {
                if let Some(t2) = pc.checked_mul(*l) {
                    if let Some(r) = t1.checked_add(t2) {
                        return LaneVal::S(r);
                    }
                }
            }
        }
        let hi = hi.to_rational();
        let lo = lo.to_rational();
        LaneVal::B(&(&s.p * &hi) + &(&s.pc * &lo))
    }

    fn slabs(arena: &mut EvalArena) -> (&mut Vec<SlotW>, &mut Vec<LaneVal>) {
        (&mut arena.slots, &mut arena.cells)
    }
}

/// The interval lane. Every gate value of a monotone circuit under
/// probability weights is itself a probability, so each operation
/// intersects with `[0, 1]` ([`Interval::clamp_unit`]) to undo the
/// outward nudges' drift. There is no zero short cut: a product's
/// enclosure keeps folding in every child.
impl Lane for Interval {
    type Weight = Interval;
    const ZERO: Self = Interval::ZERO;
    const ONE: Self = Interval::ONE;

    fn weight(p: Rational) -> Interval {
        Interval::from_probability(&p)
    }

    #[inline]
    fn leaf(w: &Interval) -> Interval {
        *w
    }

    #[inline]
    fn times(&self, kid: &Interval) -> Interval {
        self.mul(kid).clamp_unit()
    }

    #[inline]
    fn absorbs(&self) -> bool {
        false
    }

    #[inline]
    fn decision(p: &Interval, hi: &Interval, lo: &Interval) -> Interval {
        p.mul(hi).add(&p.one_minus().mul(lo)).clamp_unit()
    }

    fn slabs(arena: &mut EvalArena) -> (&mut Vec<Interval>, &mut Vec<Interval>) {
        (&mut arena.slot_ivs, &mut arena.ivs)
    }
}

/// Reusable buffers of the forward pass, one pair per lane: lane-major
/// slot weights (`slots` / `slot_ivs`) and gate-major gate values
/// (`cells` / `ivs`). Threading one arena through
/// [`FlatCircuit::eval_exact_with`], [`FlatCircuit::le_exact`] or
/// [`FlatCircuit::eval_batch_exact_with`] keeps their capacity across
/// weightings.
#[derive(Clone, Debug, Default)]
pub struct EvalArena {
    slots: Vec<SlotW>,
    cells: Vec<LaneVal>,
    slot_ivs: Vec<Interval>,
    ivs: Vec<Interval>,
}

impl EvalArena {
    /// An empty arena; it grows to the circuit size on first use.
    pub fn new() -> Self {
        EvalArena::default()
    }
}

/// Gate opcode of a [`FlatCircuit`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Op {
    /// The constant `0` (`⊥`).
    False,
    /// The constant `1` (`⊤`).
    True,
    /// A positive literal: value `w(v)` for the gate's slot variable.
    Leaf,
    /// Decomposable product of the gate's children.
    Product,
    /// Shannon split `w(v)·hi + (1 − w(v))·lo`; children are `[hi, lo]`.
    Decision,
}

/// Slot sentinel for gates without a variable.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A flat, topologically ordered, struct-of-arrays arithmetic circuit.
///
/// Emitted gate by gate by the [`Compiler`](crate::circuit::Compiler) and
/// handed over by [`Circuit::flatten`](crate::circuit::Circuit::flatten)
/// (single root) or [`Compiler::finish_flat`](crate::circuit::Compiler::finish_flat)
/// (whole multi-rooted pool, ids preserved).
/// Gate ids are dense `u32`s with children before parents; the layout is
/// four parallel slices plus one packed child vector — no per-gate heap
/// allocation:
///
/// ```text
/// gate g:   ops[g]       opcode
///           var_slot[g]  index into vars() for Leaf/Decision, unused otherwise
///           off[g]..off[g]+len[g]   g's children inside `children`
/// ```
#[derive(Clone, Debug)]
pub struct FlatCircuit {
    pub(crate) ops: Vec<Op>,
    pub(crate) var_slot: Vec<u32>,
    off: Vec<u32>,
    len: Vec<u32>,
    children: Vec<u32>,
    pub(crate) vars: Vec<Var>,
    pub(crate) root: u32,
}

impl FlatCircuit {
    /// The pool holding only the two constants, ids 0 (`⊥`) and 1 (`⊤`) —
    /// where the compiler starts emitting.
    pub(crate) fn constants() -> FlatCircuit {
        FlatCircuit {
            ops: vec![Op::False, Op::True],
            var_slot: vec![NO_SLOT; 2],
            off: vec![0; 2],
            len: vec![0; 2],
            children: Vec::new(),
            vars: Vec::new(),
            root: 0,
        }
    }

    /// Appends one gate (children already emitted) and returns its id.
    pub(crate) fn push_gate(&mut self, op: Op, slot: u32, kids: &[u32]) -> u32 {
        let g = self.ops.len() as u32;
        self.ops.push(op);
        self.var_slot.push(slot);
        self.off.push(self.children.len() as u32);
        self.len.push(kids.len() as u32);
        self.children.extend_from_slice(kids);
        g
    }

    /// Number of gates (including the two constants) — the unit of the
    /// engine's cache-admission cost and of
    /// `gfomc_safety::CircuitCostEstimate`.
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// The root gate id.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The opcode of a gate.
    pub fn op(&self, gate: u32) -> Op {
        self.ops[gate as usize]
    }

    /// The distinct variables of the circuit, in slot order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of Shannon-split gates.
    pub fn decision_count(&self) -> usize {
        self.ops.iter().filter(|o| **o == Op::Decision).count()
    }

    /// The packed children of a gate.
    #[inline]
    pub(crate) fn kids(&self, g: usize) -> &[u32] {
        let off = self.off[g] as usize;
        &self.children[off..off + self.len[g] as usize]
    }

    /// Resolves each weighting of `ws` into one lane weight per distinct
    /// variable, lane-major: lane `l`'s weights sit at
    /// `l * vars().len()..`, in slot order.
    fn resolve<L: Lane, W: WeightFn>(&self, ws: &[W], out: &mut Vec<L::Weight>) {
        out.clear();
        out.reserve(ws.len() * self.vars.len());
        for w in ws {
            for &v in &self.vars {
                let p = w.weight(v);
                assert!(p.is_probability(), "weight out of [0,1] for {v:?}");
                out.push(L::weight(p));
            }
        }
    }

    /// The per-gate step: prices gate `g` in one lane, from that lane's
    /// slot weights and the lane values of `g`'s children (`value(kid)`).
    #[inline]
    pub(crate) fn step<'a, L: Lane + 'a>(
        &self,
        g: usize,
        weights: &[L::Weight],
        value: impl Fn(u32) -> &'a L,
    ) -> L {
        match self.ops[g] {
            Op::False => L::ZERO,
            Op::True => L::ONE,
            Op::Leaf => L::leaf(&weights[self.var_slot[g] as usize]),
            Op::Product => {
                let mut acc = L::ONE;
                for &kid in self.kids(g) {
                    acc = acc.times(value(kid));
                    if acc.absorbs() {
                        break;
                    }
                }
                acc
            }
            Op::Decision => {
                let kids = self.kids(g);
                let w = &weights[self.var_slot[g] as usize];
                L::decision(w, value(kids[0]), value(kids[1]))
            }
        }
    }

    /// The forward pass: every gate in `k` lanes, gate-major
    /// (`out[gate * k + lane]`). `weights` holds the lanes' slot weights
    /// lane-major, as [`FlatCircuit::resolve`] lays them out. Children
    /// precede parents, so one walk of `ops` / `children` prices the
    /// whole batch and the topological scan amortizes across it.
    pub(crate) fn forward<L: Lane>(&self, weights: &[L::Weight], k: usize, out: &mut Vec<L>) {
        let nv = self.vars.len();
        out.clear();
        out.reserve(self.ops.len() * k);
        for g in 0..self.ops.len() {
            for l in 0..k {
                let lane = &weights[l * nv..][..nv];
                let cell = self.step(g, lane, |kid| &out[kid as usize * k + l]);
                out.push(cell);
            }
        }
    }

    /// Resolves `ws` and runs the forward pass through `L`'s arena slabs;
    /// returns the gate-major values.
    fn price<'a, L: Lane, W: WeightFn>(&self, ws: &[W], arena: &'a mut EvalArena) -> &'a [L] {
        let (weights, values) = L::slabs(arena);
        self.resolve::<L, W>(ws, weights);
        self.forward(weights, ws.len(), values);
        values
    }

    /// `Pr(F, w)` exactly, reusing the arena's slabs across weightings.
    /// Bit-identical to the reference
    /// [`Circuit::evaluate`](crate::circuit::Circuit::evaluate); only the
    /// root value is materialized as a [`Rational`] — interior gates stay
    /// in the hybrid machine-word lane.
    pub fn eval_exact_with<W: WeightFn>(&self, w: &W, arena: &mut EvalArena) -> Rational {
        let cells = self.price::<LaneVal, W>(std::slice::from_ref(w), arena);
        cells[self.root as usize].to_rational()
    }

    /// `Pr(F, w)` exactly, with a throwaway arena.
    pub fn eval_exact<W: WeightFn>(&self, w: &W) -> Rational {
        self.eval_exact_with(w, &mut EvalArena::new())
    }

    /// A certified enclosure of `Pr(F, w)` — the fast path: each distinct
    /// weight is converted with directed rounding, then every gate is
    /// priced in plain `Copy` doubles, with no heap traffic.
    pub fn eval_interval<W: WeightFn>(&self, w: &W) -> Interval {
        self.price::<Interval, W>(std::slice::from_ref(w), &mut EvalArena::new())
            [self.root as usize]
    }

    /// Definite answer for `Pr(F, w) ≤ t`: the interval lane first, the
    /// exact lane only when the enclosure straddles `t`
    /// ([`Certifies::Unknown`]). Returns `(answer, fell_back_to_exact)`;
    /// callers that account for fallbacks count the second component.
    pub fn le_exact<W: WeightFn>(
        &self,
        w: &W,
        t: &Rational,
        arena: &mut EvalArena,
    ) -> (bool, bool) {
        let ivs = self.price::<Interval, W>(std::slice::from_ref(w), arena);
        match ivs[self.root as usize].proves_le_rational(t) {
            Certifies::Proven(b) => (b, false),
            Certifies::Unknown => (&self.eval_exact_with(w, arena) <= t, true),
        }
    }

    /// Lanes per forward pass: enough to amortize the topological walk,
    /// bounded so `gates × lanes` hybrid cells stay in cache-ish memory
    /// even for huge pools.
    fn batch_chunk_lanes(&self) -> usize {
        (MAX_BATCH_CELLS / self.gate_count().max(1)).max(1)
    }

    /// Exact root values for a whole batch of weightings, one forward
    /// pass per lane chunk. Output order matches input order; every value
    /// is bit-identical to the serial [`FlatCircuit::eval_exact_with`]
    /// loop.
    pub fn eval_batch_exact_with<W: WeightFn>(
        &self,
        ws: &[W],
        arena: &mut EvalArena,
    ) -> Vec<Rational> {
        let mut out = Vec::with_capacity(ws.len());
        for chunk in ws.chunks(self.batch_chunk_lanes()) {
            let k = chunk.len();
            let cells = self.price::<LaneVal, W>(chunk, arena);
            let row = self.root as usize * k;
            out.extend(cells[row..row + k].iter().map(LaneVal::to_rational));
        }
        out
    }

    /// Evaluates **every** gate exactly under each weighting of the batch
    /// — the pool form behind the lifted inclusion–exclusion pool and the
    /// Type-II Möbius cells: one multi-rooted pool built by
    /// [`Compiler::finish_flat`](crate::circuit::Compiler::finish_flat), `k`
    /// weightings, every root priced (ids are preserved, so `NodeId`s
    /// returned by [`Compiler::compile`](crate::circuit::Compiler::compile) index
    /// each result).
    pub fn evaluate_all_batch<W: WeightFn>(&self, ws: &[W]) -> Vec<Valuation> {
        let mut out = Vec::with_capacity(ws.len());
        let mut arena = EvalArena::new();
        for chunk in ws.chunks(self.batch_chunk_lanes()) {
            let k = chunk.len();
            let cells = self.price::<LaneVal, W>(chunk, &mut arena);
            for l in 0..k {
                out.push(Valuation {
                    values: cells[l..]
                        .iter()
                        .step_by(k)
                        .map(LaneVal::to_rational)
                        .collect(),
                });
            }
        }
        out
    }

    /// Exact batch evaluation with a throwaway arena (see
    /// [`FlatCircuit::eval_batch_exact_with`]).
    pub fn evaluate_batch<W: WeightFn>(&self, weights: &[W]) -> Vec<Rational> {
        self.eval_batch_exact_with(weights, &mut EvalArena::new())
    }

    /// Builds the parent index of the circuit: for every gate, the gates
    /// that consume it, in the same packed CSR layout as `children` (one
    /// counting pass, one prefix sum, one scatter — no per-gate
    /// allocation). Each edge of `children` appears exactly once, so
    /// `rev.edge_count() == children.len()`; a gate referenced twice by
    /// the same parent (a `Decision` with `hi == lo`)
    /// lists that parent twice, mirroring the forward multiplicity.
    pub fn reverse_topology(&self) -> ReverseTopology {
        let n = self.ops.len();
        let mut counts = vec![0u32; n];
        for &k in &self.children {
            counts[k as usize] += 1;
        }
        let mut off = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for &c in &counts {
            off.push(acc);
            acc += c;
        }
        off.push(acc);
        let mut cursor = off[..n].to_vec();
        let mut parents = vec![0u32; self.children.len()];
        for g in 0..n {
            for &k in self.kids(g) {
                let slot = &mut cursor[k as usize];
                parents[*slot as usize] = g as u32;
                *slot += 1;
            }
        }
        ReverseTopology { off, parents }
    }
}

/// The parent index of a [`FlatCircuit`]: for each gate, the gates that
/// consume it, packed CSR-style exactly like the forward `children`
/// vector. Parents of gate `g` live at `off[g]..off[g+1]` inside
/// `parents`, in ascending forward-scan order (the order parent gates
/// were visited while counting), so walking a gate's parents is one
/// slice index — the structural half of incremental re-pricing.
#[derive(Clone, Debug)]
pub struct ReverseTopology {
    off: Vec<u32>,
    parents: Vec<u32>,
}

impl ReverseTopology {
    /// The gates consuming `g` (with forward multiplicity: a parent
    /// referencing `g` twice appears twice).
    #[inline]
    pub fn parents(&self, g: u32) -> &[u32] {
        let gi = g as usize;
        &self.parents[self.off[gi] as usize..self.off[gi + 1] as usize]
    }

    /// Total parent edges — always equal to the forward `children` count.
    pub fn edge_count(&self) -> usize {
        self.parents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, Compiler, NodeId};
    use crate::cnf::{Clause, Cnf};
    use crate::wmc::UniformWeight;
    use std::collections::HashMap;

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    /// Every gate of a pool under one weighting: the batch pass, one lane.
    fn evaluate_all<W: WeightFn>(flat: &FlatCircuit, w: &W) -> Valuation {
        flat.evaluate_all_batch(std::slice::from_ref(w)).remove(0)
    }

    #[test]
    fn flatten_preserves_counts_and_values() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4])]);
        let tree = Circuit::compile(&f);
        let flat = tree.clone().flatten();
        assert_eq!(flat.gate_count(), tree.node_count());
        assert_eq!(flat.decision_count(), tree.decision_count());
        assert_eq!(flat.root(), tree.root().0);
        for k in 0..=4 {
            let w = UniformWeight(r(k, 4));
            assert_eq!(flat.eval_exact(&w), tree.evaluate(&w));
        }
    }

    #[test]
    fn interval_encloses_exact_value() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let flat = Circuit::compile(&f).flatten();
        for w in [r(1, 2), r(1, 3), r(2, 7)] {
            let w = UniformWeight(w);
            let exact = flat.eval_exact(&w);
            assert!(flat.eval_interval(&w).contains(&exact));
        }
    }

    #[test]
    fn le_exact_decides_correctly_with_and_without_fallback() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let flat = Circuit::compile(&f).flatten();
        let w = UniformWeight(r(1, 2));
        let exact = flat.eval_exact(&w); // 5/8
        let mut arena = EvalArena::new();
        // Far threshold: interval decides, no fallback.
        let (ans, fell_back) = flat.le_exact(&w, &r(3, 4), &mut arena);
        assert!(ans && !fell_back);
        // Threshold equal to the value: the outward nudges widen the
        // enclosure past it, so this exercises the exact fallback.
        let (ans, _) = flat.le_exact(&w, &exact, &mut arena);
        assert!(ans);
        let (ans, _) = flat.le_exact(&w, &r(1, 2), &mut arena);
        assert!(!ans);
    }

    #[test]
    fn pool_flattening_preserves_compile_ids() {
        let mut comp = Compiler::new();
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let g = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[4])]);
        let rf = comp.compile(&f);
        let rg = comp.compile(&g);
        let w = UniformWeight(Rational::one_half());
        let tree_vals = comp.evaluate_all(&w);
        let node_count = comp.node_count();
        let flat = comp.finish_flat();
        assert_eq!(flat.gate_count(), node_count);
        let flat_vals = evaluate_all(&flat, &w);
        assert_eq!(flat_vals.value(rf), tree_vals.value(rf));
        assert_eq!(flat_vals.value(rg), tree_vals.value(rg));
    }

    #[test]
    fn batch_kernel_matches_serial_loop_bit_identically() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4]), cl(&[1, 4])]);
        let flat = Circuit::compile(&f).flatten();
        let weights: Vec<UniformWeight> = (0..=16).map(|k| UniformWeight(r(k, 16))).collect();
        let mut arena = EvalArena::new();
        let batch = flat.eval_batch_exact_with(&weights, &mut arena);
        let serial: Vec<Rational> = weights
            .iter()
            .map(|w| flat.eval_exact_with(w, &mut arena))
            .collect();
        assert_eq!(batch, serial);
    }

    #[test]
    fn batch_intervals_enclose_exact_values() {
        // The interval lane of the pass at width k: each lane encloses its
        // exact value and equals the width-1 pass bit for bit.
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4])]);
        let flat = Circuit::compile(&f).flatten();
        let weights: Vec<UniformWeight> = (0..=7).map(|k| UniformWeight(r(k, 7))).collect();
        let k = weights.len();
        let mut arena = EvalArena::new();
        let root = flat.root() as usize * k;
        let ivs = flat.price::<Interval, _>(&weights, &mut arena)[root..root + k].to_vec();
        let exact = flat.eval_batch_exact_with(&weights, &mut arena);
        assert_eq!(ivs.len(), exact.len());
        for ((iv, x), w) in ivs.iter().zip(&exact).zip(&weights) {
            assert!(iv.contains(x), "{iv:?} misses {x}");
            assert_eq!(*iv, flat.eval_interval(w));
        }
    }

    #[test]
    fn evaluate_all_batch_matches_evaluate_all_loop() {
        let mut comp = Compiler::new();
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let g = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[4])]);
        let rf = comp.compile(&f);
        let rg = comp.compile(&g);
        let flat = comp.finish_flat();
        let weights: Vec<UniformWeight> = (0..=5).map(|k| UniformWeight(r(k, 5))).collect();
        let batch = flat.evaluate_all_batch(&weights);
        for (vals, w) in batch.iter().zip(&weights) {
            let serial = evaluate_all(&flat, w);
            assert_eq!(vals.value(rf), serial.value(rf));
            assert_eq!(vals.value(rg), serial.value(rg));
        }
    }
    /// The `rows × cols` grid: `x(i,j) ∨ x(i,j+1)` and `x(i,j) ∨ x(i+1,j)`
    /// with `x(i,j) = Var(i·cols + j)`.
    fn grid_cnf(rows: u32, cols: u32) -> Cnf {
        let x = |i: u32, j: u32| i * cols + j;
        let mut clauses = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                if j + 1 < cols {
                    clauses.push(cl(&[x(i, j), x(i, j + 1)]));
                }
                if i + 1 < rows {
                    clauses.push(cl(&[x(i, j), x(i + 1, j)]));
                }
            }
        }
        Cnf::new(clauses)
    }

    #[test]
    fn batch_chunking_is_value_neutral() {
        // The 5×10 grid compiles to 3602 gates, so a chunk holds 72 lanes
        // and 150 per-variable {0, ½, 1} weightings span three chunks (all
        // on the machine-word path).
        let f = grid_cnf(5, 10);
        let flat = Circuit::compile(&f).flatten();
        let weights: Vec<HashMap<Var, Rational>> = (0..150u32)
            .map(|k| {
                flat.vars()
                    .iter()
                    .map(|&v| (v, r(i64::from((k + 7 * v.0) % 3), 2)))
                    .collect()
            })
            .collect();
        assert!(weights.len() > 2 * flat.batch_chunk_lanes());
        let mut arena = EvalArena::new();
        let batch = flat.eval_batch_exact_with(&weights, &mut arena);
        let serial: Vec<Rational> = weights
            .iter()
            .map(|w| flat.eval_exact_with(w, &mut arena))
            .collect();
        assert_eq!(batch, serial);
    }

    #[test]
    fn flat_batch_matches_serial_and_parallel() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4]), cl(&[1, 4])]);
        let flat = Circuit::compile(&f).flatten();
        let weights: Vec<UniformWeight> = (0..=8).map(|k| UniformWeight(r(k, 8))).collect();
        let serial: Vec<Rational> = weights.iter().map(|w| flat.eval_exact(w)).collect();
        assert_eq!(serial, flat.evaluate_batch(&weights));
    }

    /// FNV-1a over every gate's `(op, var_slot, kids)`, in gate order.
    fn structure_fingerprint(flat: &FlatCircuit) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u32| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for g in 0..flat.gate_count() {
            eat(flat.ops[g] as u32);
            eat(flat.var_slot[g]);
            eat(flat.kids(g).len() as u32);
            for &k in flat.kids(g) {
                eat(k);
            }
        }
        h
    }

    #[test]
    fn compiled_structure_is_pinned() {
        // Gate order, child order and slot order of fixed compilations.
        // The cache's admission cost, the gate counters and pool callers
        // indexing by compile-time id all depend on them.
        let chain = Cnf::new((1..9).map(|i| cl(&[i, i + 1])));
        let clique = Cnf::new((1..=5).flat_map(|i| (i + 1..=5).map(move |j| cl(&[i, j]))));
        let two = Cnf::new([cl(&[1, 2]), cl(&[3, 4])]);
        let intro = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let pooled = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[4])]);
        let mut comp = Compiler::new();
        assert_eq!(comp.compile(&intro), NodeId(5));
        assert_eq!(comp.compile(&pooled), NodeId(7));
        let grid = grid_cnf(5, 10);
        #[rustfmt::skip]
        let grid_vars = [
            1, 10, 0, 30, 41, 40, 38, 47, 49, 48, 36, 45, 46, 34, 43, 44, 32, 42, 29, 39, 21,
            20, 9, 18, 19, 7, 8, 5, 16, 6, 3, 14, 4, 12, 2, 27, 37, 25, 35, 23, 33, 31, 28, 26,
            24, 22, 17, 15, 13, 11,
        ];
        // (circuit, gates, decisions, root, slot order, fingerprint)
        type Pin<'a> = (FlatCircuit, usize, usize, u32, &'a [u32], u64);
        #[rustfmt::skip]
        let cases: [Pin; 6] = [
            (Circuit::compile(&chain).flatten(), 23, 7, 22, &[7, 9, 8, 5, 6, 3, 4, 1, 2], 0x9651_debd_6683_ed21),
            (Circuit::compile(&clique).flatten(), 13, 4, 12, &[5, 4, 3, 2, 1], 0x76d8_f2f6_d56b_265f),
            (Circuit::compile(&two).flatten(), 7, 2, 6, &[2, 1, 4, 3], 0xbfc7_850a_b9f5_c281),
            (Circuit::compile(&intro).flatten(), 6, 1, 5, &[1, 3, 2], 0x5e84_5824_b1ed_4668),
            (Circuit::compile(&grid).flatten(), 3602, 1529, 3601, &grid_vars, 0xde23_817c_1abc_681f),
            (comp.finish_flat(), 8, 1, 7, &[1, 3, 2, 4], 0x85e2_6c12_9ee2_1b87),
        ];
        for (i, (flat, gates, decisions, root, vars, fingerprint)) in cases.iter().enumerate() {
            assert_eq!(flat.gate_count(), *gates, "case {i}");
            assert_eq!(flat.decision_count(), *decisions, "case {i}");
            assert_eq!(flat.root(), *root, "case {i}");
            let got: Vec<u32> = flat.vars().iter().map(|v| v.0).collect();
            assert_eq!(&got[..], *vars, "case {i}");
            assert_eq!(structure_fingerprint(flat), *fingerprint, "case {i}");
        }
    }
}
