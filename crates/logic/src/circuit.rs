//! Knowledge compilation: monotone CNF → d-DNNF-style arithmetic circuit.
//!
//! [`wmc`](crate::wmc()) answers `Pr(F, w)` by Shannon expansion — and re-runs the
//! expansion from scratch for every weight function. The paper's block
//! constructions (§3, Theorem 3.4) evaluate the *same* lineage under *many*
//! weight assignments, which is exactly the workload knowledge compilation
//! amortizes: [`Compiler::compile`] runs the expansion **once**, recording
//! its trace as a circuit whose internal nodes are
//!
//! * **products** of variable-disjoint sub-circuits (component
//!   decomposition — decomposable conjunction), and
//! * **decisions** `w(v)·hi + (1 − w(v))·lo` (Shannon splits —
//!   deterministic disjunction),
//!
//! after which `Pr(F, w)` for *any* weight function `w` is a single
//! bottom-up pass, linear in the circuit size, with no hashing, no clause
//! manipulation, and no re-canonicalization. Compilation is
//! weight-independent: the branching order uses [`Cnf::branching_var`], the
//! same heuristic as the legacy counter, so the two back-ends explore the
//! same cofactors.
//!
//! There is one circuit representation: the compiler appends each gate
//! straight into the struct-of-arrays form of [`crate::flat`], assigning
//! slots to distinct variables in order of first use, and
//! [`Circuit::flatten`] / [`Compiler::finish_flat`] hand those arrays over
//! as they are. Every production evaluation runs the one forward gate
//! kernel of [`crate::flat`] on them. The evaluators here —
//! [`Circuit::evaluate`] and [`Compiler::evaluate_all`] — loop over the
//! same arrays in plain [`Rational`]s and are kept only as an independent
//! reference for tests and benchmarks, next to [`crate::wmc()`] and
//! [`crate::wmc_brute_force`].

use crate::cnf::{Cnf, Var};
use crate::flat::{FlatCircuit, Op, NO_SLOT};
use crate::intern::{CnfId, CnfInterner};
use crate::wmc::WeightFn;
use gfomc_arith::Rational;
use std::collections::HashMap;

/// Index of a gate in a [`Circuit`] or [`Compiler`] pool.
///
/// Children always precede parents, so a single forward pass over the pool
/// evaluates every gate bottom-up.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Gate id 0: the constant `⊥`.
const FALSE_ID: NodeId = NodeId(0);
/// Gate id 1: the constant `⊤`.
const TRUE_ID: NodeId = NodeId(1);

/// Compiles CNFs into a growing multi-rooted circuit pool.
///
/// The pool, the per-cofactor memo, and the [`CnfInterner`] persist across
/// [`Compiler::compile`] calls, so formulas sharing cofactors (e.g. the
/// `Q_αβ` cell family of the Type-II machinery) share sub-circuits. All
/// formulas compiled by one `Compiler` must use a common variable
/// namespace. Gates are appended straight into the flat arrays that
/// [`Compiler::finish_flat`] hands over.
#[derive(Clone, Debug)]
pub struct Compiler {
    interner: CnfInterner,
    memo: HashMap<CnfId, NodeId>,
    flat: FlatCircuit,
    /// Distinct variable → slot of `flat.vars`, assigned at first use.
    slot_of: HashMap<Var, u32>,
    /// Child ids of the products under construction, innermost last.
    kids: Vec<u32>,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// An empty compiler (pool holds only the two constants).
    pub fn new() -> Self {
        Compiler {
            interner: CnfInterner::new(),
            memo: HashMap::new(),
            flat: FlatCircuit::constants(),
            slot_of: HashMap::new(),
            kids: Vec::new(),
        }
    }

    /// Compiles `f`, returning the id of its root gate. Repeated calls on
    /// the same (or overlapping) formulas hit the memo.
    pub fn compile(&mut self, f: &Cnf) -> NodeId {
        if f.is_true() {
            return TRUE_ID;
        }
        if f.is_false() {
            return FALSE_ID;
        }
        let id = self.interner.intern(f);
        if let Some(&n) = self.memo.get(&id) {
            return n;
        }
        let comps = f.components();
        let n = if comps.len() > 1 {
            let base = self.kids.len();
            for c in &comps {
                let k = self.compile(c);
                self.kids.push(k.0);
            }
            let n = self
                .flat
                .push_gate(Op::Product, NO_SLOT, &self.kids[base..]);
            self.kids.truncate(base);
            n
        } else {
            let v = f.branching_var().expect("non-constant CNF has variables");
            // A lone unit clause compiles to a leaf: Pr = w(v).
            if f.len() == 1 && f.clauses()[0].len() == 1 {
                let slot = self.slot(v);
                self.flat.push_gate(Op::Leaf, slot, &[])
            } else {
                let hi = self.compile(&f.restrict(v, true));
                let lo = self.compile(&f.restrict(v, false));
                let slot = self.slot(v);
                self.flat.push_gate(Op::Decision, slot, &[hi.0, lo.0])
            }
        };
        let n = NodeId(n);
        self.memo.insert(id, n);
        n
    }

    /// The slot of `v`, appending it to the slot table on first use.
    fn slot(&mut self, v: Var) -> u32 {
        let vars = &mut self.flat.vars;
        *self.slot_of.entry(v).or_insert_with(|| {
            vars.push(v);
            (vars.len() - 1) as u32
        })
    }

    /// Total pool size, including the two constants.
    pub fn node_count(&self) -> usize {
        self.flat.gate_count()
    }

    /// Evaluates **every** pooled gate under `w` in one bottom-up pass.
    ///
    /// This is the batched form for many formulas × one weight function:
    /// after compiling a family of formulas over a shared variable
    /// namespace, a single pass prices all of them, with shared
    /// sub-circuits evaluated once.
    pub fn evaluate_all<W: WeightFn>(&self, w: &W) -> Valuation {
        Valuation {
            values: evaluate_pool(&self.flat, w),
        }
    }

    /// Hands over the compiler's entire multi-rooted pool, ids preserved:
    /// `NodeId`s returned by [`Compiler::compile`] remain valid gate ids
    /// of the result (the nominal root is the last gate; use
    /// [`FlatCircuit::evaluate_all_batch`] and index by compile-time ids).
    pub fn finish_flat(mut self) -> FlatCircuit {
        self.flat.root = (self.flat.gate_count() - 1) as u32;
        self.flat
    }
}

/// The values of every pooled gate under one weight function
/// (see [`Compiler::evaluate_all`]).
#[derive(Clone, Debug)]
pub struct Valuation {
    pub(crate) values: Vec<Rational>,
}

impl Valuation {
    /// The value of a gate.
    pub fn value(&self, id: NodeId) -> &Rational {
        &self.values[id.0 as usize]
    }
}

/// A compiled, self-contained arithmetic circuit for one formula.
///
/// Obtained from [`Circuit::compile`]. Evaluation under any weight
/// function is one bottom-up pass — `Pr(F, w)` in time linear in the
/// circuit size.
#[derive(Clone, Debug)]
pub struct Circuit {
    flat: FlatCircuit,
}

impl Circuit {
    /// One-shot compilation of a single formula.
    pub fn compile(f: &Cnf) -> Circuit {
        let mut c = Compiler::new();
        let root = c.compile(f);
        c.flat.root = root.0;
        Circuit { flat: c.flat }
    }

    /// Hands over the circuit's struct-of-arrays evaluation form (the
    /// gates the compiler emitted, as they are).
    pub fn flatten(self) -> FlatCircuit {
        self.flat
    }

    /// `Pr(F, w)`: evaluates the circuit bottom-up under `w`.
    pub fn evaluate<W: WeightFn>(&self, w: &W) -> Rational {
        evaluate_pool(&self.flat, w).swap_remove(self.flat.root() as usize)
    }

    /// The root gate.
    pub fn root(&self) -> NodeId {
        NodeId(self.flat.root())
    }

    /// Number of gates (including the two constants).
    pub fn node_count(&self) -> usize {
        self.flat.gate_count()
    }

    /// Number of Shannon-split gates — the compiled analogue of the legacy
    /// counter's `branch_count` instrumentation.
    pub fn decision_count(&self) -> usize {
        self.flat.decision_count()
    }
}

/// The reference evaluator: every gate in plain [`Rational`]s, one weight
/// lookup per leaf and per decision. It shares no code with the lane
/// kernel of [`crate::flat`], so it checks that kernel's arithmetic.
fn evaluate_pool<W: WeightFn>(flat: &FlatCircuit, w: &W) -> Vec<Rational> {
    let mut values: Vec<Rational> = Vec::with_capacity(flat.gate_count());
    for g in 0..flat.gate_count() {
        let weight = || {
            let v = flat.vars()[flat.var_slot[g] as usize];
            let p = w.weight(v);
            assert!(p.is_probability(), "weight out of [0,1] for {v:?}");
            p
        };
        let val = match flat.ops[g] {
            Op::True => Rational::one(),
            Op::False => Rational::zero(),
            Op::Leaf => weight(),
            Op::Product => {
                let mut acc = Rational::one();
                for &k in flat.kids(g) {
                    acc = &acc * &values[k as usize];
                    if acc.is_zero() {
                        break;
                    }
                }
                acc
            }
            Op::Decision => {
                let p = weight();
                let kids = flat.kids(g);
                let hi = &values[kids[0] as usize];
                let lo = &values[kids[1] as usize];
                &(&p * hi) + &(&p.complement() * lo)
            }
        };
        values.push(val);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Clause;
    use crate::wmc::{wmc, wmc_brute_force, UniformWeight};

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    fn half() -> UniformWeight {
        UniformWeight(Rational::one_half())
    }

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    #[test]
    fn constants_compile_to_constants() {
        assert_eq!(
            Circuit::compile(&Cnf::top()).evaluate(&half()),
            Rational::one()
        );
        assert_eq!(
            Circuit::compile(&Cnf::bottom()).evaluate(&half()),
            Rational::zero()
        );
    }

    #[test]
    fn literal_is_a_leaf() {
        let c = Circuit::compile(&Cnf::literal(Var(3)));
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.evaluate(&UniformWeight(r(1, 3))), r(1, 3));
    }

    #[test]
    fn paper_intro_example() {
        // (R ∨ S)(S ∨ T) at all-½ is 5/8 (§1.6).
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let c = Circuit::compile(&f);
        assert_eq!(c.evaluate(&half()), r(5, 8));
    }

    #[test]
    fn matches_wmc_on_fixed_formulas() {
        let formulas = [
            Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4])]),
            Cnf::new([cl(&[1, 2, 3]), cl(&[2, 4]), cl(&[1, 4])]),
            Cnf::new([cl(&[1]), cl(&[2, 3]), cl(&[4, 5, 6])]),
            Cnf::new([cl(&[1, 2]), cl(&[3, 4]), cl(&[5, 6]), cl(&[1, 6])]),
        ];
        for f in &formulas {
            let c = Circuit::compile(f);
            for w in [r(1, 2), r(1, 3), r(3, 4), r(0, 1), r(1, 1)] {
                let w = UniformWeight(w);
                assert_eq!(c.evaluate(&w), wmc_brute_force(f, &w), "{f:?}");
            }
        }
    }

    #[test]
    fn deterministic_weights_are_exact() {
        // Unlike the legacy counter (which pre-eliminates 0/1-weight
        // variables), the circuit handles them arithmetically: the Shannon
        // gate degenerates to the forced branch.
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let c = Circuit::compile(&f);
        let mut w = std::collections::HashMap::new();
        w.insert(Var(1), Rational::one());
        w.insert(Var(2), Rational::zero());
        w.insert(Var(3), r(1, 3));
        assert_eq!(c.evaluate(&w), wmc(&f, &w));
    }

    #[test]
    fn compile_once_evaluate_many() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4]), cl(&[1, 4])]);
        let c = Circuit::compile(&f);
        for k in 0..=8 {
            let w = UniformWeight(r(k, 8));
            assert_eq!(c.evaluate(&w), wmc(&f, &w));
        }
    }

    #[test]
    fn component_split_compiles_to_product() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[3, 4])]);
        let flat = Circuit::compile(&f).flatten();
        let root = flat.root();
        assert_eq!(flat.op(root), Op::Product);
        assert_eq!(flat.kids(root as usize).len(), 2);
    }

    #[test]
    fn pool_sharing_across_formulas() {
        // Two formulas sharing a cofactor compile into one pool without
        // duplicating the shared part.
        let mut comp = Compiler::new();
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let g = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[4])]);
        let rf = comp.compile(&f);
        let before = comp.node_count();
        let rg = comp.compile(&g);
        // g = f ∧ x4: only the leaf for x4 and the product gate are new.
        assert_eq!(comp.node_count(), before + 2);
        let vals = comp.evaluate_all(&half());
        assert_eq!(vals.value(rf), &r(5, 8));
        assert_eq!(vals.value(rg), &(&r(5, 8) * &r(1, 2)));
    }

    #[test]
    fn decision_count_matches_structure() {
        let f = Cnf::new([cl(&[1, 2])]);
        let c = Circuit::compile(&f);
        assert_eq!(c.decision_count(), 1);
    }
}
