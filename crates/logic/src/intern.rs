//! Interned canonical CNFs: dense integer ids for cofactor caches.
//!
//! Both WMC back-ends — the Shannon-expansion [`crate::wmc::ModelCounter`]
//! and the knowledge-compilation [`crate::circuit::Compiler`] — memoize per
//! canonical cofactor. Keying those memos by the full [`Cnf`] value hashes
//! the entire clause set on every lookup *and* every insert, and clones the
//! formula into the table. The interner hoists that cost: each distinct
//! canonical CNF is hashed once when first seen and assigned a dense
//! [`CnfId`]; all downstream caches key on the copy-free id.

use crate::cnf::Cnf;
use std::collections::HashMap;
use std::sync::Arc;

/// Dense identifier of an interned canonical CNF.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CnfId(pub u32);

/// An intern table mapping canonical CNFs to dense [`CnfId`]s.
///
/// Formulas are stored behind [`Arc`] so the id → formula direction shares
/// the allocation with the hash-map key instead of cloning twice, and so
/// tables (and caches keyed on their ids) stay `Send` for the parallel
/// evaluation paths. Ids are never reused: the table lives as long as the
/// compilation or count that fills it.
#[derive(Clone, Debug, Default)]
pub struct CnfInterner {
    ids: HashMap<Arc<Cnf>, CnfId>,
    /// Id → formula.
    formulas: Vec<Arc<Cnf>>,
}

impl CnfInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `f`, returning its id. Hashes `f` exactly once; clones it
    /// only the first time it is seen.
    pub fn intern(&mut self, f: &Cnf) -> CnfId {
        if let Some(&id) = self.ids.get(f) {
            return id;
        }
        let shared = Arc::new(f.clone());
        let id = CnfId(self.formulas.len() as u32);
        self.formulas.push(Arc::clone(&shared));
        self.ids.insert(shared, id);
        id
    }

    /// Looks up the id of `f` without interning it.
    pub fn lookup(&self, f: &Cnf) -> Option<CnfId> {
        self.ids.get(f).copied()
    }

    /// The formula behind an id.
    pub fn resolve(&self, id: CnfId) -> &Cnf {
        &self.formulas[id.0 as usize]
    }

    /// Number of interned formulas.
    pub fn len(&self) -> usize {
        self.formulas.len()
    }

    /// True iff nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Clause, Var};

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    #[test]
    fn intern_is_idempotent() {
        let mut it = CnfInterner::new();
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3])]);
        let a = it.intern(&f);
        let b = it.intern(&f);
        assert_eq!(a, b);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn distinct_formulas_get_distinct_ids() {
        let mut it = CnfInterner::new();
        let a = it.intern(&Cnf::new([cl(&[1])]));
        let b = it.intern(&Cnf::new([cl(&[2])]));
        assert_ne!(a, b);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut it = CnfInterner::new();
        let f = Cnf::new([cl(&[1, 2])]);
        let id = it.intern(&f);
        assert_eq!(it.resolve(id), &f);
        assert_eq!(it.lookup(&f), Some(id));
        assert_eq!(it.lookup(&Cnf::top()), None);
    }

    #[test]
    fn canonical_equality_collapses() {
        // Syntactically different inputs with the same canonical form
        // intern to the same id.
        let mut it = CnfInterner::new();
        let a = it.intern(&Cnf::new([cl(&[2, 1]), cl(&[1, 2])]));
        let b = it.intern(&Cnf::new([cl(&[1, 2])]));
        assert_eq!(a, b);
    }
}
