//! Exact query probability over a TID: `PQE(Q)` and its brute-force twin.

use crate::database::Tid;
use crate::lineage::lineage;
use gfomc_arith::{Natural, Rational};
use gfomc_logic::Circuit;
use gfomc_query::BipartiteQuery;

/// Computes `Pr_∆(Q)` exactly: lineage construction, knowledge compilation
/// of the lineage into an arithmetic circuit, and one forward pass of the
/// flat gate kernel under the tuple probabilities. This is the oracle
/// invoked by the paper's Cook reductions; callers that price the same
/// lineage under many weight assignments should keep the compiled
/// circuit (see `gfomc-engine`) instead of re-entering here.
pub fn probability(q: &BipartiteQuery, tid: &Tid) -> Rational {
    let lin = lineage(q, tid);
    Circuit::compile(&lin.cnf)
        .flatten()
        .eval_exact(lin.vars.weights())
}

/// Computes `Pr_∆(Q)` by enumerating all possible worlds over the uncertain
/// tuples. Exponential; ground truth for tests.
pub fn probability_brute_force(q: &BipartiteQuery, tid: &Tid) -> Rational {
    let lin = lineage(q, tid);
    gfomc_logic::wmc_brute_force(&lin.cnf, lin.vars.weights())
}

/// The *generalized model count* of `Q` on a GFOMC instance: the number of
/// worlds (subsets of the uncertain tuples, joined with all certain tuples)
/// that satisfy `Q`. Equals `Pr(Q) · 2^u` where `u` is the number of
/// probability-½ tuples. Panics if the TID is not a `{0, ½, 1}` instance.
pub fn generalized_model_count(q: &BipartiteQuery, tid: &Tid) -> Natural {
    assert!(
        tid.is_gfomc_instance(),
        "generalized model counting requires probabilities in {{0, 1/2, 1}}"
    );
    let u = tid
        .uncertain_tuples()
        .iter()
        .filter(|t| tid.prob(t) == Rational::one_half())
        .count() as u32;
    let p = probability(q, tid);
    // p = count / 2^u, so count = numer(p) · 2^(u - log2(denom(p))).
    let scaled = &p * &Rational::from_ints(2, 1).pow(u as i32);
    assert!(
        scaled.denom().is_one(),
        "model count should be integral: got {scaled}"
    );
    assert!(!scaled.is_negative());
    scaled.numer().magnitude().clone()
}

/// Expected number of uncertain tuples in the lineage support — a helper for
/// sizing experiments.
pub fn uncertain_tuple_count(tid: &Tid) -> usize {
    tid.uncertain_tuples().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Tuple;
    use gfomc_arith::Rational;
    use gfomc_query::catalog;

    fn half() -> Rational {
        Rational::one_half()
    }

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ints(n, d)
    }

    /// A fully-probabilistic database over U×V with all tuples at ½.
    fn uniform_tid(q: &BipartiteQuery, nu: u32, nv: u32) -> Tid {
        let left: Vec<u32> = (0..nu).collect();
        let right: Vec<u32> = (100..100 + nv).collect();
        let mut tid = Tid::all_present(left.clone(), right.clone());
        for &u in &left {
            tid.set_prob(Tuple::R(u), half());
            for &v in &right {
                for s in q.binary_symbols() {
                    tid.set_prob(Tuple::S(s, u, v), half());
                }
            }
        }
        for &v in &right {
            tid.set_prob(Tuple::T(v), half());
        }
        tid
    }

    #[test]
    fn h1_single_cell() {
        // H1 = (R∨S)(S∨T) over 1×1: lineage (R∨S)(S∨T), Pr = 5/8 (§1.6).
        let q = catalog::h1();
        let tid = uniform_tid(&q, 1, 1);
        assert_eq!(probability(&q, &tid), r(5, 8));
    }

    #[test]
    fn h0_single_cell() {
        // H0 = R∨S∨T over 1×1 at ½: Pr = 7/8.
        let q = catalog::h0();
        let tid = uniform_tid(&q, 1, 1);
        assert_eq!(probability(&q, &tid), r(7, 8));
    }

    #[test]
    fn fast_equals_brute_force() {
        for (name, q) in catalog::unsafe_catalog() {
            // Keep instances small: brute force is 2^#tuples.
            let tid = uniform_tid(&q, 2, 2);
            if uncertain_tuple_count(&tid) <= 16 {
                assert_eq!(
                    probability(&q, &tid),
                    probability_brute_force(&q, &tid),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn safe_queries_also_evaluate() {
        for (name, q) in catalog::safe_catalog() {
            let tid = uniform_tid(&q, 2, 2);
            let p = probability(&q, &tid);
            assert!(p.is_probability(), "{name}: {p}");
            assert_eq!(p, probability_brute_force(&q, &tid), "{name}");
        }
    }

    #[test]
    fn monotonicity_in_probabilities() {
        // Raising a tuple probability cannot decrease Pr(Q) (monotone query).
        let q = catalog::h1();
        let mut tid = uniform_tid(&q, 2, 2);
        let before = probability(&q, &tid);
        tid.set_prob(Tuple::S(0, 0, 100), r(3, 4));
        let after = probability(&q, &tid);
        assert!(after >= before);
    }

    #[test]
    fn generalized_model_count_matches_enumeration() {
        let q = catalog::h1();
        let tid = uniform_tid(&q, 1, 2);
        // Worlds over uncertain tuples: count via probability.
        let count = generalized_model_count(&q, &tid);
        let u = uncertain_tuple_count(&tid) as u32;
        let expect = &probability(&q, &tid) * &Rational::from_ints(2, 1).pow(u as i32);
        assert_eq!(Rational::from(gfomc_arith::Integer::from(count)), expect);
    }

    #[test]
    fn deterministic_database_gives_zero_or_one() {
        let q = catalog::h1();
        let left: Vec<u32> = vec![0];
        let right: Vec<u32> = vec![100];
        // All tuples present: query true.
        let tid = Tid::all_present(left.clone(), right.clone());
        assert_eq!(probability(&q, &tid), Rational::one());
        // R and T absent, S absent: (R∨S) fails on the only cell.
        let mut tid0 = Tid::all_present(left, right);
        tid0.set_prob(Tuple::R(0), Rational::zero());
        tid0.set_prob(Tuple::S(0, 0, 100), Rational::zero());
        assert_eq!(probability(&q, &tid0), Rational::zero());
    }

    #[test]
    fn empty_domain_side_makes_universal_query_true() {
        // With V empty, every ∀y clause is vacuously true.
        let q = catalog::h1();
        let tid = Tid::all_present([0, 1], std::iter::empty::<u32>());
        assert_eq!(probability(&q, &tid), Rational::one());
    }
}
