//! Routing-stability and flat≡tree oracles for the flat evaluation core.
//!
//! The PR that introduced [`gfomc_logic::FlatCircuit`] rewired the
//! engine's compiled path (cache payloads, admission costs, every
//! evaluate entry point) without touching the routing *policy*. These
//! suites pin that claim:
//!
//! * the route picked by `Engine::evaluate_auto` on seeded 3×3 through
//!   6×6 block presets equals the pre-refactor oracle recomputed from
//!   first principles (`is_safe` → lifted; otherwise the refined cost
//!   bound against the budget — neither ever looks at a flat circuit);
//! * on every exact route the reported probability is bit-identical to
//!   an independently compiled circuit evaluated by the plain-`Rational`
//!   reference evaluator (`Circuit::evaluate`).

use gfomc_engine::workload::{random_block_tid, random_query, unsafe_block_preset, SafetyTarget};
use gfomc_engine::{Budget, Engine, Route};
use gfomc_logic::Circuit;
use gfomc_safety::{circuit_cost_estimate, is_safe};
use gfomc_tid::lineage;
use rand::{rngs::StdRng, SeedableRng};

/// The routing decision exactly as the pre-flat router made it: safety
/// first, then the refined cost bound against the budget. Neither input
/// changed in the refactor, so this *is* the pre-refactor oracle.
fn oracle_route(q: &gfomc_query::BipartiteQuery, tid: &gfomc_tid::Tid, budget: &Budget) -> Route {
    if is_safe(q) {
        return Route::Lifted;
    }
    let lin = lineage(q, tid);
    if circuit_cost_estimate(&lin.cnf).within(budget.max_circuit_cost) {
        Route::Compiled
    } else {
        Route::Sampled
    }
}

#[test]
fn router_decisions_match_pre_refactor_oracle_on_block_presets() {
    let budget = Budget::default();
    let engine = Engine::new();
    let mut routes = [0usize; 3];
    for scale in 3..=6u32 {
        let mut rng = StdRng::seed_from_u64(0xF1A7_0000 + scale as u64);
        for _ in 0..4 {
            let q = random_query(&mut rng, 2, 2, SafetyTarget::Any);
            let tid = random_block_tid(&mut rng, &q, scale, scale);
            let expected = oracle_route(&q, &tid, &budget);
            let routed = engine.evaluate_auto(&q, &tid, &budget);
            assert_eq!(routed.route, expected, "{scale}×{scale}: {q:?}");
            routes[match routed.route {
                Route::Lifted => 0,
                Route::Compiled => 1,
                Route::Sampled => 2,
            }] += 1;
        }
    }
    // The sweep must actually exercise every regime, or the oracle
    // comparison proves nothing.
    assert!(
        routes.iter().all(|&n| n > 0),
        "degenerate sweep: {routes:?}"
    );
    let counts = engine.route_counts();
    assert_eq!(counts.lifted, routes[0]);
    assert_eq!(counts.compiled, routes[1]);
    assert_eq!(counts.sampled, routes[2]);
}

#[test]
fn compiled_route_is_bit_identical_to_the_tree_evaluator() {
    // Unsafe 2-symbol queries at small scale stay under the default cost
    // budget, so they route to the compiled (now flat) path; the tree
    // circuit compiled from the same lineage must price every database
    // identically.
    let budget = Budget::default();
    let engine = Engine::new();
    let mut rng = StdRng::seed_from_u64(0xF1A7_BEEF);
    let mut checked = 0usize;
    for _ in 0..6 {
        let (q, tid) = unsafe_block_preset(&mut rng, 2, 2);
        let routed = engine.evaluate_auto(&q, &tid, &budget);
        if routed.route != Route::Compiled {
            continue;
        }
        let lin = lineage(&q, &tid);
        let tree = Circuit::compile(&lin.cnf);
        let expect = tree.evaluate(lin.vars.weights());
        assert_eq!(
            routed.result,
            gfomc_engine::AutoResult::Exact(expect),
            "flat-backed route diverged from the tree evaluator on {q:?}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no preset took the compiled route");
}

#[test]
fn routes_are_stable_across_repeated_evaluation_and_caching() {
    // Same (query, TID, budget) must route identically whether the
    // lineage is compiled fresh or served from the flat-circuit cache.
    let budget = Budget::default();
    let engine = Engine::new();
    let mut rng = StdRng::seed_from_u64(0xF1A7_CAFE);
    let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
    let tid = random_block_tid(&mut rng, &q, 3, 3);
    let first = engine.evaluate_auto(&q, &tid, &budget);
    let second = engine.evaluate_auto(&q, &tid, &budget);
    assert_eq!(first, second);
    assert_eq!(first.route, oracle_route(&q, &tid, &budget));
}
