//! Property suite for the engine's compilation cache, the tightened cost
//! bound's routing effect, and the batch evaluator.
//!
//! The contracts under test:
//!
//! * **cache transparency** — a cache hit returns a circuit that evaluates
//!   bit-identically to a fresh compilation (and to a cache-disabled
//!   engine), under the database weights and under overrides;
//! * **re-routing** — the refined [`circuit_cost_estimate`] sends
//!   unsafe-but-structured lineages to the exact compiled path where the
//!   old monolithic `2^vars` bound forced them to the sampler, and the
//!   compiled answer matches the naive oracle exactly;
//! * **batches** — `Compiled::evaluate_batch` is identical to a serial
//!   loop of `Compiled::evaluate`;
//! * **adaptive routing** — the router's default adaptive mode never draws
//!   more samples than the fixed mode's budget.

use gfomc_engine::workload::{random_block_tid, random_query, unsafe_block_preset, SafetyTarget};
use gfomc_engine::{AutoResult, Budget, Engine, Route, SampleMode};
use gfomc_safety::circuit_cost_estimate;
use gfomc_tid::{lineage, probability};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cache_hits_evaluate_identically_to_fresh_compilations(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
        let tid = random_block_tid(&mut rng, &q, 2, 2);

        let cached = Engine::new();
        let first = cached.compile(&q, &tid);
        let second = cached.compile(&q, &tid);
        let stats = cached.cache_stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);
        prop_assert_eq!(cached.compiled_count(), 1, "hit must skip compilation");

        let uncached = Engine::builder().cache_capacity(0).build();
        let fresh = uncached.compile(&q, &tid);
        prop_assert_eq!(uncached.cache_stats().hits, 0);

        prop_assert_eq!(first.evaluate_db(), fresh.evaluate_db());
        prop_assert_eq!(second.evaluate_db(), fresh.evaluate_db());

        // Overrides agree too: the cached circuit is the same function.
        let support = fresh.tuples();
        let ws = gfomc_engine::workload::random_weightings(&mut rng, &support, 3);
        for w in &ws {
            prop_assert_eq!(second.evaluate(w), fresh.evaluate(w));
        }
    }

    #[test]
    fn parallel_batches_match_serial_batches(seed in 0u64..10_000, k in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Any);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        let compiled = Engine::new().compile(&q, &tid);
        let ws = gfomc_engine::workload::random_weightings(&mut rng, &compiled.tuples(), k);
        let serial: Vec<_> = ws.iter().map(|w| compiled.evaluate(w)).collect();
        prop_assert_eq!(serial, compiled.evaluate_batch(&ws));
    }

    #[test]
    fn adaptive_routing_draws_no_more_than_the_fixed_budget(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (q, tid) = unsafe_block_preset(&mut rng, 2, 4);
        // Zero circuit budget: force the sampled route even on instances
        // the refined cost bound would happily compile.
        let adaptive = Budget::default()
            .with_max_circuit_cost(0)
            .with_mode(SampleMode::Adaptive { epsilon: 0.05 })
            .expect("epsilon in (0, 1)")
            .with_seed(seed);
        let routed = Engine::new().evaluate_auto(&q, &tid, &adaptive);
        prop_assert_eq!(routed.route, Route::Sampled);
        let AutoResult::Approx { samples, .. } = routed.result else {
            panic!("expected an approximate result, got {routed:?}");
        };
        let sampler = gfomc_approx::lineage_sampler(&q, &tid);
        let fixed = sampler.fpras_samples(0.05, 0.05);
        prop_assert!(samples <= fixed, "adaptive {} > fixed {}", samples, fixed);
    }
}

/// The repeated-query workload: one engine, the same mix of queries asked
/// again and again — the cache must convert every repeat into a hit.
#[test]
fn repeated_query_workload_has_nonzero_cache_hit_rate() {
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let mut queries = Vec::new();
    for _ in 0..3 {
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        queries.push((q, tid));
    }
    let engine = Engine::new();
    let budget = Budget::default();
    let mut first_pass = Vec::new();
    for (q, tid) in &queries {
        first_pass.push(engine.evaluate_auto(q, tid, &budget));
    }
    let after_first = engine.cache_stats();
    for _ in 0..3 {
        for ((q, tid), expect) in queries.iter().zip(&first_pass) {
            let again = engine.evaluate_auto(q, tid, &budget);
            assert_eq!(&again, expect, "cached route must be bit-identical");
        }
    }
    let stats = engine.cache_stats();
    assert!(stats.hits > 0, "repeats must hit the cache: {stats:?}");
    assert_eq!(
        stats.misses, after_first.misses,
        "repeats must add no compilations"
    );
    assert_eq!(
        engine.compiled_count(),
        after_first.misses,
        "compilations = first-pass misses only"
    );
    assert!(stats.hit_rate() > 0.5, "hit rate {stats:?}");
}

/// The LRU bound holds: capacity-2 cache under three distinct lineages
/// keeps at most two circuits and evicts the least recently used.
#[test]
fn cache_eviction_respects_capacity() {
    let mut rng = StdRng::seed_from_u64(7);
    let engine = Engine::builder().cache_capacity(2).build();
    for _ in 0..3 {
        let q = random_query(&mut rng, 3, 2, SafetyTarget::Unsafe);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        engine.compile(&q, &tid);
    }
    let stats = engine.cache_stats();
    assert!(stats.entries <= 2, "{stats:?}");
    assert_eq!(stats.capacity, 2);
}

/// The headline routing win of the tightened bound: the 3×3 unsafe block
/// preset's lineage is monolithically connected, so the old worst-case
/// `clauses · 2^vars` estimate (≈ 3·10⁸ gates at 24 variables) blew every
/// reasonable budget and the router degraded it to a sampled estimate.
/// The refined bound sees through the block structure (≈ 10³ gates), the
/// instance re-routes to the exact compiled path, and the answer matches
/// the naive oracle bit-for-bit.
#[test]
fn tightened_bound_reroutes_unsafe_block_to_compiled() {
    let mut rng = StdRng::seed_from_u64(0xA55E55);
    let (q, tid) = unsafe_block_preset(&mut rng, 2, 3);
    let lin = lineage(&q, &tid);
    let est = circuit_cost_estimate(&lin.cnf);
    let budget = Budget::default();
    assert!(
        est.worst_case_nodes > budget.max_circuit_cost,
        "old bound must overflow the budget: {est:?}"
    );
    assert!(
        est.estimated_nodes <= budget.max_circuit_cost,
        "refined bound must fit the budget: {est:?}"
    );
    let routed = Engine::new().evaluate_auto(&q, &tid, &budget);
    assert_eq!(routed.route, Route::Compiled, "re-routed by the new bound");
    assert_eq!(routed.result, AutoResult::Exact(probability(&q, &tid)));
}

/// Sanity floor for the refined bound: it must never under-estimate the
/// circuit the compiler actually builds on these instances (the bound is
/// on the memoization-free tree, so real circuits are smaller).
#[test]
fn refined_bound_dominates_actual_circuit_size() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..5 {
        let q = random_query(&mut rng, 2, 2, SafetyTarget::Unsafe);
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        let lin = lineage(&q, &tid);
        let est = circuit_cost_estimate(&lin.cnf);
        let compiled = Engine::new().compile(&q, &tid);
        assert!(
            est.estimated_nodes >= compiled.node_count() as u64,
            "estimate {} under actual {}",
            est.estimated_nodes,
            compiled.node_count()
        );
    }
}
