//! One seed gives one estimate: the engine's sampled route and the
//! public sampler are the same chunk-seeded plan.
//!
//! For random unsafe presets, seeds, sample counts and `δ`, a fixed-mode
//! budget with a zero circuit budget (which forces the sampled route) is
//! answered three ways:
//!
//! * through the engine, by [`Engine::evaluate_auto`] and by the wire
//!   pipeline [`Engine::evaluate_wire`];
//! * by [`CnfSampler::estimate_seeded`] on the process-wide pool at 1, 2
//!   and 4 threads;
//! * by [`CnfSampler::estimate_seeded_on`] on a dedicated 2-thread pool.
//!
//! The estimate, the confidence interval and the sample count must be
//! identical across all of them, and the wire text must be byte-for-byte
//! the direct answer's rendering.

use gfomc_approx::lineage_sampler;
use gfomc_engine::workload::unsafe_block_preset;
use gfomc_engine::{AutoResult, Budget, Engine, EvalRequest, Route};
use gfomc_pool::WorkerPool;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// One dedicated 2-thread pool shared by every case, so the suite starts
/// two worker threads in total rather than two per case.
fn own_pool() -> &'static Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(WorkerPool::new(2)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sampled_route_is_the_seeded_sampler(
        preset_seed in 0u64..10_000,
        scale in 2u32..5,
        seed in any::<u64>(),
        samples in 1u64..3_000,
        delta_ix in 0usize..3,
        route_threads in 1usize..5,
    ) {
        let delta = [0.01, 0.05, 0.2][delta_ix];
        let mut rng = StdRng::seed_from_u64(preset_seed);
        let (q, tid) = unsafe_block_preset(&mut rng, 2, scale);
        let budget = Budget::default()
            .with_max_circuit_cost(0)
            .with_samples(samples)
            .expect("positive sample budget")
            .with_delta(delta)
            .expect("delta in (0, 1)")
            .with_seed(seed)
            .with_threads(route_threads);

        let routed = Engine::new().evaluate_auto(&q, &tid, &budget);
        prop_assert_eq!(routed.route, Route::Sampled);

        let mut req = EvalRequest::new(q.clone(), tid.clone());
        req.budget = budget.clone();
        let wire = Engine::new()
            .evaluate_wire(&req.to_string())
            .expect("well-formed request");
        prop_assert_eq!(&wire, &routed.to_string());

        // `AutoResult::Approx` carries the estimate, the interval and the
        // sample count, so one equality covers all three.
        let sampler = lineage_sampler(&q, &tid);
        for threads in [1usize, 2, 4] {
            let est = sampler.estimate_seeded(seed, samples, delta, threads);
            prop_assert_eq!(&AutoResult::from(est), &routed.result, "threads={}", threads);
        }
        let est = sampler.estimate_seeded_on(own_pool(), seed, samples, delta, 2);
        prop_assert_eq!(&AutoResult::from(est), &routed.result);
    }
}
