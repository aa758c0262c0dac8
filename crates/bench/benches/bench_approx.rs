//! The approximate-inference regime on its first-class workload: the
//! unsafe-query / large-block preset, where exact compilation is off the
//! table and wall-time scales with the *sample budget* instead of the
//! lineage.
//!
//! Six series:
//!
//! * `sampler_scaleN/S` — Karp–Luby estimation at `S` samples on a
//!   `N×N` unsafe block (sampling cost is linear in `S`, near-flat in the
//!   database: the regime the dichotomy says the exact stack cannot offer);
//! * `sampler_parallel/T` — the chunk-seeded plan on `T` OS threads: the
//!   estimate is bit-identical across rows (asserted), only wall-clock
//!   moves, and on a multi-core host the 4-thread row should run ≥2×
//!   faster than the 1-thread row;
//! * `fixed_width_sampler/T` — the chunked draw loop (word-packed world
//!   bitsets, whole-word canonical scan, one `Rational` step per estimate)
//!   at 50,000 samples on 1/2/4 workers;
//! * `stopping_rule/{fixed, adaptive}` — the fixed KLM budget against the
//!   empirical-Bernstein adaptive stopper at the same (ε, δ);
//! * `router` — `Engine::evaluate_auto` end to end, including the safety
//!   verdict, lineage grounding, and cost estimate that precede sampling;
//! * `sampler_vs_exact` — head-to-head on a small instance where both
//!   regimes are feasible, to keep the crossover honest.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfomc_approx::{lineage_sampler, AdaptiveConfig};
use gfomc_engine::workload::unsafe_block_preset;
use gfomc_engine::{Budget, Engine};
use gfomc_query::BipartiteQuery;
use gfomc_tid::Tid;
use rand::{rngs::StdRng, SeedableRng};

const DELTA: f64 = 0.05;

fn preset(scale: u32) -> (BipartiteQuery, Tid) {
    let mut rng = StdRng::seed_from_u64(0xA55E55);
    unsafe_block_preset(&mut rng, 2, scale)
}

fn bench_sampler_scaling(c: &mut Criterion) {
    for scale in [4u32, 6] {
        let (q, tid) = preset(scale);
        let sampler = lineage_sampler(&q, &tid);
        let mut group = c.benchmark_group(&format!("approx_sampler_{scale}x{scale}"));
        for samples in [500u64, 2_000] {
            group.bench_with_input(
                BenchmarkId::from_parameter(samples),
                &samples,
                |b, &samples| {
                    b.iter(|| criterion::black_box(sampler.estimate_seeded(7, samples, DELTA, 1)))
                },
            );
        }
        group.finish();
    }
}

fn bench_sampler_parallel(c: &mut Criterion) {
    let (q, tid) = preset(6);
    let sampler = lineage_sampler(&q, &tid);
    let samples = 20_000u64;
    // Thread count must never move the estimate — pin it before timing.
    let expect = sampler.estimate_seeded(7, samples, DELTA, 1);
    let mut group = c.benchmark_group("approx_sampler_parallel_6x6");
    for threads in [1usize, 2, 4] {
        assert_eq!(
            expect,
            sampler.estimate_seeded(7, samples, DELTA, threads),
            "estimate moved at {threads} threads"
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| criterion::black_box(sampler.estimate_seeded(7, samples, DELTA, threads)))
            },
        );
    }
    group.finish();
}

fn bench_stopping_rule(c: &mut Criterion) {
    let (q, tid) = preset(5);
    let sampler = lineage_sampler(&q, &tid);
    let eps = 0.05;
    let fixed = sampler.fpras_samples(eps, DELTA);
    let adaptive = sampler.estimate_adaptive(&AdaptiveConfig::new(eps, DELTA, 7));
    assert!(
        adaptive.estimate.samples <= fixed,
        "adaptive {} vs fixed {}",
        adaptive.estimate.samples,
        fixed
    );
    let mut group = c.benchmark_group("approx_stopping_rule_5x5");
    group.bench_function("fixed_klm_budget", |b| {
        b.iter(|| criterion::black_box(sampler.estimate_seeded(7, fixed, DELTA, 1)))
    });
    group.bench_function("adaptive_bernstein", |b| {
        b.iter(|| {
            criterion::black_box(sampler.estimate_adaptive(&AdaptiveConfig::new(eps, DELTA, 7)))
        })
    });
    group.finish();
}

fn bench_router_end_to_end(c: &mut Criterion) {
    let (q, tid) = preset(5);
    // Zero circuit budget pins the sampled route (the refined cost bound
    // would otherwise compile this preset exactly): the series tracks the
    // sampled path end to end — safety verdict, grounding, sampler build,
    // and draws.
    let budget = Budget::default()
        .with_max_circuit_cost(0)
        .with_samples(1_000)
        .expect("positive sample budget");
    c.bench_function("approx_router/unsafe_5x5_sampled_1000s", |b| {
        b.iter(|| {
            let engine = Engine::new();
            criterion::black_box(engine.evaluate_auto(&q, &tid, &budget))
        })
    });
    // The routing win itself: the same instance under the *default*
    // budget now takes the exact compiled path.
    let default_budget = Budget::default();
    c.bench_function("approx_router/unsafe_5x5_rerouted_exact", |b| {
        b.iter(|| {
            let engine = Engine::new();
            let routed = engine.evaluate_auto(&q, &tid, &default_budget);
            assert_eq!(routed.route, gfomc_engine::Route::Compiled);
            criterion::black_box(routed)
        })
    });
}

/// The fixed-width per-sample loop: worlds are word-packed `u64` bitsets,
/// the canonical-term scan is whole-word mask arithmetic, and `Rational`
/// appears only once, at hit-count → estimate, so at 50,000 samples the
/// draw loop dominates. Rows differ only in worker count; the chunk-seeded
/// plan keeps every row's estimate bit-identical (asserted), so the group
/// isolates the draw loop's throughput and its thread scaling.
fn bench_fixed_width_sampler(c: &mut Criterion) {
    let (q, tid) = preset(6);
    let sampler = lineage_sampler(&q, &tid);
    let samples = 50_000u64;
    let expect = sampler.estimate_seeded(7, samples, DELTA, 1);
    let mut group = c.benchmark_group("approx_fixed_width_sampler_6x6");
    for threads in [1usize, 2, 4] {
        assert_eq!(
            expect,
            sampler.estimate_seeded(7, samples, DELTA, threads),
            "estimate moved at {threads} threads"
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| criterion::black_box(sampler.estimate_seeded(7, samples, DELTA, threads)))
            },
        );
    }
    group.finish();
}

fn bench_sampler_vs_exact(c: &mut Criterion) {
    // 2×2 block: small enough that the compiled circuit is cheap — the
    // sampler should only win once lineages outgrow this regime.
    let (q, tid) = preset(2);
    let mut group = c.benchmark_group("approx_vs_exact_2x2");
    let sampler = lineage_sampler(&q, &tid);
    group.bench_function("sampler_1000s", |b| {
        b.iter(|| criterion::black_box(sampler.estimate_seeded(7, 1_000, DELTA, 1)))
    });
    group.bench_function("compiled_exact", |b| {
        b.iter(|| {
            let compiled = Engine::new().compile(&q, &tid);
            criterion::black_box(compiled.evaluate_db())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sampler_scaling,
    bench_sampler_parallel,
    bench_fixed_width_sampler,
    bench_stopping_rule,
    bench_router_end_to_end,
    bench_sampler_vs_exact
);
criterion_main!(benches);
