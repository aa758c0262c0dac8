//! CI perf-tracking entry point: runs a fixed, small benchmark suite and
//! writes per-bench wall-times as JSON (default `BENCH.json`; pass a path
//! as the first argument to change it). `--snapshot <path>` also writes
//! the same JSON to `path`, for freezing a per-PR record
//! (`BENCH_pr<N>.json`); without it no snapshot is written, so committed
//! records are never overwritten by a routine run.
//!
//! This exists so the perf trajectory accumulates as an artifact per PR.
//! Every record is stamped with the git SHA it was measured at, the bench
//! name, the repetition count behind the median, and — where relevant —
//! the Monte-Carlo sample budget and thread count, so entries are
//! comparable across PRs (schema `gfomc-bench-v8`). Schema v8 adds the
//! stateful priced layer on top of v7:
//!
//! * `weight_updates_per_sec` — steady-state throughput of
//!   `PricedCircuit::update_weight` over a deterministic stream cycling
//!   every variable slot of the 3×3 preset lineage;
//! * `dirty_path_gates_per_update` — the mean dirty-cone size those
//!   updates re-priced; the incremental contract demands it stay
//!   strictly below the circuit's total gate count (otherwise updates
//!   are secretly full recomputes);
//! * `gradient_pass_ns` — one full `gradients()` sweep producing
//!   ∂Pr/∂p_t for every distinct variable at once.
//!
//! Schema v7 added the batch-evaluation layer on top of v6:
//!
//! * `batch_eval_per_weighting_ns` — amortized cost of one weighting when
//!   the 12-weighting workload runs through the batch kernel (one
//!   topological walk, all lanes at once) instead of a serial loop;
//! * `rational_small_path_hit_rate` — fraction of `Rational` ops during
//!   the flat exact passes that stayed on the single-limb `Rat64` fast
//!   path (no bignum allocation);
//! * `threshold_certify_rate` — fraction of the k/16 threshold sweep the
//!   interval lane certified outright (the complement of
//!   `interval_fallback_rate`).
//!
//! Schema v6 added the observability layer on top of v5:
//!
//! * `route_latency_ns` — per-route p50/p95/p99 request latency (and the
//!   underlying count), read from an instrumented engine's
//!   `engine_request_nanos` histograms after a fixed request drill across
//!   the three routes;
//! * `telemetry` — the conservation pair behind the `--check` invariant:
//!   requests issued vs the summed latency-histogram count (observation
//!   is passive and lossless, so the two must be equal).
//!
//! Schema v5 added the serving layer on top of v4:
//!
//! * `serve_rtt_us` — median microseconds for one exact `/eval` round
//!   trip over a real loopback socket against an in-process
//!   `gfomc-serve` server (parse + route + cache hit + serialize +
//!   HTTP overhead);
//! * `serve_queue` — the admission gate's counters after the serving
//!   benches: high-water in-flight depth, admitted, rejected, and the
//!   configured bound.
//!
//! Schema v4 added, on top of v3's per-route timings, parallel-sampler
//! speedup, cache hit/miss counts, and adaptive-vs-fixed sample counts:
//!
//! * `per_gate_eval_ns` — the flat forward pass's exact-evaluation cost
//!   per gate on the compiled 3×3 preset lineage;
//! * `flat_vs_tree_speedup` — the same lineage priced by the flat
//!   forward kernel vs the plain-`Rational` reference evaluator
//!   (`Circuit::evaluate`) over the same gate arrays;
//! * `interval_fallback_rate` — the fraction of a k/16 threshold sweep
//!   the interval fast path could *not* certify (`Unknown` → exact
//!   fallback) on that preset;
//! * `host_cpus` — the machine's available parallelism, so thread-scaling
//!   numbers can be read in context (a 1-CPU runner cannot speed up).
//!
//! Timings are medians of a few repetitions on whatever machine CI hands
//! us, so they are *tracking* numbers, not statistics — the CI job must
//! never fail on them. The `--check` flag turns on the **deterministic**
//! perf-smoke assertions only (adaptive never exceeds the fixed budget,
//! the repeated-query cache hit rate is nonzero, thread counts cannot
//! move the estimate, the flat pass is bit-identical to the reference
//! evaluator, every interval certificate agrees with the exact
//! comparison, the `/eval` wire answer is byte-for-byte the direct
//! `evaluate_auto` answer and overload rejects explicitly, the latency
//! histograms conserve the request count, the batch
//! kernel is bit-identical to the serial `evaluate` loop, the `Rat64`
//! small path agrees with bignum arithmetic under a distributive
//! cross-check, threshold-routed `evaluate_auto` verdicts match the
//! exact comparison, and — new in v8 — every incremental
//! `update_weight` leaves the priced value bit-identical to a
//! from-scratch exact pass under the current weights, each slot's
//! gradient equals the central finite difference computed in exact
//! rational arithmetic (the circuit is multilinear in every weight, so
//! the identity is exact, not approximate), and the mean dirty cone
//! stays strictly below the gate count): those are machine-independent invariants, safe to
//! gate CI on. One timing gate is the exception, by design: `--check`
//! also fails if `flat_vs_tree_speedup` drops below 1.0 — the flat core
//! exists to beat the plain reference loop, so a slower flat pass is a
//! regression even on a noisy runner.

use gfomc_approx::{lineage_sampler, AdaptiveConfig};
use gfomc_arith::{small_path_thread_stats, Rational};
use gfomc_bench::uniform_db;
use gfomc_core::{reduce_p2cnf, OracleMode, P2Cnf};
use gfomc_engine::workload::{random_block_tid, random_weightings, unsafe_block_preset};
use gfomc_engine::{AutoResult, Budget, Engine, EvalRequest, SampleMode, TupleWeights};
use gfomc_logic::{wmc, Circuit, Clause, Cnf, PricedCircuit, UniformWeight, Var};
use gfomc_query::{catalog, BipartiteQuery};
use gfomc_safety::lifted_probability;
use gfomc_serve::{Client, Connection, Server};
use gfomc_tid::{lineage, Tid};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Thread count exercised by the parallel benches.
const THREADS: usize = 4;

/// Median wall-time of `reps` runs, in seconds.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn path_cnf(n: u32) -> Cnf {
    Cnf::new((0..n).map(|i| Clause::new([Var(i), Var(i + 1)])))
}

fn engine_workload(q: &BipartiteQuery, nu: u32, nv: u32, k: usize) -> (Tid, Vec<TupleWeights>) {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let tid = random_block_tid(&mut rng, q, nu, nv);
    let support = Engine::new().compile(q, &tid).tuples();
    let weightings = random_weightings(&mut rng, &support, k);
    (tid, weightings)
}

/// The commit being measured: `GITHUB_SHA` in CI, `git rev-parse HEAD`
/// locally, `"unknown"` when neither is available.
fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One stamped record of the tracking series.
struct Entry {
    name: String,
    seconds: f64,
    reps: usize,
    /// Monte-Carlo budget, for the sampling benches only.
    samples: Option<u64>,
    /// Thread count, for the parallel benches only.
    threads: Option<usize>,
}

fn main() {
    let mut out_path = "BENCH.json".to_string();
    // The frozen per-PR snapshot, written only when asked for.
    let mut snapshot_path: Option<String> = None;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--check" {
            check = true;
        } else if arg == "--snapshot" {
            match args.next() {
                Some(path) => snapshot_path = Some(path),
                None => {
                    eprintln!("--snapshot requires a path argument");
                    std::process::exit(2);
                }
            }
        } else if arg.starts_with('-') {
            // A typo'd flag must fail loudly, not silently become the
            // output path (which would disable the CI perf-smoke gate).
            eprintln!(
                "unknown flag: {arg} (expected --check, --snapshot <path>, or an output path)"
            );
            std::process::exit(2);
        } else {
            out_path = arg;
        }
    }
    let reps = 5;
    let sha = git_sha();
    let mut entries: Vec<Entry> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut record = |name: &str, secs: f64, samples: Option<u64>, threads: Option<usize>| {
        println!("{name:<44} {secs:.6}s");
        entries.push(Entry {
            name: name.to_string(),
            seconds: secs,
            reps,
            samples,
            threads,
        });
    };

    // Substrate: the legacy Shannon counter on a path CNF.
    let half = UniformWeight(Rational::one_half());
    let path = path_cnf(48);
    record(
        "wmc_path_48",
        time_median(reps, || {
            std::hint::black_box(wmc(&path, &half));
        }),
        None,
        None,
    );

    // The headline comparison: compile-once/evaluate-many vs N independent
    // WMC runs on a block-TID workload with 12 weight assignments.
    let q = catalog::h1();
    let (tid, weightings) = engine_workload(&q, 3, 3, 12);
    let compile_once = time_median(reps, || {
        let compiled = Engine::new().compile(&q, &tid);
        std::hint::black_box(compiled.evaluate_batch(&weightings));
    });
    record("engine_compile_once_h1_3x3_12w", compile_once, None, None);
    let independent = time_median(reps, || {
        for w in &weightings {
            let mut db = tid.clone();
            for (&t, p) in w.iter() {
                db.set_prob(t, p.clone());
            }
            let lin = lineage(&q, &db);
            std::hint::black_box(wmc(&lin.cnf, lin.vars.weights()));
        }
    });
    record("wmc_independent_h1_3x3_12w", independent, None, None);
    let speedup = if compile_once > 0.0 {
        independent / compile_once
    } else {
        0.0
    };
    println!(
        "{:<44} {speedup:.2}x",
        "engine_speedup (independent/compiled)"
    );

    // ------------------------------------------------------------------
    // The batch kernel (schema v7): the same 12 weightings priced as 12
    // lanes of one topological walk. The `--check` invariant is
    // bit-identity with the serial per-weighting `evaluate` loop — the
    // lanes share the gate traversal but never each other's arithmetic.
    // ------------------------------------------------------------------
    let compiled_h1 = Engine::new().compile(&q, &tid);
    let batch_secs = time_median(reps, || {
        std::hint::black_box(compiled_h1.evaluate_batch(&weightings));
    });
    record("engine_eval_batch_h1_3x3_12w", batch_secs, None, None);
    let batch_eval_per_weighting_ns = batch_secs * 1e9 / weightings.len().max(1) as f64;
    println!(
        "{:<44} {batch_eval_per_weighting_ns:.1}ns over {} lanes",
        "batch_eval_per_weighting_ns (batch kernel)",
        weightings.len()
    );
    let serial_loop: Vec<Rational> = weightings.iter().map(|w| compiled_h1.evaluate(w)).collect();
    if compiled_h1.evaluate_batch(&weightings) != serial_loop {
        failures.push("batch kernel diverged from the serial evaluate loop".to_string());
    }

    // Small-path ≡ bignum distributive cross-check: for small operands
    // `a`, `b` the sums/products land on the `Rat64` fast path, while the
    // same values scaled by 2^100 are forced onto the bignum path.
    // Distributivity makes the two routes comparable without touching
    // arith internals: `aB + bB = (a+b)B` and `(aB)(bB) = (ab)B²`.
    let big = Rational::from_ints(2, 1).pow(100);
    let small_ops = [
        (1i64, 3i64),
        (-7, 8),
        (i64::MAX / 2, i64::MAX / 2 + 1),
        (-(i64::MAX / 3), 7),
        (1, i64::MAX),
    ];
    for &(n1, d1) in &small_ops {
        for &(n2, d2) in &small_ops {
            let a = Rational::from_ints(n1, d1);
            let b = Rational::from_ints(n2, d2);
            let (ab, bb) = (&a * &big, &b * &big);
            if &ab + &bb != &(&a + &b) * &big {
                failures.push(format!("small-path add diverged from bignum at {a} + {b}"));
            }
            if &ab - &bb != &(&a - &b) * &big {
                failures.push(format!("small-path sub diverged from bignum at {a} - {b}"));
            }
            if &ab * &bb != &(&a * &b) * &(&big * &big) {
                failures.push(format!("small-path mul diverged from bignum at {a} * {b}"));
            }
        }
    }

    // One full Cook reduction through the factorized oracle.
    let phi = P2Cnf::new(3, vec![(0, 1), (1, 2), (0, 2)]);
    record(
        "reduction_h1_triangle_factorized",
        time_median(reps, || {
            std::hint::black_box(reduce_p2cnf(&q, &phi, OracleMode::Factorized));
        }),
        None,
        None,
    );

    // ------------------------------------------------------------------
    // Per-route wall-clock: the three regimes of `evaluate_auto`, each on
    // its representative instance.
    // ------------------------------------------------------------------
    let budget = Budget::default();

    // Route 1: lifted (safe query, large domain — PTIME, no lineage).
    let safe = catalog::safe_three_components();
    let big = uniform_db(&safe, 24, 24);
    record(
        "lifted_safe_24x24",
        time_median(reps, || {
            std::hint::black_box(lifted_probability(&safe, &big).unwrap());
        }),
        None,
        None,
    );
    let route_lifted = time_median(reps, || {
        std::hint::black_box(Engine::new().evaluate_auto(&safe, &big, &budget));
    });
    record("route_lifted_safe_24x24", route_lifted, None, None);

    // Route 2: compiled (the 3×3 unsafe block the tightened cost bound
    // re-routed from the sampler to the exact circuit path), cold vs
    // cache-hot on one engine.
    let mut rng = StdRng::seed_from_u64(0xA55E55);
    let (cq, ctid) = unsafe_block_preset(&mut rng, 2, 3);
    let route_compiled_cold = time_median(reps, || {
        std::hint::black_box(Engine::new().evaluate_auto(&cq, &ctid, &budget));
    });
    record(
        "route_compiled_unsafe_3x3_cold",
        route_compiled_cold,
        None,
        None,
    );
    let warm = Engine::new();
    warm.evaluate_auto(&cq, &ctid, &budget);
    let route_compiled_cached = time_median(reps, || {
        std::hint::black_box(warm.evaluate_auto(&cq, &ctid, &budget));
    });
    record(
        "route_compiled_unsafe_3x3_cached",
        route_compiled_cached,
        None,
        None,
    );

    // ------------------------------------------------------------------
    // The flat evaluation core on the same 3×3 preset lineage: exact
    // forward pass vs the plain-`Rational` reference evaluator over the
    // same gate arrays (bit-identity is a
    // `--check` invariant), per-gate cost, and the interval fast path's
    // certification rate over a k/16 threshold sweep.
    // ------------------------------------------------------------------
    let clin = lineage(&cq, &ctid);
    let tree = Circuit::compile(&clin.cnf);
    let flat = tree.clone().flatten();
    let flat_exact = flat.eval_exact(clin.vars.weights());
    let tree_exact = tree.evaluate(clin.vars.weights());
    if flat_exact != tree_exact {
        failures.push(format!(
            "flat forward pass diverged from the reference evaluator: {flat_exact} vs {tree_exact}"
        ));
    }
    let (hits_before, total_before) = small_path_thread_stats();
    let flat_secs = time_median(reps, || {
        std::hint::black_box(flat.eval_exact(clin.vars.weights()));
    });
    let (hits_after, total_after) = small_path_thread_stats();
    record("flat_eval_exact_unsafe_3x3", flat_secs, None, None);
    let small_hits = hits_after - hits_before;
    let small_total = total_after - total_before;
    let rational_small_path_hit_rate = small_hits as f64 / small_total.max(1) as f64;
    println!(
        "{:<44} {rational_small_path_hit_rate:.4} ({small_hits}/{small_total} ops)",
        "rational_small_path_hit_rate (flat pass)"
    );
    let tree_secs = time_median(reps, || {
        std::hint::black_box(tree.evaluate(clin.vars.weights()));
    });
    record("tree_eval_exact_unsafe_3x3", tree_secs, None, None);
    let per_gate_eval_ns = flat_secs * 1e9 / flat.gate_count().max(1) as f64;
    let flat_vs_tree_speedup = if flat_secs > 0.0 {
        tree_secs / flat_secs
    } else {
        0.0
    };
    println!(
        "{:<44} {per_gate_eval_ns:.1}ns over {} gates",
        "per_gate_eval_ns (flat exact pass)",
        flat.gate_count()
    );
    println!(
        "{:<44} {flat_vs_tree_speedup:.2}x",
        "flat_vs_tree_speedup (same lineage)"
    );
    // The one timing-based gate (see the module docs): the flat kernel
    // regressing below the plain reference evaluator is a perf bug, not
    // runner noise.
    if flat_vs_tree_speedup < 1.0 {
        failures.push(format!(
            "flat_vs_tree_speedup fell below 1.0: {flat_vs_tree_speedup:.2}x \
             (flat {flat_secs:.6}s vs tree {tree_secs:.6}s)"
        ));
    }
    let compiled_preset = Engine::new().compile(&cq, &ctid);
    let mut fallbacks = 0usize;
    let mut sweep = 0usize;
    let interval_secs = time_median(reps, || {
        for k in 0..=16i64 {
            let t = Rational::from_ints(k, 16);
            std::hint::black_box(compiled_preset.certify_le_db(&t));
        }
    });
    record(
        "interval_certify_sweep_unsafe_3x3",
        interval_secs,
        None,
        None,
    );
    for k in 0..=16i64 {
        let t = Rational::from_ints(k, 16);
        let (answer, fell_back) = compiled_preset.certify_le_db(&t);
        sweep += 1;
        if fell_back {
            fallbacks += 1;
        }
        if answer != (flat_exact <= t) {
            failures.push(format!(
                "interval-certified comparison wrong at threshold {k}/16"
            ));
        }
    }
    let interval_fallback_rate = fallbacks as f64 / sweep as f64;
    println!(
        "{:<44} {interval_fallback_rate:.4} ({fallbacks}/{sweep} thresholds)",
        "interval_fallback_rate (k/16 sweep)"
    );
    let threshold_certify_rate = (sweep - fallbacks) as f64 / sweep as f64;
    println!(
        "{:<44} {threshold_certify_rate:.4} ({}/{sweep} thresholds)",
        "threshold_certify_rate (k/16 sweep)",
        sweep - fallbacks
    );
    // Threshold-aware routing end to end: the same sweep through
    // `evaluate_auto` with a threshold budget must come back `Certified`
    // with verdicts matching the exact comparison.
    for k in 0..=16i64 {
        let t = Rational::from_ints(k, 16);
        let tb = budget
            .clone()
            .with_threshold(t.clone())
            .expect("k/16 is a probability");
        match warm.evaluate_auto(&cq, &ctid, &tb).result {
            AutoResult::Certified { le, threshold } => {
                if le != (flat_exact <= t) || threshold != t {
                    failures.push(format!(
                        "threshold-routed verdict wrong at {k}/16: le={le}, threshold={threshold}"
                    ));
                }
            }
            other => {
                failures.push(format!(
                    "threshold budget did not certify at {k}/16: got {other:?}"
                ));
            }
        }
    }

    // ------------------------------------------------------------------
    // The stateful priced layer (schema v8): the same 3×3 preset lineage
    // held as a `PricedCircuit`. `weight_updates_per_sec` is the
    // steady-state incremental re-pricing throughput over a deterministic
    // stream cycling every slot; `dirty_path_gates_per_update` is the
    // mean dirty-cone size those updates re-priced (the incremental
    // contract demands it stay strictly below the gate count);
    // `gradient_pass_ns` is one full ∂Pr/∂p_t sweep over all slots. The
    // `--check` invariants: after every update the stateful value is
    // bit-identical to a from-scratch exact pass under the current
    // weights, and each slot's gradient equals the central finite
    // difference in exact rationals — the circuit is multilinear in
    // every weight, so that identity is exact, not approximate.
    // ------------------------------------------------------------------
    let priced_flat = Arc::new(flat.clone());
    let base_weights: Vec<Rational> = priced_flat
        .vars()
        .iter()
        .map(|&v| clin.vars.weights()[&v].clone())
        .collect();
    let slots = base_weights.len();
    // Four passes over every slot with pass- and slot-dependent weights,
    // so each step is a real change with a different dirty cone.
    let stream: Vec<(u32, Rational)> = (0..slots * 4)
        .map(|i| {
            let slot = (i % slots) as u32;
            let w = Rational::from_ints((i / slots) as i64 % 2 + 1, (i % 7) as i64 + 3);
            (slot, w)
        })
        .collect();
    let mut priced = PricedCircuit::new(Arc::clone(&priced_flat), &base_weights);
    let update_secs = time_median(reps, || {
        for (slot, w) in &stream {
            std::hint::black_box(priced.update_weight(*slot, w.clone()));
        }
    });
    record("priced_update_stream_unsafe_3x3", update_secs, None, None);
    let weight_updates_per_sec = stream.len() as f64 / update_secs.max(1e-12);
    println!(
        "{:<44} {weight_updates_per_sec:.0}/s over {} updates",
        "weight_updates_per_sec (priced stream)",
        stream.len()
    );
    let gradient_secs = time_median(reps, || {
        std::hint::black_box(priced.gradients());
    });
    record(
        "priced_gradient_sweep_unsafe_3x3",
        gradient_secs,
        None,
        None,
    );
    let gradient_pass_ns = gradient_secs * 1e9;
    println!(
        "{:<44} {gradient_pass_ns:.1}ns over {slots} slots",
        "gradient_pass_ns (one sweep, all slots)"
    );
    // The deterministic replay behind the numbers: apply the stream to a
    // fresh priced circuit, checking bit-identity against a full exact
    // pass at every step and accumulating the dirty-cone sizes.
    let mut check_priced = PricedCircuit::new(Arc::clone(&priced_flat), &base_weights);
    let mut current: HashMap<Var, Rational> = clin.vars.weights().clone();
    let mut repriced_sum = 0usize;
    for (slot, w) in &stream {
        let stats = check_priced.update_weight(*slot, w.clone());
        repriced_sum += stats.repriced;
        current.insert(priced_flat.vars()[*slot as usize], w.clone());
        if check_priced.value() != flat.eval_exact(&current) {
            failures.push(format!(
                "incremental update at slot {slot} diverged from a full recompute"
            ));
            break;
        }
    }
    let dirty_path_gates_per_update = repriced_sum as f64 / stream.len().max(1) as f64;
    println!(
        "{:<44} {dirty_path_gates_per_update:.1} of {} gates",
        "dirty_path_gates_per_update (mean cone)",
        flat.gate_count()
    );
    if dirty_path_gates_per_update >= flat.gate_count() as f64 {
        failures.push(format!(
            "dirty_path_gates_per_update {dirty_path_gates_per_update:.1} reached the \
             full gate count {} — updates are secretly full recomputes",
            flat.gate_count()
        ));
    }
    // Gradient ≡ central finite difference, in exact arithmetic: for
    // every slot, f(p+h) − f(p−h) must equal 2h·∂f/∂p exactly.
    let grads = check_priced.gradients();
    let h = Rational::from_ints(1, 64);
    let two_h = &h + &h;
    for (slot, g) in grads.iter().enumerate() {
        let v = priced_flat.vars()[slot];
        let p = current[&v].clone();
        let mut hi = current.clone();
        hi.insert(v, &p + &h);
        let mut lo = current.clone();
        lo.insert(v, &p - &h);
        let diff = &flat.eval_exact(&hi) - &flat.eval_exact(&lo);
        if diff != &two_h * g {
            failures.push(format!(
                "gradient at slot {slot} diverged from the central finite difference"
            ));
        }
    }

    // Route 3: sampled. The refined cost bound actually proves the 5×5
    // preset affordable now, so the sampled-route timings pin the route
    // with a zero circuit budget — the series tracks the *sampled path's*
    // cost (grounding + sampler build + draws), not the routing verdict.
    let mut rng = StdRng::seed_from_u64(0xA55E55);
    let (uq, utid) = unsafe_block_preset(&mut rng, 2, 5);
    let sampler = lineage_sampler(&uq, &utid);
    for samples in [500u64, 2_000] {
        record(
            &format!("approx_sampler_unsafe_5x5_{samples}s"),
            time_median(reps, || {
                std::hint::black_box(sampler.estimate_seeded(7, samples, 0.05, 1));
            }),
            Some(samples),
            None,
        );
    }
    let fixed_budget = Budget::default()
        .with_max_circuit_cost(0)
        .with_samples(2_000)
        .expect("positive sample budget");
    let route_sampled_fixed = time_median(reps, || {
        std::hint::black_box(Engine::new().evaluate_auto(&uq, &utid, &fixed_budget));
    });
    record(
        "route_sampled_unsafe_5x5_fixed",
        route_sampled_fixed,
        Some(2_000),
        None,
    );
    let adaptive_budget = Budget::default().with_max_circuit_cost(0);
    let route_sampled_adaptive = time_median(reps, || {
        std::hint::black_box(Engine::new().evaluate_auto(&uq, &utid, &adaptive_budget));
    });

    // ------------------------------------------------------------------
    // Adaptive vs fixed sample counts (deterministic; `--check` gates on
    // them).
    // ------------------------------------------------------------------
    let adaptive = sampler.estimate_adaptive(&AdaptiveConfig::new(0.05, 0.05, 0x5EED));
    let klm_budget = sampler.fpras_samples(0.05, 0.05);
    record(
        "route_sampled_unsafe_5x5_adaptive",
        route_sampled_adaptive,
        Some(adaptive.estimate.samples),
        None,
    );
    println!(
        "{:<44} {} of {} (converged: {})",
        "adaptive_samples (vs fixed KLM budget)",
        adaptive.estimate.samples,
        klm_budget,
        adaptive.converged
    );
    if adaptive.estimate.samples > klm_budget {
        failures.push(format!(
            "adaptive sampler drew {} samples, exceeding the fixed budget {}",
            adaptive.estimate.samples, klm_budget
        ));
    }

    // ------------------------------------------------------------------
    // Parallel sampler scaling: the same seeded plan on 1 and 4 threads —
    // the estimates must be bit-identical; only wall-clock may move.
    // ------------------------------------------------------------------
    let par_samples = 50_000u64;
    let serial_est = sampler.estimate_seeded(7, par_samples, 0.05, 1);
    let serial_secs = time_median(reps, || {
        std::hint::black_box(sampler.estimate_seeded(7, par_samples, 0.05, 1));
    });
    record(
        "sampler_seeded_unsafe_5x5_1t",
        serial_secs,
        Some(par_samples),
        Some(1),
    );
    let parallel_est = sampler.estimate_seeded(7, par_samples, 0.05, THREADS);
    let parallel_secs = time_median(reps, || {
        std::hint::black_box(sampler.estimate_seeded(7, par_samples, 0.05, THREADS));
    });
    record(
        &format!("sampler_seeded_unsafe_5x5_{THREADS}t"),
        parallel_secs,
        Some(par_samples),
        Some(THREADS),
    );
    let parallel_speedup = if parallel_secs > 0.0 {
        serial_secs / parallel_secs
    } else {
        0.0
    };
    println!(
        "{:<44} {parallel_speedup:.2}x",
        format!("parallel_sampler_speedup ({THREADS}t vs 1t)")
    );
    if serial_est != parallel_est {
        failures.push(format!(
            "thread count moved the estimate: 1t {serial_est:?} vs {THREADS}t {parallel_est:?}"
        ));
    }

    // ------------------------------------------------------------------
    // Compilation cache on the repeated-query workload: three unsafe
    // queries asked four times each through one engine.
    // ------------------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let mut repeated = Vec::new();
    for _ in 0..3 {
        let q = gfomc_engine::workload::random_query(
            &mut rng,
            2,
            2,
            gfomc_engine::workload::SafetyTarget::Unsafe,
        );
        let tid = random_block_tid(&mut rng, &q, 2, 2);
        repeated.push((q, tid));
    }
    let engine = Engine::new();
    let cache_budget = Budget::default()
        .with_mode(SampleMode::Adaptive { epsilon: 0.05 })
        .expect("epsilon in (0, 1)");
    let repeated_secs = time_median(reps, || {
        for (q, tid) in &repeated {
            std::hint::black_box(engine.evaluate_auto(q, tid, &cache_budget));
        }
    });
    record("router_repeated_3q_per_pass", repeated_secs, None, None);
    let cache = engine.cache_stats();
    println!(
        "{:<44} {} hits / {} misses (rate {:.2})",
        "compilation_cache (repeated workload)",
        cache.hits,
        cache.misses,
        cache.hit_rate()
    );
    if cache.hits == 0 {
        failures.push("repeated-query workload produced zero cache hits".to_string());
    }

    // ------------------------------------------------------------------
    // The concurrent front-end: `evaluate_auto_batch` fans a mixed batch
    // across the shared pool with a shared cache. Bit-identity with the
    // serial `evaluate_auto` loop is a deterministic `--check` invariant.
    // ------------------------------------------------------------------
    let batch: Vec<(BipartiteQuery, Tid)> = (0..4).flat_map(|_| repeated.iter().cloned()).collect();
    let batch_budget = Budget::default().with_threads(THREADS);
    let serial_engine = Engine::new();
    let serial_batch: Vec<_> = batch
        .iter()
        .map(|(q, tid)| serial_engine.evaluate_auto(q, tid, &batch_budget))
        .collect();
    let batch_engine = Engine::new();
    let batch_secs = time_median(reps, || {
        std::hint::black_box(batch_engine.evaluate_auto_batch(&batch, &batch_budget));
    });
    record(
        &format!("router_auto_batch_12q_{THREADS}t"),
        batch_secs,
        None,
        Some(THREADS),
    );
    if Engine::new().evaluate_auto_batch(&batch, &batch_budget) != serial_batch {
        failures.push("evaluate_auto_batch differs from the serial evaluate_auto loop".to_string());
    }

    // ------------------------------------------------------------------
    // The serving layer (schema v5): one in-process server on a loopback
    // socket. `serve_rtt_us` tracks a full exact `/eval` round trip on a
    // cache-warm engine; the gate counters land in `serve_queue`. The
    // `--check` invariants: the wire answer is byte-for-byte the direct
    // `evaluate_auto` answer, and a saturated gate rejects with a 429
    // instead of queueing.
    // ------------------------------------------------------------------
    let serve_engine = Arc::new(Engine::new());
    let handle = Server::bind(Arc::clone(&serve_engine), "127.0.0.1:0")
        .expect("bind loopback")
        .spawn()
        .expect("spawn server");
    let serve_req = {
        let mut rng = StdRng::seed_from_u64(0xA55E55);
        let (sq, stid) = unsafe_block_preset(&mut rng, 2, 3);
        EvalRequest::new(sq, stid)
    };
    let serve_body = serve_req.to_string();
    let direct_text = serve_engine
        .evaluate_request(&serve_req)
        .expect("valid budget")
        .to_string();
    let mut conn = Connection::open(handle.addr()).expect("connect");
    // Warm the compilation cache so the RTT tracks serving overhead, not
    // first-compile cost.
    let warmup = conn
        .request("POST", "/eval", &serve_body)
        .expect("round trip");
    if warmup.status != 200 || warmup.body != direct_text {
        failures.push(format!(
            "wire answer diverged from the direct engine call: status {} body {:?} vs {:?}",
            warmup.status, warmup.body, direct_text
        ));
    }
    let serve_rtt = time_median(reps, || {
        let resp = conn
            .request("POST", "/eval", &serve_body)
            .expect("round trip");
        std::hint::black_box(resp);
    });
    record("serve_eval_rtt_unsafe_3x3_warm", serve_rtt, None, None);
    let serve_rtt_us = serve_rtt * 1e6;
    println!(
        "{:<44} {serve_rtt_us:.1}us",
        "serve_rtt_us (loopback /eval, cache-warm)"
    );
    // Overload drill: hold the gate's whole depth, then require an
    // explicit 429 + Retry-After rather than a queued/hanging request.
    let gate = handle.gate();
    let permits: Vec<_> = std::iter::from_fn(|| gate.try_admit()).collect();
    let overload = Client::new(handle.addr().to_string())
        .post("/eval", &serve_body)
        .expect("round trip");
    if overload.status != 429 || overload.retry_after.is_none() {
        failures.push(format!(
            "saturated gate answered {} (retry_after {:?}) instead of 429 + Retry-After",
            overload.status, overload.retry_after
        ));
    }
    drop(permits);
    let serve_queue = gate.stats();
    println!(
        "{:<44} high water {} / depth {}, {} admitted, {} rejected",
        "serve_queue (admission gate)",
        serve_queue.high_water,
        serve_queue.max_depth,
        serve_queue.admitted,
        serve_queue.rejected
    );
    handle.stop();

    // ------------------------------------------------------------------
    // Observability (schema v6): a fixed request drill across the three
    // routes on one instrumented engine, then the per-route latency
    // quantiles straight out of its `engine_request_nanos` histograms.
    // The `--check` invariant is conservation: observation is passive and
    // lossless, so the summed histogram count must equal the requests
    // issued exactly.
    // ------------------------------------------------------------------
    let obs_engine = Engine::new();
    let obs_reps = 5usize;
    let route_workloads = [
        ("lifted", &safe, &big, &budget),
        ("compiled", &cq, &ctid, &budget),
        ("sampled", &uq, &utid, &adaptive_budget),
    ];
    for (_, q, tid, b) in &route_workloads {
        for _ in 0..obs_reps {
            let req = EvalRequest::new((*q).clone(), (*tid).clone()).with_budget((*b).clone());
            obs_engine.evaluate_request(&req).expect("valid budget");
        }
    }
    let issued = (route_workloads.len() * obs_reps) as u64;
    let latency_snaps = obs_engine
        .registry()
        .histograms_named("engine_request_nanos");
    let observed: u64 = latency_snaps.iter().map(|(_, snap)| snap.count).sum();
    let mut route_latency: Vec<(&str, u64, u64, u64, u64)> = Vec::new();
    for (route, _, _, _) in &route_workloads {
        let snap = latency_snaps.iter().find_map(|(labels, snap)| {
            labels
                .iter()
                .any(|(k, v)| k == "route" && v == route)
                .then_some(snap)
        });
        let (p50, p95, p99, count) =
            snap.map_or((0, 0, 0, 0), |s| (s.p50(), s.p95(), s.p99(), s.count));
        println!(
            "{:<44} p50 {p50}ns / p95 {p95}ns / p99 {p99}ns ({count} reqs)",
            format!("route_latency_ns ({route})"),
        );
        // Every route's cell exists from engine start, so the route must
        // hold exactly its own requests, not merely a histogram.
        if count != obs_reps as u64 {
            failures.push(format!(
                "route {route} recorded {count} latencies for its {obs_reps} requests"
            ));
        }
        route_latency.push((route, p50, p95, p99, count));
    }
    println!(
        "{:<44} {observed} observed / {issued} issued",
        "telemetry_conservation (histogram vs issued)"
    );
    if observed != issued {
        failures.push(format!(
            "latency histograms counted {observed} requests but {issued} were issued"
        ));
    }
    if obs_engine
        .registry()
        .counter_value("engine_requests_total", &[])
        != issued
    {
        failures.push(format!(
            "engine_requests_total diverged from the {issued} requests issued"
        ));
    }
    let route_latency_json: String = route_latency
        .iter()
        .map(|(route, p50, p95, p99, count)| {
            format!("\"{route}\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \"count\": {count}}}")
        })
        .collect::<Vec<_>>()
        .join(", ");

    let json: String = {
        let fields: Vec<String> = entries
            .iter()
            .map(|e| {
                let samples = e
                    .samples
                    .map(|s| format!(", \"samples\": {s}"))
                    .unwrap_or_default();
                let threads = e
                    .threads
                    .map(|t| format!(", \"threads\": {t}"))
                    .unwrap_or_default();
                format!(
                    "    {{\"name\": \"{}\", \"seconds\": {:.9}, \"reps\": {}{samples}{threads}}}",
                    e.name, e.seconds, e.reps
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"schema\": \"gfomc-bench-v8\",\n",
                "  \"unit\": \"seconds\",\n",
                "  \"git_sha\": \"{sha}\",\n",
                "  \"threads\": {threads},\n",
                "  \"host_cpus\": {cpus},\n",
                "  \"engine_speedup\": {speedup:.4},\n",
                "  \"parallel_sampler_speedup\": {par:.4},\n",
                "  \"per_gate_eval_ns\": {gate_ns:.2},\n",
                "  \"flat_vs_tree_speedup\": {flat_speedup:.4},\n",
                "  \"interval_fallback_rate\": {fallback:.4},\n",
                "  \"batch_eval_per_weighting_ns\": {batch_ns:.2},\n",
                "  \"rational_small_path_hit_rate\": {small_rate:.4},\n",
                "  \"threshold_certify_rate\": {certify_rate:.4},\n",
                "  \"weight_updates_per_sec\": {upd_rate:.2},\n",
                "  \"dirty_path_gates_per_update\": {dirty:.2},\n",
                "  \"gradient_pass_ns\": {grad_ns:.2},\n",
                "  \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {rate:.4}}},\n",
                "  \"adaptive\": {{\"samples\": {asamples}, \"fixed_budget\": {klm}, \"converged\": {conv}}},\n",
                "  \"serve_rtt_us\": {rtt_us:.2},\n",
                "  \"serve_queue\": {{\"high_water\": {qhigh}, \"max_depth\": {qmax}, ",
                "\"admitted\": {qadm}, \"rejected\": {qrej}}},\n",
                "  \"route_latency_ns\": {{{route_latency}}},\n",
                "  \"telemetry\": {{\"requests\": {issued}, \"histogram_count\": {observed}}},\n",
                "  \"benches\": [\n{fields}\n  ]\n",
                "}}\n"
            ),
            sha = sha,
            threads = THREADS,
            cpus = std::thread::available_parallelism().map_or(0, |n| n.get()),
            speedup = speedup,
            par = parallel_speedup,
            gate_ns = per_gate_eval_ns,
            flat_speedup = flat_vs_tree_speedup,
            fallback = interval_fallback_rate,
            batch_ns = batch_eval_per_weighting_ns,
            small_rate = rational_small_path_hit_rate,
            certify_rate = threshold_certify_rate,
            upd_rate = weight_updates_per_sec,
            dirty = dirty_path_gates_per_update,
            grad_ns = gradient_pass_ns,
            hits = cache.hits,
            misses = cache.misses,
            rate = cache.hit_rate(),
            asamples = adaptive.estimate.samples,
            klm = klm_budget,
            conv = adaptive.converged,
            rtt_us = serve_rtt_us,
            qhigh = serve_queue.high_water,
            qmax = serve_queue.max_depth,
            qadm = serve_queue.admitted,
            qrej = serve_queue.rejected,
            route_latency = route_latency_json,
            issued = issued,
            observed = observed,
            fields = fields.join(",\n")
        )
    };
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("wrote {out_path} (sha {sha})");
    if let Some(snapshot_path) = snapshot_path.filter(|p| *p != out_path) {
        std::fs::write(&snapshot_path, &json).expect("write bench snapshot");
        println!("wrote {snapshot_path} (sha {sha})");
    }

    if check {
        if failures.is_empty() {
            println!("perf-smoke: all deterministic invariants hold");
        } else {
            for f in &failures {
                eprintln!("perf-smoke FAILURE: {f}");
            }
            std::process::exit(1);
        }
    }
}
