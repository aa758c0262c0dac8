//! Observation must be passive: enabling tracing, metrics, and the slow
//! log cannot change a single result bit.
//!
//! The contracts under test:
//!
//! * **traced ≡ untraced** — for a mixed workload (lifted / compiled /
//!   sampled routes), the wire text of a trace-carrying response with its
//!   `trace ` lines stripped is byte-identical to the untraced response
//!   of a fresh engine, and the parsed values agree field-for-field;
//! * **concurrent hammer** — 8 OS threads driving traced requests
//!   through one fully instrumented engine (zero slow-log threshold, so
//!   every request is recorded) still produce bit-identical results;
//! * **batch parity** — `evaluate_auto_batch` on an instrumented engine
//!   is byte-identical to the serial loop on a telemetry-default engine;
//! * **tallies add up** — under the hammer, with tenant labels and
//!   thresholds, the registry's per-tenant route counters, sample counter
//!   and interval-fallback counter equal what the responses report.

use gfomc_arith::Rational;
use gfomc_engine::workload::{random_block_tid, random_query, SafetyTarget};
use gfomc_engine::{AutoResult, Budget, Engine, EvalRequest, Route, RouteCounts, Routed};
use gfomc_query::BipartiteQuery;
use gfomc_tid::Tid;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;

/// A mixed workload of safe and unsafe queries.
fn mixed_workload(seed: u64, n: usize) -> Vec<(BipartiteQuery, Tid)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let target = match i % 3 {
                0 => SafetyTarget::Safe,
                _ => SafetyTarget::Unsafe,
            };
            let q = random_query(&mut rng, 2, 2, target);
            let tid = random_block_tid(&mut rng, &q, 2, 2);
            (q, tid)
        })
        .collect()
}

/// A budget that exercises the sampled route on every third query (the
/// cost cap rejects all but the smallest lineages).
fn tight_budget() -> Budget {
    Budget::default()
        .with_max_circuit_cost(64)
        .with_samples(512)
        .expect("positive sample budget")
}

/// The response text with its `trace ` lines removed — what an untraced
/// request would have produced if tracing is truly passive.
fn strip_trace(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("trace "))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn traced_responses_are_byte_identical_to_untraced() {
    let workload = mixed_workload(0x0B5, 9);
    let budget = tight_budget();
    let traced_engine = Engine::builder()
        .slow_threshold_nanos(0)
        .slow_capacity(16)
        .build();
    let plain_engine = Engine::new();
    for (q, tid) in &workload {
        let traced_req = EvalRequest::new(q.clone(), tid.clone())
            .with_budget(budget.clone())
            .with_trace();
        let plain_req = EvalRequest::new(q.clone(), tid.clone()).with_budget(budget.clone());
        let traced = traced_engine
            .evaluate_wire(&traced_req.to_string())
            .unwrap();
        let plain = plain_engine.evaluate_wire(&plain_req.to_string()).unwrap();
        assert_eq!(strip_trace(&traced), plain);
        // The trace itself is present and parses back.
        let parsed: Routed = traced.parse().unwrap();
        assert!(parsed.trace.is_some());
    }
    // Zero threshold: every request landed in the slow log (ring-capped).
    assert_eq!(traced_engine.slow_log().len(), workload.len());
    // The latency histograms conserve the request count.
    let total: u64 = traced_engine
        .registry()
        .histograms_named("engine_request_nanos")
        .iter()
        .map(|(_, snap)| snap.count)
        .sum();
    assert_eq!(total, workload.len() as u64);
}

#[test]
fn concurrent_traced_hammer_is_bit_identical_to_serial() {
    const THREADS: usize = 8;
    let workload = mixed_workload(0xFACE, 12);
    let budget = tight_budget();
    // Serial reference on an engine with telemetry at defaults.
    let reference: Vec<String> = {
        let engine = Engine::new();
        workload
            .iter()
            .map(|(q, tid)| {
                let req = EvalRequest::new(q.clone(), tid.clone()).with_budget(budget.clone());
                engine.evaluate_wire(&req.to_string()).unwrap()
            })
            .collect()
    };
    // Hammer: every thread runs the whole workload with tracing on,
    // against one shared engine recording every request.
    let engine = Engine::builder()
        .slow_threshold_nanos(0)
        .slow_capacity(THREADS * workload.len())
        .build();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for (i, (q, tid)) in workload.iter().enumerate() {
                    let req = EvalRequest::new(q.clone(), tid.clone())
                        .with_budget(budget.clone())
                        .with_trace();
                    let got = engine.evaluate_wire(&req.to_string()).unwrap();
                    assert_eq!(strip_trace(&got), reference[i]);
                }
            });
        }
    });
    // Every one of the THREADS × workload requests was observed.
    let n = (THREADS * workload.len()) as u64;
    assert_eq!(
        engine
            .registry()
            .counter_value("engine_requests_total", &[]),
        n
    );
    assert_eq!(engine.slow_log().len(), n as usize);
    let total: u64 = engine
        .registry()
        .histograms_named("engine_request_nanos")
        .iter()
        .map(|(_, snap)| snap.count)
        .sum();
    assert_eq!(total, n);
}

#[test]
fn instrumented_batch_matches_plain_serial_loop() {
    let workload = mixed_workload(0xBA7C4, 10);
    let budget = tight_budget().with_threads(4);
    let plain = Engine::new();
    let serial: Vec<Routed> = workload
        .iter()
        .map(|(q, tid)| plain.evaluate_auto(q, tid, &budget))
        .collect();
    let instrumented = Engine::builder()
        .slow_threshold_nanos(0)
        .slow_capacity(32)
        .build();
    let batch = instrumented.evaluate_auto_batch(&workload, &budget);
    assert_eq!(batch, serial);
    // Byte identity of the wire forms, not just structural equality.
    for (b, s) in batch.iter().zip(&serial) {
        assert_eq!(b.to_string(), s.to_string());
    }
}

#[test]
fn registry_tallies_equal_the_responses_under_the_hammer() {
    const THREADS: usize = 8;
    let workload = mixed_workload(0x7A11, 12);
    let budget = tight_budget();
    // Every other query asks `Pr ≤ Pr?` under the default circuit cap (so
    // unsafe ones compile) on its database with every probability scaled
    // by 2/3. That exact value is not a double, so the outward-rounded
    // interval lane strictly encloses it and the compiled route must fall
    // back to exact arithmetic.
    let reference = Engine::new();
    let requests: Vec<EvalRequest> = workload
        .iter()
        .enumerate()
        .map(|(i, (q, tid))| {
            let mut req = EvalRequest::new(q.clone(), tid.clone())
                .with_budget(budget.clone())
                .with_trace();
            if i % 2 == 1 {
                let scaled: Vec<_> = tid
                    .explicit_tuples()
                    .map(|(t, p)| (*t, p * &Rational::from_ints(2, 3)))
                    .collect();
                for (t, p) in scaled {
                    req.tid.set_prob(t, p);
                }
                let exact = reference.evaluate_auto(q, &req.tid, &Budget::default());
                if let AutoResult::Exact(p) = exact.result {
                    req.budget = Budget::default().with_threshold(p).unwrap();
                }
            }
            req
        })
        .collect();
    let engine = Engine::new();
    let mut results: Vec<(Option<String>, Routed)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, requests) = (&engine, &requests);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (i, req) in requests.iter().enumerate() {
                        // Three tenants plus anonymous traffic.
                        let mut req = req.clone();
                        req.tenant = ((t + i) % 4 != 0).then(|| format!("tenant{}", (t + i) % 3));
                        out.push((req.tenant.clone(), engine.evaluate_request(&req).unwrap()));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    // A tenant that only ever took one route.
    let (q, tid) = &workload[0];
    let solo = EvalRequest::new(q.clone(), tid.clone()).with_tenant("solo");
    let solo = engine.evaluate_request(&solo).unwrap();
    assert_eq!(solo.route, Route::Lifted);
    results.push((Some("solo".into()), solo));

    let mut tenants: BTreeMap<String, RouteCounts> = BTreeMap::new();
    let (mut samples, mut fallbacks) = (0u64, 0u64);
    for (tenant, routed) in &results {
        if let Some(tenant) = tenant {
            let counts = tenants.entry(tenant.clone()).or_default();
            match routed.route {
                Route::Lifted => counts.lifted += 1,
                Route::Compiled => counts.compiled += 1,
                Route::Sampled => counts.sampled += 1,
            }
        }
        if let Some(trace) = &routed.trace {
            samples += trace.samples.unwrap_or(0);
            fallbacks += trace.fallbacks.unwrap_or(0);
        }
    }
    let registry = engine.registry();
    for (tenant, counts) in &tenants {
        for (route, n) in [
            ("lifted", counts.lifted),
            ("compiled", counts.compiled),
            ("sampled", counts.sampled),
        ] {
            let labels = [("route", route), ("tenant", tenant.as_str())];
            assert_eq!(
                registry.counter_value("engine_tenant_route_total", &labels),
                n as u64,
                "{tenant} {route}"
            );
        }
    }
    // Read back sorted by tenant, routes a tenant never took at zero.
    let expected: Vec<(String, RouteCounts)> = tenants.into_iter().collect();
    assert_eq!(engine.tenant_route_counts(), expected);
    let solo_counts = RouteCounts {
        lifted: 1,
        ..RouteCounts::default()
    };
    assert!(expected.contains(&("solo".to_string(), solo_counts)));
    // The sample and fallback counters are the traces' sums, and the
    // workload exercises both.
    assert!(
        samples > 0 && fallbacks > 0,
        "{samples} samples, {fallbacks} fallbacks"
    );
    assert_eq!(
        registry.counter_value("sampler_samples_drawn", &[]),
        samples
    );
    assert_eq!(
        registry.counter_value("flat_interval_fallbacks", &[]),
        fallbacks
    );
}
