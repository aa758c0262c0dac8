//! Property suite for the redesigned API surface: the stable text
//! serializations of [`EvalRequest`] and [`Routed`] that double as the
//! wire format of `gfomc-serve`.
//!
//! The contract under test:
//!
//! * [`EvalRequest`] → `Display` → `FromStr` reproduces the request
//!   **exactly** — query, domains, every explicit tuple probability, and
//!   every budget field — over randomized instances;
//! * [`Routed`] → `Display` → `FromStr` reproduces the routing record
//!   exactly on all three routes, **including** the sampler's
//!   outward-rounded CI endpoints (dyadic rationals `k/2^53`, which the
//!   `numer/denom` text carries without loss) and the `delta`/estimate
//!   floats (Rust's shortest round-trip `Display`);
//! * synthetic [`AutoResult`] values — not just ones the engine happens
//!   to produce — survive the same round trip.
//! * a `session open` body carrying any such request as its spec, with a
//!   threshold and `trace on` added, round-trips the same way.

use gfomc_approx::ConfidenceInterval;
use gfomc_arith::Rational;
use gfomc_engine::workload::{random_block_tid, random_query, SafetyTarget};
use gfomc_engine::{
    AutoResult, Budget, Engine, EvalRequest, Routed, SampleMode, SessionOp, SessionRequest,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A randomized request over a random query, block TID, and budget.
fn arbitrary_request(seed: u64, sampled: bool) -> EvalRequest {
    let mut rng = StdRng::seed_from_u64(seed);
    // A zero circuit budget only forces sampling on *unsafe* queries —
    // safe ones route lifted regardless — so the sampled generator must
    // not draw safe queries.
    let target = if !sampled && seed.is_multiple_of(3) {
        SafetyTarget::Safe
    } else {
        SafetyTarget::Unsafe
    };
    let q = random_query(&mut rng, 2, 3, target);
    let tid = random_block_tid(&mut rng, &q, 1 + (seed % 3) as u32, 2);
    let mut budget = Budget::default()
        .with_seed(rng.gen::<u64>())
        .with_threads(1 + (seed % 4) as usize)
        .with_delta(0.01 + (seed % 7) as f64 * 0.1)
        .expect("delta in (0, 1)");
    if sampled {
        budget = budget
            .with_max_circuit_cost(0)
            .with_samples(128 + seed % 512)
            .expect("positive sample budget");
    } else if seed.is_multiple_of(2) {
        budget = budget
            .with_mode(SampleMode::Adaptive {
                epsilon: 0.02 + (seed % 5) as f64 * 0.1,
            })
            .expect("epsilon in (0, 1)");
    }
    let req = EvalRequest::new(q, tid).with_budget(budget);
    if seed.is_multiple_of(4) {
        req.with_tenant(format!("tenant{}", seed % 10))
    } else {
        req
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn request_text_roundtrips_exactly(seed in 0u64..100_000) {
        let req = arbitrary_request(seed, seed % 2 == 1);
        let text = req.to_string();
        let back: EvalRequest = text.parse().unwrap_or_else(|e| {
            panic!("request text failed to parse back: {e}\n{text}")
        });
        prop_assert_eq!(back, req);
    }

    #[test]
    fn session_open_specs_roundtrip_exactly(seed in 0u64..100_000) {
        // Every request key may ride under `session open`: tenants, the
        // trace switch, `mode fixed` (sampled specs), and thresholds.
        let mut spec = arbitrary_request(seed, seed % 2 == 1).with_trace();
        let threshold = Rational::from_ints((seed % 9) as i64, 8);
        spec.budget = spec.budget.with_threshold(threshold).expect("threshold in [0, 1]");
        let req = SessionRequest::Open {
            spec: Box::new(spec),
            ops: vec![SessionOp::Value, SessionOp::ExplainTop { k: 1 + (seed % 3) as usize }],
            close_after: seed % 3 == 0,
        };
        let text = req.to_string();
        let back: SessionRequest = text.parse().unwrap_or_else(|e| {
            panic!("session text failed to parse back: {e}\n{text}")
        });
        prop_assert_eq!(back, req);
    }

    #[test]
    fn routed_text_roundtrips_bit_identically(seed in 0u64..100_000) {
        // Half the cases force the sampled route so the round trip covers
        // outward-rounded CI endpoints, not just exact rationals.
        let req = arbitrary_request(seed, seed % 2 == 0);
        let routed = Engine::new().evaluate_request(&req).expect("valid budget");
        let text = routed.to_string();
        let back: Routed = text.parse().unwrap_or_else(|e| {
            panic!("response text failed to parse back: {e}\n{text}")
        });
        prop_assert_eq!(back, routed);
    }

    #[test]
    fn sampled_ci_endpoints_survive_the_wire(seed in 0u64..100_000) {
        let req = arbitrary_request(seed, true);
        let routed = Engine::new().evaluate_request(&req).expect("valid budget");
        let AutoResult::Approx { ci, .. } = &routed.result else {
            panic!("zero circuit budget must sample, got {routed:?}");
        };
        // The endpoints are outward-rounded onto the dyadic grid k/2^53;
        // the rational wire text must carry them without further rounding.
        let back: Routed = routed.to_string().parse().unwrap();
        let AutoResult::Approx { ci: wire_ci, .. } = &back.result else {
            panic!("route tag changed in flight");
        };
        prop_assert_eq!(&wire_ci.lo, &ci.lo);
        prop_assert_eq!(&wire_ci.hi, &ci.hi);
        prop_assert!(wire_ci.delta == ci.delta, "delta drifted");
    }

    #[test]
    fn synthetic_results_roundtrip(num in 0u64..(1 << 53), den_shift in 0u32..54, samples in 1u64..1 << 40) {
        // Dyadic rationals shaped like real CI endpoints, plus arbitrary
        // estimates — independent of what the engine happens to emit.
        let denom = 1u64 << den_shift;
        let p = Rational::from_ints((num % denom.min(1u64 << 52)) as i64, denom as i64);
        let exact = AutoResult::Exact(p.clone());
        prop_assert_eq!(exact.to_string().parse::<AutoResult>().unwrap(), exact);

        let hi = if p.is_one() { p.clone() } else { Rational::one() };
        let approx = AutoResult::Approx {
            estimate: p.clone(),
            ci: ConfidenceInterval { lo: p, hi, delta: 0.05 },
            samples,
        };
        prop_assert_eq!(approx.to_string().parse::<AutoResult>().unwrap(), approx);
    }
}

#[test]
fn wire_and_direct_answers_are_the_same_bytes() {
    // The acceptance drill in miniature, without sockets: the api module's
    // evaluate_wire output is the Display text of the direct call.
    let engine = Engine::new();
    for seed in [1u64, 2, 5, 8] {
        let req = arbitrary_request(seed, seed % 2 == 0);
        let wire = engine
            .evaluate_wire(&req.to_string())
            .expect("valid request");
        let direct = engine.evaluate_request(&req).expect("valid budget");
        assert_eq!(wire, direct.to_string(), "seed {seed}");
    }
}
