//! The traced run's per-layer decomposition. Nothing inside the program is
//! instrumented: the benchmark replays the bodies it sent and times its
//! own calls into each layer's public functions, each call a span under
//! one `engine.layers` span per request.

use crate::spans::{Spans, ROOT};
use crate::stats;
use gfomc_approx::CnfSampler;
use gfomc_arith::small_path_thread_stats;
use gfomc_engine::{
    Engine, EvalRequest, Registry, Routed, Session, SessionOp, SessionRequest, SessionResponse,
    TupleWeights,
};
use gfomc_logic::Circuit;
use gfomc_safety::{circuit_cost_estimate, is_safe, lifted_probability};
use gfomc_tid::lineage;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-call samples by span name, plus the accounting that yields
/// `engine.unaccounted_frac`.
pub struct Layers {
    pub spans: Spans,
    samples: HashMap<&'static str, Vec<f64>>,
    /// Σ in-process `evaluate_wire` / `session_wire` time of the
    /// decomposed requests, and Σ of the layer calls that account for it.
    wire_total: u64,
    accounted_total: u64,
    /// Small-path (`Rat64`) hits and misses over the timed evaluate and
    /// update calls.
    small: (u64, u64),
    registry: Registry,
}

impl Layers {
    pub fn new(epoch: Instant) -> Layers {
        Layers {
            spans: Spans::new(epoch),
            samples: HashMap::new(),
            wire_total: 0,
            accounted_total: 0,
            small: (0, 0),
            registry: Registry::new(),
        }
    }

    /// Adds one sample to a metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Times `f` as span `name` and records its nanoseconds as a sample.
    fn call<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let (out, ns) = self.spans.time(name, parent, req, f);
        self.push(name, ns as f64);
        (out, ns)
    }

    /// [`Layers::call`] that also counts the `Rat64` small-path outcome.
    fn arith<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let (h0, m0) = small_path_thread_stats();
        let out = self.call(name, parent, req, f);
        let (h1, m1) = small_path_thread_stats();
        self.small.0 += h1 - h0;
        self.small.1 += m1 - m0;
        out
    }

    /// The median of a metric's samples, 0 when the percentile rule
    /// refuses it (the layer did too little work on this workload).
    pub fn median(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .and_then(|xs| stats::median(xs.clone()))
            .unwrap_or(0.0)
    }

    /// Share of the in-process wire time the layer calls do not cover.
    pub fn unaccounted_frac(&self) -> f64 {
        if self.wire_total == 0 {
            return 0.0;
        }
        1.0 - self.accounted_total as f64 / self.wire_total as f64
    }

    pub fn small_path_hit_rate(&self) -> f64 {
        let (hits, misses) = self.small;
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Brings the request's circuit into `engine`'s cache the way the
    /// server's request did (on a miss the compile itself is timed as
    /// `logic.compile`), then times cache hits against `lineage` calls on
    /// the same input. Returns the accounted time.
    fn compile_path(
        &mut self,
        engine: &Engine,
        req: &EvalRequest,
        lin_cnf: &gfomc_logic::Cnf,
        root: u32,
        id: u64,
    ) -> (gfomc_engine::Compiled, u64) {
        let mut acc = 0;
        let misses = engine.cache_stats().misses;
        engine.compile(&req.query, &req.tid);
        if engine.cache_stats().misses > misses {
            let (flat, ns) = self.call("logic.compile", root, id, || {
                Circuit::compile(lin_cnf).flatten()
            });
            self.push("logic.compile_gates", flat.gate_count() as f64);
            acc += ns;
        }
        // The hit is a lineage plus the lookup. The fastest of a few
        // alternating runs of each cancels allocator and cache warmth.
        let mut fastest = (u64::MAX, u64::MAX);
        let mut compiled = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            black_box(lineage(&req.query, &req.tid));
            fastest.0 = fastest.0.min(t0.elapsed().as_nanos() as u64);
            let (c, ns) = self.spans.time("engine.compile", root, id, || {
                engine.compile(&req.query, &req.tid)
            });
            fastest.1 = fastest.1.min(ns);
            compiled = Some(c);
        }
        // Signed: near the clock's resolution the difference is noise of
        // either sign, and only its median means anything.
        self.push("engine.cache_lookup", fastest.1 as f64 - fastest.0 as f64);
        let lookup = fastest.1.saturating_sub(fastest.0);
        let compiled = compiled.expect("three runs");
        (compiled, acc + lookup)
    }

    /// Decomposes one `/eval` request. `reply` is the server's (checked)
    /// reply and `wire_ns` the in-process `evaluate_wire` time of `body`.
    pub fn eval(&mut self, engine: &Engine, body: &str, reply: &str, id: u64, wire_ns: u64) {
        let root = self.spans.open("engine.layers", ROOT, id);
        let mut acc = 0;
        let (parsed, ns) = self.call("api.parse", root, id, || body.parse::<EvalRequest>());
        acc += ns;
        let Ok(req) = parsed else {
            self.spans.close(root);
            return;
        };
        let (safe, ns) = self.call("safety.is_safe", root, id, || is_safe(&req.query));
        acc += ns;
        let route = if safe {
            let (_, ns) = self.call("safety.lifted", root, id, || {
                lifted_probability(&req.query, &req.tid)
            });
            acc += ns;
            "lifted"
        } else {
            let (lin, lineage_ns) =
                self.call("tid.lineage", root, id, || lineage(&req.query, &req.tid));
            let (cost, ns) = self.call("safety.cost", root, id, || circuit_cost_estimate(&lin.cnf));
            acc += lineage_ns + ns;
            if cost.within(req.budget.max_circuit_cost) {
                let (compiled, ns) = self.compile_path(engine, &req, &lin.cnf, root, id);
                acc += ns;
                let gates = compiled.node_count().max(1) as f64;
                self.push(
                    "safety.cost_overestimate",
                    cost.estimated_nodes as f64 / gates,
                );
                let (_, ns) = self.arith("logic.eval", root, id, || compiled.evaluate_db());
                self.push("logic.eval_ns_per_gate", ns as f64 / gates);
                acc += ns;
                "compiled"
            } else {
                let (sampler, ns) = self.call("approx.build", root, id, || {
                    CnfSampler::new(&lin.cnf, lin.vars.weights())
                });
                acc += ns;
                let b = &req.budget;
                let (est, ns) = self.call("approx.sample", root, id, || {
                    sampler.estimate_seeded(b.seed, b.samples, b.delta, b.threads)
                });
                self.push("approx.samples", est.samples as f64);
                acc += ns;
                "sampled"
            }
        };
        if let Ok(routed) = reply.parse::<Routed>() {
            let (_, ns) = self.call("api.serialize", root, id, || routed.to_string());
            acc += ns;
        }
        acc += self.record(route, wire_ns, root, id);
        self.spans.close(root);
        self.wire_total += wire_ns;
        self.accounted_total += acc;
    }

    /// One labelled histogram record, as the engine makes per request.
    fn record(&mut self, route: &str, value: u64, root: u32, id: u64) -> u64 {
        let registry = &self.registry;
        let (_, ns) = self.spans.time("obs.record", root, id, || {
            registry
                .histogram("engine_request_nanos", &[("route", route)])
                .record(value)
        });
        self.push("obs.record", ns as f64);
        ns
    }

    /// Decomposes one session request, replaying it on `session` (the
    /// benchmark's own copy of the server's session state).
    pub fn session(
        &mut self,
        engine: &Engine,
        session: &mut Option<Session>,
        body: &str,
        reply: &str,
        id: u64,
        wire_ns: u64,
    ) {
        let root = self.spans.open("engine.layers", ROOT, id);
        let mut acc = 0;
        let (parsed, ns) = self.call("api.parse", root, id, || body.parse::<SessionRequest>());
        acc += ns;
        let ops = match parsed {
            Ok(SessionRequest::Open { spec, ops, .. }) => {
                let (lin, lineage_ns) =
                    self.call("tid.lineage", root, id, || lineage(&spec.query, &spec.tid));
                let (_, ns) =
                    self.call("safety.cost", root, id, || circuit_cost_estimate(&lin.cnf));
                acc += lineage_ns + ns;
                let (compiled, ns) = self.compile_path(engine, &spec, &lin.cnf, root, id);
                acc += ns;
                let (opened, ns) = self.arith("logic.open", root, id, || {
                    compiled.open_session(&TupleWeights::new())
                });
                acc += ns;
                *session = Some(opened);
                ops
            }
            Ok(SessionRequest::Use { ops, .. }) => ops,
            Ok(SessionRequest::Close { .. }) => {
                *session = None;
                Vec::new()
            }
            Err(_) => Vec::new(),
        };
        if let Some(s) = session.as_mut() {
            for op in ops {
                acc += match op {
                    SessionOp::Update { tuple, weight } => {
                        let (stats, ns) =
                            self.arith("logic.update", root, id, || s.update(tuple, weight));
                        if let Ok(stats) = stats {
                            let share = stats.repriced as f64 / s.gate_count().max(1) as f64;
                            self.push("logic.repriced_per_update", share);
                        }
                        ns
                    }
                    SessionOp::ExplainTop { k } => {
                        self.arith("logic.explain", root, id, || s.top_k_influential(k))
                            .1
                    }
                    SessionOp::Value => self.call("logic.value", root, id, || s.value()).1,
                    _ => 0,
                };
            }
        }
        if let Ok(resp) = reply.parse::<SessionResponse>() {
            let (_, ns) = self.call("api.serialize", root, id, || resp.to_string());
            acc += ns;
        }
        acc += self.record("session", wire_ns, root, id);
        self.spans.close(root);
        self.wire_total += wire_ns;
        self.accounted_total += acc;
    }
}
