//! Seeded request generation for the three workloads.
//!
//! Bodies are built here as wire text. The server only ever sees these
//! bodies; nothing about a workload is configured inside the program.

use crate::rng::Rng;
use std::collections::BTreeSet;

// Catalog queries of the paper, in the wire's query syntax.

pub const H0: &str = "[R(x0) v T(y0) v S0(x0,y0)]";
pub const H1: &str = "[R(x0) v S0(x0,y0)] & [T(y0) v S0(x0,y0)]";
pub const H2: &str = "[R(x0) v S0(x0,y0)] & [T(y0) v S1(x0,y0)] & [S0(x0,y0) v S1(x0,y0)]";
pub const H3: &str = "[R(x0) v S0(x0,y0)] & [T(y0) v S2(x0,y0)] & [S0(x0,y0) v S1(x0,y0)] \
           & [S1(x0,y0) v S2(x0,y0)]";
pub const WIDE: &str =
    "[R(x0) v S0(x0,y0)] & [T(y0) v S2(x0,y0)] & [S0(x0,y0) v S1(x0,y0) v S2(x0,y0)]";
pub const BRAIDED: &str = "[R(x0) v S0(x0,y0) v S1(x0,y0)] & [T(y0) v S0(x0,y0) v S3(x0,y0)] \
           & [S1(x0,y0) v S2(x0,y0)] & [S2(x0,y0) v S3(x0,y0)]";
pub const C9: &str = "[S0(x0,y0) v S1(x0,y1)] & [S0(x0,y0) v S2(x0,y0)] & [S2(x0,y0) v S3(x1,y0)]";
pub const C15: &str = "[S0(x0,y0) v S0(x0,y1) v S1(x0,y0) v S2(x0,y1)] \
           & [S1(x0,y0) v S2(x0,y0) v S3(x0,y0) v S4(x0,y0)] \
           & [S3(x0,y0) v S4(x1,y0) v S5(x0,y0) v S5(x1,y0)]";
pub const A3: &str = "[R(x0) v S0(x0,y0)] & [S0(x0,y0) v S1(x0,y0)] \
           & [S1(x0,y0) v S1(x1,y0) v S2(x0,y0) v S2(x2,y0) v S3(x1,y0) v S3(x2,y0) \
              v S4(x0,y0) v S4(x1,y0) v S4(x2,y0)] & [S1(x0,y0) v S2(x0,y0) v S3(x0,y0)]";
pub const SAFE_NO_RIGHT: &str = "[R(x0) v S0(x0,y0)] & [S0(x0,y0) v S1(x0,y0)]";
pub const SAFE_DISCONNECTED: &str = "[R(x0) v S0(x0,y0)] & [T(y0) v S1(x0,y0)]";
pub const SAFE_THREE: &str = "[R(x0) v S0(x0,y0)] & [T(y0) v S3(x0,y0)] & [S1(x0,y0) v S2(x0,y0)]";

/// An instance shape: a query over a `nu × nv` block domain.
pub type Shape = (&'static str, u32, u32);

/// The probabilities `k/8`, `k ∈ 1..=7`, in lowest terms.
const EIGHTHS: [&str; 7] = ["1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "7/8"];

/// How an instance's tuples are weighted.
#[derive(Clone, Copy, Debug)]
pub enum Probs {
    /// Every tuple strictly uncertain at `k/8`: the lineage keeps the whole
    /// block structure, so the cache key depends on the shape alone.
    Eighths,
    /// `k/8`, except this many distinct binary tuples that are absent
    /// (probability 0), which changes the lineage's structure.
    Absent(usize),
    /// A GFOMC instance: every tuple `1/2` except this many distinct tuples
    /// pinned to 0 or 1.
    Gfomc(usize),
}

/// Every tuple of `q` over the block domain `0..nu` × `1000..1000+nv`, in
/// a fixed order: `R`, then the binary symbols cell by cell, then `T`.
/// The flag marks binary tuples.
pub fn tuples(q: &str, nu: u32, nv: u32) -> Vec<(String, bool)> {
    let symbols: BTreeSet<u32> = q
        .split('S')
        .skip(1)
        .filter_map(|rest| rest.split('(').next()?.parse().ok())
        .collect();
    let mut out = Vec::new();
    if q.contains("R(") {
        out.extend((0..nu).map(|u| (format!("R(u{u})"), false)));
    }
    for u in 0..nu {
        for v in 1000..1000 + nv {
            out.extend(symbols.iter().map(|s| (format!("S{s}(u{u},v{v})"), true)));
        }
    }
    if q.contains("T(") {
        out.extend((1000..1000 + nv).map(|v| (format!("T(v{v})"), false)));
    }
    out
}

/// A random probability `k/8`, `k ∈ 1..=7`.
pub fn eighth(rng: &mut Rng) -> &'static str {
    EIGHTHS[rng.below(EIGHTHS.len())]
}

/// One `/eval` body (also the spec part of a `session open` body).
/// `extra` holds budget lines and is appended verbatim.
pub fn eval_body(shape: Shape, probs: Probs, rng: &mut Rng, extra: &str) -> String {
    let (q, nu, nv) = shape;
    let tuples = tuples(q, nu, nv);
    let mut p: Vec<&str> = match probs {
        Probs::Gfomc(_) => vec!["1/2"; tuples.len()],
        _ => tuples.iter().map(|_| eighth(rng)).collect(),
    };
    match probs {
        Probs::Eighths => {}
        Probs::Absent(k) => {
            let binary: Vec<usize> = (0..tuples.len()).filter(|&i| tuples[i].1).collect();
            for i in rng.distinct(k, binary.len()) {
                p[binary[i]] = "0";
            }
        }
        Probs::Gfomc(k) => {
            for i in rng.distinct(k, tuples.len()) {
                p[i] = if rng.below(2) == 0 { "0" } else { "1" };
            }
        }
    }
    let left: Vec<String> = (0..nu).map(|u| u.to_string()).collect();
    let right: Vec<String> = (1000..1000 + nv).map(|v| v.to_string()).collect();
    let mut body = format!(
        "query {q}\nleft {}\nright {}\ndefault 1\n",
        left.join(" "),
        right.join(" ")
    );
    for ((t, _), p) in tuples.iter().zip(p) {
        body.push_str(&format!("tuple {t} {p}\n"));
    }
    body.push_str(extra);
    body
}

// ---------------------------------------------------------------------
// eval-warm: a fixed working set that fits the compilation cache.
// ---------------------------------------------------------------------

/// The eval-warm lineage shapes: 17 unsafe (query, domain) pairs whose
/// circuits have 65–257 gates. Weights do not enter the cache key, so the
/// working set occupies 17 of the cache's 64 entries.
pub const WARM_SHAPES: [Shape; 17] = [
    (H0, 3, 3),
    (H0, 3, 4),
    (H0, 4, 4),
    (H1, 3, 3),
    (H1, 3, 4),
    (H1, 4, 4),
    (H1, 4, 5),
    (H2, 3, 3),
    (H2, 3, 4),
    (H2, 4, 4),
    (H3, 3, 3),
    (H3, 3, 4),
    (WIDE, 3, 3),
    (WIDE, 3, 4),
    (WIDE, 4, 4),
    (BRAIDED, 3, 3),
    (BRAIDED, 3, 4),
];

/// Distinct `k/8` weightings per eval-warm shape.
pub const WARM_WEIGHTINGS: usize = 3;

/// The eval-warm working set: every shape under [`WARM_WEIGHTINGS`] seeded
/// weightings (51 distinct requests).
pub fn eval_warm(seed: u64) -> Vec<String> {
    let mut rng = Rng::keyed(seed, 1, 0);
    WARM_SHAPES
        .iter()
        .flat_map(|&shape| vec![shape; WARM_WEIGHTINGS])
        .map(|shape| eval_body(shape, Probs::Eighths, &mut rng, ""))
        .collect()
}

// ---------------------------------------------------------------------
// eval-cold: structurally new requests over all three routes.
// ---------------------------------------------------------------------

/// The route a generated eval-cold request is built to take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Unsafe, within budget, structurally new: a compile miss.
    Compile,
    /// Safe on a large domain: the lifted route.
    Lifted,
    /// Unsafe and over the circuit budget: the sampler, at a fixed count.
    Sampled,
}

use Class::{Compile as C, Lifted as L, Sampled as S};

/// One cycle of the eval-cold mix. Each client walks it from its own
/// offset, so the two clients do not hit the sampler in lockstep.
pub const COLD_CYCLE: [Class; 20] = [C, C, L, C, C, S, C, C, L, C, C, C, L, C, S, C, C, L, C, L];

/// Unsafe shapes for compile misses (about 1–4 ms to compile each).
const COLD_COMPILE: [Shape; 12] = [
    (H0, 4, 4),
    (H0, 4, 5),
    (H1, 4, 4),
    (H1, 4, 5),
    (H2, 3, 4),
    (H2, 4, 4),
    (H3, 3, 3),
    (H3, 3, 4),
    (WIDE, 3, 4),
    (WIDE, 4, 4),
    (BRAIDED, 3, 3),
    (BRAIDED, 3, 4),
];

/// Unsafe shapes whose estimated circuit cost exceeds the default budget.
const COLD_SAMPLED: [Shape; 5] = [(C9, 4, 4), (C15, 3, 3), (C15, 4, 4), (A3, 3, 3), (A3, 4, 4)];

/// Safe queries for the lifted route.
const COLD_LIFTED: [&str; 3] = [SAFE_NO_RIGHT, SAFE_DISCONNECTED, SAFE_THREE];

/// Fixed sample count of the sampled requests.
pub const COLD_SAMPLES: u64 = 1000;

/// The route class of request `i` of `client`.
pub fn cold_class(client: usize, i: usize) -> Class {
    COLD_CYCLE[(i + client * COLD_CYCLE.len() / 2) % COLD_CYCLE.len()]
}

/// Request `i` of `client`'s eval-cold stream, a pure function of its
/// arguments. Compile requests vary query, domain and 2–4 absent or
/// pinned tuples, so their lineages are structurally new; a third of
/// them, and half the lifted ones, are GFOMC instances.
pub fn eval_cold(seed: u64, client: usize, i: usize) -> String {
    let mut rng = Rng::keyed(seed, 2 + client as u64, i as u64);
    match cold_class(client, i) {
        Class::Compile => {
            let shape = COLD_COMPILE[rng.below(COLD_COMPILE.len())];
            let k = 2 + rng.below(3);
            let probs = if rng.below(3) == 0 {
                Probs::Gfomc(k)
            } else {
                Probs::Absent(k)
            };
            eval_body(shape, probs, &mut rng, "")
        }
        Class::Lifted => {
            let q = COLD_LIFTED[rng.below(COLD_LIFTED.len())];
            let (nu, nv) = (rng.range(12, 20), rng.range(12, 20));
            let probs = if rng.below(2) == 0 {
                Probs::Gfomc(1 + rng.below(4))
            } else {
                Probs::Eighths
            };
            eval_body((q, nu, nv), probs, &mut rng, "")
        }
        Class::Sampled => {
            let shape = COLD_SAMPLED[rng.below(COLD_SAMPLED.len())];
            let extra = format!("samples {COLD_SAMPLES}\nseed {}\n", rng.next_u64() >> 16);
            eval_body(shape, Probs::Eighths, &mut rng, &extra)
        }
    }
}

// ---------------------------------------------------------------------
// session-stream: long-lived sessions streaming updates.
// ---------------------------------------------------------------------

/// Session instances: unsafe shapes with 195–232 gate circuits. Their
/// count is odd, so the median update falls inside one shape's cost
/// range rather than in the gap between two.
pub const SESSION_SHAPES: [Shape; 5] = [
    (H1, 4, 5),
    (H2, 4, 4),
    (WIDE, 4, 4),
    (H3, 3, 4),
    (BRAIDED, 3, 3),
];

/// `session use` requests per session before the client reopens.
pub const SESSION_USES: usize = 300;

/// Every this many `use` requests also carries `explain top 3` and `value`.
pub const EXPLAIN_EVERY: usize = 10;

/// One step of a client's session stream. The session id is filled in
/// when the body is sent, since the server assigns it.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// `session open` with an instance spec.
    Open(String),
    /// `session use` with these op lines.
    Use { ops: String, explain: bool },
    /// `session close`.
    Close,
}

impl Step {
    /// The wire body, for a session currently numbered `id`.
    pub fn body(&self, id: u64) -> String {
        match self {
            Step::Open(spec) => format!("session open\n{spec}"),
            Step::Use { ops, .. } => format!("session use {id}\n{ops}"),
            Step::Close => format!("session close {id}\n"),
        }
    }
}

/// Session `k` of `client`: open, [`SESSION_USES`] use requests (each one
/// `update` of a random tuple to a random `k/8`), close.
pub fn session(seed: u64, client: usize, k: usize) -> Vec<Step> {
    let mut rng = Rng::keyed(seed, 10 + client as u64, k as u64);
    let shape = SESSION_SHAPES[(2 * k + client) % SESSION_SHAPES.len()];
    let tuples = tuples(shape.0, shape.1, shape.2);
    let mut steps = vec![Step::Open(eval_body(shape, Probs::Eighths, &mut rng, ""))];
    for j in 1..=SESSION_USES {
        let (t, _) = &tuples[rng.below(tuples.len())];
        let explain = j % EXPLAIN_EVERY == 0;
        let mut ops = format!("update {t} {}\n", eighth(&mut rng));
        if explain {
            ops.push_str("explain top 3\nvalue\n");
        }
        steps.push(Step::Use { ops, explain });
    }
    steps.push(Step::Close);
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_follow_the_query_symbols() {
        let t = tuples(H2, 2, 1);
        let names: Vec<&str> = t.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "R(u0)",
                "R(u1)",
                "S0(u0,v1000)",
                "S1(u0,v1000)",
                "S0(u1,v1000)",
                "S1(u1,v1000)",
                "T(v1000)"
            ]
        );
        assert_eq!(tuples(C9, 1, 1).len(), 4, "no unary relations in C9");
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        assert_eq!(eval_warm(5), eval_warm(5));
        assert_ne!(eval_warm(5), eval_warm(6));
        assert_eq!(eval_warm(5).len(), WARM_SHAPES.len() * WARM_WEIGHTINGS);
        assert_eq!(eval_cold(5, 1, 17), eval_cold(5, 1, 17));
        assert_ne!(eval_cold(5, 0, 17), eval_cold(5, 1, 17));
        assert_eq!(session(5, 0, 3), session(5, 0, 3));
        assert_eq!(session(5, 0, 3).len(), SESSION_USES + 2);
    }

    #[test]
    fn the_cold_cycle_mixes_all_three_routes() {
        let count = |c| COLD_CYCLE.iter().filter(|&&x| x == c).count();
        assert_eq!((count(C), count(L), count(S)), (13, 5, 2));
        assert_ne!(cold_class(0, 5), cold_class(1, 5));
    }
}
