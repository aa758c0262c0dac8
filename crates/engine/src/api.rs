//! The engine's wire-facing API surface: one request/response pair shared
//! by the Rust API, the `gfomc-serve` network server, and the `gfomc-cli`
//! client.
//!
//! The redesign contract is *the wire format and the Rust API are the same
//! types*:
//!
//! * [`EvalRequest`] bundles everything [`Engine::evaluate_auto`] takes —
//!   a parsed [`BipartiteQuery`], a [`Tid`], a per-request [`Budget`]
//!   (ε, δ, circuit-cost ceiling, thread cap, seed), plus an optional
//!   tenant label for the serving layer's per-tenant accounting. It
//!   serializes to a line-oriented text body ([`fmt::Display`]) and parses
//!   back ([`FromStr`]) with typed errors — [`RequestParseError`] for
//!   malformed text, [`BudgetError`] for out-of-range sampling parameters
//!   — never a panic, which is what lets the server answer 400 instead of
//!   killing a worker.
//! * [`EvalResponse`] **is** [`Routed`]: the routing record's stable text
//!   serialization (implemented here, round-tripping through
//!   [`FromStr`]) is used verbatim as the wire response body, so a client
//!   that parses the body holds exactly the value a direct
//!   [`Engine::evaluate_auto`] call would have returned — bit-identical,
//!   including outward-rounded CI endpoints (rationals serialize as
//!   `numer/denom`, f64 parameters in Rust's shortest round-trip form).
//!
//! [`Engine::evaluate_request`] and [`Engine::evaluate_wire`] are the
//! engine's redesigned front door over these types; the latter is the
//! complete parse → route → serialize pipeline a network handler needs.
//!
//! ## Request grammar
//!
//! Line-oriented; blank lines and `#` comments are skipped; key and value
//! are separated by whitespace. Domain lines must precede the `tuple`
//! lines that reference them.
//!
//! ```text
//! query  [R(x0) v S0(x0,y0)] & [S0(x0,y0) v T(y0)]
//! tenant acme                  # optional tenant label
//! trace  on                    # attach the phase trace to the response
//! left   0 1                   # left domain U
//! right  1000 1001             # right domain V
//! default 1                    # unlisted-tuple probability (0 or 1; default 1)
//! tuple  R(u0) 1/2             # explicit tuple probabilities…
//! tuple  S0(u0,v1000) 3/8      # …in the Tuple Display format
//! max_circuit_cost 4194304     # budget fields, all optional
//! samples 20000
//! delta  0.05
//! seed   24301
//! threads 2
//! mode   adaptive 0.05         # or: mode fixed
//! threshold 1/2                # optional: answer "Pr ≤ 1/2?" instead of Pr
//! ```

use crate::router::{AutoResult, Budget, BudgetError, Route, Routed, SampleMode};
use crate::Engine;
use gfomc_approx::ConfidenceInterval;
use gfomc_arith::Rational;
use gfomc_obs::{Counter, Histogram, Trace};
use gfomc_query::{parser::parse_query, BipartiteQuery};
use gfomc_safety::CircuitCostEstimate;
use gfomc_tid::{Tid, Tuple};
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

// ---------------------------------------------------------------------
// Route / AutoResult / Routed: the stable response serialization.
// ---------------------------------------------------------------------

impl fmt::Display for Route {
    /// Lower-case route tag: `lifted`, `compiled`, or `sampled`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Failure to parse a [`Routed`] / [`AutoResult`] / [`Route`] wire body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseParseError(pub String);

impl fmt::Display for ResponseParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed response: {}", self.0)
    }
}

impl std::error::Error for ResponseParseError {}

impl FromStr for Route {
    type Err = ResponseParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        Route::ALL
            .into_iter()
            .find(|r| r.label() == s)
            .ok_or_else(|| ResponseParseError(format!("unknown route '{s}'")))
    }
}

impl fmt::Display for AutoResult {
    /// One line: `exact <rational>`,
    /// `approx <rational> ci <lo> <hi> delta <f64> samples <n>`, or
    /// `certified <le|gt> <threshold>` (`le` means `Pr ≤ threshold`).
    ///
    /// Rationals print as `numer/denom` in lowest terms (integers without
    /// the `/denom`), so parsing back is **bit-identical** — including the
    /// outward-rounded CI endpoints, which live on the dyadic grid
    /// `k/2^53` and round-trip exactly. `delta` uses Rust's shortest
    /// round-trip float form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutoResult::Exact(p) => write!(f, "exact {p}"),
            AutoResult::Approx {
                estimate,
                ci,
                samples,
            } => write!(
                f,
                "approx {estimate} ci {} {} delta {} samples {samples}",
                ci.lo, ci.hi, ci.delta
            ),
            AutoResult::Certified { le, threshold } => {
                write!(f, "certified {} {threshold}", if *le { "le" } else { "gt" })
            }
        }
    }
}

/// Parses one whitespace token with `parse`, labeling failures `what`.
pub(crate) fn token<'a, T>(
    words: &mut impl Iterator<Item = &'a str>,
    what: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, ResponseParseError> {
    let w = words
        .next()
        .ok_or_else(|| ResponseParseError(format!("missing {what}")))?;
    parse(w).ok_or_else(|| ResponseParseError(format!("bad {what}: '{w}'")))
}

/// Expects the literal keyword `kw` as the next token.
pub(crate) fn keyword<'a>(
    words: &mut impl Iterator<Item = &'a str>,
    kw: &str,
) -> Result<(), ResponseParseError> {
    match words.next() {
        Some(w) if w == kw => Ok(()),
        other => Err(ResponseParseError(format!(
            "expected '{kw}', got {other:?}"
        ))),
    }
}

/// A probability-valued rational (`[0, 1]`), or `None`.
pub(crate) fn parse_prob(s: &str) -> Option<Rational> {
    Rational::from_decimal(s).filter(Rational::is_probability)
}

impl FromStr for AutoResult {
    type Err = ResponseParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut words = s.split_whitespace();
        let result = match words.next() {
            Some("exact") => AutoResult::Exact(token(&mut words, "probability", parse_prob)?),
            Some("approx") => {
                let estimate = token(&mut words, "estimate", parse_prob)?;
                keyword(&mut words, "ci")?;
                let lo = token(&mut words, "ci lower endpoint", parse_prob)?;
                let hi = token(&mut words, "ci upper endpoint", parse_prob)?;
                if lo > hi {
                    return Err(ResponseParseError("ci endpoints out of order".into()));
                }
                keyword(&mut words, "delta")?;
                let delta = token(&mut words, "delta", |w| w.parse::<f64>().ok())?;
                keyword(&mut words, "samples")?;
                let samples = token(&mut words, "sample count", |w| w.parse::<u64>().ok())?;
                AutoResult::Approx {
                    estimate,
                    ci: ConfidenceInterval { lo, hi, delta },
                    samples,
                }
            }
            Some("certified") => {
                let le = match words.next() {
                    Some("le") => true,
                    Some("gt") => false,
                    other => {
                        return Err(ResponseParseError(format!(
                            "expected 'le' or 'gt', got {other:?}"
                        )))
                    }
                };
                let threshold = token(&mut words, "threshold", parse_prob)?;
                AutoResult::Certified { le, threshold }
            }
            other => {
                return Err(ResponseParseError(format!(
                    "expected 'exact', 'approx', or 'certified', got {other:?}"
                )))
            }
        };
        if let Some(extra) = words.next() {
            return Err(ResponseParseError(format!("trailing input '{extra}'")));
        }
        Ok(result)
    }
}

impl fmt::Display for Routed {
    /// The wire response body: a `route` line, an optional `cost` line
    /// (absent exactly when the lifted path skipped lineage grounding),
    /// a `result` line carrying the [`AutoResult`] serialization, and —
    /// only when the request opted in — the phase trace, each of its
    /// lines prefixed `trace ` so the response grammar stays
    /// line-oriented and unambiguous.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "route {}", self.route)?;
        if let Some(cost) = &self.cost {
            writeln!(f, "cost {cost}")?;
        }
        writeln!(f, "result {}", self.result)?;
        if let Some(trace) = &self.trace {
            for line in trace.to_string().lines() {
                writeln!(f, "trace {line}")?;
            }
        }
        Ok(())
    }
}

impl FromStr for Routed {
    type Err = ResponseParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut route: Option<Route> = None;
        let mut cost: Option<CircuitCostEstimate> = None;
        let mut result: Option<AutoResult> = None;
        let mut trace_lines = String::new();
        for line in s.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let dup = |what: &str| ResponseParseError(format!("duplicate '{what}' line"));
            match key {
                "route" => {
                    if route.replace(rest.parse()?).is_some() {
                        return Err(dup("route"));
                    }
                }
                "cost" => {
                    let parsed = rest
                        .parse::<CircuitCostEstimate>()
                        .map_err(|e| ResponseParseError(e.to_string()))?;
                    if cost.replace(parsed).is_some() {
                        return Err(dup("cost"));
                    }
                }
                "result" => {
                    if result.replace(rest.parse()?).is_some() {
                        return Err(dup("result"));
                    }
                }
                "trace" => {
                    trace_lines.push_str(rest);
                    trace_lines.push('\n');
                }
                other => {
                    return Err(ResponseParseError(format!(
                        "unknown response line '{other}'"
                    )))
                }
            }
        }
        let trace = if trace_lines.is_empty() {
            None
        } else {
            Some(
                trace_lines
                    .parse::<Trace>()
                    .map_err(|e| ResponseParseError(e.to_string()))?,
            )
        };
        Ok(Routed {
            route: route.ok_or_else(|| ResponseParseError("missing 'route' line".into()))?,
            result: result.ok_or_else(|| ResponseParseError("missing 'result' line".into()))?,
            cost,
            trace,
        })
    }
}

/// The wire response **is** the routing record: `gfomc-serve` sends
/// [`Routed`]'s [`fmt::Display`] form verbatim as the response body, and a
/// client parsing it back holds the exact value a direct in-process
/// [`Engine::evaluate_auto`] call returns.
pub type EvalResponse = Routed;

// ---------------------------------------------------------------------
// EvalRequest: the serializable query submission.
// ---------------------------------------------------------------------

/// One complete, self-contained evaluation request: the serializable form
/// of an [`Engine::evaluate_auto`] call.
///
/// Built in Rust (and shipped over the wire by `gfomc-cli`), or parsed
/// from the wire body by `gfomc-serve` — both directions go through the
/// same [`fmt::Display`]/[`FromStr`] pair, which round-trips exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalRequest {
    /// The parsed query (serialized in the `query::parser` text format,
    /// which round-trips through [`gfomc_query::parser::parse_query`]).
    pub query: BipartiteQuery,
    /// The database: domains, default, and explicit tuple probabilities.
    pub tid: Tid,
    /// The per-request resource budget (ε, δ, circuit-cost ceiling,
    /// thread cap, seed).
    pub budget: Budget,
    /// Optional tenant label for per-tenant route accounting
    /// ([`Engine::tenant_route_counts`]). Labels are free-form words
    /// (no whitespace).
    pub tenant: Option<String>,
    /// When `true`, the response carries the request's phase trace
    /// ([`Routed::trace`]; the `trace on` wire line). Purely additive:
    /// the result value is bit-identical either way.
    pub trace: bool,
}

impl EvalRequest {
    /// A request with the default budget, no tenant label, and tracing
    /// off.
    pub fn new(query: BipartiteQuery, tid: Tid) -> Self {
        EvalRequest {
            query,
            tid,
            budget: Budget::default(),
            tenant: None,
            trace: false,
        }
    }

    /// Builder-style budget override.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Builder-style tenant label. Whitespace is rejected by the wire
    /// parser, so labels must be single words.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Builder-style opt-in to a phase trace in the response.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Failure to parse an [`EvalRequest`] wire body. Every variant names the
/// offending line, so the server's 400 response can point at the exact
/// input the client must fix.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestParseError {
    /// The `query` line failed the `gfomc-query` parser.
    Query(gfomc_query::parser::ParseError),
    /// A budget parameter failed validation (typed, from the router).
    Budget(BudgetError),
    /// Anything else: missing/duplicate/malformed lines, unknown tuples,
    /// out-of-domain constants, non-probability weights.
    Malformed(String),
}

impl fmt::Display for RequestParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestParseError::Query(e) => write!(f, "query: {e}"),
            RequestParseError::Budget(e) => write!(f, "budget: {e}"),
            RequestParseError::Malformed(m) => write!(f, "malformed request: {m}"),
        }
    }
}

impl std::error::Error for RequestParseError {}

impl From<BudgetError> for RequestParseError {
    fn from(e: BudgetError) -> Self {
        RequestParseError::Budget(e)
    }
}

/// Parses a [`Tuple`] in its `Display` format: `R(u0)`, `T(v1000)`, or
/// `S3(u0,v1000)`.
pub fn parse_tuple(s: &str) -> Result<Tuple, RequestParseError> {
    let err = || RequestParseError::Malformed(format!("bad tuple '{s}'"));
    let s = s.trim();
    let inner = |prefix: &str, open: char| -> Option<&str> {
        s.strip_prefix(prefix)?
            .strip_prefix(open)?
            .strip_suffix(')')
    };
    if let Some(body) = inner("R", '(') {
        let u = body.strip_prefix('u').and_then(|n| n.parse().ok());
        return u.map(Tuple::R).ok_or_else(err);
    }
    if let Some(body) = inner("T", '(') {
        let v = body.strip_prefix('v').and_then(|n| n.parse().ok());
        return v.map(Tuple::T).ok_or_else(err);
    }
    if let Some(rest) = s.strip_prefix('S') {
        let (idx, body) = rest.split_once('(').ok_or_else(err)?;
        let i: u32 = idx.parse().map_err(|_| err())?;
        let body = body.strip_suffix(')').ok_or_else(err)?;
        let (u, v) = body.split_once(',').ok_or_else(err)?;
        let u: u32 = u
            .trim()
            .strip_prefix('u')
            .and_then(|n| n.parse().ok())
            .ok_or_else(err)?;
        let v: u32 = v
            .trim()
            .strip_prefix('v')
            .and_then(|n| n.parse().ok())
            .ok_or_else(err)?;
        return Ok(Tuple::S(i, u, v));
    }
    Err(err())
}

impl fmt::Display for EvalRequest {
    /// The wire request body (see the module-level grammar). Domains,
    /// tuples, and budget fields are all written explicitly, so the text
    /// form is self-contained and parsing it back reproduces the request
    /// exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query {}", self.query)?;
        if let Some(tenant) = &self.tenant {
            writeln!(f, "tenant {tenant}")?;
        }
        if self.trace {
            writeln!(f, "trace on")?;
        }
        write!(f, "left")?;
        for u in self.tid.left_domain() {
            write!(f, " {u}")?;
        }
        writeln!(f)?;
        write!(f, "right")?;
        for v in self.tid.right_domain() {
            write!(f, " {v}")?;
        }
        writeln!(f)?;
        writeln!(f, "default {}", self.tid.default_prob())?;
        for (t, p) in self.tid.explicit_tuples() {
            writeln!(f, "tuple {t} {p}")?;
        }
        writeln!(f, "max_circuit_cost {}", self.budget.max_circuit_cost)?;
        writeln!(f, "samples {}", self.budget.samples)?;
        writeln!(f, "delta {}", self.budget.delta)?;
        writeln!(f, "seed {}", self.budget.seed)?;
        writeln!(f, "threads {}", self.budget.threads)?;
        match self.budget.mode {
            SampleMode::Fixed => writeln!(f, "mode fixed")?,
            SampleMode::Adaptive { epsilon } => writeln!(f, "mode adaptive {epsilon}")?,
        }
        if let Some(t) = &self.budget.threshold {
            writeln!(f, "threshold {t}")?;
        }
        Ok(())
    }
}

/// Every key of the request grammar: the lines [`EvalRequest`]'s parser
/// matches, and the request lines the session grammar accepts under
/// `session open`. A unit test checks that the parser knows each one.
pub(crate) const REQUEST_KEYS: [&str; 14] = [
    "query",
    "tenant",
    "trace",
    "left",
    "right",
    "default",
    "tuple",
    "max_circuit_cost",
    "samples",
    "delta",
    "seed",
    "threads",
    "mode",
    "threshold",
];

impl FromStr for EvalRequest {
    type Err = RequestParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let malformed = |m: String| RequestParseError::Malformed(m);
        let mut query: Option<BipartiteQuery> = None;
        let mut tenant: Option<String> = None;
        let mut trace: Option<bool> = None;
        let mut left: Option<Vec<u32>> = None;
        let mut right: Option<Vec<u32>> = None;
        let mut default: Option<Rational> = None;
        let mut tuples: Vec<(Tuple, Rational)> = Vec::new();
        let mut budget = Budget::default();
        let mut samples: Option<u64> = None;
        let mut mode: Option<SampleMode> = None;
        for (lineno, raw) in s.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |m: &str| malformed(format!("line {}: {m}", lineno + 1));
            let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            let set_once = |slot_is_some: bool| -> Result<(), RequestParseError> {
                if slot_is_some {
                    Err(at(&format!("duplicate '{key}' line")))
                } else {
                    Ok(())
                }
            };
            match key {
                "query" => {
                    set_once(query.is_some())?;
                    query = Some(parse_query(rest).map_err(RequestParseError::Query)?);
                }
                "tenant" => {
                    set_once(tenant.is_some())?;
                    if rest.is_empty() || rest.contains(char::is_whitespace) {
                        return Err(at("tenant must be one non-empty word"));
                    }
                    tenant = Some(rest.to_string());
                }
                "trace" => {
                    set_once(trace.is_some())?;
                    trace = Some(match rest {
                        "on" => true,
                        "off" => false,
                        _ => return Err(at("trace must be 'on' or 'off'")),
                    });
                }
                "left" | "right" => {
                    let domain: Result<Vec<u32>, _> = rest
                        .split_whitespace()
                        .map(|w| {
                            w.parse::<u32>()
                                .map_err(|_| at(&format!("bad constant '{w}'")))
                        })
                        .collect();
                    let domain = domain?;
                    if key == "left" {
                        set_once(left.is_some())?;
                        left = Some(domain);
                    } else {
                        set_once(right.is_some())?;
                        right = Some(domain);
                    }
                }
                "default" => {
                    set_once(default.is_some())?;
                    let p = parse_prob(rest).ok_or_else(|| at("default must be 0 or 1"))?;
                    if !p.is_zero() && !p.is_one() {
                        return Err(at("default must be 0 or 1"));
                    }
                    default = Some(p);
                }
                "tuple" => {
                    let (t, p) = rest
                        .rsplit_once(char::is_whitespace)
                        .ok_or_else(|| at("expected 'tuple <tuple> <probability>'"))?;
                    let tuple = parse_tuple(t)?;
                    let prob = parse_prob(p)
                        .ok_or_else(|| at(&format!("probability '{p}' not in [0, 1]")))?;
                    tuples.push((tuple, prob));
                }
                "max_circuit_cost" => {
                    budget.max_circuit_cost = rest
                        .parse()
                        .map_err(|_| at(&format!("bad circuit-cost cap '{rest}'")))?;
                }
                "samples" => {
                    let n: u64 = rest
                        .parse()
                        .map_err(|_| at(&format!("bad sample count '{rest}'")))?;
                    samples = Some(n);
                }
                "delta" => {
                    let d: f64 = rest
                        .parse()
                        .map_err(|_| at(&format!("bad delta '{rest}'")))?;
                    budget = budget.with_delta(d)?;
                }
                "seed" => {
                    budget.seed = rest
                        .parse()
                        .map_err(|_| at(&format!("bad seed '{rest}'")))?;
                }
                "threads" => {
                    let t: usize = rest
                        .parse()
                        .map_err(|_| at(&format!("bad thread count '{rest}'")))?;
                    budget = budget.with_threads(t.max(1));
                }
                "threshold" => {
                    set_once(budget.threshold.is_some())?;
                    let t = Rational::from_decimal(rest)
                        .ok_or_else(|| at(&format!("bad threshold '{rest}'")))?;
                    // Out-of-range thresholds come back as the typed
                    // BudgetError (the server's 400), never a panic.
                    budget = budget.with_threshold(t)?;
                }
                "mode" => {
                    let mut words = rest.split_whitespace();
                    let parsed = match words.next() {
                        Some("fixed") => SampleMode::Fixed,
                        Some("adaptive") => {
                            let eps = words
                                .next()
                                .and_then(|w| w.parse::<f64>().ok())
                                .ok_or_else(|| at("'mode adaptive' needs an epsilon"))?;
                            SampleMode::Adaptive { epsilon: eps }
                        }
                        _ => return Err(at("mode must be 'fixed' or 'adaptive <epsilon>'")),
                    };
                    if words.next().is_some() {
                        return Err(at("trailing input after mode"));
                    }
                    mode = Some(parsed);
                }
                other => return Err(at(&format!("unknown request line '{other}'"))),
            }
        }
        let query = query.ok_or_else(|| malformed("missing 'query' line".into()))?;
        let left = left.ok_or_else(|| malformed("missing 'left' domain line".into()))?;
        let right = right.ok_or_else(|| malformed("missing 'right' domain line".into()))?;
        // `samples N` switches the mode to Fixed (matching the Rust
        // builder); an explicit `mode` line wins regardless of order.
        if let Some(n) = samples {
            budget = budget.with_samples(n)?;
        }
        if let Some(m) = mode {
            budget = budget.with_mode(m)?;
        }
        let mut tid = Tid::new(
            left.iter().copied(),
            right.iter().copied(),
            default.unwrap_or_else(Rational::one),
        );
        for (t, p) in tuples {
            // Membership is checked here (with a typed error) because
            // `Tid::set_prob` asserts — a panic a network server must
            // never let a request body trigger.
            let in_domain = match t {
                Tuple::R(u) => left.contains(&u),
                Tuple::T(v) => right.contains(&v),
                Tuple::S(_, u, v) => left.contains(&u) && right.contains(&v),
            };
            if !in_domain {
                return Err(malformed(format!("tuple {t} outside the declared domains")));
            }
            tid.set_prob(t, p);
        }
        Ok(EvalRequest {
            query,
            tid,
            budget,
            tenant,
            trace: trace.unwrap_or(false),
        })
    }
}

// ---------------------------------------------------------------------
// The engine front door over the shared types.
// ---------------------------------------------------------------------

/// Everything that can go wrong between a wire body arriving and a routed
/// result leaving: the serving layer's 400-class error union.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// The request body did not parse.
    Parse(RequestParseError),
    /// The request parsed but carried an invalid budget (struct-literal
    /// constructions can bypass the builders; the router re-validates).
    Budget(BudgetError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Parse(e) => write!(f, "{e}"),
            EvalError::Budget(e) => write!(f, "budget: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl Engine {
    /// Routes one [`EvalRequest`] — the typed front door shared by the
    /// server, the CLI, and in-process callers. Identical to
    /// [`Engine::try_evaluate_auto`] on the request's parts, plus the
    /// per-request observability the serving layer reads back out:
    /// per-tenant route accounting, the per-route / per-tenant
    /// request-latency histograms in [`Engine::registry`], the
    /// slow-query ring buffer, and — when the request opted in — the
    /// phase trace attached to the returned record. All of it is
    /// passive: the result value is bit-identical to
    /// [`Engine::try_evaluate_auto`].
    pub fn evaluate_request(&self, req: &EvalRequest) -> Result<Routed, BudgetError> {
        self.evaluate_request_recorded(req, 0)
    }

    /// The request epilogue shared by `/eval` and `/session`: runs `body`
    /// on a fresh trace — opened with the wire-parse span when the
    /// request came off the wire — then sets the trace total to parse
    /// plus body time and records it in the request counter and latency
    /// histogram `body` hands back, and in the slow-query log.
    pub(crate) fn record_request<'a, R>(
        &'a self,
        parse_nanos: u64,
        body: impl FnOnce(&mut Trace) -> (R, &'a Counter, &'a Histogram),
    ) -> (R, Trace) {
        let mut tr = Trace::new();
        if parse_nanos > 0 {
            tr.push_span("parse", parse_nanos);
        }
        let start = Instant::now();
        let (out, requests, latency) = body(&mut tr);
        tr.total_nanos = parse_nanos + start.elapsed().as_nanos() as u64;
        requests.inc();
        latency.record(tr.total_nanos);
        self.slow_log.record(&tr);
        (out, tr)
    }

    /// [`Engine::evaluate_request`] with the wire-parse time already
    /// spent on this request, so the recorded trace and latency
    /// histograms cover the full parse → route → evaluate pipeline.
    pub(crate) fn evaluate_request_recorded(
        &self,
        req: &EvalRequest,
        parse_nanos: u64,
    ) -> Result<Routed, BudgetError> {
        req.budget.validate()?;
        let (mut routed, tr) = self.record_request(parse_nanos, |tr| {
            let routed = self.evaluate_auto_core(&req.query, &req.tid, &req.budget, tr);
            let latency = &self.route_nanos[routed.route as usize];
            (routed, &self.requests, latency)
        });
        if let Some(tenant) = &req.tenant {
            let labels = [("route", routed.route.label()), ("tenant", tenant)];
            self.registry
                .counter("engine_tenant_route_total", &labels)
                .inc();
            self.registry
                .histogram("engine_tenant_request_nanos", &[("tenant", tenant)])
                .record(tr.total_nanos);
        }
        if req.trace {
            routed.trace = Some(tr);
        }
        Ok(routed)
    }

    /// The complete wire pipeline: parse `body` as an [`EvalRequest`],
    /// route it, and serialize the [`Routed`] record to the exact text the
    /// server sends back. Every failure is a typed [`EvalError`] — never a
    /// panic — so a network handler can map it to a 400-class response.
    pub fn evaluate_wire(&self, body: &str) -> Result<String, EvalError> {
        let parse_start = Instant::now();
        let req: EvalRequest = body.parse().map_err(EvalError::Parse)?;
        let parse_nanos = parse_start.elapsed().as_nanos() as u64;
        let routed = self
            .evaluate_request_recorded(&req, parse_nanos)
            .map_err(EvalError::Budget)?;
        Ok(routed.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_query::catalog;

    fn half() -> Rational {
        Rational::one_half()
    }

    fn small_request() -> EvalRequest {
        let q = catalog::h1();
        let mut tid = Tid::all_present([0, 1], [1000]);
        tid.set_prob(Tuple::R(0), half());
        tid.set_prob(Tuple::S(0, 0, 1000), Rational::from_ints(3, 8));
        tid.set_prob(Tuple::T(1000), half());
        EvalRequest::new(q, tid)
    }

    #[test]
    fn tuple_parse_roundtrips_display() {
        for t in [Tuple::R(0), Tuple::T(1000), Tuple::S(3, 7, 2000)] {
            assert_eq!(parse_tuple(&t.to_string()).unwrap(), t);
        }
        for bad in ["R(x0)", "S(u0,v1)", "Q(u1)", "R(u)", "S1(u0 v1)", ""] {
            assert!(parse_tuple(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_request_key_has_a_parser() {
        let base = small_request().to_string();
        for key in REQUEST_KEYS {
            let err = format!("{base}{key}\n")
                .parse::<EvalRequest>()
                .expect_err("a bare or repeated key line is malformed");
            assert!(
                !err.to_string().contains("unknown request line"),
                "'{key}' is in REQUEST_KEYS but EvalRequest does not parse it: {err}"
            );
        }
        let err = format!("{base}bogus 1\n")
            .parse::<EvalRequest>()
            .unwrap_err();
        assert!(err.to_string().contains("unknown request line 'bogus'"));
    }

    #[test]
    fn request_roundtrips_through_text() {
        let req = small_request()
            .with_tenant("acme")
            .with_budget(Budget::default().with_seed(99).with_threads(2));
        let text = req.to_string();
        let back: EvalRequest = text.parse().unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_parse_rejects_garbage_with_typed_errors() {
        assert!(matches!(
            "".parse::<EvalRequest>(),
            Err(RequestParseError::Malformed(_))
        ));
        assert!(matches!(
            "query R(x0) v Q(x0)\nleft 0\nright 1".parse::<EvalRequest>(),
            Err(RequestParseError::Query(_))
        ));
        let bad_delta = "query R(x0) v S0(x0,y0) & S0(x0,y0) v T(y0)\nleft 0\nright 1\ndelta 1.5";
        assert!(matches!(
            bad_delta.parse::<EvalRequest>(),
            Err(RequestParseError::Budget(BudgetError::Delta(_)))
        ));
        let out_of_domain =
            "query R(x0) v S0(x0,y0) & S0(x0,y0) v T(y0)\nleft 0\nright 1\ntuple R(u7) 1/2";
        assert!(matches!(
            out_of_domain.parse::<EvalRequest>(),
            Err(RequestParseError::Malformed(m)) if m.contains("outside")
        ));
        let bad_prob =
            "query R(x0) v S0(x0,y0) & S0(x0,y0) v T(y0)\nleft 0\nright 1\ntuple R(u0) 3/2";
        assert!(matches!(
            bad_prob.parse::<EvalRequest>(),
            Err(RequestParseError::Malformed(m)) if m.contains("probability")
        ));
        let bad_trace = "query R(x0) v S0(x0,y0) & S0(x0,y0) v T(y0)\nleft 0\nright 1\ntrace maybe";
        assert!(matches!(
            bad_trace.parse::<EvalRequest>(),
            Err(RequestParseError::Malformed(m)) if m.contains("trace")
        ));
    }

    #[test]
    fn threshold_request_roundtrips_and_certifies_over_the_wire() {
        // The `threshold` key survives the request round-trip.
        let req = small_request().with_budget(
            Budget::default()
                .with_threshold(Rational::from_ints(3, 4))
                .unwrap(),
        );
        let back: EvalRequest = req.to_string().parse().unwrap();
        assert_eq!(back, req);
        // The wire pipeline answers with a certified verdict that is
        // byte-identical to comparing the direct exact evaluation.
        let engine = Engine::new();
        let wire = engine.evaluate_wire(&req.to_string()).unwrap();
        let routed: Routed = wire.parse().unwrap();
        assert_eq!(routed.route, Route::Compiled);
        let exact = Engine::new()
            .evaluate_auto(&req.query, &req.tid, &Budget::default())
            .result;
        let AutoResult::Exact(p) = exact else {
            panic!("baseline must be exact");
        };
        assert_eq!(
            routed.result,
            AutoResult::Certified {
                le: p <= Rational::from_ints(3, 4),
                threshold: Rational::from_ints(3, 4)
            }
        );
        assert_eq!(routed.to_string().parse::<Routed>().unwrap(), routed);
    }

    #[test]
    fn threshold_parse_errors_are_typed_never_panics() {
        let base = "query R(x0) v S0(x0,y0) & S0(x0,y0) v T(y0)\nleft 0\nright 1";
        // Out of [0, 1]: the typed budget error (the server's 400).
        assert!(matches!(
            format!("{base}\nthreshold 3/2").parse::<EvalRequest>(),
            Err(RequestParseError::Budget(BudgetError::Threshold))
        ));
        // Unparseable: malformed, pointing at the line.
        assert!(matches!(
            format!("{base}\nthreshold abc").parse::<EvalRequest>(),
            Err(RequestParseError::Malformed(m)) if m.contains("threshold")
        ));
        // Duplicate: set-once like every other budget key.
        assert!(matches!(
            format!("{base}\nthreshold 1/2\nthreshold 1/3").parse::<EvalRequest>(),
            Err(RequestParseError::Malformed(m)) if m.contains("duplicate")
        ));
        // And over the wire the pipeline returns Err, never panics.
        let engine = Engine::new();
        assert!(engine
            .evaluate_wire(&format!("{base}\nthreshold 3/2"))
            .is_err());
        assert!(engine
            .evaluate_wire(&format!("{base}\nthreshold abc"))
            .is_err());
    }

    #[test]
    fn certified_result_roundtrips_and_rejects_malformed() {
        for (le, t) in [(true, Rational::one_half()), (false, Rational::zero())] {
            let r = AutoResult::Certified {
                le,
                threshold: t.clone(),
            };
            assert_eq!(r.to_string().parse::<AutoResult>().unwrap(), r);
        }
        for bad in [
            "certified",
            "certified maybe 1/2",
            "certified le",
            "certified le 3/2",
            "certified le 1/2 extra",
        ] {
            assert!(bad.parse::<AutoResult>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn evaluate_request_counts_tenants() {
        let engine = Engine::new();
        let req = small_request().with_tenant("acme");
        engine.evaluate_request(&req).unwrap();
        engine.evaluate_request(&req).unwrap();
        let anon = small_request();
        engine.evaluate_request(&anon).unwrap();
        let tenants = engine.tenant_route_counts();
        assert_eq!(tenants.len(), 1);
        let (name, counts) = &tenants[0];
        assert_eq!(name, "acme");
        assert_eq!(counts.lifted + counts.compiled + counts.sampled, 2);
        let total = engine.route_counts();
        assert_eq!(total.lifted + total.compiled + total.sampled, 3);
    }

    #[test]
    fn wire_pipeline_matches_direct_call() {
        let engine = Engine::new();
        let req = small_request();
        let wire = engine.evaluate_wire(&req.to_string()).unwrap();
        let direct = engine.evaluate_auto(&req.query, &req.tid, &req.budget);
        assert_eq!(wire, direct.to_string());
        assert_eq!(wire.parse::<Routed>().unwrap(), direct);
    }

    #[test]
    fn routed_text_roundtrips_all_routes() {
        let engine = Engine::new();
        // Compiled (h1 is unsafe but small).
        let req = small_request();
        let compiled = engine.evaluate_request(&req).unwrap();
        assert_eq!(compiled.route, Route::Compiled);
        assert_eq!(compiled.to_string().parse::<Routed>().unwrap(), compiled);
        // Sampled (zero circuit budget forces the sampler).
        let sampled_req = small_request().with_budget(
            Budget::default()
                .with_max_circuit_cost(0)
                .with_samples(512)
                .unwrap(),
        );
        let sampled = engine.evaluate_request(&sampled_req).unwrap();
        assert_eq!(sampled.route, Route::Sampled);
        assert_eq!(sampled.to_string().parse::<Routed>().unwrap(), sampled);
        // Lifted (safe query, no cost line).
        let lifted_req = EvalRequest::new(catalog::safe_no_right(), small_request().tid);
        let lifted = engine.evaluate_request(&lifted_req).unwrap();
        assert_eq!(lifted.route, Route::Lifted);
        assert!(lifted.cost.is_none());
        assert_eq!(lifted.to_string().parse::<Routed>().unwrap(), lifted);
    }

    #[test]
    fn traced_request_roundtrips_and_response_carries_the_trace() {
        // The `trace on` key survives the request round-trip.
        let req = small_request().with_trace();
        let back: EvalRequest = req.to_string().parse().unwrap();
        assert_eq!(back, req);
        assert!(back.trace);
        // The traced response carries a populated trace whose text form
        // round-trips, and the value is bit-identical to the untraced
        // response of a fresh engine.
        let engine = Engine::new();
        let traced = engine.evaluate_request(&req).unwrap();
        let trace = traced.trace.as_ref().expect("trace requested");
        assert_eq!(trace.route.as_deref(), Some("compiled"));
        assert_eq!(trace.cache_hit, Some(false));
        assert!(trace.gates.is_some());
        assert!(trace.span("route").is_some());
        assert!(trace.span("compile").is_some());
        assert!(trace.span("evaluate").is_some());
        assert!(trace.total_nanos > 0);
        assert_eq!(traced.to_string().parse::<Routed>().unwrap(), traced);
        let plain = Engine::new().evaluate_request(&small_request()).unwrap();
        assert!(plain.trace.is_none());
        assert_eq!(plain.result, traced.result);
        // A second identical request hits the compilation cache.
        let again = engine.evaluate_request(&req).unwrap();
        let trace = again.trace.as_ref().unwrap();
        assert_eq!(trace.cache_hit, Some(true));
        assert!(trace.span("cache").is_some());
        assert_eq!(again.result, traced.result);
    }

    #[test]
    fn request_metrics_land_in_the_engine_registry() {
        let engine = Engine::new();
        let req = small_request().with_tenant("acme");
        engine.evaluate_request(&req).unwrap();
        engine.evaluate_request(&req).unwrap();
        let registry = engine.registry();
        assert_eq!(registry.counter_value("engine_requests_total", &[]), 2);
        assert_eq!(
            registry.counter_value("engine_route_total", &[("route", "compiled")]),
            2
        );
        let by_route = registry
            .histogram_snapshot("engine_request_nanos", &[("route", "compiled")])
            .expect("compiled-route histogram exists");
        assert_eq!(by_route.count, 2);
        let by_tenant = registry
            .histogram_snapshot("engine_tenant_request_nanos", &[("tenant", "acme")])
            .expect("tenant histogram exists");
        assert_eq!(by_tenant.count, 2);
    }

    #[test]
    fn zero_threshold_slow_log_records_every_request() {
        let engine = Engine::builder()
            .slow_threshold_nanos(0)
            .slow_capacity(4)
            .build();
        for _ in 0..6 {
            engine.evaluate_request(&small_request()).unwrap();
        }
        // Ring semantics: capacity bounds retention, not recording.
        assert_eq!(engine.slow_log().len(), 4);
        let render = engine.slow_log().render();
        assert!(render.starts_with("slowlog count 4"), "{render}");
        assert!(render.contains("route compiled"), "{render}");
    }

    #[test]
    fn response_parse_rejects_malformed_bodies() {
        for bad in [
            "",
            "route nowhere\nresult exact 1/2\n",
            "route lifted\n",
            "result exact 1/2\n",
            "route lifted\nresult exact 3/2\n",
            "route lifted\nresult approx 1/2 ci 3/4 1/4 delta 0.05 samples 8\n",
            "route lifted\nresult exact 1/2 extra\n",
            "route lifted\nroute lifted\nresult exact 1/2\n",
            // Trace lines without the mandatory total, or malformed.
            "route lifted\nresult exact 1/2\ntrace span route 10\n",
            "route lifted\nresult exact 1/2\ntrace garbage 1\ntrace total 10\n",
        ] {
            assert!(bad.parse::<Routed>().is_err(), "{bad:?}");
        }
    }
}
