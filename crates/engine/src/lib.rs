//! # gfomc-engine
//!
//! Knowledge-compiled query evaluation: compile the lineage of a query over
//! a TID **once** into a d-DNNF-style arithmetic circuit, then evaluate it
//! under **many** weight assignments, each in time linear in the circuit.
//!
//! The naive oracle ([`gfomc_tid::probability`]) re-runs Shannon expansion
//! from scratch for every query/weight pair. But the paper's block
//! constructions (§3, Theorem 3.4) — and any workload sweeping tuple
//! probabilities over a fixed database — evaluate the *same* lineage under
//! *many* weight assignments. That is exactly the workload knowledge
//! compilation amortizes:
//!
//! ```
//! use gfomc_engine::{Engine, TupleWeights};
//! use gfomc_arith::Rational;
//! use gfomc_query::catalog;
//! use gfomc_tid::{Tid, Tuple};
//!
//! let q = catalog::h1();
//! let mut tid = Tid::all_present([0], [10]);
//! tid.set_prob(Tuple::R(0), Rational::one_half());
//! tid.set_prob(Tuple::S(0, 0, 10), Rational::one_half());
//! tid.set_prob(Tuple::T(10), Rational::one_half());
//!
//! let engine = Engine::new();
//! let compiled = engine.compile(&q, &tid);          // lineage + circuit, once
//! let base = compiled.evaluate_db();                 // Pr at the stored probabilities
//! let swept = compiled.evaluate(                     // Pr with R(0) forced present
//!     &TupleWeights::new().with(Tuple::R(0), Rational::one()),
//! );
//! assert!(base < swept);
//! ```
//!
//! The compiled form is exact: evaluation returns the same [`Rational`] as
//! [`wmc`](gfomc_logic::wmc()) on the lineage (the property suites assert equality,
//! not approximation). The [`workload`] module generates random block TIDs
//! and random bipartite queries at controlled safety for tests and benches.
//!
//! When exactness is not affordable, [`Engine::evaluate_auto`] (the
//! [`router`] module) turns the dichotomy into a runtime decision: safe
//! queries go to the PTIME lifted evaluator, unsafe queries go to the
//! compiled circuit while the estimated compilation cost fits a [`Budget`],
//! and everything beyond falls back to the seeded Karp–Luby sampler of
//! `gfomc-approx` — returning a result tagged [`AutoResult::Exact`] or
//! [`AutoResult::Approx`] so the two regimes can never be confused.

pub mod api;
pub mod router;
pub mod session;
pub mod workload;

pub use api::{EvalError, EvalRequest, EvalResponse, RequestParseError, ResponseParseError};
pub use router::{AutoResult, Budget, BudgetError, Route, RouteCounts, Routed, SampleMode};
pub use session::{
    Session, SessionError, SessionOp, SessionParseError, SessionReply, SessionRequest,
    SessionResponse, SessionWireError,
};

// The observability vocabulary is part of the engine's public surface:
// `Engine::registry()` hands out the `Registry`, traced responses carry a
// `Trace`, and the slow-query ring buffer is a `SlowLog`.
pub use gfomc_obs::{HistogramSnapshot, Registry, SlowLog, Trace};

use gfomc_arith::Rational;
use gfomc_logic::{Circuit, Cnf, EvalArena, FlatCircuit, WeightsFromFn};
use gfomc_obs::{Counter, Histogram};
use gfomc_pool::WorkerPool;
use gfomc_query::BipartiteQuery;
use gfomc_tid::{lineage, Lineage, Tid, Tuple, VarTable};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of compiled circuits the engine keeps hot.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Default bound on concurrently admitted serving requests (the
/// [`EngineBuilder::max_queue_depth`] knob read by `gfomc-serve`).
pub const DEFAULT_MAX_QUEUE_DEPTH: usize = 64;

/// Default slow-query threshold: requests at or above 1 ms end-to-end are
/// recorded in the [`SlowLog`] ([`EngineBuilder::slow_threshold_nanos`]).
pub const DEFAULT_SLOW_THRESHOLD_NANOS: u64 = 1_000_000;

/// Default capacity of the slow-query ring buffer
/// ([`EngineBuilder::slow_capacity`]).
pub const DEFAULT_SLOW_CAPACITY: usize = 64;

/// Maximum number of independently locked cache shards (fewer when the
/// capacity is smaller, so the `entries <= capacity` bound stays exact).
const MAX_CACHE_SHARDS: usize = 8;

/// Hit/miss record of the engine's compilation cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compilations skipped because the canonical lineage was cached.
    pub hits: usize,
    /// Compilations actually performed.
    pub misses: usize,
    /// Circuits currently cached.
    pub entries: usize,
    /// Maximum number of cached circuits (0 = caching disabled).
    pub capacity: usize,
    /// Resident circuits displaced by a costlier-to-recompute newcomer.
    pub evictions: usize,
    /// Newly compiled circuits denied admission because their compile cost
    /// did not justify displacing anything resident (cost-aware admission).
    pub rejections: usize,
}

impl CacheStats {
    /// Hits over total lookups, or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident circuit of a cache shard.
///
/// Residents are kept in flat struct-of-arrays form ([`FlatCircuit`]),
/// the form the compiler emits and every evaluation path reads: no
/// per-`Product` child vector.
#[derive(Debug)]
struct CacheEntry {
    circuit: Arc<FlatCircuit>,
    /// Eviction priority `last-touch stamp + compile cost` (see
    /// [`Engine::compile`] — higher survives longer).
    priority: u64,
    /// Compile cost in **exact flat gate count** — the same unit
    /// `gfomc_safety::CircuitCostEstimate` reports, so admission duels and
    /// routing budgets speak one currency.
    cost: u64,
}

/// One independently locked shard of the compilation cache: its resident
/// circuits keyed by canonical CNF. Lineages are assigned to shards by
/// the hash of their canonical CNF.
#[derive(Debug)]
struct CacheShard {
    entries: HashMap<Arc<Cnf>, CacheEntry>,
    capacity: usize,
}

/// Compiles query/TID pairs, caches the resulting circuits, and tracks
/// aggregate compilation statistics. **Thread-safe**: `Engine` is
/// `Send + Sync` and every method takes `&self`, so one engine can be
/// shared behind an `Arc` (or a plain reference) by any number of
/// concurrent callers — the serving setup the router's batched front-end
/// ([`Engine::evaluate_auto_batch`]) is built for.
///
/// Each [`Engine::compile`] call produces a self-contained [`Compiled`]
/// artifact. Circuits are cached in a **sharded, cost-aware LRU** keyed on
/// the canonical CNF of the lineage: two queries
/// (or the same query over two TIDs) whose groundings canonicalize to the
/// same lineage share one compilation — the second [`Engine::compile`] is
/// a cache hit that only re-binds the tuple ↔ variable table. Cached
/// circuits are behind [`Arc`], so a hit costs one reference bump, not a
/// deep copy.
///
/// Concurrency model: the cache is split into up to 8 mutex-guarded
/// shards selected by the lineage hash, statistics are atomics, and the
/// parallel paths run on a persistent [`WorkerPool`] created once per
/// engine's lifetime (the process-shared pool by default,
/// [`EngineBuilder::pool`] to dedicate one). Concurrent compiles of
/// *distinct* lineages proceed in parallel with probability
/// `1 − 1/shards`; concurrent compiles of the *same* lineage serialize on
/// its shard so the work is done once, not duplicated.
///
/// Eviction is **cost-aware** (a GreedyDual-flavored LRU): the victim
/// minimizes `last-touch stamp + compile cost`, so a 10⁶-gate circuit is
/// never displaced by a 10²-gate newcomer — the cheap newcomer is denied
/// admission instead (and, because the stamp keeps advancing, a dead
/// giant still ages out eventually).
#[derive(Debug)]
pub struct Engine {
    /// The engine's only tally store: every counter and histogram below
    /// is a handle into this registry, created at build time, so
    /// `/metrics` and the typed getters ([`Engine::cache_stats`],
    /// [`Engine::route_counts`], [`Engine::tenant_route_counts`]) read the
    /// same cells and can never drift apart. Only tenant-labelled cells
    /// are registered on first use.
    registry: Arc<Registry>,
    /// Slow-request ring buffer fed by
    /// [`Engine::evaluate_request`](crate::api) (full phase traces of the
    /// slowest requests; see [`EngineBuilder::slow_threshold_nanos`]).
    slow_log: Arc<SlowLog>,
    requests: Arc<Counter>,
    compiled: Arc<Counter>,
    nodes: Arc<Counter>,
    decisions: Arc<Counter>,
    /// Routing decisions and `/eval` request latencies, indexed by
    /// `Route as usize`.
    route_totals: [Arc<Counter>; 3],
    route_nanos: [Arc<Histogram>; 3],
    /// Monte-Carlo samples the sampled route drew.
    samples_drawn: Arc<Counter>,
    /// Threshold verdicts the interval lane left to exact arithmetic.
    interval_fallbacks: Arc<Counter>,
    session_requests: Arc<Counter>,
    session_nanos: Arc<Histogram>,
    sessions_opened: Arc<Counter>,
    sessions_closed: Arc<Counter>,
    update_nanos: Arc<Histogram>,
    explain_nanos: Arc<Histogram>,
    shards: Box<[Mutex<CacheShard>]>,
    cache_capacity: usize,
    cache_stamp: AtomicU64,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_rejections: Arc<Counter>,
    /// Serving knob carried by the engine so server, CLI, and benches all
    /// read one source of truth: how many admitted-but-unfinished requests
    /// a front-end may hold before it must reject explicitly.
    max_queue_depth: usize,
    /// Open priced sessions, keyed by the id handed out at open time
    /// (see [`session`]). Each session is individually locked so the
    /// registry lock is never held across session work.
    pub(crate) sessions: Mutex<HashMap<u64, session::SessionSlot>>,
    /// Monotone session-id allocator (ids are never reused, so a closed
    /// id stays a typed "unknown session" error forever).
    pub(crate) session_ids: AtomicU64,
    /// Per-tenant cap on concurrently open sessions — an open session is
    /// charged against the same admission budget the serving gate
    /// enforces for in-flight requests (defaults to
    /// [`EngineBuilder::max_queue_depth`]).
    pub(crate) max_sessions_per_tenant: usize,
    pool: Arc<WorkerPool>,
}

/// The one construction path for [`Engine`]: a fluent builder covering
/// every knob the four historical constructors spread across ad-hoc
/// entry points, plus the serving-layer knobs introduced with
/// `gfomc-serve`.
///
/// ```
/// use gfomc_engine::Engine;
/// use gfomc_pool::WorkerPool;
/// use std::sync::Arc;
///
/// let engine = Engine::builder()
///     .cache_capacity(16)
///     .pool(Arc::new(WorkerPool::new(2)))
///     .max_queue_depth(8)
///     .build();
/// assert_eq!(engine.cache_stats().capacity, 16);
/// assert_eq!(engine.max_queue_depth(), 8);
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    cache_capacity: usize,
    pool: Option<Arc<WorkerPool>>,
    max_queue_depth: usize,
    slow_threshold_nanos: u64,
    slow_capacity: usize,
    max_sessions_per_tenant: Option<usize>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            pool: None,
            max_queue_depth: DEFAULT_MAX_QUEUE_DEPTH,
            slow_threshold_nanos: DEFAULT_SLOW_THRESHOLD_NANOS,
            slow_capacity: DEFAULT_SLOW_CAPACITY,
            max_sessions_per_tenant: None,
        }
    }
}

impl EngineBuilder {
    /// Compilation-cache capacity in circuits (0 disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// A dedicated worker pool for the engine's parallel paths (sampling
    /// rounds and [`Engine::evaluate_auto_batch`]).
    /// Defaults to the process-shared [`WorkerPool::global`].
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Bound on concurrently admitted serving requests, read by the
    /// `gfomc-serve` admission gate: beyond this depth a front-end must
    /// reject explicitly (429-style) instead of queueing. 0 means "reject
    /// everything" — useful for drain/maintenance modes and overload tests.
    pub fn max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }

    /// End-to-end duration (nanoseconds) at or above which a request's
    /// full phase trace is kept in the slow-query ring buffer
    /// ([`Engine::slow_log`]). 0 records every request.
    pub fn slow_threshold_nanos(mut self, nanos: u64) -> Self {
        self.slow_threshold_nanos = nanos;
        self
    }

    /// Capacity of the slow-query ring buffer (0 disables slow-query
    /// recording entirely).
    pub fn slow_capacity(mut self, capacity: usize) -> Self {
        self.slow_capacity = capacity;
        self
    }

    /// Per-tenant cap on concurrently **open sessions**
    /// ([`Engine::open_session`]). A session holds priced circuit state
    /// between requests, so it is charged against the same admission
    /// budget the serving gate enforces for in-flight requests: the cap
    /// defaults to [`EngineBuilder::max_queue_depth`]. 0 rejects every
    /// open (drain mode).
    pub fn max_sessions_per_tenant(mut self, cap: usize) -> Self {
        self.max_sessions_per_tenant = Some(cap);
        self
    }

    /// Builds the engine with zeroed statistics.
    pub fn build(self) -> Engine {
        let capacity = self.cache_capacity;
        // A small cache stays unsharded: splitting e.g. capacity 2 into
        // two 1-slot shards would let hash-colliding hot lineages thrash
        // a shard while the other sits empty — strictly worse than one
        // lock around a cache this tiny. Larger caches split into
        // MAX_CACHE_SHARDS shards whose capacities (each ≥ 1) sum to
        // exactly `capacity`, preserving the user-visible bound
        // `entries <= capacity`.
        let shard_count = if capacity <= MAX_CACHE_SHARDS {
            1
        } else {
            MAX_CACHE_SHARDS
        };
        let shards = (0..shard_count)
            .map(|i| {
                Mutex::new(CacheShard {
                    entries: HashMap::new(),
                    capacity: capacity / shard_count + usize::from(i < capacity % shard_count),
                })
            })
            .collect();
        let registry = Arc::new(Registry::new());
        let counter = |name: &str| registry.counter(name, &[]);
        let histogram = |name: &str| registry.histogram(name, &[]);
        let by_route = |r: Route| [("route", r.label())];
        Engine {
            requests: counter("engine_requests_total"),
            compiled: counter("engine_compiled_circuits_total"),
            nodes: counter("engine_circuit_gates_total"),
            decisions: counter("engine_circuit_decisions_total"),
            route_totals: Route::ALL.map(|r| registry.counter("engine_route_total", &by_route(r))),
            route_nanos: Route::ALL
                .map(|r| registry.histogram("engine_request_nanos", &by_route(r))),
            samples_drawn: counter("sampler_samples_drawn"),
            interval_fallbacks: counter("flat_interval_fallbacks"),
            session_requests: counter("engine_session_requests_total"),
            session_nanos: registry.histogram("engine_request_nanos", &[("route", "session")]),
            sessions_opened: counter("engine_sessions_opened_total"),
            sessions_closed: counter("engine_sessions_closed_total"),
            update_nanos: histogram("engine_update_nanos"),
            explain_nanos: histogram("engine_explain_nanos"),
            shards,
            cache_capacity: capacity,
            cache_stamp: AtomicU64::new(0),
            cache_hits: counter("engine_cache_hits_total"),
            cache_misses: counter("engine_cache_misses_total"),
            cache_evictions: counter("engine_cache_evictions_total"),
            cache_rejections: counter("engine_cache_rejections_total"),
            max_queue_depth: self.max_queue_depth,
            sessions: Mutex::new(HashMap::new()),
            session_ids: AtomicU64::new(0),
            max_sessions_per_tenant: self.max_sessions_per_tenant.unwrap_or(self.max_queue_depth),
            pool: self
                .pool
                .unwrap_or_else(|| Arc::clone(WorkerPool::global())),
            slow_log: Arc::new(SlowLog::new(self.slow_threshold_nanos, self.slow_capacity)),
            registry,
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::builder().build()
    }
}

impl Engine {
    /// A fresh engine with zeroed statistics and every knob at its
    /// default — the trivial case of [`Engine::builder`].
    pub fn new() -> Self {
        Engine::default()
    }

    /// The configuration entry point: see [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The worker pool this engine fans its parallel work across.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The serving-layer admission bound this engine was built with (see
    /// [`EngineBuilder::max_queue_depth`]).
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Grounds `q` over `tid` and compiles the lineage into a circuit —
    /// or fetches the circuit from the cache if an identical canonical
    /// lineage was compiled before (by this thread or any other).
    ///
    /// Compilation is the expensive step — it performs the full component
    /// / Shannon decomposition exactly once per *distinct* lineage. Every
    /// subsequent [`Compiled::evaluate`] is a single bottom-up pass.
    pub fn compile(&self, q: &BipartiteQuery, tid: &Tid) -> Compiled {
        self.compile_lineage(lineage(q, tid))
    }

    /// Compiles an already-grounded lineage — shared by [`Engine::compile`]
    /// and the router ([`Engine::evaluate_auto`]), which grounds the
    /// lineage itself to estimate its cost before committing to a circuit.
    pub(crate) fn compile_lineage(&self, lin: Lineage) -> Compiled {
        self.compile_lineage_traced(lin).0
    }

    /// [`Engine::compile_lineage`] plus the cache outcome: `true` iff the
    /// circuit was already resident — the bit the router's phase trace
    /// reports as `cache hit`/`cache miss`.
    pub(crate) fn compile_lineage_traced(&self, lin: Lineage) -> (Compiled, bool) {
        let (circuit, hit) = self.compile_cnf(&lin.cnf);
        (
            Compiled {
                circuit,
                vars: lin.vars,
            },
            hit,
        )
    }

    /// The shard a canonical CNF belongs to.
    fn shard_of(&self, cnf: &Cnf) -> &Mutex<CacheShard> {
        let mut hasher = DefaultHasher::new();
        cnf.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Poison-tolerant shard lock: a panic inside `Circuit::compile` (one
    /// pathological lineage) unwinds while the shard is held, and letting
    /// that poison wedge every later query hashing to the shard would turn
    /// one bad query into a persistent denial of service for a shared
    /// serving engine. Recovery is safe: `Circuit::compile` runs before
    /// the shard is touched, so an unwind leaves the shard as it was.
    fn lock_shard(shard: &Mutex<CacheShard>) -> std::sync::MutexGuard<'_, CacheShard> {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The cache-aware compilation core: looks the canonical CNF up in its
    /// shard and either returns the resident circuit or compiles, admits,
    /// and possibly evicts under the cost-aware policy. The flag is `true`
    /// iff the circuit was already resident (a cache hit).
    fn compile_cnf(&self, cnf: &Cnf) -> (Arc<FlatCircuit>, bool) {
        if self.cache_capacity == 0 {
            self.cache_misses.inc();
            return (self.compile_fresh(cnf), false);
        }
        let mut shard = Engine::lock_shard(self.shard_of(cnf));
        let stamp = self.cache_stamp.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(entry) = shard.entries.get_mut(cnf) {
            entry.priority = stamp.saturating_add(entry.cost);
            self.cache_hits.inc();
            return (Arc::clone(&entry.circuit), true);
        }
        self.cache_misses.inc();
        // Compile while holding the shard lock: concurrent callers of the
        // *same* lineage wait for one compilation instead of duplicating
        // it, and callers of distinct lineages collide only when their
        // hashes share a shard.
        let circuit = self.compile_fresh(cnf);
        let cost = circuit.gate_count() as u64;
        let key = Arc::new(cnf.clone());
        shard.entries.insert(
            Arc::clone(&key),
            CacheEntry {
                circuit: Arc::clone(&circuit),
                priority: stamp.saturating_add(cost),
                cost,
            },
        );
        if shard.entries.len() > shard.capacity {
            // Cost-aware eviction: linear scan for the minimum priority
            // (the cache is small and eviction is rare next to compile
            // work). Removing the entry drops its key too, so engine
            // memory stays bounded by the cache capacity, not by every
            // distinct lineage ever seen. When the newcomer itself is the
            // minimum — its compile cost does not justify displacing any
            // resident circuit — it is the one dropped: admission denied.
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.priority)
                .map(|(k, _)| Arc::clone(k))
                .expect("eviction scan over a non-empty shard");
            shard.entries.remove(&victim);
            if Arc::ptr_eq(&victim, &key) {
                self.cache_rejections.inc();
            } else {
                self.cache_evictions.inc();
            }
        }
        (circuit, false)
    }

    /// Uncached compilation plus instrumentation: the Shannon/component
    /// decomposition emits the struct-of-arrays evaluation form directly,
    /// so nothing is converted or copied after compiling.
    fn compile_fresh(&self, cnf: &Cnf) -> Arc<FlatCircuit> {
        let circuit = Circuit::compile(cnf).flatten();
        self.compiled.inc();
        self.nodes.add(circuit.gate_count() as u64);
        self.decisions.add(circuit.decision_count() as u64);
        Arc::new(circuit)
    }

    /// Number of lineages actually compiled by this engine (cache hits
    /// are not compilations).
    pub fn compiled_count(&self) -> usize {
        self.compiled.get() as usize
    }

    /// Total circuit gates produced across all compilations.
    pub fn total_nodes(&self) -> usize {
        self.nodes.get() as usize
    }

    /// Total Shannon-split gates produced across all compilations.
    pub fn total_decisions(&self) -> usize {
        self.decisions.get() as usize
    }

    /// Compilation-cache counters, surfaced next to
    /// [`Engine::route_counts`] for workload instrumentation. Counter
    /// fields are point-in-time atomic snapshots; under concurrent
    /// traffic they are mutually consistent only once the traffic quiesces.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.get() as usize,
            misses: self.cache_misses.get() as usize,
            entries: self
                .shards
                .iter()
                .map(|s| Engine::lock_shard(s).entries.len())
                .sum(),
            capacity: self.cache_capacity,
            evictions: self.cache_evictions.get() as usize,
            rejections: self.cache_rejections.get() as usize,
        }
    }

    /// Bumps one route counter — the router's bookkeeping.
    pub(crate) fn count_route(&self, route: Route) {
        self.route_totals[route as usize].inc();
    }

    /// Routing decisions made by this engine so far.
    pub fn route_counts(&self) -> RouteCounts {
        let [lifted, compiled, sampled] = self.route_totals.each_ref().map(|c| c.get() as usize);
        RouteCounts {
            lifted,
            compiled,
            sampled,
        }
    }

    /// The engine's metrics registry: every counter the typed getters
    /// report lives here, plus the per-route / per-tenant request-latency
    /// histograms recorded by
    /// [`Engine::evaluate_request`](crate::api). Render it with
    /// [`Registry::render_prometheus`] (the `/metrics` endpoint) or
    /// [`Registry::render_plain`] (the `/status` endpoint).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The slow-query ring buffer: full phase traces of requests whose
    /// end-to-end time met [`EngineBuilder::slow_threshold_nanos`].
    pub fn slow_log(&self) -> &Arc<SlowLog> {
        &self.slow_log
    }

    /// Publishes the point-in-time state this engine's counters cannot
    /// carry — cache occupancy, open sessions, and the worker pool's
    /// counters (the pool crate has no registry) — as registry gauges.
    /// Called by the serving layer just before rendering `/metrics` or
    /// `/status`, so scrapes see fresh values without the engine paying
    /// for gauge upkeep on the request path.
    pub fn refresh_gauges(&self) {
        let cache = self.cache_stats();
        self.registry
            .set_gauge("engine_cache_entries", &[], cache.entries as u64);
        self.registry
            .set_gauge("engine_cache_capacity", &[], cache.capacity as u64);
        let pool = self.pool.stats();
        self.registry
            .set_gauge("pool_threads", &[], pool.threads as u64);
        self.registry.set_gauge("pool_jobs", &[], pool.jobs);
        self.registry.set_gauge("pool_steals", &[], pool.steals);
        self.registry
            .set_gauge("pool_broadcasts", &[], pool.broadcasts);
        self.registry
            .set_gauge("engine_sessions_open", &[], self.session_count() as u64);
    }

    /// Per-tenant routing tallies, sorted by tenant label, with routes a
    /// tenant never took at zero — the multi-tenant half of
    /// [`Engine::route_counts`], read back from the registry's
    /// `engine_tenant_route_total{route,tenant}` counters. Only requests
    /// routed through [`Engine::evaluate_request`](crate::api) with a
    /// tenant label are counted here; anonymous traffic appears in the
    /// global tallies only.
    pub fn tenant_route_counts(&self) -> Vec<(String, RouteCounts)> {
        let mut tenants: BTreeMap<String, RouteCounts> = BTreeMap::new();
        for (labels, n) in self.registry.counters_named("engine_tenant_route_total") {
            // Labels come sorted by key: `route`, then `tenant`.
            if let [(_, route), (_, tenant)] = labels.as_slice() {
                let counts = tenants.entry(tenant.clone()).or_default();
                match route.parse() {
                    Ok(Route::Lifted) => counts.lifted += n as usize,
                    Ok(Route::Compiled) => counts.compiled += n as usize,
                    Ok(Route::Sampled) => counts.sampled += n as usize,
                    Err(_) => {}
                }
            }
        }
        tenants.into_iter().collect()
    }
}

/// One-shot convenience: compile `q` over `tid` with a throwaway [`Engine`].
pub fn compile(q: &BipartiteQuery, tid: &Tid) -> Compiled {
    Engine::new().compile(q, tid)
}

/// `Pr_∆(Q)` through the compiled path — drop-in for
/// [`gfomc_tid::probability`] when only one evaluation is needed.
pub fn probability(q: &BipartiteQuery, tid: &Tid) -> Rational {
    compile(q, tid).evaluate_db()
}

/// A compiled query lineage: the flat arithmetic circuit plus the tuple ↔
/// variable table of the grounding.
///
/// The circuit is held in struct-of-arrays form ([`FlatCircuit`]), so
/// every evaluation is one forward loop over dense slices with weights
/// resolved once per distinct tuple — and a threshold question
/// ([`Compiled::certify_le_db`]) is answered by the interval lane of the
/// same pass, falling back to the exact lane only when the enclosure
/// cannot decide. All `Rational`-returning methods stay bit-identical to
/// the reference evaluator (`Circuit::evaluate`), which prices the same
/// gate arithmetic in plain `Rational`s.
///
/// Deterministic tuples (probability 0 or 1 in the source TID) were folded
/// away during grounding, so the circuit's variables are exactly the
/// *uncertain* tuples of the database; those are the tuples whose weight a
/// [`TupleWeights`] assignment can override. Overrides may be deterministic
/// (0 or 1): the Shannon gates degenerate to the forced branch
/// arithmetically, so no recompilation is needed.
#[derive(Clone, Debug)]
pub struct Compiled {
    pub(crate) circuit: Arc<FlatCircuit>,
    pub(crate) vars: VarTable,
}

thread_local! {
    /// Per-thread values arena for the database-weight evaluations of
    /// [`Compiled`]: repeated queries on one serving thread reuse a single
    /// buffer, and threads never contend for it.
    static DB_ARENA: RefCell<EvalArena> = RefCell::new(EvalArena::new());
}

impl Compiled {
    /// Evaluates the circuit under the database's own tuple probabilities.
    pub fn evaluate_db(&self) -> Rational {
        DB_ARENA.with(|arena| {
            self.circuit
                .eval_exact_with(self.vars.weights(), &mut arena.borrow_mut())
        })
    }

    /// Decides `Pr ≤ t` under the database weights: interval fast path
    /// first, escalating to exact evaluation only when the enclosure
    /// cannot certify the comparison. Returns `(answer,
    /// fell_back_to_exact)`; the answer always agrees with comparing
    /// [`Compiled::evaluate_db`] against `t` exactly.
    pub fn certify_le_db(&self, t: &Rational) -> (bool, bool) {
        DB_ARENA.with(|arena| {
            self.circuit
                .le_exact(self.vars.weights(), t, &mut arena.borrow_mut())
        })
    }

    /// Evaluates the circuit under `weights`: each uncertain tuple takes
    /// its override if present, its database probability otherwise. The
    /// override lookup runs once per distinct tuple (the flat slot table),
    /// not once per gate.
    pub fn evaluate(&self, weights: &TupleWeights) -> Rational {
        self.circuit.eval_exact(&self.weight_fn(weights))
    }

    /// The batched form: one compiled circuit priced under every assignment
    /// in `weights` by the flat forward pass
    /// ([`FlatCircuit::evaluate_batch`]) — one topological walk per lane
    /// chunk instead of one per weighting. Output order matches input
    /// order and stays bit-identical to a serial [`Compiled::evaluate`]
    /// loop.
    pub fn evaluate_batch(&self, weights: &[TupleWeights]) -> Vec<Rational> {
        let resolved: Vec<_> = weights.iter().map(|w| self.weight_fn(w)).collect();
        self.circuit.evaluate_batch(&resolved)
    }

    /// The override-aware weight function of one assignment: each uncertain
    /// tuple takes its override if present, its database probability
    /// otherwise.
    fn weight_fn<'a>(
        &'a self,
        weights: &'a TupleWeights,
    ) -> WeightsFromFn<impl Fn(gfomc_logic::Var) -> Rational + 'a> {
        WeightsFromFn(move |v| {
            weights
                .get(&self.vars.tuple_of(v))
                .cloned()
                .unwrap_or_else(|| self.vars.weights()[&v].clone())
        })
    }

    /// The uncertain tuples of the compiled lineage — the tuples whose
    /// weight an assignment can change.
    pub fn tuples(&self) -> Vec<Tuple> {
        (0..self.vars.len())
            .map(|i| self.vars.tuple_of(gfomc_logic::Var(i as u32)))
            .collect()
    }

    /// The underlying flat circuit.
    pub fn circuit(&self) -> &FlatCircuit {
        &self.circuit
    }

    /// The tuple ↔ variable table of the grounding.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// Number of circuit gates (flat gate count — the unit of the
    /// cache-admission cost).
    pub fn node_count(&self) -> usize {
        self.circuit.gate_count()
    }
}

/// A weight assignment for a compiled lineage: per-tuple probability
/// overrides on top of the database probabilities.
///
/// Tuples without an override keep the probability they had when the
/// lineage was compiled. Overriding a tuple that was deterministic at
/// compile time has no effect — it was folded out of the circuit during
/// grounding (see [`Compiled::tuples`] for the live support).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TupleWeights {
    overrides: HashMap<Tuple, Rational>,
}

impl TupleWeights {
    /// An empty assignment (every tuple at its database probability).
    pub fn new() -> Self {
        TupleWeights::default()
    }

    /// Builder-style override of one tuple's probability.
    pub fn with(mut self, t: Tuple, p: Rational) -> Self {
        self.set(t, p);
        self
    }

    /// Overrides one tuple's probability in place.
    pub fn set(&mut self, t: Tuple, p: Rational) {
        assert!(p.is_probability(), "probability out of [0,1] for {t}");
        self.overrides.insert(t, p);
    }

    /// The override for a tuple, if any.
    pub fn get(&self, t: &Tuple) -> Option<&Rational> {
        self.overrides.get(t)
    }

    /// Number of overridden tuples.
    pub fn len(&self) -> usize {
        self.overrides.len()
    }

    /// True iff no tuple is overridden.
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }

    /// The overridden tuples with their probabilities.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &Rational)> {
        self.overrides.iter()
    }
}

impl FromIterator<(Tuple, Rational)> for TupleWeights {
    fn from_iter<I: IntoIterator<Item = (Tuple, Rational)>>(iter: I) -> Self {
        let mut w = TupleWeights::new();
        for (t, p) in iter {
            w.set(t, p);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_query::catalog;
    use gfomc_tid::probability as naive_probability;

    fn half() -> Rational {
        Rational::one_half()
    }

    fn uniform_tid(q: &BipartiteQuery, nu: u32, nv: u32) -> Tid {
        let left: Vec<u32> = (0..nu).collect();
        let right: Vec<u32> = (100..100 + nv).collect();
        let mut tid = Tid::all_present(left.clone(), right.clone());
        for &u in &left {
            tid.set_prob(Tuple::R(u), half());
            for &v in &right {
                for s in q.binary_symbols() {
                    tid.set_prob(Tuple::S(s, u, v), half());
                }
            }
        }
        for &v in &right {
            tid.set_prob(Tuple::T(v), half());
        }
        tid
    }

    #[test]
    fn compiled_matches_naive_oracle_on_catalog() {
        let engine = Engine::new();
        for (name, q) in catalog::unsafe_catalog()
            .iter()
            .chain(&catalog::safe_catalog())
        {
            let tid = uniform_tid(q, 2, 2);
            let compiled = engine.compile(q, &tid);
            assert_eq!(compiled.evaluate_db(), naive_probability(q, &tid), "{name}");
        }
        assert_eq!(
            engine.compiled_count(),
            catalog::unsafe_catalog().len() + catalog::safe_catalog().len()
        );
        assert!(engine.total_nodes() > 0);
    }

    #[test]
    fn overrides_match_recompiled_database() {
        // Overriding S0(0,100) to ¼ must equal compiling a database that
        // had ¼ there all along.
        let q = catalog::h1();
        let tid = uniform_tid(&q, 2, 2);
        let compiled = compile(&q, &tid);
        let quarter = Rational::from_ints(1, 4);
        let w = TupleWeights::new().with(Tuple::S(0, 0, 100), quarter.clone());
        let mut tid2 = tid.clone();
        tid2.set_prob(Tuple::S(0, 0, 100), quarter);
        assert_eq!(compiled.evaluate(&w), naive_probability(&q, &tid2));
    }

    #[test]
    fn deterministic_overrides_need_no_recompilation() {
        // Forcing the endpoint tuples to 0/1 (the transfer-matrix workload,
        // Eq. (20)) through the compiled circuit matches restricting the
        // lineage before counting.
        let q = catalog::h1();
        let tid = uniform_tid(&q, 2, 2);
        let compiled = compile(&q, &tid);
        for r0 in [Rational::zero(), Rational::one()] {
            let w = TupleWeights::new().with(Tuple::R(0), r0.clone());
            let mut tid2 = tid.clone();
            tid2.set_prob(Tuple::R(0), r0);
            assert_eq!(compiled.evaluate(&w), naive_probability(&q, &tid2));
        }
    }

    #[test]
    fn batch_matches_single_evaluations() {
        let q = catalog::hk(2);
        let tid = uniform_tid(&q, 2, 2);
        let compiled = compile(&q, &tid);
        let weights: Vec<TupleWeights> = (0..=4)
            .map(|k| TupleWeights::new().with(Tuple::T(100), Rational::from_ints(k, 4)))
            .collect();
        let batch = compiled.evaluate_batch(&weights);
        assert_eq!(batch.len(), weights.len());
        for (w, got) in weights.iter().zip(&batch) {
            assert_eq!(got, &compiled.evaluate(w));
        }
    }

    #[test]
    fn support_is_the_uncertain_tuples() {
        let q = catalog::h1();
        let mut tid = uniform_tid(&q, 1, 1);
        tid.set_prob(Tuple::R(0), Rational::one());
        let compiled = compile(&q, &tid);
        // R(0) was deterministic at compile time: not in the support.
        assert!(!compiled.tuples().contains(&Tuple::R(0)));
        assert!(compiled.tuples().contains(&Tuple::T(100)));
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Compiled>();
    }

    #[test]
    fn cost_aware_eviction_keeps_the_expensive_circuit() {
        // Capacity 1 forces every admission decision to be a duel. The
        // 3×3 lineage compiles to a much larger circuit than the 1×1, so
        // after the cheap lineage is compiled the expensive one must still
        // be resident (the newcomer is denied admission, not the giant).
        let q = catalog::h1();
        let big = uniform_tid(&q, 3, 3);
        let small = uniform_tid(&q, 1, 1);
        let engine = Engine::builder().cache_capacity(1).build();
        let big_compiled = engine.compile(&q, &big);
        let small_compiled = engine.compile(&q, &small);
        assert!(
            big_compiled.node_count() > 10 * small_compiled.node_count(),
            "preset sizes must differ by an order of magnitude: {} vs {}",
            big_compiled.node_count(),
            small_compiled.node_count()
        );
        let before = engine.cache_stats();
        assert_eq!(before.rejections, 1, "{before:?}");
        engine.compile(&q, &big);
        let after = engine.cache_stats();
        assert_eq!(after.hits, before.hits + 1, "giant must still be hot");
        assert_eq!(after.entries, 1);
        // An even costlier newcomer does displace it (cost dominates the
        // duel), so the cache is not wedged on its first giant forever.
        let bigger = uniform_tid(&q, 4, 4);
        engine.compile(&q, &bigger);
        let end = engine.cache_stats();
        assert_eq!(end.entries, 1);
        assert_eq!(end.evictions, 1, "{end:?}");
    }

    #[test]
    fn probability_shortcut_agrees() {
        let q = catalog::example_c9();
        let tid = uniform_tid(&q, 2, 2);
        assert_eq!(probability(&q, &tid), naive_probability(&q, &tid));
    }
}
