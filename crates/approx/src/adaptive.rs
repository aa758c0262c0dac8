//! Adaptive stopping: sample in rounds, exit as soon as the interval is
//! tight enough.
//!
//! The fixed Karp–Luby–Madras budget `⌈3·m·ln(2/δ)/ε²⌉` is a *worst-case*
//! number: it substitutes the indicator-mean lower bound `μ ≥ 1/m`, so it
//! massively oversamples whenever the instance is easier than the worst
//! case — which, on lineages dominated by a few heavy clauses, is almost
//! always. The AA-style fix (Dagum–Karp–Luby–Ross) is to *look at the data
//! while sampling*: draw in geometrically growing rounds, maintain an
//! anytime-valid confidence interval, and stop the moment the interval
//! meets the accuracy target.
//!
//! The interval here is **empirical Bernstein** (Audibert–Munos–
//! Szepesvári): for a Bernoulli indicator with empirical mean `p̂` after
//! `N` draws, the half-width
//!
//! ```text
//! h = √(2·p̂(1−p̂)·ln(3/δ_t)/N) + 3·ln(3/δ_t)/N
//! ```
//!
//! holds with probability `1 − δ_t`. Unlike Hoeffding, `h` collapses when
//! the empirical variance `p̂(1−p̂)` is small — exactly the easy instances
//! the fixed budget wastes its samples on. Validity across the repeated
//! looks is bought with a geometric failure-budget split `δ_t = δ/2^t`
//! (`Σ_t δ_t ≤ δ`), so the *returned* interval is conservative at the
//! caller's `δ` no matter when the rule fired.
//!
//! Two hard guarantees, by construction:
//!
//! * the stopper never draws more than the fixed KLM budget
//!   [`CnfSampler::fpras_samples`]`(ε, δ)` — on instances where it cannot
//!   converge early it degrades *exactly* to the fixed path, never worse;
//! * when it reports [`AdaptiveEstimate::converged`], the outward-rounded
//!   CI half-width is at most `ε` (as an absolute error on the estimated
//!   probability).
//!
//! Rounds draw consecutive sample ranges of the same chunk-seeded plan as
//! [`CnfSampler::estimate_seeded`]: the first round draws
//! `2 ·` [`SAMPLE_CHUNK`] samples and each later round doubles the total.
//! Adaptive estimates are therefore bit-identical for every thread count
//! and pool at a fixed seed.

use crate::estimate::{rational_lower_bound, rational_upper_bound, Estimate};
use crate::sampler::{validate_unit_open, CnfSampler, KarpLuby, SAMPLE_CHUNK};
use gfomc_pool::WorkerPool;

/// Sample count of the first round; later rounds double the total.
const FIRST_ROUND: u64 = 2 * SAMPLE_CHUNK;

/// Parameters of the adaptive stopping rule.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveConfig {
    /// Absolute accuracy target: stop once the outward-rounded CI
    /// half-width is at most `epsilon`.
    pub epsilon: f64,
    /// Overall failure probability `δ` (split geometrically across looks).
    pub delta: f64,
    /// Seed of the chunked sampling plan.
    pub seed: u64,
    /// OS threads per round (1 = serial; never changes the estimate).
    pub threads: usize,
}

impl AdaptiveConfig {
    /// A config on one thread.
    pub fn new(epsilon: f64, delta: f64, seed: u64) -> Self {
        validate_unit_open("epsilon", epsilon);
        validate_unit_open("delta", delta);
        AdaptiveConfig {
            epsilon,
            delta,
            seed,
            threads: 1,
        }
    }

    /// Builder-style override of the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The outcome of an adaptive run: the estimate plus the stopping record.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveEstimate {
    /// The estimate at the stopping time (its `samples` field is the
    /// *actual* number of draws, the quantity the fixed budget bounds).
    pub estimate: Estimate,
    /// Number of rounds (interval evaluations) before stopping.
    pub rounds: u32,
    /// True iff the accuracy target fired (as opposed to the budget cap).
    pub converged: bool,
    /// The sample cap the run was held to: the fixed KLM budget.
    pub budget: u64,
}

impl AdaptiveEstimate {
    /// The adaptive estimate of `1 − p` given the one of `p` (absolute
    /// accuracy is complement-invariant).
    pub fn complement(&self) -> AdaptiveEstimate {
        AdaptiveEstimate {
            estimate: self.estimate.complement(),
            rounds: self.rounds,
            converged: self.converged,
            budget: self.budget,
        }
    }
}

/// The empirical-Bernstein half-width on the indicator mean: `N` draws,
/// `H` hits, failure probability `delta_t` for this look.
fn bernstein_half_width(hits: u64, samples: u64, delta_t: f64) -> f64 {
    let n = samples as f64;
    let p = hits as f64 / n;
    let variance = p * (1.0 - p);
    let l = (3.0 / delta_t).ln();
    (2.0 * variance * l / n).sqrt() + 3.0 * l / n
}

impl KarpLuby {
    /// Draws in geometrically growing rounds on up to `cfg.threads`
    /// workers of `pool` until the outward-rounded empirical-Bernstein CI
    /// half-width on `Pr(D)` is at most `cfg.epsilon`, capped at the fixed
    /// KLM budget [`KarpLuby::fpras_samples`]`(ε, δ)`.
    pub(crate) fn estimate_adaptive_on(
        &self,
        pool: &WorkerPool,
        cfg: &AdaptiveConfig,
    ) -> AdaptiveEstimate {
        // `AdaptiveConfig`'s fields are public, so re-validate here: a
        // config mutated after `AdaptiveConfig::new` must not smuggle a
        // NaN/out-of-range ε or δ past the constructor's checks.
        validate_unit_open("epsilon", cfg.epsilon);
        validate_unit_open("delta", cfg.delta);
        if let Some(value) = self.exact_value() {
            return AdaptiveEstimate {
                estimate: Estimate::exact(value.clone(), cfg.delta),
                rounds: 0,
                converged: true,
                budget: 0,
            };
        }
        let cap = self.fpras_samples(cfg.epsilon, cfg.delta).max(1);
        // Conservative rational image of the target: stopping only when the
        // half-width is ≤ a *lower* bound of ε can never overshoot ε.
        let target = rational_lower_bound(cfg.epsilon);
        let mut total: u64 = 0;
        let mut hits: u64 = 0;
        let mut next = FIRST_ROUND.min(cap);
        let mut rounds: u32 = 0;
        loop {
            rounds += 1;
            hits += self.hits_in_range_on(pool, cfg.seed, total, next, cfg.threads);
            total = next;
            let delta_t = cfg.delta / 2f64.powi(rounds.min(1000) as i32);
            let h = bernstein_half_width(hits, total, delta_t);
            let half = self.union_bound() * &rational_upper_bound(h);
            let converged = half <= target;
            if converged || total >= cap {
                let estimate = self.estimate_with_half_width(hits, total, &half, cfg.delta);
                return AdaptiveEstimate {
                    estimate,
                    rounds,
                    converged,
                    budget: cap,
                };
            }
            next = total.saturating_mul(2).min(cap);
        }
    }
}

impl CnfSampler {
    /// Adaptive estimation of `Pr(f)` on the process-wide shared
    /// [`WorkerPool`]: the stopper runs on `Pr(¬f)` and the result is
    /// complemented (absolute accuracy carries over unchanged).
    /// Bit-identical for every `cfg.threads` at a fixed `cfg.seed`.
    pub fn estimate_adaptive(&self, cfg: &AdaptiveConfig) -> AdaptiveEstimate {
        self.estimate_adaptive_on(WorkerPool::global(), cfg)
    }

    /// [`CnfSampler::estimate_adaptive`] on a caller-provided pool — the
    /// engine's router runs its stopping rounds on the engine's own pool.
    pub fn estimate_adaptive_on(
        &self,
        pool: &WorkerPool,
        cfg: &AdaptiveConfig,
    ) -> AdaptiveEstimate {
        self.kl.estimate_adaptive_on(pool, cfg).complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfomc_arith::Rational;
    use gfomc_logic::{Clause, Cnf, Dnf, UniformWeight, Var};

    fn cl(vs: &[u32]) -> Clause {
        Clause::new(vs.iter().map(|&i| Var(i)))
    }

    fn half() -> UniformWeight {
        UniformWeight(Rational::one_half())
    }

    /// One adaptive run on the shared pool.
    fn adaptive(kl: &KarpLuby, cfg: &AdaptiveConfig) -> AdaptiveEstimate {
        kl.estimate_adaptive_on(WorkerPool::global(), cfg)
    }

    #[test]
    fn degenerate_formulas_converge_without_sampling() {
        let kl = KarpLuby::new(&Dnf::top(), &half());
        let a = adaptive(&kl, &AdaptiveConfig::new(0.1, 0.05, 1));
        assert!(a.converged);
        assert_eq!(a.rounds, 0);
        assert_eq!(a.estimate.samples, 0);
        assert_eq!(a.estimate.estimate, Rational::one());
    }

    #[test]
    fn adaptive_never_exceeds_the_fixed_budget() {
        let d = Dnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[1, 3]), cl(&[4])]);
        let kl = KarpLuby::new(&d, &half());
        for (eps, delta) in [(0.05, 0.05), (0.02, 0.1), (0.1, 0.01)] {
            let a = adaptive(&kl, &AdaptiveConfig::new(eps, delta, 9));
            assert!(
                a.estimate.samples <= kl.fpras_samples(eps, delta),
                "ε={eps} δ={delta}: {} > fixed budget",
                a.estimate.samples
            );
            assert_eq!(a.budget, kl.fpras_samples(eps, delta));
        }
    }

    #[test]
    fn converged_interval_is_within_epsilon() {
        let d = Dnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[1, 3])]);
        let kl = KarpLuby::new(&d, &half());
        let eps = 0.05;
        let a = adaptive(&kl, &AdaptiveConfig::new(eps, 0.05, 4));
        assert!(a.converged, "easy instance must converge: {a:?}");
        // Full width ≤ 2ε (half-width ≤ ε on each side of the raw point).
        let width = a.estimate.ci.width().to_f64();
        assert!(width <= 2.0 * eps + 1e-12, "width {width} vs 2ε");
        assert!(a.estimate.samples < a.budget, "should stop early");
    }

    #[test]
    fn low_variance_instances_stop_very_early() {
        // A single live term: the indicator is constantly 1, variance 0 —
        // only the ln-term of the Bernstein bound remains and the stopper
        // exits on a tiny fraction of the fixed budget.
        let d = Dnf::new([cl(&[1, 2])]);
        let kl = KarpLuby::new(&d, &half());
        let a = adaptive(&kl, &AdaptiveConfig::new(0.05, 0.05, 11));
        assert!(a.converged);
        assert_eq!(a.estimate.estimate, Rational::from_ints(1, 4));
        assert!(a.estimate.samples * 4 < a.budget, "{a:?}");
    }

    #[test]
    fn adaptive_is_thread_count_invariant() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4]), cl(&[1, 4])]);
        let s = CnfSampler::new(&f, &half());
        let base = s.estimate_adaptive(&AdaptiveConfig::new(0.04, 0.05, 77));
        for threads in [2usize, 4] {
            let par =
                s.estimate_adaptive(&AdaptiveConfig::new(0.04, 0.05, 77).with_threads(threads));
            assert_eq!(base, par, "threads={threads}");
        }
    }

    #[test]
    fn adaptive_config_rejects_endpoint_and_nan_parameters() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for eps in [0.0, 1.0, f64::NAN] {
            assert!(
                catch_unwind(AssertUnwindSafe(|| AdaptiveConfig::new(eps, 0.05, 1))).is_err(),
                "ε = {eps} must be rejected"
            );
        }
        for delta in [0.0, 1.0, f64::NAN] {
            assert!(
                catch_unwind(AssertUnwindSafe(|| AdaptiveConfig::new(0.1, delta, 1))).is_err(),
                "δ = {delta} must be rejected"
            );
        }
        // Public fields mutated past the constructor are re-validated at
        // the estimation entry point.
        let d = Dnf::new([cl(&[1, 2])]);
        let kl = KarpLuby::new(&d, &half());
        let mut cfg = AdaptiveConfig::new(0.1, 0.05, 1);
        cfg.delta = f64::NAN;
        assert!(catch_unwind(AssertUnwindSafe(|| adaptive(&kl, &cfg))).is_err());
    }

    #[test]
    fn adaptive_agrees_across_pools() {
        let f = Cnf::new([cl(&[1, 2]), cl(&[2, 3]), cl(&[3, 4]), cl(&[1, 4])]);
        let s = CnfSampler::new(&f, &half());
        let cfg = AdaptiveConfig::new(0.04, 0.05, 77).with_threads(3);
        let base = s.estimate_adaptive(&cfg);
        let own = gfomc_pool::WorkerPool::new(2);
        assert_eq!(base, s.estimate_adaptive_on(&own, &cfg));
    }
}
