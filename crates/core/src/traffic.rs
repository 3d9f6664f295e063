//! Skewed-traffic integration: streaming traffic models through the
//! cost seam, and the hot-vs-cold poisoning-economics axis.
//!
//! The paper weights every template equally, so an attack's measured
//! damage is traffic-blind. Under real (Zipf-skewed) traffic the same
//! poisoned recommendation costs very different money depending on
//! *which* templates it degrades: losing an index that served a
//! dashboard template firing thousands of times an hour is not the same
//! as losing one behind a quarterly report. [`poisoning_economics`]
//! makes that a measurable axis:
//!
//! 1. run one attack end to end (train → clean config → inject →
//!    retrain → poisoned config), keeping the *configurations*, not
//!    just their names;
//! 2. re-measure every template's cost under both configurations
//!    through the [`CostBackend`] seam, giving a per-template relative
//!    degradation `r_t`;
//! 3. weight those degradations by a Zipf popularity profile under two
//!    alignments — **hot** (the most-degraded template carries the
//!    largest traffic share) and **cold** (it carries the smallest).
//!
//! The weighted AD is a `π_t·f_t·c_b(t)`-weighted mean of the `r_t`, so
//! by the rearrangement/exchange inequality the hot alignment is the
//! exact maximum over share permutations and the cold alignment the
//! minimum: `ad_hot ≥ ad_cold` always, and the *gap* is the economics —
//! how much more an equal-budget attack is worth when it lands on hot
//! traffic. `examples/skewed_attack.rs` and the `scale` bench report
//! it; `results/BENCH_scale.json` commits it.
//!
//! [`sampled_window_workload`] is the streaming glue: one window of a
//! [`TrafficModel`] sampled into a frequency-weighted workload, pure in
//! `(model, generator, window, seed)` so `--jobs` determinism carries
//! over unchanged.

use crate::experiment::{make_injector, normal_workload, CellConfig, InjectorKind};
use crate::harness::{strike, update, Update};
use crate::runner::CellSeed;
use pipa_cost::{CostBackend, CostResult};
use pipa_ia::{AdvisorSpec, BuildCtx};
use pipa_sim::{SimResult, Workload};
use pipa_workload::{generator::WorkloadGenerator, Popularity, TrafficModel};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// One window of a traffic model, sampled into a frequency-weighted
/// [`Workload`]: the window's load (diurnal × arrivals × `base` rate)
/// decides how many queries arrive, the popularity CDFs decide which
/// pool entries they hit, and the draws aggregate into per-query
/// frequencies. Pure in `(model, gen, window, base, seed)`.
pub fn sampled_window_workload(
    model: &TrafficModel,
    gen: &WorkloadGenerator,
    window: u64,
    base: usize,
    seed: u64,
) -> SimResult<(Workload, usize)> {
    let traffic = model.window_traffic(gen, window, seed)?;
    let load = model.window_load(window, base, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ window.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (w, _) = traffic.sample_workload(load, &mut rng);
    Ok((w, load))
}

/// The hot-vs-cold poisoning-economics measurement of one attack.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PoisonEconomics {
    /// Advisor display name.
    pub advisor: String,
    /// Injector display name.
    pub injector: String,
    /// Zipf exponent of the popularity profile the attack is priced
    /// under.
    pub exponent: f64,
    /// Templates (= normal-workload entries) measured.
    pub templates: usize,
    /// Per-template relative degradation `(c_p − c_b) / c_b`, in
    /// normal-workload order.
    pub per_template_ad: Vec<f64>,
    /// Uniform-traffic AD (the paper's traffic-blind number).
    pub ad_uniform: f64,
    /// Weighted AD when the most-degraded templates carry the *largest*
    /// Zipf shares (attack lands on hot traffic).
    pub ad_hot: f64,
    /// Weighted AD when the most-degraded templates carry the
    /// *smallest* Zipf shares (attack lands on cold traffic).
    pub ad_cold: f64,
    /// Traffic share of the hottest template under the profile.
    pub hot_share: f64,
    /// Run seed.
    pub seed: u64,
}

impl PoisonEconomics {
    /// `ad_hot − ad_cold`: what landing the same equal-budget attack on
    /// hot rather than cold traffic is worth, in AD points.
    pub fn hot_premium(&self) -> f64 {
        self.ad_hot - self.ad_cold
    }
}

/// Weighted AD of fixed per-template `(delta, base)` pairs under a
/// share permutation: `Σ π_i·d_i / Σ π_i·b_i` with `π` assigned by
/// `order` (shares are descending; `order[i]` names the template that
/// receives the `i`-th largest share).
fn weighted_ad(shares: &[f64], order: &[usize], delta: &[f64], base: &[f64]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &t) in order.iter().enumerate() {
        num += shares[i] * delta[t];
        den += shares[i] * base[t];
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run one attack and price it under skewed traffic: the hot-vs-cold
/// poisoning-economics axis (module docs for the full pipeline). The
/// same `(cost, cfg, seed)` always yields the bit-identical result.
pub fn poisoning_economics(
    cost: &dyn CostBackend,
    cfg: &CellConfig,
    advisor: impl Into<AdvisorSpec>,
    injector_kind: InjectorKind,
    exponent: f64,
    seed: CellSeed,
) -> CostResult<PoisonEconomics> {
    // One attack, end to end, keeping both configurations.
    let normal = normal_workload(cfg, seed.get());
    let mut advisor = advisor
        .into()
        .build_with(BuildCtx::new(cfg.preset, seed.get()))?;
    let mut injector = make_injector(injector_kind, cfg, seed);
    update(advisor.as_mut(), cost, &normal, Update::Train)?;
    let clean_cfg = advisor.recommend(cost, &normal)?;
    let struck = strike(
        advisor.as_mut(),
        cost,
        Some(injector.as_mut()),
        cfg.injection_size,
        seed.get(),
        &normal,
        None,
    )?;
    update(advisor.as_mut(), cost, &struck.observed, Update::Retrain)?;
    let poisoned_cfg = advisor.recommend(cost, &normal)?;

    // Per-template costs under both configurations, through the seam.
    let mut base = Vec::with_capacity(normal.len());
    let mut delta = Vec::with_capacity(normal.len());
    let mut per_template_ad = Vec::with_capacity(normal.len());
    for wq in normal.iter() {
        let f = wq.frequency as f64;
        let b = f * cost.query_cost(&wq.query, &clean_cfg)?;
        let p = f * cost.query_cost(&wq.query, &poisoned_cfg)?;
        base.push(b);
        delta.push(p - b);
        per_template_ad.push(if b == 0.0 { 0.0 } else { (p - b) / b });
    }
    let n = base.len();

    // Templates ranked most-degraded first (ties broken by index so the
    // ordering — and therefore the result — is fully deterministic).
    let mut by_damage: Vec<usize> = (0..n).collect();
    by_damage.sort_by(|&a, &b| {
        per_template_ad[b]
            .partial_cmp(&per_template_ad[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let reversed: Vec<usize> = by_damage.iter().rev().copied().collect();

    // Zipf shares, descending by construction (rank 0 is the largest).
    let pop = Popularity::Zipf { exponent };
    let shares: Vec<f64> = (0..n).map(|r| pop.share(r, n)).collect();
    let uniform: Vec<f64> = vec![1.0 / n.max(1) as f64; n];
    let identity: Vec<usize> = (0..n).collect();

    Ok(PoisonEconomics {
        advisor: advisor.name(),
        injector: injector.name().to_string(),
        exponent,
        templates: n,
        ad_uniform: weighted_ad(&uniform, &identity, &delta, &base),
        ad_hot: weighted_ad(&shares, &by_damage, &delta, &base),
        ad_cold: weighted_ad(&shares, &reversed, &delta, &base),
        hot_share: shares.first().copied().unwrap_or(0.0),
        per_template_ad,
        seed: seed.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::build_db;
    use pipa_ia::{AdvisorKind, SpeedPreset, TrajectoryMode};
    use pipa_workload::Benchmark;

    fn quick_cfg() -> CellConfig {
        let mut cfg = CellConfig::quick(Benchmark::TpcH);
        cfg.preset = SpeedPreset::Test;
        cfg.probe_epochs = 2;
        cfg.injection_size = 6;
        cfg
    }

    #[test]
    fn weighted_ad_alignment_brackets_every_permutation() {
        // Synthetic three-template economy: damage concentrated on t0.
        let delta = [9.0, 1.0, 0.0];
        let base = [10.0, 10.0, 10.0];
        let shares = [0.6, 0.3, 0.1];
        let hot = weighted_ad(&shares, &[0, 1, 2], &delta, &base);
        let cold = weighted_ad(&shares, &[2, 1, 0], &delta, &base);
        let mid = weighted_ad(&shares, &[1, 0, 2], &delta, &base);
        assert!(hot > mid && mid > cold, "hot {hot} mid {mid} cold {cold}");
        // Uniform shares are permutation-invariant.
        let u = [1.0 / 3.0; 3];
        let a = weighted_ad(&u, &[0, 1, 2], &delta, &base);
        let b = weighted_ad(&u, &[2, 0, 1], &delta, &base);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn economics_is_deterministic_and_hot_dominates_cold() {
        let cfg = quick_cfg();
        let cost = build_db(&cfg);
        let run = || {
            poisoning_economics(
                &cost,
                &cfg,
                AdvisorKind::DbaBandit(TrajectoryMode::Best),
                InjectorKind::Tp,
                1.1,
                CellSeed::raw(7),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same inputs must price identically");
        assert_eq!(a.templates, 18);
        assert_eq!(a.per_template_ad.len(), 18);
        assert!(a.ad_hot.is_finite() && a.ad_cold.is_finite());
        // Exchange argument: hot alignment is the max over permutations.
        assert!(
            a.ad_hot >= a.ad_cold - 1e-12,
            "hot {} < cold {}",
            a.ad_hot,
            a.ad_cold
        );
        assert!((a.hot_premium() - (a.ad_hot - a.ad_cold)).abs() < 1e-15);
        assert!(a.hot_share > 1.0 / 18.0, "zipf head must beat uniform");
    }

    #[test]
    fn sampled_window_workload_is_pure_and_respects_load() {
        let gen = WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let model = TrafficModel::zipf(1.1, 4);
        let (w1, load1) = sampled_window_workload(&model, &gen, 3, 500, 11).unwrap();
        let (w2, load2) = sampled_window_workload(&model, &gen, 3, 500, 11).unwrap();
        assert_eq!(w1, w2);
        assert_eq!(load1, load2);
        assert_eq!(load1, 500, "flat curve, steady arrivals");
        let total: u64 = w1.iter().map(|wq| wq.frequency as u64).sum();
        assert_eq!(total, 500);
        // A different window re-draws.
        let (w3, _) = sampled_window_workload(&model, &gen, 4, 500, 11).unwrap();
        assert_ne!(w1, w3);
    }
}
