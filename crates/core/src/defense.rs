//! Defenses the paper's insights suggest (§1, §8): the stated purpose of
//! the stress test is to help DBAs "deploy a more robust learning-based
//! IA". This module operationalizes two deployment-side mitigations and
//! lets the experiments quantify how much of PIPA's degradation each one
//! removes.
//!
//! * [`CanaryGuard`] — **retraining canary**: before accepting an updated
//!   model, compare the cost of a held-out canary workload under the new
//!   recommendation against the pre-update baseline; roll back when it
//!   regresses beyond a tolerance. This directly targets Definition 2.4:
//!   a toxic injection *is* a canary regression.
//! * [`ProvenanceFilter`] — **training-set screening**: drop training
//!   queries whose filter-column profile diverges from the historical
//!   workload's (PIPA's injections must touch mid-ranked columns the
//!   normal workload rarely touches — that is also their fingerprint).

use pipa_cost::{finite_cost, CostBackend, CostResult};
use pipa_ia::ClearBoxAdvisor;
use pipa_sim::{IndexConfig, Workload};

/// Retraining canary: accept an update only if the canary workload does
/// not regress.
pub struct CanaryGuard {
    /// Relative regression tolerance (e.g. 0.02 = accept up to +2%).
    pub tolerance: f64,
}

/// Outcome of a guarded retraining.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedOutcome {
    /// Canary cost before the update.
    pub cost_before: f64,
    /// Canary cost after the update (whether or not it was kept).
    pub cost_after: f64,
    /// Whether the update was rolled back.
    pub rolled_back: bool,
    /// The configuration in force after the guard's decision.
    pub final_config: IndexConfig,
    /// The pre-update recommendation — what a rollback reinstates
    /// (`tests/defense_properties.rs` pins `final_config ==
    /// previous_config` exactly on every rollback).
    pub previous_config: IndexConfig,
}

impl CanaryGuard {
    /// Guard with the given tolerance.
    pub fn new(tolerance: f64) -> Self {
        CanaryGuard { tolerance }
    }

    /// Retrain `advisor` on `training`, but keep the update only if the
    /// `canary` workload's cost under the new recommendation stays within
    /// tolerance of the pre-update cost. On rollback the pre-update
    /// recommendation is reinstated as the deployed configuration (the
    /// advisor's parameters stay updated — the *deployment* is guarded,
    /// matching how index changes ship in practice). A canary cost that
    /// is NaN, infinite or negative is [`pipa_cost::CostError::NonFinite`]:
    /// NaN would make the regression test false and accept the update
    /// unchecked.
    pub fn retrain_guarded(
        &self,
        advisor: &mut dyn ClearBoxAdvisor,
        cost: &dyn CostBackend,
        training: &Workload,
        canary: &Workload,
    ) -> CostResult<GuardedOutcome> {
        let before_cfg = advisor.recommend(cost, canary)?;
        let cost_before = finite_cost(
            cost.name(),
            cost.executed_workload_cost(canary, &before_cfg)?,
        )?;
        advisor.retrain(cost, training)?;
        let after_cfg = advisor.recommend(cost, canary)?;
        let cost_after = finite_cost(
            cost.name(),
            cost.executed_workload_cost(canary, &after_cfg)?,
        )?;
        let rolled_back = cost_after > cost_before * (1.0 + self.tolerance);
        Ok(GuardedOutcome {
            cost_before,
            cost_after,
            rolled_back,
            final_config: if rolled_back {
                before_cfg.clone()
            } else {
                after_cfg
            },
            previous_config: before_cfg,
        })
    }
}

/// Provenance filter: screen a training set against a reference workload
/// profile before retraining.
pub struct ProvenanceFilter {
    /// Maximum fraction of a query's filter columns allowed to be
    /// novel (absent from the reference profile) before it is dropped.
    pub max_novel_fraction: f64,
}

impl Default for ProvenanceFilter {
    fn default() -> Self {
        ProvenanceFilter {
            max_novel_fraction: 0.5,
        }
    }
}

impl ProvenanceFilter {
    /// Keep only queries whose filter columns mostly appear in the
    /// reference workload's historical column profile. Returns the
    /// filtered workload and how many queries were dropped.
    pub fn screen(
        &self,
        reference: &Workload,
        training: &Workload,
        num_columns: usize,
    ) -> (Workload, usize) {
        let profile = reference.filter_column_frequencies(num_columns);
        let mut kept = Workload::new();
        let mut dropped = 0usize;
        for wq in training.iter() {
            let cols = wq.query.filter_columns();
            if cols.is_empty() {
                kept.push(wq.query.clone(), wq.frequency);
                continue;
            }
            let novel = cols.iter().filter(|c| profile[c.0 as usize] == 0.0).count();
            if (novel as f64 / cols.len() as f64) > self.max_novel_fraction {
                dropped += 1;
            } else {
                kept.push(wq.query.clone(), wq.frequency);
            }
        }
        (kept, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{build_db, make_injector, normal_workload, CellConfig, InjectorKind};
    use crate::harness::StressTest;
    use crate::runner::CellSeed;
    use crate::stream::DefensePolicy;
    use pipa_ia::{AdvisorKind, BuildCtx, SpeedPreset, TrajectoryMode};
    use pipa_workload::Benchmark;

    fn cfg() -> CellConfig {
        let mut cfg = CellConfig::quick(Benchmark::TpcH);
        cfg.preset = SpeedPreset::Test;
        cfg.probe_epochs = 3;
        cfg.injection_size = 10;
        cfg
    }

    #[test]
    fn canary_guard_bounds_degradation() {
        let cfg = cfg();
        let cost = build_db(&cfg);
        let normal = normal_workload(&cfg, 51);
        let mut advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best)
            .build_with(BuildCtx::new(SpeedPreset::Test, 51));
        let seed = CellSeed::raw(51);
        let mut injector = make_injector(InjectorKind::Pipa, &cfg, seed);
        let outcome = StressTest::new(&cost, &normal)
            .injection_size(cfg.injection_size)
            .seed(seed)
            .defense(DefensePolicy::Canary { tolerance: 0.02 })
            .run(advisor.as_mut(), injector.as_mut())
            .unwrap();
        // The guard caps the deployed regression at roughly the tolerance.
        assert!(
            outcome.ad <= 0.05,
            "guarded AD {} exceeds the tolerance band",
            outcome.ad
        );
    }

    /// A simulator backend whose executed cost at call `bad_at` (counted
    /// from 0) answers `bad`; every other cost is correct, so the
    /// advisor trains and recommends as usual.
    struct BadExecuted<'a> {
        inner: &'a pipa_cost::SimBackend,
        bad_at: usize,
        bad: f64,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl CostBackend for BadExecuted<'_> {
        fn name(&self) -> &'static str {
            "bad-executed"
        }
        fn catalog(&self) -> pipa_cost::Catalog<'_> {
            self.inner.catalog()
        }
        fn query_cost(&self, q: &pipa_sim::Query, cfg: &IndexConfig) -> CostResult<f64> {
            self.inner.query_cost(q, cfg)
        }
        fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
            self.inner.workload_cost(w, cfg)
        }
        fn session_begin(&self, w: &Workload) -> CostResult<pipa_cost::CostSession> {
            self.inner.session_begin(w)
        }
        fn session_total(&self, w: &Workload, s: &pipa_cost::CostSession) -> CostResult<f64> {
            self.inner.session_total(w, s)
        }
        fn session_preview_add(
            &self,
            w: &Workload,
            s: &pipa_cost::CostSession,
            cfg_after: &IndexConfig,
            idx: &pipa_sim::Index,
        ) -> CostResult<f64> {
            self.inner.session_preview_add(w, s, cfg_after, idx)
        }
        fn session_add(
            &self,
            w: &Workload,
            s: &mut pipa_cost::CostSession,
            cfg_after: &IndexConfig,
            idx: &pipa_sim::Index,
        ) -> CostResult<f64> {
            self.inner.session_add(w, s, cfg_after, idx)
        }
        fn executed_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
            let good = self.inner.executed_workload_cost(w, cfg)?;
            let n = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(if n == self.bad_at { self.bad } else { good })
        }
        fn hypo_create(&self, idx: &pipa_sim::Index) -> CostResult<()> {
            self.inner.hypo_create(idx)
        }
        fn hypo_drop(&self, idx: &pipa_sim::Index) -> CostResult<()> {
            self.inner.hypo_drop(idx)
        }
        fn hypo_clear(&self) -> CostResult<()> {
            self.inner.hypo_clear()
        }
        fn hypo_config(&self) -> CostResult<IndexConfig> {
            self.inner.hypo_config()
        }
    }

    #[test]
    fn canary_costs_must_be_finite() {
        let cfg = cfg();
        let sim = build_db(&cfg);
        let normal = normal_workload(&cfg, 59);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            // The pre-update canary cost, then the post-update one.
            for bad_at in 0..2 {
                let cost = BadExecuted {
                    inner: &sim,
                    bad_at,
                    bad,
                    calls: Default::default(),
                };
                let mut advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best)
                    .build_with(BuildCtx::new(SpeedPreset::Test, 59));
                advisor.train(&cost, &normal).unwrap();
                let got = CanaryGuard::new(0.02).retrain_guarded(
                    advisor.as_mut(),
                    &cost,
                    &normal,
                    &normal,
                );
                match got {
                    Err(pipa_cost::CostError::NonFinite { backend, value }) => {
                        assert_eq!(backend, "bad-executed");
                        assert_eq!(value.to_bits(), bad.to_bits(), "call {bad_at}");
                    }
                    other => panic!("canary cost {bad} at call {bad_at}: got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn provenance_filter_drops_extraneous_queries() {
        let cfg = cfg();
        let cost = build_db(&cfg);
        let normal = normal_workload(&cfg, 53);
        let mut advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best)
            .build_with(BuildCtx::new(SpeedPreset::Test, 53));
        advisor.train(&cost, &normal).unwrap();
        let mut injector = make_injector(InjectorKind::Pipa, &cfg, CellSeed::raw(53));
        let injection = injector.build(advisor.as_mut(), &cost, 10, 53).unwrap();
        let training = normal.union(&injection);
        let filter = ProvenanceFilter::default();
        let num_columns = cost.database().schema().num_columns();
        let (screened, dropped) = filter.screen(&normal, &training, num_columns);
        // The normal queries always survive their own profile.
        assert!(screened.len() >= normal.len());
        // A PIPA injection targets mid-ranked columns the normal workload
        // does not filter on — most of it should be caught.
        assert!(
            dropped * 2 >= injection.len(),
            "screen caught {dropped}/{} injected queries",
            injection.len()
        );
    }

    #[test]
    fn screening_keeps_benign_template_injections() {
        // TP injections instantiate the *same templates* as the normal
        // workload; a provenance filter must not starve retraining of
        // legitimate drift.
        let cfg = cfg();
        let cost = build_db(&cfg);
        let normal = normal_workload(&cfg, 57);
        let mut advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best)
            .build_with(BuildCtx::new(SpeedPreset::Test, 57));
        advisor.train(&cost, &normal).unwrap();
        let mut injector = make_injector(InjectorKind::Tp, &cfg, CellSeed::raw(57));
        let injection = injector.build(advisor.as_mut(), &cost, 10, 57).unwrap();
        let filter = ProvenanceFilter::default();
        let num_columns = cost.database().schema().num_columns();
        let (_, dropped) = filter.screen(&normal, &injection, num_columns);
        assert!(
            dropped <= injection.len() / 3,
            "benign template queries over-filtered: {dropped}/{}",
            injection.len()
        );
    }
}
