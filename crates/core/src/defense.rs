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

use pipa_cost::{CostBackend, CostResult};
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
    /// matching how index changes ship in practice).
    pub fn retrain_guarded(
        &self,
        advisor: &mut dyn ClearBoxAdvisor,
        cost: &dyn CostBackend,
        training: &Workload,
        canary: &Workload,
    ) -> CostResult<GuardedOutcome> {
        let before_cfg = advisor.recommend(cost, canary)?;
        let cost_before = cost.executed_workload_cost(canary, &before_cfg)?;
        advisor.retrain(cost, training)?;
        let after_cfg = advisor.recommend(cost, canary)?;
        let cost_after = cost.executed_workload_cost(canary, &after_cfg)?;
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
