//! Non-learned heuristic advisors.
//!
//! * [`AutoAdminGreedy`] — the classic AutoAdmin-style greedy enumerator:
//!   repeatedly add the single-column candidate with the largest marginal
//!   workload benefit until the budget is exhausted. It doubles as the
//!   *reference optimum* for evaluating how far a poisoned learned IA has
//!   drifted.
//! * [`DropHeuristic`] — start from every candidate and drop the index
//!   whose removal hurts the least until the budget holds (Whang-style).
//!
//! Heuristic advisors ignore training entirely, so their Absolute
//! Degradation is zero by construction (paper §2.1: "For heuristic IAs,
//! the AD score is always zero") — a property the integration tests pin.

use crate::advisor::IndexAdvisor;
use pipa_cost::{finite_cost, CostBackend, CostResult};
use pipa_sim::{ConfigDelta, Index, IndexConfig, Workload};

/// AutoAdmin-style greedy index selection.
#[derive(Debug, Clone)]
pub struct AutoAdminGreedy {
    budget: usize,
}

impl AutoAdminGreedy {
    /// Greedy advisor with an index-count budget.
    pub fn new(budget: usize) -> Self {
        AutoAdminGreedy { budget }
    }
}

impl IndexAdvisor for AutoAdminGreedy {
    fn name(&self) -> String {
        "AutoAdmin".to_string()
    }

    fn train(&mut self, _cost: &dyn CostBackend, _workload: &Workload) -> CostResult<()> {
        Ok(())
    }

    fn retrain(&mut self, _cost: &dyn CostBackend, _workload: &Workload) -> CostResult<()> {
        Ok(())
    }

    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        let candidates = workload.candidate_columns();
        let mut cfg = IndexConfig::empty();
        // Hold one incremental session open across the greedy rounds:
        // each candidate trial is a single-index delta preview against
        // the committed prefix (bit-identical to full re-costing).
        let mut session = cost.session_begin(workload)?;
        let mut current = finite_cost(cost.name(), cost.session_total(workload, &session)?)?;
        for _ in 0..self.budget {
            let mut best: Option<(f64, Index)> = None;
            for &c in &candidates {
                let idx = Index::single(c);
                if cfg.indexes().contains(&idx) {
                    continue;
                }
                let mut trial = cfg.clone();
                trial.add(idx.clone());
                let trial_cost = finite_cost(
                    cost.name(),
                    cost.session_preview_add(workload, &session, &trial, &idx)?,
                )?;
                if trial_cost < current && best.as_ref().map(|b| trial_cost < b.0).unwrap_or(true) {
                    best = Some((trial_cost, idx));
                }
            }
            match best {
                Some((best_cost, idx)) => {
                    cfg.add(idx.clone());
                    cost.session_add(workload, &mut session, &cfg, &idx)?;
                    current = best_cost;
                }
                None => break,
            }
        }
        Ok(cfg)
    }

    fn budget(&self) -> usize {
        self.budget
    }

    fn is_trial_based(&self) -> bool {
        false
    }
}

/// Drop heuristic: start wide, drop the least useful until within budget.
#[derive(Debug, Clone)]
pub struct DropHeuristic {
    budget: usize,
}

impl DropHeuristic {
    /// Drop-based advisor with an index-count budget.
    pub fn new(budget: usize) -> Self {
        DropHeuristic { budget }
    }
}

impl IndexAdvisor for DropHeuristic {
    fn name(&self) -> String {
        "Drop".to_string()
    }

    fn train(&mut self, _cost: &dyn CostBackend, _workload: &Workload) -> CostResult<()> {
        Ok(())
    }

    fn retrain(&mut self, _cost: &dyn CostBackend, _workload: &Workload) -> CostResult<()> {
        Ok(())
    }

    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        let mut cfg: IndexConfig = workload
            .candidate_columns()
            .into_iter()
            .map(Index::single)
            .collect();
        while cfg.len() > self.budget {
            // Drop the index whose removal increases cost the least. Each
            // trial is a single-index removal delta answered from the
            // benefit matrix (bit-identical to full re-costing).
            let mut best: Option<(f64, Index)> = None;
            for idx in cfg.indexes().to_vec() {
                let trial_cost = finite_cost(
                    cost.name(),
                    cost.delta_workload_cost(workload, &cfg, &ConfigDelta::Remove(idx.clone()))?,
                )?;
                if best.as_ref().map(|b| trial_cost < b.0).unwrap_or(true) {
                    best = Some((trial_cost, idx));
                }
            }
            let (_, drop) = best.expect("nonempty config");
            cfg.remove(&drop);
        }
        Ok(cfg)
    }

    fn budget(&self) -> usize {
        self.budget
    }

    fn is_trial_based(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_cost::{workload_benefit, SimBackend};
    use pipa_workload::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (SimBackend, Workload) {
        let db = Benchmark::TpcH.database(1.0, None);
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        (SimBackend::new(db), w)
    }

    #[test]
    fn greedy_respects_budget_and_helps() {
        let (cost, w) = setup();
        let mut ia = AutoAdminGreedy::new(4);
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(cfg.len() <= 4 && !cfg.is_empty());
        assert!(workload_benefit(&cost, &w, &cfg).unwrap() > 0.1);
    }

    #[test]
    fn greedy_is_deterministic_and_training_free() {
        let (cost, w) = setup();
        let mut ia = AutoAdminGreedy::new(4);
        let before = ia.recommend(&cost, &w).unwrap();
        // "Training" on anything changes nothing.
        ia.train(&cost, &w).unwrap();
        ia.retrain(&cost, &w).unwrap();
        let after = ia.recommend(&cost, &w).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn drop_heuristic_respects_budget() {
        let (cost, w) = setup();
        let mut ia = DropHeuristic::new(4);
        let cfg = ia.recommend(&cost, &w).unwrap();
        assert!(cfg.len() <= 4);
        assert!(workload_benefit(&cost, &w, &cfg).unwrap() > 0.0);
    }

    #[test]
    fn greedy_matches_a_scalar_full_recompute_reimplementation() {
        // The incremental session inside `recommend` must reproduce the
        // original full-re-costing greedy loop decision for decision.
        let (cost, w) = setup();
        let incremental = AutoAdminGreedy::new(4).recommend(&cost, &w).unwrap();
        let candidates = w.candidate_columns();
        let mut scalar = IndexConfig::empty();
        let mut current = cost.workload_cost(&w, &scalar).unwrap();
        for _ in 0..4 {
            let mut best: Option<(f64, Index)> = None;
            for &c in &candidates {
                let idx = Index::single(c);
                if scalar.indexes().contains(&idx) {
                    continue;
                }
                let mut trial = scalar.clone();
                trial.add(idx.clone());
                let trial_cost = cost.workload_cost(&w, &trial).unwrap();
                if trial_cost < current && best.as_ref().map(|b| trial_cost < b.0).unwrap_or(true) {
                    best = Some((trial_cost, idx));
                }
            }
            match best {
                Some((best_cost, idx)) => {
                    scalar.add(idx);
                    current = best_cost;
                }
                None => break,
            }
        }
        assert_eq!(incremental, scalar);
    }

    #[test]
    fn greedy_at_least_matches_drop() {
        // Greedy forward selection is usually at least as good as drop on
        // these workloads (both are upper-bounded by the same candidates).
        let (cost, w) = setup();
        let g = AutoAdminGreedy::new(4).recommend(&cost, &w).unwrap();
        let d = DropHeuristic::new(4).recommend(&cost, &w).unwrap();
        let bg = workload_benefit(&cost, &w, &g).unwrap();
        let bd = workload_benefit(&cost, &w, &d).unwrap();
        assert!(bg >= bd - 0.05, "greedy {bg} drop {bd}");
    }

    #[test]
    fn invalid_costs_at_the_seam_are_typed_errors() {
        use crate::dqn::tests::{assert_non_finite, Faulty, Seam};
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let (sim, w) = setup();
            let total = Faulty::new(sim, Seam::Total, 0, Some(bad));
            let got = AutoAdminGreedy::new(3).recommend(&total, &w);
            assert_non_finite(got, bad, "AutoAdmin session total");
            let preview = Faulty::new(total.inner, Seam::Preview, 2, Some(bad));
            let got = AutoAdminGreedy::new(3).recommend(&preview, &w);
            assert_non_finite(got, bad, "AutoAdmin preview");
            // `delta_workload_cost` reaches the stub's `workload_cost`.
            let delta = Faulty::new(preview.inner, Seam::Base, 1, Some(bad));
            let got = DropHeuristic::new(2).recommend(&delta, &w);
            assert_non_finite(got, bad, "Drop delta");
        }
    }
}
