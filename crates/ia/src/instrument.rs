//! Observability decorator for advisors.
//!
//! [`Instrumented`] wraps any advisor and reports through `pipa-obs`
//! without the advisor knowing: wall-clock spans for train / retrain /
//! recommend on the metrics channel, and the per-trajectory reward trace
//! (a pure function of the advisor's seed, hence safe for the
//! deterministic trace channel) after every train/retrain. The factory
//! applies it to every advisor it builds, so all four learned advisors —
//! and any heuristic — get identical telemetry for free.

use crate::advisor::{ClearBoxAdvisor, IndexAdvisor};
use pipa_cost::{CostBackend, CostResult};
use pipa_obs::Event;
use pipa_sim::{ColumnId, IndexConfig, Workload};

/// An advisor wrapper that emits `pipa-obs` events around the inner
/// advisor's lifecycle calls. Transparent otherwise: same name, budget,
/// recommendations and reward trace as the inner advisor.
pub struct Instrumented<A> {
    inner: A,
}

impl<A> Instrumented<A> {
    /// Wrap an advisor.
    pub fn new(inner: A) -> Self {
        Instrumented { inner }
    }

    /// The wrapped advisor.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: IndexAdvisor> Instrumented<A> {
    /// Emit the inner advisor's reward trace (one reward per trajectory
    /// of the just-finished training run) on the deterministic channel.
    fn emit_reward_trace(&self, op: &'static str) {
        if !pipa_obs::is_recording() {
            return;
        }
        let trace = self.inner.reward_trace();
        if trace.is_empty() {
            return;
        }
        let mean = trace.iter().sum::<f64>() / trace.len() as f64;
        let last = *trace.last().expect("nonempty");
        pipa_obs::emit(
            Event::new("reward_trace")
                .field("op", op)
                .field("trajectories", trace.len())
                .field("mean", mean)
                .field("last", last)
                .field("rewards", trace.to_vec()),
        );
    }
}

impl<A: IndexAdvisor> IndexAdvisor for Instrumented<A> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        {
            let _span = pipa_obs::timer("advisor_train");
            self.inner.train(cost, workload)?;
        }
        self.emit_reward_trace("train");
        Ok(())
    }

    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        {
            let _span = pipa_obs::timer("advisor_retrain");
            self.inner.retrain(cost, workload)?;
        }
        self.emit_reward_trace("retrain");
        Ok(())
    }

    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        let _span = pipa_obs::timer("advisor_recommend");
        pipa_obs::count("recommend_calls", 1);
        self.inner.recommend(cost, workload)
    }

    fn budget(&self) -> usize {
        self.inner.budget()
    }

    fn is_trial_based(&self) -> bool {
        self.inner.is_trial_based()
    }

    fn reward_trace(&self) -> &[f64] {
        self.inner.reward_trace()
    }
}

impl<A: ClearBoxAdvisor> ClearBoxAdvisor for Instrumented<A> {
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        self.inner.column_preferences(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{AdvisorKind, TrajectoryMode};
    use crate::factory::{BuildCtx, SpeedPreset};
    use crate::heuristic::AutoAdminGreedy;
    use pipa_cost::SimBackend;
    use pipa_obs::{record_cell, CellCtx};
    use pipa_workload::Benchmark;
    use rand::SeedableRng;

    fn setup() -> (SimBackend, Workload) {
        let db = Benchmark::TpcH.database(1.0, None);
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g
            .normal(&mut rand_chacha::ChaCha8Rng::seed_from_u64(1))
            .unwrap();
        (SimBackend::new(db), w)
    }

    #[test]
    fn wrapper_is_transparent() {
        let (cost, w) = setup();
        let mut plain = AutoAdminGreedy::new(4);
        let mut wrapped = Instrumented::new(AutoAdminGreedy::new(4));
        plain.train(&cost, &w).unwrap();
        wrapped.train(&cost, &w).unwrap();
        assert_eq!(plain.name(), wrapped.name());
        assert_eq!(plain.budget(), wrapped.budget());
        assert_eq!(plain.is_trial_based(), wrapped.is_trial_based());
        assert_eq!(
            plain.recommend(&cost, &w).unwrap(),
            wrapped.recommend(&cost, &w).unwrap()
        );
    }

    #[test]
    fn lifecycle_calls_produce_timings_when_recording() {
        let (cost, w) = setup();
        let ((), trace) = record_cell(true, CellCtx::new(1), || {
            let mut ia = Instrumented::new(AutoAdminGreedy::new(4));
            ia.train(&cost, &w).unwrap();
            let _ = ia.recommend(&cost, &w).unwrap();
        });
        let timed: Vec<&String> = trace
            .metrics
            .iter()
            .filter(|l| l.contains("\"event\":\"timing\""))
            .collect();
        assert!(timed.iter().any(|l| l.contains("advisor_train")));
        assert!(timed.iter().any(|l| l.contains("advisor_recommend")));
        // Heuristics have no reward trace; nothing lands on the trace
        // channel except the flushed recommend counter.
        assert!(trace.trace.iter().all(|l| !l.contains("reward_trace")));
        assert!(trace
            .trace
            .iter()
            .any(|l| l.contains("\"name\":\"recommend_calls\"")));
    }

    #[test]
    fn learned_advisor_reward_trace_reaches_the_trace_channel() {
        let (cost, w) = setup();
        let ((), trace) = record_cell(true, CellCtx::new(2), || {
            let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best)
                .build_with(BuildCtx::new(SpeedPreset::Test, 7));
            ia.train(&cost, &w).unwrap();
        });
        let reward_lines: Vec<&String> = trace
            .trace
            .iter()
            .filter(|l| l.contains("\"event\":\"reward_trace\""))
            .collect();
        assert_eq!(reward_lines.len(), 1);
        assert!(reward_lines[0].contains("\"op\":\"train\""));
        assert!(reward_lines[0].contains("\"rewards\":["));
    }
}
