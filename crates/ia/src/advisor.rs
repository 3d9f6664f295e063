//! The opaque-box advisor interface.
//!
//! PIPA (and any user of an index advisor) sees exactly this surface:
//! train on a workload, retrain when the workload changes, recommend
//! indexes for a workload. Nothing about the learning algorithm leaks
//! through — which is what makes the paper's evaluator "opaque-box".
//!
//! The clear-box escape hatch [`ClearBoxAdvisor`] exists only for the
//! paper's P-C baseline (§6.2), which reads the victim's actual internal
//! column preferences to build a near-optimal comparison attack.

use pipa_cost::{CostBackend, CostResult};
use pipa_sim::{ColumnId, IndexConfig, Workload};

/// Trajectory-selection variant (paper §6.1): `-b` keeps the best
/// trajectory's parameters, `-m` keeps the average parameters of the last
/// trajectories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrajectoryMode {
    /// Keep the best trajectory (`IA-b`).
    Best,
    /// Keep the mean of the last `n` trajectories (`IA-m`).
    MeanLast(usize),
}

impl TrajectoryMode {
    /// Suffix used in advisor names (`"b"` / `"m"`).
    pub fn suffix(self) -> &'static str {
        match self {
            TrajectoryMode::Best => "b",
            TrajectoryMode::MeanLast(_) => "m",
        }
    }
}

/// A learning-based (or heuristic) index advisor.
///
/// `Send` is a supertrait: a boxed advisor is tenant state that the
/// `pipa-serve` scheduler migrates between worker threads, and every
/// implementor is plain owned data (networks, RNGs, traces).
pub trait IndexAdvisor: Send {
    /// Display name, e.g. `"DQN-b"`.
    fn name(&self) -> String;

    /// Train from scratch on a workload (the paper's initial training on
    /// the target workload `W`).
    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()>;

    /// Update on a new training workload *without* resetting parameters
    /// (the paper's re-training on `{W, Ŵ}`; learned advisors fine-tune,
    /// heuristics ignore this).
    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()>;

    /// Recommend an index configuration for a workload. Trial-based
    /// advisors run trial trajectories here; one-off advisors predict
    /// directly.
    fn recommend(&mut self, cost: &dyn CostBackend, workload: &Workload)
        -> CostResult<IndexConfig>;

    /// Index-count budget `B`.
    fn budget(&self) -> usize;

    /// Whether inference runs trial trajectories (`true`) or predicts in
    /// one shot (`false`). Affects how the stress test interprets
    /// robustness (paper §6.2 "trial-based vs one-off").
    fn is_trial_based(&self) -> bool;

    /// Reward trace of the most recent training/retraining run, one entry
    /// per trajectory (used to reproduce Figure 8's learning curves).
    fn reward_trace(&self) -> &[f64] {
        &[]
    }
}

/// Clear-box introspection for the P-C baseline: the advisor's actual
/// internal preference for each indexable column.
pub trait ClearBoxAdvisor: IndexAdvisor {
    /// `(column, internal weight)` pairs, higher = more preferred.
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)>;
}

/// Blanket coercion: a boxed clear-box advisor is itself an opaque-box
/// advisor, so `Box<dyn ClearBoxAdvisor>` erases to
/// `Box<dyn IndexAdvisor>` with one `Box::new` instead of a
/// hand-forwarding adapter.
impl IndexAdvisor for Box<dyn ClearBoxAdvisor> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        (**self).train(cost, workload)
    }
    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        (**self).retrain(cost, workload)
    }
    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        (**self).recommend(cost, workload)
    }
    fn budget(&self) -> usize {
        (**self).budget()
    }
    fn is_trial_based(&self) -> bool {
        (**self).is_trial_based()
    }
    fn reward_trace(&self) -> &[f64] {
        (**self).reward_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_variants_with_paper_labels() {
        let all = crate::registry::AdvisorSpec::paper_variants();
        assert_eq!(all.len(), 7);
        // Labels are the built advisors' names, and must spell the
        // paper's table headings.
        let labels: Vec<String> = all.iter().map(|a| a.label()).collect();
        assert_eq!(
            labels,
            vec![
                "DQN-b",
                "DQN-m",
                "DRLindex-b",
                "DRLindex-m",
                "DBAbandit-b",
                "DBAbandit-m",
                "SWIRL"
            ]
        );
    }

    #[test]
    fn trajectory_suffixes() {
        assert_eq!(TrajectoryMode::Best.suffix(), "b");
        assert_eq!(TrajectoryMode::MeanLast(100).suffix(), "m");
    }
}
