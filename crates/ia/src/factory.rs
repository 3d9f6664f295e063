//! Construction of advisors with speed presets.
//!
//! The paper runs 400 trajectories per workload (20 for DBABandit); that
//! is [`SpeedPreset::Paper`]. [`SpeedPreset::Quick`] shrinks trajectory
//! counts ~5× for CI and interactive use — the attack dynamics survive
//! (all experiment binaries accept `--quick`), only the variance grows.
//!
//! The one constructor is [`crate::registry::AdvisorSpec::build`] (or
//! `build_with` and a [`BuildCtx`]): every kind id, built-in or
//! user-registered, resolves through the target registry.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use crate::bandit::BanditConfig;
use crate::dqn::DqnConfig;
use crate::drlindex::DrlIndexConfig;
use crate::swirl::SwirlConfig;

/// How much compute to spend on training/trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedPreset {
    /// Paper-scale trajectory counts (400 / 20).
    Paper,
    /// ~5× fewer trajectories; same dynamics, more variance.
    Quick,
    /// Tiny counts for unit tests.
    Test,
}

impl SpeedPreset {
    pub(crate) fn dqn(self, seed: u64) -> DqnConfig {
        let mut c = match self {
            SpeedPreset::Paper => DqnConfig::default(),
            SpeedPreset::Quick => DqnConfig {
                train_trajectories: 100,
                trial_trajectories: 40,
                ..DqnConfig::default()
            },
            SpeedPreset::Test => DqnConfig::fast(),
        };
        c.seed = seed;
        c
    }

    pub(crate) fn drl(self, seed: u64) -> DrlIndexConfig {
        let mut c = match self {
            SpeedPreset::Paper => DrlIndexConfig::default(),
            SpeedPreset::Quick => DrlIndexConfig {
                train_trajectories: 250,
                trial_trajectories: 40,
                ..DrlIndexConfig::default()
            },
            SpeedPreset::Test => DrlIndexConfig::fast(),
        };
        c.seed = seed;
        c
    }

    pub(crate) fn bandit(self, seed: u64) -> BanditConfig {
        let mut c = match self {
            SpeedPreset::Paper => BanditConfig::default(),
            SpeedPreset::Quick => BanditConfig::default(),
            SpeedPreset::Test => BanditConfig::fast(),
        };
        c.seed = seed;
        c
    }

    pub(crate) fn swirl(self, seed: u64) -> SwirlConfig {
        let mut c = match self {
            SpeedPreset::Paper => SwirlConfig::default(),
            SpeedPreset::Quick => SwirlConfig {
                train_episodes: 200,
                ..SwirlConfig::default()
            },
            SpeedPreset::Test => SwirlConfig::fast(),
        };
        c.seed = seed;
        c
    }
}

/// Typed construction context for
/// [`crate::registry::AdvisorSpec::build_with`].
///
/// Replaces the positional `(preset, seed)` pair — which silently
/// transposed when both arguments were integers-in-spirit — with named
/// fields, mirroring the `StressTest` builder migration. The trajectory
/// mode is the spec's ([`crate::registry::AdvisorSpec::mode`]). The
/// context is `Copy`, so one value can seed a whole tenant fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildCtx {
    /// Training/trial compute preset.
    pub preset: SpeedPreset,
    /// RNG seed for the advisor's own stochastic machinery.
    pub seed: u64,
}

impl BuildCtx {
    /// Context with the given preset and seed.
    pub fn new(preset: SpeedPreset, seed: u64) -> Self {
        BuildCtx { preset, seed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{IndexAdvisor, TrajectoryMode};
    use crate::registry::AdvisorSpec;

    #[test]
    fn every_kind_constructs() {
        for spec in AdvisorSpec::paper_variants() {
            let ia = spec
                .build_with(BuildCtx::new(SpeedPreset::Test, 1))
                .unwrap();
            assert_eq!(ia.name(), spec.label());
            assert_eq!(ia.budget(), 4);
        }
    }

    #[test]
    fn opaque_coercion_preserves_the_surface() {
        // `Box<dyn ClearBoxAdvisor>` does not unsize to `Box<dyn
        // IndexAdvisor>`, but the blanket impl makes the box itself an
        // opaque-box advisor with the same surface.
        let clear = AdvisorSpec::new("swirl")
            .build_with(BuildCtx::new(SpeedPreset::Test, 1))
            .unwrap();
        let name = clear.name();
        let budget = clear.budget();
        let ia: Box<dyn IndexAdvisor> = Box::new(clear);
        assert_eq!(ia.name(), name);
        assert_eq!(ia.budget(), budget);
        assert!(!ia.is_trial_based());
    }

    #[test]
    fn spec_mode_rewrites_the_trajectory_mode() {
        let ctx = BuildCtx::new(SpeedPreset::Test, 1);
        let ia = AdvisorSpec::new("dbabandit")
            .mode(TrajectoryMode::MeanLast(10))
            .build_with(ctx)
            .unwrap();
        assert_eq!(ia.name(), "DBAbandit-m");
        // SWIRL has no trajectory mode; the setting is ignored.
        let swirl = AdvisorSpec::new("swirl")
            .mode(TrajectoryMode::MeanLast(10))
            .build_with(ctx)
            .unwrap();
        assert_eq!(swirl.name(), "SWIRL");
    }

    #[test]
    fn trial_basedness_matches_paper() {
        for spec in AdvisorSpec::paper_variants() {
            let ia = spec
                .build_with(BuildCtx::new(SpeedPreset::Test, 1))
                .unwrap();
            let expect = spec.kind != "swirl";
            assert_eq!(ia.is_trial_based(), expect, "{}", ia.name());
        }
    }
}
