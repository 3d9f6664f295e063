//! The open target-construction seam: an [`AdvisorSpec`] resolved
//! through a process-wide registry of constructors.
//!
//! The *cost* side of the harness is open: every consumer speaks
//! `&dyn CostBackend`, so a new backend slots in without touching the
//! advisors. This module does the same for the *target* side. A
//! poisoning target is named by a kind id string inside a serializable
//! [`AdvisorSpec`] and constructed by the registry entry registered under
//! that id — so adding a target class is one [`register_target`] call,
//! not an edit to every `match` in core/serve/bench.
//!
//! The paper's built-in advisors are pre-registered under the ids
//! `"dqn"`, `"drlindex"`, `"dbabandit"`, `"swirl"`, plus the
//! retraining-free `"incontext"` advisor. A built-in's label is the
//! built advisor's own [`IndexAdvisor::name`], so each name is spelled
//! once; [`AdvisorSpec::paper_variants`] lists the seven variants the
//! paper's main experiment sweeps.

#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::unwrap_used, clippy::panic)
)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use serde::{Serialize, Value};

use crate::advisor::{ClearBoxAdvisor, IndexAdvisor, TrajectoryMode};
use crate::bandit::BanditAdvisor;
use crate::dqn::DqnAdvisor;
use crate::drlindex::DrlIndexAdvisor;
use crate::factory::{BuildCtx, SpeedPreset};
use crate::incontext::{InContextAdvisor, InContextConfig};
use crate::instrument::Instrumented;
use crate::swirl::SwirlAdvisor;

/// A serializable description of one poisoning target: which registered
/// kind to construct, plus the [`BuildCtx`] fields the constructor needs.
///
/// Grids, streams, and tenant specs carry an `AdvisorSpec`, and any kind
/// id that has a registry entry — built-in or user-registered — resolves
/// the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorSpec {
    /// Registry kind id (e.g. `"dqn"`, `"incontext"`, or a custom id).
    pub kind: String,
    /// Training/trial compute preset.
    pub preset: SpeedPreset,
    /// RNG seed for the advisor's own stochastic machinery.
    pub seed: u64,
    /// Trajectory-selection mode, for kinds that have one. `None` means
    /// the kind's default ([`TrajectoryMode::Best`] for the built-in
    /// trial-based advisors); kinds without a mode ignore it.
    pub mode: Option<TrajectoryMode>,
}

impl AdvisorSpec {
    /// Spec for `kind` with the quick preset, seed 0, default mode.
    pub fn new(kind: impl Into<String>) -> Self {
        AdvisorSpec {
            kind: kind.into(),
            preset: SpeedPreset::Quick,
            seed: 0,
            mode: None,
        }
    }

    /// The seven built-in variants the paper's main experiment sweeps
    /// (§6.1), in its table order: the `-b`/`-m` trajectory modes of
    /// DQN, DRLindex and DBABandit, plus SWIRL. This is a slice of the
    /// paper grid, *not* the universe of targets: the registry
    /// ([`registered_ids`]) is open.
    pub fn paper_variants() -> Vec<AdvisorSpec> {
        use TrajectoryMode::{Best, MeanLast};
        [
            ("dqn", Some(Best)),
            ("dqn", Some(MeanLast(100))),
            ("drlindex", Some(Best)),
            ("drlindex", Some(MeanLast(100))),
            ("dbabandit", Some(Best)),
            ("dbabandit", Some(MeanLast(10))),
            ("swirl", None),
        ]
        .into_iter()
        .map(|(kind, mode)| AdvisorSpec {
            mode,
            ..AdvisorSpec::new(kind)
        })
        .collect()
    }

    /// Builder-style preset override.
    pub fn preset(mut self, preset: SpeedPreset) -> Self {
        self.preset = preset;
        self
    }

    /// Builder-style seed override.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style trajectory-mode override.
    pub fn mode(mut self, mode: TrajectoryMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Display label, resolved through the registry entry: for a
    /// built-in kind, the name of the (untrained) advisor it builds.
    /// Falls back to the raw kind id when the kind is not registered, so
    /// specs stay printable in error paths.
    pub fn label(&self) -> String {
        match lookup(&self.kind) {
            Some(entry) => (entry.label)(self),
            None => self.kind.clone(),
        }
    }

    /// Construct the advisor this spec describes.
    pub fn build(&self) -> Result<Box<dyn ClearBoxAdvisor>, UnknownTarget> {
        match lookup(&self.kind) {
            Some(entry) => Ok((entry.build)(self)),
            None => Err(UnknownTarget {
                kind: self.kind.clone(),
                registered: registered_ids(),
            }),
        }
    }

    /// Construct with the context's preset/seed in place of the spec's
    /// own. This is how grid/stream/fleet runners stamp per-cell seeds
    /// onto a shared spec.
    pub fn build_with(&self, ctx: BuildCtx) -> Result<Box<dyn ClearBoxAdvisor>, UnknownTarget> {
        let mut resolved = self.clone();
        resolved.preset = ctx.preset;
        resolved.seed = ctx.seed;
        resolved.build()
    }
}

impl Serialize for AdvisorSpec {
    fn to_value(&self) -> Value {
        let preset = match self.preset {
            SpeedPreset::Paper => "paper",
            SpeedPreset::Quick => "quick",
            SpeedPreset::Test => "test",
        };
        let mode = match self.mode {
            None => Value::Null,
            Some(TrajectoryMode::Best) => Value::Str("best".to_string()),
            Some(TrajectoryMode::MeanLast(n)) => Value::Str(format!("mean-last-{n}")),
        };
        Value::Object(vec![
            ("kind".to_string(), Value::Str(self.kind.clone())),
            ("preset".to_string(), Value::Str(preset.to_string())),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("mode".to_string(), mode),
        ])
    }
}

/// An [`AdvisorSpec`] named a kind id with no registry entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTarget {
    /// The unresolved kind id.
    pub kind: String,
    /// The ids that *were* registered at resolution time (sorted).
    pub registered: Vec<String>,
}

impl fmt::Display for UnknownTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown target kind {:?} (registered: {})",
            self.kind,
            self.registered.join(", ")
        )
    }
}

impl std::error::Error for UnknownTarget {}

impl From<UnknownTarget> for pipa_cost::CostError {
    fn from(e: UnknownTarget) -> Self {
        pipa_cost::CostError::UnknownTarget {
            kind: e.kind,
            registered: e.registered.join(", "),
        }
    }
}

type LabelFn = Arc<dyn Fn(&AdvisorSpec) -> String + Send + Sync>;
type BuildFn = Arc<dyn Fn(&AdvisorSpec) -> Box<dyn ClearBoxAdvisor> + Send + Sync>;

/// How to label and how to build the advisors of one kind id.
#[derive(Clone)]
struct Entry {
    label: LabelFn,
    build: BuildFn,
}

/// The process-wide kind-id → constructor map, with the built-in kinds
/// pre-registered. `BTreeMap` so [`registered_ids`] enumerates in one
/// stable order regardless of registration order.
///
/// The map only ever holds whole entries (constructors run after the
/// lock is released), so a guard poisoned by a panic elsewhere still
/// guards a consistent map: it is recovered, not propagated.
fn registry() -> &'static RwLock<BTreeMap<String, Entry>> {
    static REGISTRY: OnceLock<RwLock<BTreeMap<String, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(builtins()))
}

/// Register (or replace) a target kind in the global registry. This is
/// the whole API a new target class needs: after this call the id is
/// constructible from every grid, stream, and tenant spec in the
/// workspace.
pub fn register_target(
    id: impl Into<String>,
    label: impl Fn(&AdvisorSpec) -> String + Send + Sync + 'static,
    build: impl Fn(&AdvisorSpec) -> Box<dyn ClearBoxAdvisor> + Send + Sync + 'static,
) {
    let entry = Entry {
        label: Arc::new(label),
        build: Arc::new(build),
    };
    registry()
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(id.into(), entry);
}

/// Sorted kind ids currently registered in the global registry.
pub fn registered_ids() -> Vec<String> {
    let entries = registry().read().unwrap_or_else(PoisonError::into_inner);
    entries.keys().cloned().collect()
}

fn lookup(id: &str) -> Option<Entry> {
    let entries = registry().read().unwrap_or_else(PoisonError::into_inner);
    entries.get(id).cloned()
}

fn mode_of(spec: &AdvisorSpec) -> TrajectoryMode {
    spec.mode.unwrap_or(TrajectoryMode::Best)
}

/// A built-in kind's entry: its label is the name of the advisor it
/// builds.
fn builtin(id: &str, build: fn(&AdvisorSpec) -> Box<dyn ClearBoxAdvisor>) -> (String, Entry) {
    let entry = Entry {
        label: Arc::new(move |spec| build(spec).name()),
        build: Arc::new(build),
    };
    (id.to_string(), entry)
}

/// The built-in entries. Each `builtin("<id>", ...)` line is also the
/// source of truth for the ci.sh registry-coverage lint, which greps
/// these ids against the every-kind construction test fixture.
fn builtins() -> BTreeMap<String, Entry> {
    BTreeMap::from([
        builtin("dqn", |spec| {
            let advisor = DqnAdvisor::new(mode_of(spec), spec.preset.dqn(spec.seed));
            Box::new(Instrumented::new(advisor))
        }),
        builtin("drlindex", |spec| {
            let advisor = DrlIndexAdvisor::new(mode_of(spec), spec.preset.drl(spec.seed));
            Box::new(Instrumented::new(advisor))
        }),
        builtin("dbabandit", |spec| {
            let advisor = BanditAdvisor::new(mode_of(spec), spec.preset.bandit(spec.seed));
            Box::new(Instrumented::new(advisor))
        }),
        builtin("swirl", |spec| {
            let advisor = SwirlAdvisor::new(spec.preset.swirl(spec.seed));
            Box::new(Instrumented::new(advisor))
        }),
        builtin("incontext", |spec| {
            let cfg = InContextConfig::for_preset(spec.preset, spec.seed);
            Box::new(Instrumented::new(InContextAdvisor::new(cfg)))
        }),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kind ids the every-kind construction test exercises. The
    /// ci.sh registry-coverage lint greps the `builtin("<id>", ...)`
    /// registrations above against this fixture: registering a kind
    /// without exercising it here fails CI.
    const EXERCISED_KINDS: &[&str] = &["dbabandit", "dqn", "drlindex", "incontext", "swirl"];

    #[test]
    fn every_registered_kind_constructs() {
        // Checked against the built-in table, not the global registry:
        // other tests in this binary register kinds of their own.
        let builtin_ids: Vec<String> = builtins().into_keys().collect();
        assert_eq!(builtin_ids, EXERCISED_KINDS, "fixture out of date");
        for id in EXERCISED_KINDS {
            let spec = AdvisorSpec::new(*id).preset(SpeedPreset::Test).seeded(1);
            let ia = spec.build().expect("registered kind builds");
            assert_eq!(ia.name(), spec.label(), "{id}");
            assert!(ia.budget() > 0, "{id}");
        }
    }

    #[test]
    fn unknown_kind_is_a_typed_error() {
        let err = match AdvisorSpec::new("no-such-kind").build() {
            Err(e) => e,
            Ok(_) => panic!("unknown kind built"),
        };
        assert_eq!(err.kind, "no-such-kind");
        assert!(err.registered.contains(&"dqn".to_string()));
        let cost: pipa_cost::CostError = err.into();
        assert!(format!("{cost}").contains("no-such-kind"));
    }

    #[test]
    fn registering_a_kind_opens_it_everywhere() {
        use crate::heuristic::AutoAdminGreedy;
        use pipa_cost::CostBackend;
        use pipa_sim::ColumnId;

        struct Toy(AutoAdminGreedy);
        impl crate::IndexAdvisor for Toy {
            fn name(&self) -> String {
                "Toy".to_string()
            }
            fn train(
                &mut self,
                cost: &dyn CostBackend,
                w: &pipa_sim::Workload,
            ) -> pipa_cost::CostResult<()> {
                self.0.train(cost, w)
            }
            fn retrain(
                &mut self,
                cost: &dyn CostBackend,
                w: &pipa_sim::Workload,
            ) -> pipa_cost::CostResult<()> {
                self.0.retrain(cost, w)
            }
            fn recommend(
                &mut self,
                cost: &dyn CostBackend,
                w: &pipa_sim::Workload,
            ) -> pipa_cost::CostResult<pipa_sim::IndexConfig> {
                self.0.recommend(cost, w)
            }
            fn budget(&self) -> usize {
                self.0.budget()
            }
            fn is_trial_based(&self) -> bool {
                false
            }
        }
        impl ClearBoxAdvisor for Toy {
            fn column_preferences(&self, _cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
                Vec::new()
            }
        }

        register_target(
            "toy-registry-test",
            |_| "Toy".to_string(),
            |_| Box::new(Toy(AutoAdminGreedy::new(4))),
        );
        let spec = AdvisorSpec::new("toy-registry-test");
        assert_eq!(spec.label(), "Toy");
        let ia = spec.build().unwrap();
        assert_eq!(ia.name(), "Toy");
        assert!(registered_ids().contains(&"toy-registry-test".to_string()));
    }

    #[test]
    fn spec_serializes_to_a_stable_object() {
        let spec = AdvisorSpec::new("dqn")
            .preset(SpeedPreset::Test)
            .seeded(7)
            .mode(TrajectoryMode::MeanLast(100));
        let v = spec.to_value();
        assert_eq!(
            v,
            Value::Object(vec![
                ("kind".to_string(), Value::Str("dqn".to_string())),
                ("preset".to_string(), Value::Str("test".to_string())),
                ("seed".to_string(), Value::UInt(7)),
                ("mode".to_string(), Value::Str("mean-last-100".to_string())),
            ])
        );
    }
}
