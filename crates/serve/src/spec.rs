//! The typed request side of the service API: what a tenant is
//! ([`TenantSpec`]), what a session does ([`SessionRequest`]), and the
//! fleet builder ([`FleetSpec`]) that runs them.

use pipa_core::experiment::CellConfig;
use pipa_cost::Tape;
use pipa_ia::{AdvisorSpec, SpeedPreset};
use pipa_workload::Benchmark;

pub use pipa_core::experiment::InjectorKind;

/// Which cost backend a tenant evaluates against. Every choice sits
/// behind `dyn CostBackend` — the fleet never names a simulator method.
#[derive(Debug, Clone)]
pub enum BackendSpec {
    /// The analytical simulator, built fresh for the tenant (its own
    /// schema statistics, caches, and benefit matrix).
    Sim,
    /// The simulator with every per-query cost recorded; the tenant's
    /// accumulated [`Tape`] comes back in
    /// [`FleetRun::tapes`](crate::report::FleetRun::tapes).
    SimRecording,
    /// Answer every cost from a recorded tape — no simulator behind the
    /// seam. A `(query, config)` pair missing from the tape degrades the
    /// tenant with a `ReplayMiss`, never a fabricated cost.
    Replay(Tape),
    /// A [`pipa_cost::LearnedIndexBackend`] over the tenant's catalog:
    /// per-table learned CDF cost models that refit on the workloads the
    /// tenant trains on, so the tenant's *index structure* is itself a
    /// poisoning target.
    LearnedIndex,
}

impl BackendSpec {
    /// Short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Sim => "sim",
            BackendSpec::SimRecording => "record",
            BackendSpec::Replay(_) => "replay",
            BackendSpec::LearnedIndex => "learned",
        }
    }
}

/// One unit of tenant work. Sessions of a tenant run serially, in
/// request order, against the tenant's own advisor and backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionRequest {
    /// Evaluate the tenant workload under `configs` candidate index
    /// configurations (single- and two-column indexes cycled
    /// deterministically over the workload's indexable columns) — the
    /// bulk what-if traffic an always-on advisor service answers.
    WhatIf {
        /// Number of candidate configurations to cost.
        configs: usize,
    },
    /// (Re)train the tenant's advisor on the tenant workload and ask it
    /// for an index configuration.
    Recommend,
    /// A full poisoning stress test (train → baseline → inject →
    /// retrain → measure) against the tenant's advisor.
    Stress {
        /// Injection strategy.
        injector: InjectorKind,
        /// Injection workload size `N̂`.
        injection_size: usize,
    },
    /// Fault injection for resilience tests: emit one trace event, then
    /// panic with `message`. The fleet must degrade only this tenant,
    /// report the session as `session panicked: <message>`, and still
    /// flush the session's partial trace (the events recorded before the
    /// unwind) — pinned by `tests/fleet.rs`.
    ChaosPanic {
        /// Panic message.
        message: String,
    },
}

/// Everything one tenant brings: its benchmark and scale (schema plus
/// statistics), advisor, backend, and queued sessions. Built fluently:
///
/// ```
/// use pipa_serve::{BackendSpec, SessionRequest, TenantSpec};
/// use pipa_workload::Benchmark;
///
/// let tenant = TenantSpec::new("acme", Benchmark::TpcH)
///     .backend(BackendSpec::Sim)
///     .session(SessionRequest::WhatIf { configs: 8 })
///     .session(SessionRequest::Recommend);
/// assert_eq!(tenant.sessions.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (reports and traces).
    pub name: String,
    /// Benchmark whose schema/statistics/templates the tenant uses.
    pub benchmark: Benchmark,
    /// Scale factor.
    pub scale: f64,
    /// The tenant's advisor, as a registry spec (any registered kind
    /// id; an unregistered one degrades the tenant at its first
    /// session instead of failing the fleet).
    pub advisor: AdvisorSpec,
    /// Advisor training/trial compute preset.
    pub preset: SpeedPreset,
    /// Cost backend.
    pub backend: BackendSpec,
    /// Queued sessions, run serially in this order.
    pub sessions: Vec<SessionRequest>,
}

impl TenantSpec {
    /// A tenant with the fleet defaults: scale 1.0, `DBAbandit-b`
    /// advisor under the `Test` preset, simulator backend, no sessions.
    pub fn new(name: impl Into<String>, benchmark: Benchmark) -> Self {
        TenantSpec {
            name: name.into(),
            benchmark,
            scale: 1.0,
            advisor: AdvisorSpec::new("dbabandit"),
            preset: SpeedPreset::Test,
            backend: BackendSpec::Sim,
            sessions: Vec::new(),
        }
    }

    /// Set the scale factor.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Set the advisor: any [`AdvisorSpec`] naming a registered kind id.
    pub fn advisor(mut self, advisor: AdvisorSpec) -> Self {
        self.advisor = advisor;
        self
    }

    /// Set the advisor speed preset.
    pub fn preset(mut self, preset: SpeedPreset) -> Self {
        self.preset = preset;
        self
    }

    /// Set the cost backend.
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Queue one session.
    pub fn session(mut self, request: SessionRequest) -> Self {
        self.sessions.push(request);
        self
    }

    /// Queue `n` copies of a session request.
    pub fn repeat_session(mut self, request: SessionRequest, n: usize) -> Self {
        self.sessions.extend(vec![request; n]);
        self
    }

    /// The experiment-cell view of this tenant (shared with the
    /// `pipa-core` harness plumbing: workload generation, injector
    /// construction, probe sizing).
    pub(crate) fn cell_config(&self) -> CellConfig {
        let mut cfg = CellConfig::quick(self.benchmark);
        cfg.scale = self.scale;
        cfg.preset = self.preset;
        cfg.probe_epochs = match self.preset {
            SpeedPreset::Paper => 20,
            SpeedPreset::Quick => 8,
            SpeedPreset::Test => 2,
        };
        cfg
    }
}

/// The fleet: a root seed, a worker-pool bound, and the tenant roster.
///
/// Per-tenant seeds derive from the root with the runner's SplitMix64
/// scheme (`CellSeed::derive(root, tenant index)`), so tenants draw
/// statistically independent streams and the worker count never touches
/// the numbers: [`FleetSpec::run`](crate::fleet) returns bit-identical
/// reports for every `workers` setting.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Root seed for the whole fleet.
    pub root_seed: u64,
    /// Worker threads (0 = available parallelism).
    pub workers: usize,
    /// Tenant roster, in admission order.
    pub tenants: Vec<TenantSpec>,
}

impl FleetSpec {
    /// An empty fleet with the given root seed and one worker.
    pub fn new(root_seed: u64) -> Self {
        FleetSpec {
            root_seed,
            workers: 1,
            tenants: Vec::new(),
        }
    }

    /// Set the worker-pool size (0 = available parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Admit one tenant.
    pub fn tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Total queued sessions across the roster.
    pub fn total_sessions(&self) -> usize {
        self.tenants.iter().map(|t| t.sessions.len()).sum()
    }
}
