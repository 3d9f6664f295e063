//! # pipa-core — the PIPA stress-test framework
//!
//! The paper's contribution, end to end:
//!
//! * [`preference`] — the indexing-preference ranking `k` (Eq. 5–8) and
//!   its top/mid/low segmentation (§5, §6.4);
//! * [`mod@probe`] — the opaque-box probing stage (Algorithm 1, Eq. 9);
//! * [`mod@inject`] — the toxic-injection stage (Algorithm 2, including the
//!   line-4 "mid beats top" filter);
//! * [`injectors`] — PIPA plus the TP / FSM / I-R / I-L / P-C baselines;
//! * [`metrics`] — AD / RD / toxicity (Definitions 2.3–2.5);
//! * [`harness`] — the [`harness::StressTest`] builder: train → baseline
//!   → inject → retrain → measure;
//! * [`defense`] — retraining canaries and provenance screening (the
//!   mitigations the paper's insights point DBAs at);
//! * [`stream`] — the streaming arms race: windowed workload drift,
//!   cadence-based retraining, adaptive attackers, online defenses;
//! * [`traffic`] — skewed-traffic pricing: Zipf/diurnal window sampling
//!   and the hot-vs-cold poisoning-economics axis;
//! * [`experiment`] — shared plumbing for the per-figure binaries,
//!   including the [`experiment::GridSpec`] advisor × injector × run
//!   grid API;
//! * [`runner`] — deterministic parallel cell execution ([`par_map`],
//!   [`runner::CellSeed`] SplitMix64 seed derivation);
//! * [`report`] — console tables and JSON artifacts.
//!
//! Every stage reports through the `pipa-obs` observability layer
//! (`--trace` / `--metrics-out` on the experiment binaries); with no
//! sink attached the instrumentation reduces to one atomic load per
//! call site.
//!
//! ## Quick start
//!
//! ```no_run
//! use pipa_core::{experiment::*, metrics::Stats, runner::CellSeed};
//! use pipa_ia::{AdvisorSpec, TrajectoryMode};
//! use pipa_workload::Benchmark;
//!
//! let cfg = CellConfig::quick(Benchmark::TpcH);
//! let cost = build_db(&cfg);
//! let seed = CellSeed::derive(0, 0);
//! let normal = normal_workload(&cfg, seed.get());
//! let out = run_cell(
//!     &cost,
//!     &normal,
//!     AdvisorSpec::new("dqn").mode(TrajectoryMode::Best),
//!     InjectorKind::Pipa,
//!     &cfg,
//!     seed,
//! )
//! .expect("cost backend");
//! println!("AD = {:.3} (toxic: {})", out.ad, out.toxic);
//! ```

#![warn(missing_docs)]

pub mod defense;
pub mod experiment;
pub mod harness;
pub mod inject;
pub mod injectors;
pub mod metrics;
pub mod preference;
pub mod probe;
pub mod report;
pub mod runner;
pub mod stream;
#[cfg(test)]
mod testing;
pub mod traffic;

pub use defense::{CanaryGuard, ProvenanceFilter};
pub use experiment::{
    run_grid, run_grid_traced, CellConfig, GenBackend, GridCell, GridSpec, InjectorKind,
};
pub use harness::{StressOutcome, StressRun, StressTest};
pub use inject::{inject, InjectConfig, InjectResult};
pub use injectors::{Injector, TargetedInjector, TpInjector};
pub use metrics::{absolute_degradation, is_toxic, relative_degradation, Stats};
pub use preference::{segment, IndexingPreference, SegmentConfig, Segments};
pub use probe::{probe, ProbeConfig, ProbeResult};
pub use runner::{default_jobs, derive_seed, par_map, par_map_traced, CellSeed};
pub use stream::{
    run_stream, run_stream_grid, run_stream_grid_traced, AttackerStrategy, Cadence, DefensePolicy,
    StreamCell, StreamGridSpec, StreamOutcome, StreamSpec, WindowReport,
};
pub use traffic::{poisoning_economics, sampled_window_workload, PoisonEconomics};
