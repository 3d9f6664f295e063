//! The three workloads: their set-up, their units, and each unit's
//! plain (untraced) and traced form.
//!
//! A plain unit calls the public entry points alone: `run_cell`,
//! `run_stream` or `FleetSpec::run`. A traced unit makes the same call
//! sequence with every layer wrapped (see [`crate::wrap`]); its outcome
//! must compare `==` to the plain one.

use crate::trace::{self, UNIT_SPAN};
use crate::wrap::{timed_kind, TimedCost, TimedGen, TimedInjector};
use pipa::core::experiment::{build_db, normal_workload, run_cell, CellConfig, InjectorKind};
use pipa::core::stream::{
    run_stream, AttackerStrategy, Cadence, DefensePolicy, StreamOutcome, StreamSpec,
};
use pipa::core::{CellSeed, ProbeConfig, StressOutcome, StressTest, TargetedInjector};
use pipa::cost::{CostBackend, CostResult, SimBackend, Tape};
use pipa::ia::{AdvisorSpec, BuildCtx, SpeedPreset, TrajectoryMode};
use pipa::obs::TraceOutputs;
use pipa::serve::{BackendSpec, FleetRun, FleetSpec, SessionRequest, TenantSpec};
use pipa::workload::{Benchmark, DriftSchedule};

/// The seed a run uses when `--seed` is not given; the pinned digests
/// are taken at it.
pub const DEFAULT_SEED: u64 = 1;

/// Unit index of the discarded warm-up unit run during set-up.
const WARMUP_UNIT: u64 = 1 << 32;

/// Row cap of the materialized data (the experiment CLI's `--actual`).
const ROW_CAP: u32 = 200_000;

/// Fleet shape: tenants, worker threads, what-if sessions per tenant.
pub const FLEET_TENANTS: usize = 24;
pub const FLEET_WORKERS: usize = 2;
const FLEET_WHATIFS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperCell,
    StreamDefended,
    FleetMixed,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperCell, Kind::StreamDefended, Kind::FleetMixed];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperCell => "paper-cell",
            Kind::StreamDefended => "stream-defended",
            Kind::FleetMixed => "fleet-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A set-up workload, ready to run units.
pub enum Scenario {
    Cell(Cells),
    Stream(Streams),
    Fleet(Fleet),
}

/// What one cell or stream unit produced.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// A cell's outcome and the size of its normal workload.
    Cell(StressOutcome, usize),
    Stream(StreamOutcome),
}

impl Outcome {
    pub fn check(&self) -> Result<(), String> {
        match self {
            Outcome::Cell(o, _) => crate::check::stress(o),
            Outcome::Stream(o) => crate::check::stream(o),
        }
    }

    pub fn digest(&self, d: &mut crate::check::Digest) {
        match self {
            Outcome::Cell(o, _) => d.add(o),
            Outcome::Stream(o) => d.add(o),
        }
    }

    /// Query costs the scenario itself measures to report its outcome:
    /// a cell's baseline and poisoned workload costs, a stream's
    /// per-window measurements.
    pub fn scenario_evals(&self) -> u64 {
        match self {
            Outcome::Cell(_, normal) => 2 * *normal as u64,
            Outcome::Stream(o) => o.cost_evals,
        }
    }

    /// Retrains, rollbacks, injected and screened-out queries.
    pub fn counts(&self) -> [u64; 4] {
        match self {
            Outcome::Cell(o, _) => [1, 0, o.injection_size as u64, 0],
            Outcome::Stream(o) => [
                o.retrains as u64,
                o.rollbacks as u64,
                o.total_injected as u64,
                o.total_screened as u64,
            ],
        }
    }
}

impl Scenario {
    /// Do the workload's set-up once. With `traced`, also set up the
    /// backend the traced units run on, in the same state as the plain
    /// one, so paired plain and traced units see equally warm caches.
    pub fn setup(kind: Kind, seed: u64, traced: bool) -> Result<Scenario, String> {
        let err = |e: pipa::cost::CostError| format!("{} set-up: {e}", kind.name());
        Ok(match kind {
            Kind::PaperCell => Scenario::Cell(Cells::setup(seed, traced).map_err(err)?),
            Kind::StreamDefended => Scenario::Stream(Streams::setup(seed, traced).map_err(err)?),
            Kind::FleetMixed => Scenario::Fleet(Fleet::setup(seed)?),
        })
    }

    /// Run one unit with the public entry points alone.
    pub fn plain_unit(&self, unit: u64) -> CostResult<Outcome> {
        match self {
            Scenario::Cell(c) => c.plain_unit(unit),
            Scenario::Stream(s) => s.plain_unit(unit).map(Outcome::Stream),
            Scenario::Fleet(_) => unreachable!("fleet units run as drains"),
        }
    }

    /// Run one unit with every layer wrapped, on the traced backend.
    pub fn traced_unit(&self, unit: u64) -> CostResult<Outcome> {
        trace::set_unit(Some(unit as u32));
        match self {
            Scenario::Cell(c) => c.traced_unit(unit),
            Scenario::Stream(s) => s.traced_unit(unit).map(Outcome::Stream),
            Scenario::Fleet(_) => unreachable!("fleet units run as drains"),
        }
    }

    /// The backend traced units run on, for its simulator counters.
    pub fn traced_db(&self) -> Option<&SimBackend> {
        match self {
            Scenario::Cell(c) => c.traced.as_ref(),
            Scenario::Stream(s) => s.traced.as_ref(),
            Scenario::Fleet(_) => None,
        }
    }
}

/// `paper-cell`: one PIPA stress-test cell per unit.
pub struct Cells {
    cfg: CellConfig,
    /// Built-in advisor kind id.
    advisor: &'static str,
    seed: u64,
    plain: SimBackend,
    traced: Option<SimBackend>,
}

impl Cells {
    fn setup(seed: u64, traced: bool) -> CostResult<Cells> {
        let mut cfg = CellConfig::quick(Benchmark::TpcH);
        cfg.materialize = Some((seed ^ 0xda7a, ROW_CAP));
        Cells::new(cfg, "dqn", seed, traced)
    }

    /// Cells of `cfg` against built-in advisor kind `advisor`: build the
    /// backend (materializing data if `cfg` asks for it) and run one
    /// discarded warm-up cell on it.
    pub fn new(
        cfg: CellConfig,
        advisor: &'static str,
        seed: u64,
        traced: bool,
    ) -> CostResult<Cells> {
        let cells = Cells {
            plain: build_db(&cfg),
            traced: traced.then(|| build_db(&cfg)),
            cfg,
            advisor,
            seed,
        };
        cells.cell(&cells.plain, WARMUP_UNIT)?;
        if let Some(db) = &cells.traced {
            cells.cell(db, WARMUP_UNIT)?;
        }
        Ok(cells)
    }

    fn spec(&self) -> AdvisorSpec {
        AdvisorSpec::new(self.advisor).mode(TrajectoryMode::Best)
    }

    fn cell(&self, db: &SimBackend, unit: u64) -> CostResult<Outcome> {
        let seed = CellSeed::derive(self.seed, unit);
        let normal = normal_workload(&self.cfg, seed.get());
        let outcome = run_cell(
            db,
            &normal,
            self.spec(),
            InjectorKind::Pipa,
            &self.cfg,
            seed,
        )?;
        Ok(Outcome::Cell(outcome, normal.len()))
    }

    fn plain_unit(&self, unit: u64) -> CostResult<Outcome> {
        self.cell(&self.plain, unit)
    }

    /// `run_cell`'s sequence — advisor from the registry, the PIPA
    /// injector `make_injector` builds, one `StressTest` — with every
    /// layer wrapped.
    fn traced_unit(&self, unit: u64) -> CostResult<Outcome> {
        let seed = CellSeed::derive(self.seed, unit);
        let cfg = &self.cfg;
        let db = self.traced.as_ref().expect("set up with traced = true");
        trace::span(UNIT_SPAN, || {
            let normal = trace::span("workload.gen", || normal_workload(cfg, seed.get()));
            let cost = TimedCost(db);
            let mut advisor = AdvisorSpec::new(timed_kind(self.advisor, false))
                .mode(TrajectoryMode::Best)
                .build_with(BuildCtx::new(cfg.preset, seed.get()))?;
            let mut pipa =
                TargetedInjector::pipa(Box::new(TimedGen(cfg.backend.generator(seed.get()))));
            pipa.probe_cfg = ProbeConfig {
                epochs: cfg.probe_epochs,
                queries_per_epoch: cfg.benchmark.default_workload_size(),
                seed: seed.get(),
                ..Default::default()
            };
            let mut injector = TimedInjector(Box::new(pipa));
            let outcome = StressTest::new(&cost, &normal)
                .injection_size(cfg.injection_size)
                .actual_cost(cfg.materialize.is_some())
                .seed(seed)
                .run(advisor.as_mut(), &mut injector)?;
            Ok(Outcome::Cell(outcome, normal.len()))
        })
    }
}

/// `stream-defended`: one defended `run_stream` scenario per unit.
pub struct Streams {
    cfg: CellConfig,
    seed: u64,
    plain: SimBackend,
    traced: Option<SimBackend>,
}

impl Streams {
    fn setup(seed: u64, traced: bool) -> CostResult<Streams> {
        let mut cfg = CellConfig::quick(Benchmark::TpcDs);
        cfg.preset = SpeedPreset::Test;
        cfg.probe_epochs = 2;
        Streams::new(cfg, seed, traced)
    }

    /// Streams over `cfg`: build the backend and run one discarded
    /// warm-up stream on it.
    pub fn new(cfg: CellConfig, seed: u64, traced: bool) -> CostResult<Streams> {
        let streams = Streams {
            plain: build_db(&cfg),
            traced: traced.then(|| build_db(&cfg)),
            cfg,
            seed,
        };
        streams.stream(&streams.plain, "dbabandit", WARMUP_UNIT)?;
        if let Some(db) = &streams.traced {
            streams.stream(db, "dbabandit", WARMUP_UNIT)?;
        }
        Ok(streams)
    }

    /// Even units: spread-PIPA against a canary; odd units: burst-PIPA
    /// against provenance screening.
    fn spec(unit: u64) -> StreamSpec {
        let (attacker, defense) = if unit.is_multiple_of(2) {
            (
                AttackerStrategy::Spread(InjectorKind::Pipa),
                DefensePolicy::Canary { tolerance: 0.05 },
            )
        } else {
            (
                AttackerStrategy::Burst(InjectorKind::Pipa),
                DefensePolicy::Provenance {
                    max_novel_fraction: 0.2,
                    history: 3,
                },
            )
        };
        StreamSpec {
            windows: 6,
            drift: DriftSchedule::Resample,
            cadence: Cadence::Every(1),
            attacker,
            budget: 6,
            defense,
        }
    }

    /// One stream against advisor kind `kind`.
    fn stream(&self, cost: &dyn CostBackend, kind: &str, unit: u64) -> CostResult<StreamOutcome> {
        let advisor = AdvisorSpec::new(kind).mode(TrajectoryMode::Best);
        run_stream(
            cost,
            &self.cfg,
            advisor,
            &Self::spec(unit),
            CellSeed::derive(self.seed, unit),
        )
    }

    fn plain_unit(&self, unit: u64) -> CostResult<StreamOutcome> {
        self.stream(&self.plain, "dbabandit", unit)
    }

    fn traced_unit(&self, unit: u64) -> CostResult<StreamOutcome> {
        let db = self.traced.as_ref().expect("set up with traced = true");
        let kind = timed_kind("dbabandit", false);
        trace::span(UNIT_SPAN, || self.stream(&TimedCost(db), &kind, unit))
    }
}

/// Which session a fleet unit was, for latency by kind and backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionClass {
    pub recommend: bool,
    pub learned: bool,
}

/// `fleet-mixed`: drains of one fixed session queue on two workers.
pub struct Fleet {
    plain: FleetSpec,
    traced: FleetSpec,
    /// Class of each session, in the (tenant, session) order of
    /// `FleetTiming::session_nanos`.
    pub classes: Vec<SessionClass>,
}

/// One tenant in four refits a learned index; the rest replay tapes.
/// The pattern shifts every four tenants so both benchmarks get one.
fn learned_tenant(i: usize) -> bool {
    i % 4 == 2 + (i / 4) % 2
}

fn roster(seed: u64, advisor: &AdvisorSpec, backend: impl Fn(usize) -> BackendSpec) -> FleetSpec {
    let mut fleet = FleetSpec::new(seed).workers(FLEET_WORKERS);
    for i in 0..FLEET_TENANTS {
        let benchmark = if i % 2 == 0 {
            Benchmark::TpcH
        } else {
            Benchmark::TpcDs
        };
        let mut tenant = TenantSpec::new(format!("tenant-{i}"), benchmark)
            .advisor(advisor.clone())
            .backend(backend(i));
        for s in 0..FLEET_WHATIFS {
            tenant = tenant.session(SessionRequest::WhatIf {
                configs: 3 + (i + s) % 3,
            });
        }
        fleet = fleet.tenant(tenant.session(SessionRequest::Recommend));
    }
    fleet
}

impl Fleet {
    /// Record every replay tenant's tape with a `SimRecording` drain of
    /// the same roster, then build the roster that replays them.
    fn setup(seed: u64) -> Result<Fleet, String> {
        let builtin = AdvisorSpec::new("dbabandit");
        // One worker: the tapes are the same at any worker count, and a
        // serial recording keeps the set-up's memory peak repeatable.
        let recording = roster(seed, &builtin, |i| {
            if learned_tenant(i) {
                BackendSpec::LearnedIndex
            } else {
                BackendSpec::SimRecording
            }
        })
        .workers(1);
        let recorded = recording.run(&TraceOutputs::disabled());
        if let (_, Some(e)) = crate::check::fleet(&recorded.report, recording.total_sessions()) {
            return Err(format!("fleet-mixed set-up: recording drain: {e}"));
        }
        let tapes: Vec<Option<Tape>> = recorded.tapes;
        let backend = |i: usize| {
            if learned_tenant(i) {
                BackendSpec::LearnedIndex
            } else {
                let tape = tapes[i].clone();
                BackendSpec::Replay(tape.expect("a SimRecording tenant returns its tape"))
            }
        };
        let plain = roster(seed, &builtin, backend);
        let traced = roster(
            seed,
            &AdvisorSpec::new(timed_kind("dbabandit", true)),
            backend,
        );
        let classes = plain
            .tenants
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                t.sessions.iter().map(move |s| SessionClass {
                    recommend: *s == SessionRequest::Recommend,
                    learned: learned_tenant(i),
                })
            })
            .collect();
        Ok(Fleet {
            plain,
            traced,
            classes,
        })
    }

    pub fn queued(&self) -> usize {
        self.plain.total_sessions()
    }

    pub fn plain_drain(&self) -> FleetRun {
        self.plain.run(&TraceOutputs::disabled())
    }

    pub fn traced_drain(&self) -> FleetRun {
        trace::set_unit(None);
        self.traced.run(&TraceOutputs::disabled())
    }
}
