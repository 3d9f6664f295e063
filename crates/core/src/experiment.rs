//! Shared experiment plumbing used by the `pipa-bench` binaries: build
//! databases/workloads per run, construct generators (ST or a trained
//! IABART), wire up injectors by name, and run advisor × injector cells.

use crate::harness::{StressOutcome, StressTest};
use crate::injectors::{Injector, TargetedInjector, TpInjector};
use crate::probe::ProbeConfig;
use crate::runner::{par_map_traced, CellSeed};
use pipa_cost::{CostBackend, CostResult, SimBackend};
use pipa_ia::{AdvisorSpec, SpeedPreset};
use pipa_obs::{CellCtx, TraceOutputs};
use pipa_qgen::{build_corpus, Iabart, IabartConfig, IabartGenerator, QueryGenerator, StGenerator};
use pipa_sim::Workload;
use pipa_workload::{generator::WorkloadGenerator, Benchmark};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which query generator backs the index-aware injectors.
#[derive(Clone)]
pub enum GenBackend {
    /// Direct ST construction (fast; used by `--quick` runs).
    St,
    /// A trained IABART model, cloned per injector.
    Iabart(Box<Iabart>),
}

impl GenBackend {
    /// Train an IABART backend against a cost backend.
    pub fn train_iabart(cost: &dyn CostBackend, corpus_size: usize, seed: u64) -> CostResult<Self> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00c0_7215);
        let corpus = build_corpus(cost, corpus_size, &mut rng)?;
        let mut model = Iabart::new(
            cost.catalog().schema.clone(),
            IabartConfig {
                seed,
                ..IabartConfig::default()
            },
        );
        model.train(&corpus);
        Ok(GenBackend::Iabart(Box::new(model)))
    }

    /// Instantiate a generator from this backend.
    pub fn generator(&self, seed: u64) -> Box<dyn QueryGenerator> {
        match self {
            GenBackend::St => Box::new(StGenerator::new(seed)),
            GenBackend::Iabart(model) => Box::new(IabartGenerator::new((**model).clone())),
        }
    }
}

/// The six injection strategies of the paper's main experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectorKind {
    /// Template instantiations.
    Tp,
    /// Random FSM queries.
    Fsm,
    /// Index-aware generator, random columns.
    IR,
    /// Index-aware generator, low-ranked probed columns.
    IL,
    /// Clear-box mid-ranked.
    PC,
    /// PIPA (probed mid-ranked + toxicity filter).
    Pipa,
}

impl InjectorKind {
    /// All six, in the paper's presentation order.
    pub fn all() -> Vec<InjectorKind> {
        vec![
            InjectorKind::Tp,
            InjectorKind::Fsm,
            InjectorKind::IR,
            InjectorKind::IL,
            InjectorKind::PC,
            InjectorKind::Pipa,
        ]
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            InjectorKind::Tp => "TP",
            InjectorKind::Fsm => "FSM",
            InjectorKind::IR => "I-R",
            InjectorKind::IL => "I-L",
            InjectorKind::PC => "P-C",
            InjectorKind::Pipa => "PIPA",
        }
    }

    /// Whether this strategy counts as a *random* injection when
    /// computing RD (Definition 2.5 compares toxic against random).
    pub fn is_random_baseline(self) -> bool {
        matches!(
            self,
            InjectorKind::Tp | InjectorKind::Fsm | InjectorKind::IR
        )
    }
}

/// Everything one experiment cell needs.
#[derive(Clone)]
pub struct CellConfig {
    /// Benchmark and scale.
    pub benchmark: Benchmark,
    /// Scale factor (paper's "1GB"/"10GB" → 1.0/10.0).
    pub scale: f64,
    /// Advisor training/trial preset.
    pub preset: SpeedPreset,
    /// Injection workload size `N̂`.
    pub injection_size: usize,
    /// Probing epochs `P`.
    pub probe_epochs: usize,
    /// Generator backend.
    pub backend: GenBackend,
    /// Materialize data (seed, row cap) for actual-cost measurement.
    pub materialize: Option<(u64, u32)>,
}

impl CellConfig {
    /// Sensible quick defaults for a benchmark.
    pub fn quick(benchmark: Benchmark) -> Self {
        CellConfig {
            benchmark,
            scale: 1.0,
            preset: SpeedPreset::Quick,
            injection_size: benchmark.default_workload_size(),
            probe_epochs: 8,
            backend: GenBackend::St,
            materialize: None,
        }
    }
}

/// Build the simulator-backed cost backend for a cell.
pub fn build_db(cfg: &CellConfig) -> SimBackend {
    SimBackend::new(cfg.benchmark.database(cfg.scale, cfg.materialize))
}

/// Fresh normal workload for one run.
pub fn normal_workload(cfg: &CellConfig, run_seed: u64) -> Workload {
    let gen = WorkloadGenerator::new(cfg.benchmark.schema(), cfg.benchmark.default_templates());
    gen.normal(&mut ChaCha8Rng::seed_from_u64(run_seed ^ 0x4021))
        .expect("benchmark templates instantiate")
}

/// Construct an injector of the given kind.
pub fn make_injector(kind: InjectorKind, cfg: &CellConfig, seed: CellSeed) -> Box<dyn Injector> {
    let seed = seed.get();
    let probe_cfg = ProbeConfig {
        epochs: cfg.probe_epochs,
        queries_per_epoch: cfg.benchmark.default_workload_size(),
        seed,
        ..Default::default()
    };
    match kind {
        InjectorKind::Tp => Box::new(TpInjector::new(cfg.benchmark.default_templates())),
        InjectorKind::Fsm => Box::new(TargetedInjector::fsm(seed)),
        InjectorKind::IR => Box::new(TargetedInjector::i_r(cfg.backend.generator(seed))),
        InjectorKind::IL => {
            let mut inj = TargetedInjector::i_l(cfg.backend.generator(seed));
            inj.probe_cfg = probe_cfg;
            Box::new(inj)
        }
        InjectorKind::PC => Box::new(TargetedInjector::p_c(cfg.backend.generator(seed))),
        InjectorKind::Pipa => {
            let mut inj = TargetedInjector::pipa(cfg.backend.generator(seed));
            inj.probe_cfg = probe_cfg;
            Box::new(inj)
        }
    }
}

/// Run one (advisor, injector) cell once.
///
/// The advisor spec — a built-in kind or a custom registered kind id —
/// is resolved through the target registry; an unregistered kind
/// surfaces as [`pipa_cost::CostError::UnknownTarget`], not a panic.
pub fn run_cell(
    cost: &dyn CostBackend,
    normal: &Workload,
    advisor: AdvisorSpec,
    injector_kind: InjectorKind,
    cfg: &CellConfig,
    seed: CellSeed,
) -> CostResult<StressOutcome> {
    let mut advisor = advisor.build_with(pipa_ia::BuildCtx::new(cfg.preset, seed.get()))?;
    let mut injector = make_injector(injector_kind, cfg, seed);
    StressTest::new(cost, normal)
        .injection_size(cfg.injection_size)
        .actual_cost(cfg.materialize.is_some())
        .seed(seed)
        .run(advisor.as_mut(), injector.as_mut())
}

/// A full advisor × injector × run experiment grid.
///
/// This is the shared specification behind the experiment binaries: the
/// axes to sweep plus a root seed. [`GridSpec::cells`] enumerates the
/// cells in a fixed (advisor-major, then injector, then run) order, and
/// [`run_grid`] evaluates them — serially or in parallel — with results
/// always in that same order.
#[derive(Clone)]
pub struct GridSpec {
    /// Advisors under test, as registry specs (any registered kind id).
    pub advisors: Vec<AdvisorSpec>,
    /// Injection strategies.
    pub injectors: Vec<InjectorKind>,
    /// Repetitions per (advisor, injector) pair.
    pub runs: u64,
    /// Root seed; per-run seeds are derived via
    /// [`CellSeed::derive`]`(root_seed, run)`.
    pub root_seed: u64,
}

/// One cell of a [`GridSpec`]: coordinates plus the derived seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Advisor under test.
    pub advisor: AdvisorSpec,
    /// Injection strategy.
    pub injector: InjectorKind,
    /// Run index within the (advisor, injector) pair.
    pub run: u64,
    /// Seed for this cell: [`CellSeed::derive`]`(root_seed, run)`. Cells
    /// of the same run share it deliberately — RD (Definition 2.5)
    /// compares PIPA against random baselines *on the same normal
    /// workload*, and the normal workload is a function of the run seed.
    pub seed: CellSeed,
}

impl GridSpec {
    /// A grid over the given axes: the paper's variants
    /// ([`AdvisorSpec::paper_variants`]) or specs naming custom
    /// registered kinds.
    pub fn new(
        advisors: Vec<AdvisorSpec>,
        injectors: Vec<InjectorKind>,
        runs: u64,
        root_seed: u64,
    ) -> Self {
        GridSpec {
            advisors,
            injectors,
            runs,
            root_seed,
        }
    }

    /// Every cell, advisor-major then injector then run — the order
    /// [`run_grid`] returns results in, independent of `--jobs`.
    pub fn cells(&self) -> Vec<GridCell> {
        let mut out = Vec::with_capacity(self.len());
        for advisor in &self.advisors {
            for &injector in &self.injectors {
                for run in 0..self.runs {
                    out.push(GridCell {
                        advisor: advisor.clone(),
                        injector,
                        run,
                        seed: CellSeed::derive(self.root_seed, run),
                    });
                }
            }
        }
        out
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.advisors.len() * self.injectors.len() * self.runs as usize
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evaluate every cell of a grid on up to `jobs` worker threads
/// (`0` = all cores), returning `(cell, outcome)` pairs in
/// [`GridSpec::cells`] order regardless of scheduling.
///
/// Each cell regenerates its normal workload from its own seed and runs
/// one full stress test; no state is shared between cells except the
/// database's memoized what-if costs, which are pure functions of their
/// keys. `run_grid(.., 1)` and `run_grid(.., N)` therefore produce
/// identical results — see `DESIGN.md` ("Determinism guarantees").
pub fn run_grid(
    cost: &dyn CostBackend,
    cfg: &CellConfig,
    spec: &GridSpec,
    jobs: usize,
) -> CostResult<Vec<(GridCell, StressOutcome)>> {
    run_grid_traced(cost, cfg, spec, jobs, &TraceOutputs::disabled())
}

/// [`run_grid`] with per-cell observability: each cell records into its
/// own `pipa-obs` scope (context: `cell_seed`, `advisor`, `injector`,
/// `run`) and the buffered traces are flushed to `out` in
/// [`GridSpec::cells`] order — so the trace stream, like the results, is
/// byte-identical across `--jobs` settings.
pub fn run_grid_traced(
    cost: &dyn CostBackend,
    cfg: &CellConfig,
    spec: &GridSpec,
    jobs: usize,
    out: &TraceOutputs,
) -> CostResult<Vec<(GridCell, StressOutcome)>> {
    let results = par_map_traced(
        jobs,
        spec.cells(),
        out,
        |_, cell| {
            CellCtx::new(cell.seed.get())
                .field("advisor", cell.advisor.label())
                .field("injector", cell.injector.label())
                .field("run", cell.run)
        },
        |_, cell| {
            let normal = normal_workload(cfg, cell.seed.get());
            run_cell(
                cost,
                &normal,
                cell.advisor.clone(),
                cell.injector,
                cfg,
                cell.seed,
            )
            .map(|outcome| (cell, outcome))
        },
    );
    out.flush();
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_kinds_cover_the_paper() {
        let all = InjectorKind::all();
        assert_eq!(all.len(), 6);
        assert!(InjectorKind::Tp.is_random_baseline());
        assert!(InjectorKind::Fsm.is_random_baseline());
        assert!(InjectorKind::IR.is_random_baseline());
        assert!(!InjectorKind::Pipa.is_random_baseline());
        assert!(!InjectorKind::PC.is_random_baseline());
        assert!(!InjectorKind::IL.is_random_baseline());
    }

    #[test]
    fn quick_cell_runs_end_to_end() {
        let mut cfg = CellConfig::quick(Benchmark::TpcH);
        cfg.preset = SpeedPreset::Test;
        cfg.probe_epochs = 3;
        cfg.injection_size = 6;
        let cost = build_db(&cfg);
        let normal = normal_workload(&cfg, 1);
        let out = run_cell(
            &cost,
            &normal,
            AdvisorSpec::new("dbabandit"),
            InjectorKind::Pipa,
            &cfg,
            CellSeed::raw(1),
        )
        .unwrap();
        assert_eq!(out.injector, "PIPA");
        assert!(out.baseline_cost > 0.0);
    }

    #[test]
    fn traced_grid_carries_cell_context() {
        let mut cfg = CellConfig::quick(Benchmark::TpcH);
        cfg.preset = SpeedPreset::Test;
        cfg.probe_epochs = 2;
        cfg.injection_size = 4;
        let cost = build_db(&cfg);
        let spec = GridSpec::new(
            vec![AdvisorSpec::new("dbabandit")],
            vec![InjectorKind::Tp],
            1,
            7,
        );
        let sink = pipa_obs::MemorySink::new();
        let out = TraceOutputs::with_sinks(Some(Box::new(sink.clone())), None);
        let results = run_grid_traced(&cost, &cfg, &spec, 1, &out).unwrap();
        assert_eq!(results.len(), 1);
        let lines = sink.lines();
        assert!(!lines.is_empty());
        let seed = CellSeed::derive(7, 0).get();
        for line in &lines {
            assert!(line.contains(&format!("\"cell_seed\":{seed}")), "{line}");
            assert!(line.contains("\"advisor\":\"DBAbandit-b\""), "{line}");
            assert!(line.contains("\"injector\":\"TP\""), "{line}");
            assert!(line.contains("\"run\":0"), "{line}");
        }
        assert!(lines
            .iter()
            .any(|l| l.contains("\"event\":\"stress_outcome\"")));
    }

    #[test]
    fn st_backend_generates() {
        let cfg = CellConfig::quick(Benchmark::TpcH);
        let cost = build_db(&cfg);
        let mut g = cfg.backend.generator(3);
        let cols = vec![cost.database().schema().column_id("l_shipdate").unwrap()];
        assert!(g.generate(&cost, &cols, 0.5).unwrap().is_some());
    }
}
