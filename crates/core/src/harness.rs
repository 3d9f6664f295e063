//! The stress-test harness: train → baseline → inject → retrain →
//! measure (paper Figure 1's red/green flows, Definitions 2.2–2.5).
//!
//! The entry point is the [`StressTest`] builder. Each stage reports
//! through `pipa-obs` (phase markers, what-if/page counters from the
//! layers below, a final `stress_outcome` event), so a surprising AD
//! value can be diagnosed from the `--trace` stream instead of a
//! debugger.
//!
//! Every pipeline that poisons a victim moves it with the same two
//! steps, [`update`] and [`strike`]; they emit no phase markers.

use crate::defense::{CanaryGuard, GuardedOutcome, ProvenanceFilter};
use crate::injectors::Injector;
use crate::metrics::{absolute_degradation, is_toxic};
use crate::runner::CellSeed;
use crate::stream::DefensePolicy;
use pipa_cost::{CostBackend, CostEngine, CostResult};
use pipa_ia::ClearBoxAdvisor;
use pipa_obs::{CellCtx, Event, TraceOutputs};
use pipa_sim::{IndexConfig, Workload};
use serde::Serialize;

/// How [`update`] moves the victim onto a training set.
pub enum Update<'a> {
    /// Train from scratch.
    Train,
    /// Retrain and deploy unconditionally.
    Retrain,
    /// Retrain behind the guard, checked on the canary workload.
    Guarded(CanaryGuard, &'a Workload),
}

/// The update step: the backend observes `training` once (learned cost
/// backends refit on it), then the victim takes it as `how` says. Returns
/// the canary's decision when one guarded the update.
pub fn update(
    victim: &mut dyn ClearBoxAdvisor,
    cost: &dyn CostBackend,
    training: &Workload,
    how: Update<'_>,
) -> CostResult<Option<GuardedOutcome>> {
    cost.observe_training(training)?;
    match how {
        Update::Train => victim.train(cost, training).map(|()| None),
        Update::Retrain => victim.retrain(cost, training).map(|()| None),
        Update::Guarded(guard, canary) => guard
            .retrain_guarded(victim, cost, training, canary)
            .map(Some),
    }
}

/// What one [`strike`] put in front of the victim.
#[derive(Debug)]
pub struct Strike {
    /// `|Ŵ|` as built, before screening.
    pub injected: usize,
    /// The clean workload, then `Ŵ`, minus what the screen dropped.
    pub observed: Workload,
    /// Queries the provenance screen dropped.
    pub screened_out: usize,
}

/// The strike step: `injector`, if any, builds `Ŵ` (`size` queries)
/// against the victim's current parameters, `Ŵ` joins after `clean`,
/// and `screen` filters the union against its reference workload.
pub fn strike(
    victim: &mut dyn ClearBoxAdvisor,
    cost: &dyn CostBackend,
    injector: Option<&mut (dyn Injector + '_)>,
    size: usize,
    seed: u64,
    clean: &Workload,
    screen: Option<(ProvenanceFilter, &Workload)>,
) -> CostResult<Strike> {
    let injection = match injector {
        Some(injector) => injector.build(victim, cost, size, seed)?,
        None => Workload::new(),
    };
    let observed = clean.union(&injection);
    let (observed, screened_out) = match screen {
        Some((filter, reference)) => {
            filter.screen(reference, &observed, cost.catalog().schema.num_columns())
        }
        None => (observed, 0),
    };
    Ok(Strike {
        injected: injection.len(),
        observed,
        screened_out,
    })
}

/// One stress-test outcome.
///
/// `PartialEq` is bit-exact on the cost fields: outcomes are pure
/// functions of `(catalog, workload, seed)`, so fleet determinism tests
/// compare whole reports structurally.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StressOutcome {
    /// Advisor display name.
    pub advisor: String,
    /// Injector display name.
    pub injector: String,
    /// `c_b`: target-workload cost under the clean advisor's indexes.
    pub baseline_cost: f64,
    /// Target-workload cost under the poisoned advisor's indexes.
    pub poisoned_cost: f64,
    /// Absolute performance Degradation.
    pub ad: f64,
    /// Whether the injection met Definition 2.4.
    pub toxic: bool,
    /// Index names recommended before poisoning.
    pub baseline_indexes: Vec<String>,
    /// Index names recommended after poisoning.
    pub poisoned_indexes: Vec<String>,
    /// Actual injection-workload size achieved.
    pub injection_size: usize,
    /// Run seed.
    pub seed: u64,
}

/// Everything one [`StressTest`] run produced: the outcome, both
/// configurations, and the defense's tally.
#[derive(Debug, Clone, PartialEq)]
pub struct StressRun {
    /// The reported outcome.
    pub outcome: StressOutcome,
    /// The clean advisor's configuration.
    pub clean_config: IndexConfig,
    /// The configuration in force after the poisoned update.
    pub poisoned_config: IndexConfig,
    /// Whether the canary rolled the update back.
    pub rolled_back: bool,
    /// Queries the provenance screen dropped.
    pub screened_out: usize,
}

/// One full stress test, configured fluently:
///
/// ```no_run
/// use pipa_core::{harness::StressTest, injectors::TpInjector, runner::CellSeed};
/// use pipa_ia::{AdvisorKind, BuildCtx, SpeedPreset, TrajectoryMode};
/// use pipa_workload::Benchmark;
///
/// let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
/// let normal = pipa_core::experiment::normal_workload(
///     &pipa_core::experiment::CellConfig::quick(Benchmark::TpcH),
///     7,
/// );
/// let seed = CellSeed::derive(0, 0);
/// let mut advisor =
///     AdvisorKind::DbaBandit(TrajectoryMode::Best).build_with(BuildCtx::new(SpeedPreset::Quick, seed.get()));
/// let mut injector = TpInjector::new(Benchmark::TpcH.default_templates());
/// let outcome = StressTest::new(&cost, &normal)
///     .injection_size(18)
///     .actual_cost(false)
///     .seed(seed)
///     .run(advisor.as_mut(), &mut injector)
///     .expect("cost backend");
/// println!("AD = {:.3}", outcome.ad);
/// ```
///
/// The advisor is (re)trained from scratch on the normal workload first,
/// so the same advisor instance can be reused across runs.
///
/// Defaults mirror the paper's main experiment: injection size 18,
/// actual-cost measurement, seed 0, no defense.
pub struct StressTest<'a> {
    cost: &'a dyn CostBackend,
    normal: &'a Workload,
    injection_size: usize,
    use_actual_cost: bool,
    seed: CellSeed,
    defense: DefensePolicy,
    outputs: Option<&'a TraceOutputs>,
}

impl<'a> StressTest<'a> {
    /// A stress test over a cost backend and target (normal) workload.
    pub fn new(cost: &'a dyn CostBackend, normal: &'a Workload) -> Self {
        StressTest {
            cost,
            normal,
            injection_size: 18,
            use_actual_cost: true,
            seed: CellSeed::raw(0),
            defense: DefensePolicy::None,
            outputs: None,
        }
    }

    /// Injection-workload size `N̂` (default 18).
    pub fn injection_size(mut self, n: usize) -> Self {
        self.injection_size = n;
        self
    }

    /// Measure final costs with the executor (`true`, default; falls
    /// back to estimates when no data is materialized) or with the
    /// analytical model (`false`).
    pub fn actual_cost(mut self, on: bool) -> Self {
        self.use_actual_cost = on;
        self
    }

    /// The cell seed (propagated to the injector and the outcome).
    pub fn seed(mut self, seed: CellSeed) -> Self {
        self.seed = seed;
        self
    }

    /// The defense guarding the poisoned update (default none). `W` is
    /// the canary and the provenance reference, as the stream's history
    /// at window 1.
    pub fn defense(mut self, defense: DefensePolicy) -> Self {
        self.defense = defense;
        self
    }

    /// Attach observability outputs for a *standalone* run: the test
    /// records into a fresh cell scope and flushes it here on
    /// completion. Inside a traced grid ([`crate::experiment::run_grid_traced`])
    /// the grid's own recording scope is already active and takes
    /// precedence — cell ordering stays with the runner.
    pub fn sink(mut self, outputs: &'a TraceOutputs) -> Self {
        self.outputs = Some(outputs);
        self
    }

    /// Execute: train on `W`, measure the baseline, build `Ŵ` (the
    /// injector may probe the trained victim), retrain on `{W, Ŵ}`,
    /// re-measure on `W`.
    pub fn run(
        &self,
        advisor: &mut dyn ClearBoxAdvisor,
        injector: &mut dyn Injector,
    ) -> CostResult<StressOutcome> {
        self.run_detailed(advisor, injector).map(|run| run.outcome)
    }

    /// [`StressTest::run`], also returning both configurations and the
    /// defense's tally.
    pub fn run_detailed(
        &self,
        advisor: &mut dyn ClearBoxAdvisor,
        injector: &mut dyn Injector,
    ) -> CostResult<StressRun> {
        match self.outputs {
            Some(out) if out.active() && !pipa_obs::is_recording() => {
                let ctx = CellCtx::new(self.seed.get())
                    .field("advisor", advisor.name())
                    .field("injector", injector.name());
                let (run, trace) =
                    pipa_obs::record_cell(true, ctx, || self.execute(advisor, injector));
                out.write_cell(&trace);
                out.flush();
                run
            }
            _ => self.execute(advisor, injector),
        }
    }

    fn execute(
        &self,
        advisor: &mut dyn ClearBoxAdvisor,
        injector: &mut dyn Injector,
    ) -> CostResult<StressRun> {
        // Green flow: train on W, establish the performance baseline.
        pipa_obs::phase("train");
        update(advisor, self.cost, self.normal, Update::Train)?;

        pipa_obs::phase("baseline");
        let clean_config = advisor.recommend(self.cost, self.normal)?;
        let baseline_cost = self.workload_cost(&clean_config)?;

        // Red flow: build Ŵ. The probing/injecting stages re-declare
        // their own phases ("probe", "inject") as they run; injectors
        // that neither probe nor filter (TP, FSM) stay in this one.
        pipa_obs::phase("inject");
        let screen = self.defense.provenance().map(|f| (f, self.normal));
        let struck = strike(
            advisor,
            self.cost,
            Some(injector),
            self.injection_size,
            self.seed.get(),
            self.normal,
            screen,
        )?;

        pipa_obs::phase("retrain");
        let how = self.defense.retrain(self.normal);
        let guarded = update(advisor, self.cost, &struck.observed, how)?;

        pipa_obs::phase("measure");
        let (poisoned_config, rolled_back) = match guarded {
            Some(g) => (g.final_config, g.rolled_back),
            None => (advisor.recommend(self.cost, self.normal)?, false),
        };
        let poisoned_cost = self.workload_cost(&poisoned_config)?;

        let outcome = StressOutcome {
            advisor: advisor.name(),
            injector: injector.name().to_string(),
            baseline_cost,
            poisoned_cost,
            ad: absolute_degradation(poisoned_cost, baseline_cost),
            toxic: is_toxic(poisoned_cost, baseline_cost),
            baseline_indexes: index_names(self.cost, &clean_config),
            poisoned_indexes: index_names(self.cost, &poisoned_config),
            injection_size: struck.injected,
            seed: self.seed.get(),
        };
        if pipa_obs::is_recording() {
            pipa_obs::emit(
                Event::new("stress_outcome")
                    .field("baseline_cost", outcome.baseline_cost)
                    .field("poisoned_cost", outcome.poisoned_cost)
                    .field("ad", outcome.ad)
                    .field("toxic", outcome.toxic)
                    .field("injection_size", outcome.injection_size),
            );
        }
        Ok(StressRun {
            outcome,
            clean_config,
            poisoned_config,
            rolled_back,
            screened_out: struck.screened_out,
        })
    }

    fn workload_cost(&self, cfg: &IndexConfig) -> CostResult<f64> {
        CostEngine::new(self.cost).measured_workload_cost(self.normal, cfg, self.use_actual_cost)
    }
}

pub(crate) fn index_names(cost: &dyn CostBackend, cfg: &IndexConfig) -> Vec<String> {
    let schema = cost.catalog().schema;
    cfg.indexes().iter().map(|i| i.name(schema)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injectors::{TargetedInjector, TpInjector};
    use crate::probe::ProbeConfig;
    use pipa_ia::{AdvisorKind, BuildCtx, SpeedPreset, TrajectoryMode};
    use pipa_obs::MemorySink;
    use pipa_qgen::StGenerator;
    use pipa_workload::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (pipa_cost::SimBackend, Workload) {
        let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        (cost, w)
    }

    #[test]
    fn stress_test_produces_consistent_outcome() {
        let (cost, w) = setup();
        let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best)
            .build_with(BuildCtx::new(SpeedPreset::Test, 1));
        let mut inj = TpInjector::new(Benchmark::TpcH.default_templates());
        let run = StressTest::new(&cost, &w)
            .injection_size(6)
            .actual_cost(false)
            .seed(CellSeed::raw(1))
            .run_detailed(ia.as_mut(), &mut inj)
            .unwrap();
        let out = &run.outcome;
        assert!(out.baseline_cost > 0.0);
        assert!(out.poisoned_cost > 0.0);
        let expect_ad = (out.poisoned_cost - out.baseline_cost) / out.baseline_cost;
        assert!((out.ad - expect_ad).abs() < 1e-12);
        assert_eq!(out.toxic, out.ad > 0.0);
        assert_eq!(out.advisor, "DBAbandit-b");
        assert_eq!(out.injector, "TP");
        assert_eq!(out.seed, 1);
        assert!(!out.baseline_indexes.is_empty());
        assert_eq!(out.baseline_indexes, index_names(&cost, &run.clean_config));
        assert_eq!(
            out.poisoned_indexes,
            index_names(&cost, &run.poisoned_config)
        );
        assert!(!run.rolled_back);
        assert_eq!(run.screened_out, 0);
    }

    #[test]
    fn defended_runs_report_the_defense_tally() {
        let (cost, w) = setup();
        let run = |defense| {
            let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best)
                .build_with(BuildCtx::new(SpeedPreset::Test, 5));
            let mut inj = TargetedInjector::pipa(Box::new(StGenerator::new(5)));
            inj.probe_cfg = ProbeConfig {
                epochs: 2,
                queries_per_epoch: 6,
                ..Default::default()
            };
            StressTest::new(&cost, &w)
                .injection_size(10)
                .actual_cost(false)
                .seed(CellSeed::raw(5))
                .defense(defense)
                .run_detailed(ia.as_mut(), &mut inj)
                .unwrap()
        };
        // A negative tolerance rejects every update.
        let canary = run(DefensePolicy::Canary { tolerance: -1.0 });
        assert!(canary.rolled_back);
        assert_eq!(canary.screened_out, 0);
        // PIPA's injection filters on mid-ranked columns W never touches,
        // which is the screen's fingerprint.
        let screened = run(DefensePolicy::Provenance {
            max_novel_fraction: 0.5,
            history: 1,
        });
        assert!(!screened.rolled_back);
        assert!(
            screened.screened_out > 0,
            "nothing of {} injected queries screened",
            screened.outcome.injection_size
        );
    }

    #[test]
    fn pipa_attack_on_bandit_is_toxic() {
        // The core claim in miniature: a PIPA injection degrades a
        // learned advisor.
        let (cost, w) = setup();
        let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best)
            .build_with(BuildCtx::new(SpeedPreset::Test, 2));
        let mut inj = TargetedInjector::pipa(Box::new(StGenerator::new(2)));
        inj.probe_cfg = ProbeConfig {
            epochs: 4,
            queries_per_epoch: 6,
            ..Default::default()
        };
        let out = StressTest::new(&cost, &w)
            .injection_size(18)
            .actual_cost(false)
            .seed(CellSeed::raw(2))
            .run(ia.as_mut(), &mut inj)
            .unwrap();
        assert!(
            out.ad > -0.05,
            "PIPA should not substantially help the victim: AD {}",
            out.ad
        );
    }

    #[test]
    fn reusing_the_advisor_across_runs_is_safe() {
        let (cost, w) = setup();
        let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best)
            .build_with(BuildCtx::new(SpeedPreset::Test, 3));
        let mut inj = TpInjector::new(Benchmark::TpcH.default_templates());
        let test = StressTest::new(&cost, &w)
            .injection_size(4)
            .actual_cost(false)
            .seed(CellSeed::raw(3));
        let a = test.run(ia.as_mut(), &mut inj).unwrap();
        let b = test.run(ia.as_mut(), &mut inj).unwrap();
        // Baselines agree because `train` resets the advisor.
        assert!((a.baseline_cost - b.baseline_cost).abs() < 1e-6);
    }

    #[test]
    fn builder_sink_captures_a_standalone_run() {
        let (cost, w) = setup();
        let trace = MemorySink::new();
        let out = TraceOutputs::with_sinks(Some(Box::new(trace.clone())), None);
        let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best)
            .build_with(BuildCtx::new(SpeedPreset::Test, 4));
        let mut inj = TpInjector::new(Benchmark::TpcH.default_templates());
        let outcome = StressTest::new(&cost, &w)
            .injection_size(4)
            .actual_cost(false)
            .seed(CellSeed::raw(4))
            .sink(&out)
            .run(ia.as_mut(), &mut inj)
            .unwrap();
        let lines = trace.lines();
        assert!(!lines.is_empty());
        for line in &lines {
            let keys = pipa_obs::json::top_level_keys(line).expect("valid JSON");
            assert!(keys.contains(&"event".to_string()), "{line}");
            assert!(keys.contains(&"cell_seed".to_string()), "{line}");
            assert!(keys.contains(&"phase".to_string()), "{line}");
        }
        // Phases appear in stage order; the outcome event closes the run.
        let phases: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"phase_start\""))
            .collect();
        assert!(phases.len() >= 5, "expected the five stages: {phases:?}");
        let last_event = lines
            .iter()
            .rfind(|l| l.contains("\"event\":\"stress_outcome\""))
            .expect("outcome event present");
        assert!(last_event.contains("\"ad\":"));
        assert!(outcome.ad.is_finite());
    }

    /// Delegates to a simulator backend, but every executed workload
    /// costs `executed`.
    struct FixedExecution {
        inner: pipa_cost::SimBackend,
        executed: f64,
    }

    impl CostBackend for FixedExecution {
        fn name(&self) -> &'static str {
            "fixed-execution"
        }
        fn catalog(&self) -> pipa_sim::cost::Catalog<'_> {
            self.inner.catalog()
        }
        fn query_cost(&self, q: &pipa_sim::Query, cfg: &IndexConfig) -> CostResult<f64> {
            self.inner.query_cost(q, cfg)
        }
        fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
            self.inner.workload_cost(w, cfg)
        }
        fn session_begin(&self, w: &Workload) -> CostResult<pipa_cost::CostSession> {
            self.inner.session_begin(w)
        }
        fn session_total(&self, w: &Workload, s: &pipa_cost::CostSession) -> CostResult<f64> {
            self.inner.session_total(w, s)
        }
        fn session_preview_add(
            &self,
            w: &Workload,
            s: &pipa_cost::CostSession,
            cfg_after: &IndexConfig,
            idx: &pipa_sim::Index,
        ) -> CostResult<f64> {
            self.inner.session_preview_add(w, s, cfg_after, idx)
        }
        fn session_add(
            &self,
            w: &Workload,
            s: &mut pipa_cost::CostSession,
            cfg_after: &IndexConfig,
            idx: &pipa_sim::Index,
        ) -> CostResult<f64> {
            self.inner.session_add(w, s, cfg_after, idx)
        }
        fn executed_workload_cost(&self, _w: &Workload, _cfg: &IndexConfig) -> CostResult<f64> {
            Ok(self.executed)
        }
        fn hypo_create(&self, idx: &pipa_sim::Index) -> CostResult<()> {
            self.inner.hypo_create(idx)
        }
        fn hypo_drop(&self, idx: &pipa_sim::Index) -> CostResult<()> {
            self.inner.hypo_drop(idx)
        }
        fn hypo_clear(&self) -> CostResult<()> {
            self.inner.hypo_clear()
        }
        fn hypo_config(&self) -> CostResult<IndexConfig> {
            self.inner.hypo_config()
        }
    }

    #[test]
    fn invalid_measured_costs_are_typed_errors() {
        for executed in [f64::NAN, f64::INFINITY, -1.0] {
            let (inner, w) = setup();
            let cost = FixedExecution { inner, executed };
            let mut ia = AdvisorKind::DbaBandit(TrajectoryMode::Best)
                .build_with(BuildCtx::new(SpeedPreset::Test, 1));
            let mut inj = TpInjector::new(Benchmark::TpcH.default_templates());
            let err = StressTest::new(&cost, &w)
                .injection_size(4)
                .actual_cost(true)
                .seed(CellSeed::raw(1))
                .run(ia.as_mut(), &mut inj)
                .expect_err("an invalid measured cost fails the run");
            match err {
                pipa_cost::CostError::NonFinite { backend, value } => {
                    assert_eq!(backend, "fixed-execution");
                    assert_eq!(value.to_bits(), executed.to_bits());
                }
                other => panic!("expected NonFinite for {executed}, got {other:?}"),
            }
        }
    }
}
