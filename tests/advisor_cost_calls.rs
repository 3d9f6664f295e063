//! The shape of an advisor call's cost traffic. DBAbandit's context for
//! an arm is that arm's what-if benefit, and the workload and backend
//! stay fixed for a whole `train`/`retrain`/`recommend` call. So a call
//! prices the empty configuration once, begins one session, and previews
//! each column's single index at most once, however many rounds it runs.
//! The oracle preference takes the same route.

use pipa::core::preference::oracle_preference;
use pipa::cost::{Catalog, CostBackend, CostResult, CostSession, SimBackend};
use pipa::ia::{AdvisorSpec, BuildCtx, IndexAdvisor, SpeedPreset};
use pipa::sim::{ColumnId, Index, IndexConfig, Query, Workload};
use pipa::workload::{Benchmark, WorkloadGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// Cost calls one advisor call made.
#[derive(Debug, Default)]
struct Calls {
    workload_costs: usize,
    session_begins: usize,
    /// Leading column of every previewed index, in call order.
    previews: Vec<ColumnId>,
}

impl Calls {
    /// Previewed columns that were previewed more than once.
    fn repeated_previews(&self) -> Vec<ColumnId> {
        let mut cols = self.previews.clone();
        cols.sort();
        let mut repeated: Vec<ColumnId> = cols
            .windows(2)
            .filter(|p| p[0] == p[1])
            .map(|p| p[0])
            .collect();
        repeated.dedup();
        repeated
    }
}

/// A transparent backend that counts the calls made through it.
struct Counting<'a> {
    inner: &'a dyn CostBackend,
    calls: Mutex<Calls>,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn CostBackend) -> Self {
        Counting {
            inner,
            calls: Mutex::new(Calls::default()),
        }
    }

    /// The calls counted since the last `take`.
    fn take(&self) -> Calls {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }
}

impl CostBackend for Counting<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn catalog(&self) -> Catalog<'_> {
        self.inner.catalog()
    }
    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        self.inner.query_cost(q, cfg)
    }
    fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        self.calls.lock().unwrap().workload_costs += 1;
        self.inner.workload_cost(w, cfg)
    }
    fn session_begin(&self, w: &Workload) -> CostResult<CostSession> {
        self.calls.lock().unwrap().session_begins += 1;
        self.inner.session_begin(w)
    }
    fn session_total(&self, w: &Workload, session: &CostSession) -> CostResult<f64> {
        self.inner.session_total(w, session)
    }
    fn session_preview_add(
        &self,
        w: &Workload,
        session: &CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.calls.lock().unwrap().previews.push(idx.leading());
        self.inner.session_preview_add(w, session, cfg_after, idx)
    }
    fn session_add(
        &self,
        w: &Workload,
        session: &mut CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        self.inner.session_add(w, session, cfg_after, idx)
    }
    fn observe_training(&self, w: &Workload) -> CostResult<()> {
        self.inner.observe_training(w)
    }
}

fn tpcds() -> (SimBackend, WorkloadGenerator) {
    let b = Benchmark::TpcDs;
    (
        SimBackend::new(b.database(1.0, None)),
        WorkloadGenerator::new(b.schema(), b.default_templates()),
    )
}

fn normal(gen: &WorkloadGenerator, seed: u64) -> Workload {
    gen.normal(&mut ChaCha8Rng::seed_from_u64(seed))
        .expect("TPC-DS templates instantiate")
}

/// One `workload_cost`, one `session_begin`, one preview per column.
fn assert_priced_once(call: &str, calls: &Calls) {
    assert!(calls.workload_costs <= 1, "{call}: {calls:?}");
    assert!(calls.session_begins <= 1, "{call}: {calls:?}");
    assert!(
        calls.repeated_previews().is_empty(),
        "{call} previewed {:?} more than once",
        calls.repeated_previews()
    );
}

#[test]
fn dbabandit_prices_each_arm_once_per_call() {
    let (sim, gen) = tpcds();
    let cost = Counting::new(&sim);
    let spec = AdvisorSpec::new("dbabandit");
    for seed in 0..3 {
        let mut ia = spec
            .build_with(BuildCtx::new(SpeedPreset::Test, seed))
            .unwrap();
        let (first, second) = (normal(&gen, seed), normal(&gen, seed + 100));
        ia.train(&cost, &first).expect("train");
        assert_priced_once("train", &cost.take());
        ia.retrain(&cost, &second).expect("retrain");
        assert_priced_once("retrain", &cost.take());
        ia.recommend(&cost, &second).expect("recommend");
        assert_priced_once("recommend", &cost.take());
    }
}

#[test]
fn dbabandit_recommend_without_regeneration_previews_exactly_its_arms() {
    // At this seed no trial round fires the arm-update trigger, so
    // `recommend` prices its 24 arms and nothing else (the pre-context
    // bandit made 49 workload costs per round here: 490 in all).
    let (sim, gen) = tpcds();
    let cost = Counting::new(&sim);
    let w = normal(&gen, 1);
    let mut ia = AdvisorSpec::new("dbabandit")
        .build_with(BuildCtx::new(SpeedPreset::Test, 1))
        .unwrap();
    ia.train(&cost, &w).expect("train");
    cost.take();
    ia.recommend(&cost, &w).expect("recommend");
    let calls = cost.take();
    assert_eq!(calls.workload_costs, 1, "{calls:?}");
    assert_eq!(calls.session_begins, 1, "{calls:?}");
    assert_eq!(calls.previews.len(), 24, "{calls:?}");
    assert!(calls.repeated_previews().is_empty(), "{calls:?}");
}

#[test]
fn oracle_preference_prices_the_empty_configuration_once() {
    let (sim, gen) = tpcds();
    let cost = Counting::new(&sim);
    let pref = oracle_preference(&cost, &normal(&gen, 1)).expect("oracle preference");
    let calls = cost.take();
    assert_eq!(calls.workload_costs, 1, "{calls:?}");
    assert_eq!(calls.session_begins, 1, "{calls:?}");
    assert_eq!(calls.previews.len(), pref.ranking.len());
    assert!(calls.repeated_previews().is_empty());
}
