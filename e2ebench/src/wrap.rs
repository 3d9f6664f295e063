//! Transparent wrappers that time each layer from outside the program.
//!
//! Every wrapper forwards each call unchanged to the value it wraps,
//! including the trait methods that have default bodies, so a traced
//! unit computes exactly what an untraced one does. The only addition is
//! a [`trace::span`] around the calls that cross a layer boundary.

use crate::trace::{self, INJECT_SPAN, RECOMMEND_SPAN};
use pipa::core::Injector;
use pipa::cost::{Catalog, ConfigDelta, CostBackend, CostResult, CostSession};
use pipa::ia::{register_target, AdvisorSpec, ClearBoxAdvisor, IndexAdvisor};
use pipa::qgen::QueryGenerator;
use pipa::sim::{ColumnId, Index, IndexConfig, Query, Workload};
use std::sync::atomic::{AtomicU64, Ordering};

const ESTIMATE: &str = "cost.estimate";
const SESSION: &str = "cost.session";
const EXECUTE: &str = "cost.execute";
const OBSERVE: &str = "cost.observe";

/// The `CostBackend` seam, timed.
///
/// Estimates (`*_cost` and `hypo_*_cost`), incremental sessions and
/// executed costs each get their own span name. Catalog access and the
/// hypothetical-index bookkeeping are forwarded untimed.
pub struct TimedCost<'a>(pub &'a dyn CostBackend);

impl CostBackend for TimedCost<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn catalog(&self) -> Catalog<'_> {
        self.0.catalog()
    }
    fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        trace::span(ESTIMATE, || self.0.query_cost(q, cfg))
    }
    fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        trace::span(ESTIMATE, || self.0.workload_cost(w, cfg))
    }
    fn batch_workload_cost(&self, w: &Workload, configs: &[IndexConfig]) -> CostResult<Vec<f64>> {
        trace::span(ESTIMATE, || self.0.batch_workload_cost(w, configs))
    }
    fn delta_workload_cost(
        &self,
        w: &Workload,
        base: &IndexConfig,
        delta: &ConfigDelta,
    ) -> CostResult<f64> {
        trace::span(ESTIMATE, || self.0.delta_workload_cost(w, base, delta))
    }
    fn session_begin(&self, w: &Workload) -> CostResult<CostSession> {
        trace::span(SESSION, || self.0.session_begin(w))
    }
    fn session_total(&self, w: &Workload, session: &CostSession) -> CostResult<f64> {
        trace::span(SESSION, || self.0.session_total(w, session))
    }
    fn session_preview_add(
        &self,
        w: &Workload,
        session: &CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        trace::span(SESSION, || {
            self.0.session_preview_add(w, session, cfg_after, idx)
        })
    }
    fn session_add(
        &self,
        w: &Workload,
        session: &mut CostSession,
        cfg_after: &IndexConfig,
        idx: &Index,
    ) -> CostResult<f64> {
        trace::span(SESSION, || self.0.session_add(w, session, cfg_after, idx))
    }
    fn supports_execution(&self) -> bool {
        self.0.supports_execution()
    }
    fn executed_query_cost(&self, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
        trace::span(EXECUTE, || self.0.executed_query_cost(q, cfg))
    }
    fn executed_workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> CostResult<f64> {
        trace::span(EXECUTE, || self.0.executed_workload_cost(w, cfg))
    }
    fn render_sql(&self, q: &Query) -> CostResult<String> {
        self.0.render_sql(q)
    }
    fn explain(&self, q: &Query, cfg: &IndexConfig) -> CostResult<String> {
        self.0.explain(q, cfg)
    }
    fn hypo_create(&self, idx: &Index) -> CostResult<()> {
        self.0.hypo_create(idx)
    }
    fn hypo_drop(&self, idx: &Index) -> CostResult<()> {
        self.0.hypo_drop(idx)
    }
    fn hypo_clear(&self) -> CostResult<()> {
        self.0.hypo_clear()
    }
    fn hypo_config(&self) -> CostResult<IndexConfig> {
        self.0.hypo_config()
    }
    fn hypo_query_cost(&self, q: &Query) -> CostResult<f64> {
        trace::span(ESTIMATE, || self.0.hypo_query_cost(q))
    }
    fn hypo_workload_cost(&self, w: &Workload) -> CostResult<f64> {
        trace::span(ESTIMATE, || self.0.hypo_workload_cost(w))
    }
    fn observe_training(&self, w: &Workload) -> CostResult<()> {
        trace::span(OBSERVE, || self.0.observe_training(w))
    }
}

/// An advisor, timed: `train`, `retrain` and `recommend` get spans.
///
/// With `wrap_cost` the advisor also times the backend it is handed.
/// The fleet needs that: it builds its tenants' backends itself, so the
/// benchmark cannot pass a [`TimedCost`] in.
pub struct TimedAdvisor {
    inner: Box<dyn ClearBoxAdvisor>,
    wrap_cost: bool,
}

impl TimedAdvisor {
    fn call<T>(
        &mut self,
        name: &'static str,
        cost: &dyn CostBackend,
        f: impl FnOnce(&mut dyn ClearBoxAdvisor, &dyn CostBackend) -> T,
    ) -> T {
        let inner = self.inner.as_mut();
        trace::span(name, || {
            if self.wrap_cost {
                f(inner, &TimedCost(cost))
            } else {
                f(inner, cost)
            }
        })
    }
}

impl IndexAdvisor for TimedAdvisor {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        self.call("ia.train", cost, |ia, cost| ia.train(cost, workload))
    }
    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        self.call("ia.retrain", cost, |ia, cost| ia.retrain(cost, workload))
    }
    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        self.call(RECOMMEND_SPAN, cost, |ia, cost| {
            ia.recommend(cost, workload)
        })
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

impl ClearBoxAdvisor for TimedAdvisor {
    fn column_preferences(&self, cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        self.inner.column_preferences(cost)
    }
}

/// Registry id of the timed variant of built-in kind `kind`.
pub fn timed_kind(kind: &str, wrap_cost: bool) -> String {
    let seam = if wrap_cost { "timed-cost" } else { "timed" };
    format!("e2ebench.{seam}.{kind}")
}

/// Register the timed variants of a built-in advisor kind under
/// [`timed_kind`]. Each builds the built-in advisor from the same spec
/// and wraps it, so labels, seeds and behaviour are those of the
/// built-in kind.
pub fn register_timed(kind: &'static str) {
    for wrap_cost in [false, true] {
        let builtin = move |spec: &AdvisorSpec| AdvisorSpec {
            kind: kind.to_string(),
            ..spec.clone()
        };
        register_target(
            timed_kind(kind, wrap_cost),
            move |spec| builtin(spec).label(),
            move |spec| {
                let inner = builtin(spec)
                    .build()
                    .expect("the wrapped kind is a built-in, always registered");
                Box::new(TimedAdvisor { inner, wrap_cost })
            },
        );
    }
}

/// Queries returned by timed generators (their calls are the span count).
pub static QGEN_ACCEPTED: AtomicU64 = AtomicU64::new(0);

/// A query generator, timed; counts the calls that returned a query.
pub struct TimedGen(pub Box<dyn QueryGenerator>);

impl QueryGenerator for TimedGen {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn generate(
        &mut self,
        cost: &dyn CostBackend,
        targets: &[ColumnId],
        reward: f64,
    ) -> CostResult<Option<Query>> {
        let out = trace::span("qgen.generate", || self.0.generate(cost, targets, reward));
        if let Ok(Some(_)) = &out {
            QGEN_ACCEPTED.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// An injector, timed: its `build` (probing and injecting) gets a span.
pub struct TimedInjector(pub Box<dyn Injector>);

impl Injector for TimedInjector {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn build(
        &mut self,
        advisor: &mut dyn ClearBoxAdvisor,
        cost: &dyn CostBackend,
        n: usize,
        seed: u64,
    ) -> CostResult<Workload> {
        trace::span(INJECT_SPAN, || self.0.build(advisor, cost, n, seed))
    }
}
