//! Injection-workload strategies: PIPA plus the five baselines of §6.2.
//!
//! | name | columns targeted                         | generator  |
//! |------|------------------------------------------|------------|
//! | TP   | (template instantiations, no targeting)  | templates  |
//! | FSM  | (random queries, no targeting)           | FSM        |
//! | I-R  | random columns                           | index-aware|
//! | I-L  | low-ranked (bottom 50% of probed rank)   | index-aware|
//! | P-C  | mid-ranked by the *clear-box* parameters | index-aware|
//! | PIPA | mid-ranked by the *probed* rank + filter | index-aware|

use crate::inject::{inject, InjectConfig};
use crate::preference::{segment, IndexingPreference, SegmentConfig, Segments};
use crate::probe::{probe, ProbeConfig};
use pipa_cost::{CostBackend, CostResult};
use pipa_ia::ClearBoxAdvisor;
use pipa_qgen::QueryGenerator;
use pipa_sim::{ColumnId, Workload};
use pipa_workload::TemplateSpec;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An injection-workload builder. `advisor` is the (already trained)
/// victim; opaque-box strategies only call its public interface, the
/// clear-box baseline also reads its internal preferences.
pub trait Injector {
    /// Display name matching the paper's figures.
    fn name(&self) -> &str;

    /// Build an injection workload of `n` queries.
    fn build(
        &mut self,
        advisor: &mut dyn ClearBoxAdvisor,
        cost: &dyn CostBackend,
        n: usize,
        seed: u64,
    ) -> CostResult<Workload>;
}

/// TP: fresh template instantiations with uniform random frequencies.
pub struct TpInjector {
    templates: Vec<TemplateSpec>,
}

impl TpInjector {
    /// Over a benchmark's template pool.
    pub fn new(templates: Vec<TemplateSpec>) -> Self {
        TpInjector { templates }
    }
}

impl Injector for TpInjector {
    fn name(&self) -> &str {
        "TP"
    }

    fn build(
        &mut self,
        _advisor: &mut dyn ClearBoxAdvisor,
        cost: &dyn CostBackend,
        n: usize,
        seed: u64,
    ) -> CostResult<Workload> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x79);
        let schema = cost.catalog().schema;
        let mut w = Workload::new();
        for i in 0..n {
            let t = &self.templates[i % self.templates.len()];
            if let Ok(q) = t.instantiate(schema, &mut rng) {
                w.push(q, rng.gen_range(1..=10));
            }
        }
        Ok(w)
    }
}

/// Generic generator-backed injector with a column-targeting policy.
pub struct TargetedInjector {
    name: String,
    generator: Box<dyn QueryGenerator>,
    policy: TargetPolicy,
    /// Probing configuration (used by the policies that probe).
    pub probe_cfg: ProbeConfig,
    /// Segmentation configuration (mid-ranked policies).
    pub segment_cfg: SegmentConfig,
    /// Injection configuration (PIPA's filter etc.).
    pub inject_cfg: InjectConfig,
}

/// How target columns are chosen.
pub enum TargetPolicy {
    /// No targeting at all: raw generator output (the FSM baseline).
    None,
    /// Random columns per query (I-R).
    Random,
    /// Bottom 50% of the probed ranking (I-L).
    LowRanked,
    /// Mid segment of the probed ranking + toxicity filter (PIPA).
    MidRankedProbed,
    /// Mid segment of the *clear-box* internal ranking + filter (P-C).
    MidRankedClearBox,
}

impl TargetedInjector {
    /// Construct with a policy and generator.
    pub fn new(name: &str, generator: Box<dyn QueryGenerator>, policy: TargetPolicy) -> Self {
        TargetedInjector {
            name: name.to_string(),
            generator,
            policy,
            probe_cfg: ProbeConfig::default(),
            segment_cfg: SegmentConfig::default(),
            inject_cfg: InjectConfig::default(),
        }
    }

    /// The FSM baseline.
    pub fn fsm(seed: u64) -> Self {
        Self::new(
            "FSM",
            Box::new(pipa_qgen::FsmGenerator::new(seed)),
            TargetPolicy::None,
        )
    }

    /// I-R over a generator.
    pub fn i_r(generator: Box<dyn QueryGenerator>) -> Self {
        Self::new("I-R", generator, TargetPolicy::Random)
    }

    /// I-L over a generator.
    pub fn i_l(generator: Box<dyn QueryGenerator>) -> Self {
        Self::new("I-L", generator, TargetPolicy::LowRanked)
    }

    /// PIPA over a generator.
    pub fn pipa(generator: Box<dyn QueryGenerator>) -> Self {
        Self::new("PIPA", generator, TargetPolicy::MidRankedProbed)
    }

    /// P-C over a generator.
    pub fn p_c(generator: Box<dyn QueryGenerator>) -> Self {
        Self::new("P-C", generator, TargetPolicy::MidRankedClearBox)
    }

    fn probed_segments(
        &mut self,
        advisor: &mut dyn ClearBoxAdvisor,
        cost: &dyn CostBackend,
        seed: u64,
    ) -> CostResult<(IndexingPreference, Segments)> {
        let cfg = ProbeConfig {
            seed,
            ..self.probe_cfg
        };
        let res = probe(
            as_index_advisor(advisor),
            cost,
            self.generator.as_mut(),
            &cfg,
        )?;
        let seg = segment(&res.preference, cost.catalog().schema, &self.segment_cfg);
        Ok((res.preference, seg))
    }
}

/// Upcast helper (`ClearBoxAdvisor: IndexAdvisor`).
fn as_index_advisor(a: &mut dyn ClearBoxAdvisor) -> &mut dyn pipa_ia::IndexAdvisor {
    a
}

impl Injector for TargetedInjector {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(
        &mut self,
        advisor: &mut dyn ClearBoxAdvisor,
        cost: &dyn CostBackend,
        n: usize,
        seed: u64,
    ) -> CostResult<Workload> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1417);
        let inj_cfg = InjectConfig {
            workload_size: n,
            seed,
            ..self.inject_cfg
        };
        match self.policy {
            TargetPolicy::None => {
                let mut w = Workload::new();
                let mut attempts = 0;
                while w.len() < n && attempts < n * 6 {
                    attempts += 1;
                    if let Some(q) = self.generator.generate(cost, &[], 0.5)? {
                        w.push(q, 1);
                    }
                }
                Ok(w)
            }
            TargetPolicy::Random => {
                let all = cost.catalog().schema.indexable_columns();
                let k = inj_cfg.columns_per_query;
                let mut w = Workload::new();
                let mut attempts = 0;
                while w.len() < n && attempts < n * 6 {
                    attempts += 1;
                    let cols: Vec<ColumnId> = all.choose_multiple(&mut rng, k).copied().collect();
                    if let Some(q) = self
                        .generator
                        .generate(cost, &cols, inj_cfg.target_reward)?
                    {
                        w.push(q, rng.gen_range(1..=10));
                    }
                }
                Ok(w)
            }
            TargetPolicy::LowRanked => {
                let (pref, _) = self.probed_segments(advisor, cost, seed)?;
                let l = pref.ranking.len();
                let low: Vec<ColumnId> = pref.ranking[l / 2..].to_vec();
                let k = inj_cfg.columns_per_query.min(low.len()).max(1);
                let mut w = Workload::new();
                let mut attempts = 0;
                while w.len() < n && attempts < n * 6 {
                    attempts += 1;
                    let cols: Vec<ColumnId> = low.choose_multiple(&mut rng, k).copied().collect();
                    if let Some(q) = self
                        .generator
                        .generate(cost, &cols, inj_cfg.target_reward)?
                    {
                        w.push(q, rng.gen_range(1..=10));
                    }
                }
                Ok(w)
            }
            TargetPolicy::MidRankedProbed => {
                let (_, seg) = self.probed_segments(advisor, cost, seed)?;
                Ok(inject(cost, self.generator.as_mut(), &seg, &inj_cfg)?.workload)
            }
            TargetPolicy::MidRankedClearBox => {
                let prefs = advisor.column_preferences(cost);
                let k_values: Vec<f64> = {
                    let mut v = vec![0.0; cost.catalog().schema.num_columns()];
                    for (c, p) in prefs {
                        v[c.0 as usize] = p.max(0.0);
                    }
                    v
                };
                let pref = crate::preference::preference_with_prior(cost, k_values)?;
                let seg = segment(&pref, cost.catalog().schema, &self.segment_cfg);
                Ok(inject(cost, self.generator.as_mut(), &seg, &inj_cfg)?.workload)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_ia::{AdvisorSpec, BuildCtx, SpeedPreset};
    use pipa_qgen::StGenerator;
    use pipa_workload::Benchmark;

    fn setup() -> (pipa_cost::SimBackend, Workload, Box<dyn ClearBoxAdvisor>) {
        let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        let mut ia = AdvisorSpec::new("dbabandit")
            .build_with(BuildCtx::new(SpeedPreset::Test, 1))
            .unwrap();
        ia.train(&cost, &w).unwrap();
        (cost, w, ia)
    }

    fn fast_probe() -> ProbeConfig {
        ProbeConfig {
            epochs: 3,
            queries_per_epoch: 4,
            ..Default::default()
        }
    }

    #[test]
    fn tp_injector_uses_templates() {
        let (cost, _, mut ia) = setup();
        let mut inj = TpInjector::new(Benchmark::TpcH.default_templates());
        let w = inj.build(ia.as_mut(), &cost, 12, 3).unwrap();
        assert_eq!(w.len(), 12);
        assert!(w.iter().all(|wq| wq.frequency >= 1));
    }

    #[test]
    fn fsm_injector_ignores_advisor() {
        let (cost, _, mut ia) = setup();
        let mut inj = TargetedInjector::fsm(9);
        let w = inj.build(ia.as_mut(), &cost, 10, 3).unwrap();
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn pipa_injector_avoids_top_column() {
        let (cost, _, mut ia) = setup();
        let mut inj = TargetedInjector::pipa(Box::new(StGenerator::new(4)));
        inj.probe_cfg = fast_probe();
        let w = inj.build(ia.as_mut(), &cost, 8, 3).unwrap();
        assert!(!w.is_empty(), "pipa built an injection workload");
    }

    #[test]
    fn p_c_reads_clear_box() {
        let (cost, _, mut ia) = setup();
        let mut inj = TargetedInjector::p_c(Box::new(StGenerator::new(5)));
        let w = inj.build(ia.as_mut(), &cost, 8, 3).unwrap();
        assert!(!w.is_empty());
    }

    #[test]
    fn i_l_targets_low_ranked() {
        let (cost, _, mut ia) = setup();
        let mut inj = TargetedInjector::i_l(Box::new(StGenerator::new(6)));
        inj.probe_cfg = fast_probe();
        let w = inj.build(ia.as_mut(), &cost, 6, 3).unwrap();
        assert!(!w.is_empty());
    }

    #[test]
    fn names_match_the_paper() {
        let gen = || Box::new(StGenerator::new(0)) as Box<dyn QueryGenerator>;
        assert_eq!(TargetedInjector::i_r(gen()).name(), "I-R");
        assert_eq!(TargetedInjector::i_l(gen()).name(), "I-L");
        assert_eq!(TargetedInjector::pipa(gen()).name(), "PIPA");
        assert_eq!(TargetedInjector::p_c(gen()).name(), "P-C");
        assert_eq!(TargetedInjector::fsm(0).name(), "FSM");
        assert_eq!(TpInjector::new(vec![]).name(), "TP");
    }
}
