//! The in-context (LLMIA-style) advisor: recommendation by
//! nearest-exemplar matching, with **no retraining loop**.
//!
//! LLMIA (PAPERS.md) shows an "out-of-the-box" index advisor that never
//! fine-tunes on the target workload: it matches the workload against a
//! recorded corpus of `(workload, configuration)` exemplars and returns
//! the best match's configuration. The interesting robustness question —
//! the reason this is a registered poisoning *target* — is that PIPA's
//! attack works by steering the victim's *retraining* into a local
//! optimum. An advisor whose `retrain` is a corpus *append* (old
//! exemplars are never overwritten) may simply dodge that trap: the
//! clean exemplar recorded at training time still wins the match for the
//! clean workload after poisoning.
//!
//! The workload encoding reuses the `pipa-qgen` IABART machinery: each
//! query is tokenized with the IABART vocabulary and embedded through
//! the seq2seq encoder + one KV-cached [`pipa_qgen::Iabart::embed`]
//! decode step (encoder states and cross-attention K/V are precomputed
//! by the session, exactly like constrained generation uses them). The
//! workload embedding is the frequency-weighted mean of its query
//! embeddings; matching is L2 nearest-exemplar. Exemplar configurations
//! are labeled by the deterministic [`AutoAdminGreedy`] reference
//! advisor (the same labeler the IABART corpus uses).

use crate::advisor::{ClearBoxAdvisor, IndexAdvisor};
use crate::factory::SpeedPreset;
use crate::heuristic::AutoAdminGreedy;
use pipa_cost::{CostBackend, CostResult};
use pipa_qgen::token::{CLS, EOS};
use pipa_qgen::{encode_query, Iabart, IabartConfig, Word};
use pipa_sim::{ColumnId, IndexConfig, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Hyperparameters for [`InContextAdvisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InContextConfig {
    /// Index-count budget `B`.
    pub budget: usize,
    /// Exemplars recorded per `train` call (the first is the training
    /// workload itself; the rest are deterministic subsamples of it, so
    /// the corpus covers nearby workloads too).
    pub exemplars: usize,
    /// Seed for the encoder initialization and the subsampler.
    pub seed: u64,
}

impl InContextConfig {
    /// Tiny corpus for unit tests.
    pub fn fast() -> Self {
        InContextConfig {
            budget: 4,
            exemplars: 2,
            seed: 0,
        }
    }

    /// Map a factory speed preset onto a corpus size.
    pub fn for_preset(preset: SpeedPreset, seed: u64) -> Self {
        let exemplars = match preset {
            SpeedPreset::Paper => 8,
            SpeedPreset::Quick => 4,
            SpeedPreset::Test => 2,
        };
        InContextConfig {
            budget: 4,
            exemplars,
            seed,
        }
    }
}

/// One recorded `(workload embedding, configuration)` pair.
#[derive(Debug, Clone)]
struct Exemplar {
    embedding: Vec<f32>,
    config: IndexConfig,
}

/// The in-context advisor (registry kind id `"incontext"`).
pub struct InContextAdvisor {
    cfg: InContextConfig,
    /// Lazily bound to the backend's schema on first `train`/`retrain`
    /// (the advisor API hands us a catalog only through the backend).
    model: Option<Iabart>,
    corpus: Vec<Exemplar>,
}

impl InContextAdvisor {
    /// New advisor with an empty exemplar corpus.
    pub fn new(cfg: InContextConfig) -> Self {
        InContextAdvisor {
            cfg,
            model: None,
            corpus: Vec::new(),
        }
    }

    /// Recorded exemplar count (diagnostics/tests).
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    fn ensure_model(&mut self, cost: &dyn CostBackend) -> &Iabart {
        if self.model.is_none() {
            let schema = cost.catalog().schema.clone();
            let cfg = IabartConfig {
                seed: self.cfg.seed,
                ..IabartConfig::fast()
            };
            self.model = Some(Iabart::new(schema, cfg));
        }
        self.model.as_ref().expect("model initialized above")
    }

    /// Frequency-weighted mean embedding of a workload's queries.
    fn embed_workload(model: &Iabart, workload: &Workload) -> Vec<f32> {
        let vocab = model.vocab();
        let schema = model.schema();
        let mut sum: Vec<f32> = Vec::new();
        let mut total = 0.0f32;
        for wq in workload.iter() {
            // Canonical queries go through the full IABART word encoding;
            // shapes outside the FSM grammar fall back to their filter
            // columns (the featurization every advisor here shares).
            let words = encode_query(schema, &wq.query).unwrap_or_else(|| {
                wq.query
                    .filter_columns()
                    .into_iter()
                    .map(Word::Column)
                    .collect()
            });
            let mut src = vec![CLS];
            src.extend(vocab.encode_words(&words));
            src.truncate(95);
            src.push(EOS);
            let e = model.embed(&src);
            let f = wq.frequency as f32;
            if sum.is_empty() {
                sum = vec![0.0; e.len()];
            }
            for (s, v) in sum.iter_mut().zip(&e) {
                *s += f * v;
            }
            total += f;
        }
        if total > 0.0 {
            for s in &mut sum {
                *s /= total;
            }
        }
        sum
    }

    /// Label a workload with the deterministic greedy reference advisor
    /// and append the `(embedding, config)` exemplar.
    fn record_exemplar(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        if workload.is_empty() {
            return Ok(());
        }
        self.ensure_model(cost);
        let model = self.model.as_ref().expect("model bound");
        let embedding = Self::embed_workload(model, workload);
        let config = AutoAdminGreedy::new(self.cfg.budget).recommend(cost, workload)?;
        self.corpus.push(Exemplar { embedding, config });
        Ok(())
    }

    fn squared_distance(a: &[f32], b: &[f32]) -> f64 {
        let n = a.len().max(b.len());
        (0..n)
            .map(|i| {
                let d = f64::from(*a.get(i).unwrap_or(&0.0)) - f64::from(*b.get(i).unwrap_or(&0.0));
                d * d
            })
            .sum()
    }
}

impl IndexAdvisor for InContextAdvisor {
    fn name(&self) -> String {
        "InContext".to_string()
    }

    /// Build the exemplar corpus: the training workload itself plus
    /// deterministic half-subsamples of it, each labeled by the greedy
    /// reference. No gradient step ever runs.
    fn train(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        self.corpus.clear();
        self.record_exemplar(cost, workload)?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x1c7e_0001);
        for _ in 1..self.cfg.exemplars {
            let sub = Workload::from_queries(
                workload
                    .iter()
                    .filter(|_| rng.gen_bool(0.5))
                    .map(|wq| (wq.query.clone(), wq.frequency)),
            );
            if !sub.is_empty() {
                self.record_exemplar(cost, &sub)?;
            }
        }
        Ok(())
    }

    /// The retraining-free update: *append* an exemplar for the new
    /// training workload. Existing exemplars are never modified, so a
    /// poisoned `{W, Ŵ}` batch cannot overwrite what the advisor already
    /// knows about `W` — the dodge this target class exists to measure.
    fn retrain(&mut self, cost: &dyn CostBackend, workload: &Workload) -> CostResult<()> {
        self.record_exemplar(cost, workload)
    }

    fn recommend(
        &mut self,
        cost: &dyn CostBackend,
        workload: &Workload,
    ) -> CostResult<IndexConfig> {
        if self.corpus.is_empty() {
            // Cold start (recommend before train): fall back to the
            // labeler directly rather than returning the empty config.
            return AutoAdminGreedy::new(self.cfg.budget).recommend(cost, workload);
        }
        self.ensure_model(cost);
        let model = self.model.as_ref().expect("model bound");
        let query_embedding = Self::embed_workload(model, workload);
        let nearest = self
            .corpus
            .iter()
            .enumerate()
            .min_by(|(ai, a), (bi, b)| {
                let da = Self::squared_distance(&query_embedding, &a.embedding);
                let db = Self::squared_distance(&query_embedding, &b.embedding);
                // Ties break toward the oldest exemplar, deterministically.
                da.partial_cmp(&db)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ai.cmp(bi))
            })
            .map(|(_, e)| e.config.clone())
            .expect("corpus is non-empty");
        Ok(nearest)
    }

    fn budget(&self) -> usize {
        self.cfg.budget
    }

    /// One-off: the match is a single lookup, no trial trajectories.
    fn is_trial_based(&self) -> bool {
        false
    }
}

impl ClearBoxAdvisor for InContextAdvisor {
    /// The advisor's internal preference is how often a column leads an
    /// index across the recorded exemplar configurations.
    fn column_preferences(&self, _cost: &dyn CostBackend) -> Vec<(ColumnId, f64)> {
        let mut counts: std::collections::BTreeMap<ColumnId, f64> =
            std::collections::BTreeMap::new();
        for e in &self.corpus {
            for idx in e.config.indexes() {
                *counts.entry(idx.leading()).or_insert(0.0) += 1.0;
            }
        }
        counts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_cost::SimBackend;
    use pipa_workload::generator::WorkloadGenerator;
    use pipa_workload::Benchmark;

    fn workload(seed: u64) -> Workload {
        let g = WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        g.normal(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap()
    }

    fn setup() -> (SimBackend, Workload) {
        let db = Benchmark::TpcH.database(1.0, None);
        (SimBackend::new(db), workload(5))
    }

    #[test]
    fn train_then_recommend_matches_the_clean_exemplar() {
        let (cost, w) = setup();
        let mut ia = InContextAdvisor::new(InContextConfig::fast());
        ia.train(&cost, &w).unwrap();
        assert!(ia.corpus_len() >= 1);
        let rec = ia.recommend(&cost, &w).unwrap();
        let reference = AutoAdminGreedy::new(4).recommend(&cost, &w).unwrap();
        // The full-workload exemplar is distance 0 from the query
        // workload, so the match returns its (greedy-labeled) config.
        assert_eq!(rec, reference);
    }

    #[test]
    fn retrain_appends_instead_of_overwriting() {
        let (cost, w) = setup();
        let mut ia = InContextAdvisor::new(InContextConfig::fast());
        ia.train(&cost, &w).unwrap();
        let before = ia.corpus_len();
        let rec_before = ia.recommend(&cost, &w).unwrap();
        // A differently-drawn "poisoned" batch appends one exemplar ...
        let poison = workload(1337);
        ia.retrain(&cost, &w.union(&poison)).unwrap();
        assert_eq!(ia.corpus_len(), before + 1);
        // ... and the clean workload still matches its clean exemplar.
        let rec_after = ia.recommend(&cost, &w).unwrap();
        assert_eq!(rec_before, rec_after);
    }

    #[test]
    fn embeddings_are_deterministic() {
        let (cost, w) = setup();
        let mut a = InContextAdvisor::new(InContextConfig::fast());
        let mut b = InContextAdvisor::new(InContextConfig::fast());
        a.train(&cost, &w).unwrap();
        b.train(&cost, &w).unwrap();
        let ra = a.recommend(&cost, &w).unwrap();
        let rb = b.recommend(&cost, &w).unwrap();
        assert_eq!(ra, rb);
        for (ea, eb) in a.corpus.iter().zip(&b.corpus) {
            let bits_a: Vec<u32> = ea.embedding.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u32> = eb.embedding.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
        }
    }
}
