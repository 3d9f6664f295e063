//! Training-data construction for IABART (paper §3.1).
//!
//! Each sample is the token sequence `<cls> q <sep> I <sep> R <eos>`:
//! `q` is an FSM-generated query, `I` is the index set a reference
//! advisor recommends for `q` (the paper labels with SWIRL; we label with
//! the deterministic greedy what-if advisor — same role, no training
//! noise, documented in DESIGN.md), and `R` is the discretized relative
//! cost improvement of `I` on `q` ("estimated cost instead of the actual
//! cost to speed up the construction", §3.1).

use crate::fsm::QueryFsm;
use crate::parser::parse_words;
use crate::token::{reward_to_bucket, Kw, Vocab, Word, CLS, EOS, SEP};
use pipa_cost::{query_benefit, CostBackend, CostResult};
use pipa_sim::{ColumnId, Index, IndexConfig, Query};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// One training sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Full token sequence `<cls> I <sep> R <sep> q <eos>`.
    pub tokens: Vec<usize>,
    /// Token span (half-open) of the query part.
    pub q_span: (usize, usize),
    /// Token span (half-open) of the index part.
    pub idx_span: (usize, usize),
    /// The parsed query (for inspection/tests).
    pub query: Query,
    /// The labeled indexes.
    pub indexes: Vec<ColumnId>,
    /// The labeled reward bucket.
    pub reward_bucket: u8,
}

/// Greedy single-query index labeling: up to `budget` single-column
/// indexes chosen by marginal what-if benefit. Candidates cover the
/// query's filter *and* join columns, like a real advisor (the reference
/// the paper uses for IAC is SWIRL, whose action space includes join
/// keys — a naive generator can therefore be "out-advised" by a join-key
/// index, which is exactly what IABART learns to avoid).
pub fn label_indexes(
    cost: &dyn CostBackend,
    q: &Query,
    budget: usize,
) -> CostResult<Vec<ColumnId>> {
    let mut candidates = q.filter_columns();
    candidates.extend(q.join_columns());
    candidates.sort_unstable();
    candidates.dedup();
    let mut cfg = IndexConfig::empty();
    let mut out = Vec::new();
    let mut current = cost.query_cost(q, &cfg)?;
    for _ in 0..budget {
        let mut best: Option<(f64, ColumnId)> = None;
        for c in candidates.iter().copied() {
            if out.contains(&c) {
                continue;
            }
            let mut trial = cfg.clone();
            trial.add(Index::single(c));
            let trial_cost = cost.query_cost(q, &trial)?;
            if trial_cost < current * 0.999 && best.map(|b| trial_cost < b.0).unwrap_or(true) {
                best = Some((trial_cost, c));
            }
        }
        match best {
            Some((best_cost, c)) => {
                cfg.add(Index::single(c));
                out.push(c);
                current = best_cost;
            }
            None => break,
        }
    }
    Ok(out)
}

/// Assemble the token sequence for `(query words, indexes, reward)`.
///
/// Layout: `<cls> I <sep> R <sep> q <eos>` — the paper writes the query
/// first (§3.1); we put the conditioning segments first so that at
/// generation time the decoder holds `I` and `R` in its *self-attention*
/// context (teacher-forced prefix) rather than relying purely on
/// cross-attention, which a laptop-scale model cannot learn reliably.
/// All three progressive tasks are layout-independent (they mask spans).
pub fn assemble_tokens(
    vocab: &Vocab,
    q_words: &[Word],
    indexes: &[ColumnId],
    reward_bucket: u8,
) -> (Vec<usize>, (usize, usize), (usize, usize)) {
    let mut tokens = vec![CLS];
    let idx_start = tokens.len();
    for &c in indexes {
        tokens.extend(vocab.encode_words(&[Word::Kw(Kw::Idx), Word::Column(c)]));
    }
    let idx_end = tokens.len();
    tokens.push(SEP);
    tokens.extend(vocab.encode_words(&[Word::Reward(reward_bucket)]));
    tokens.push(SEP);
    let q_start = tokens.len();
    tokens.extend(vocab.encode_words(q_words));
    let q_end = tokens.len();
    tokens.push(EOS);
    (tokens, (q_start, q_end), (idx_start, idx_end))
}

/// Build a corpus of `n` samples. Half the samples are biased toward a
/// random column set so the corpus covers the column space evenly (the
/// association IABART must learn is *column set → query*, so coverage of
/// rarely-chosen columns matters).
pub fn build_corpus<R: RngCore>(
    cost: &dyn CostBackend,
    n: usize,
    rng: &mut R,
) -> CostResult<Vec<Sample>> {
    let schema = cost.catalog().schema;
    let vocab = Vocab::build(schema);
    let all_cols = schema.indexable_columns();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let bias: Option<Vec<ColumnId>> = if rng.gen_bool(0.7) {
            let k = rng.gen_range(1..=3);
            Some(crate::eval::sample_target_set(cost, k, rng)?)
        } else {
            let k = rng.gen_range(1..=3);
            if rng.gen_bool(0.5) {
                Some(all_cols.choose_multiple(rng, k).copied().collect())
            } else {
                None
            }
        };
        let words = QueryFsm::generate(schema, rng, bias.as_deref());
        let Ok(query) = parse_words(schema, &words) else {
            continue;
        };
        let indexes = label_indexes(cost, &query, 3)?;
        if indexes.is_empty() {
            // Unindexable query: keep a few (the model should see the
            // zero-reward association), but the corpus must be dominated
            // by clean (index set → query) pairs for the conditioning to
            // be learnable at this scale.
            if rng.gen_bool(0.9) {
                continue;
            }
        }
        let cfg: IndexConfig = indexes.iter().map(|&c| Index::single(c)).collect();
        let benefit = query_benefit(cost, &query, &cfg)?.clamp(0.0, 1.0);
        let rb = reward_to_bucket(benefit);
        let (tokens, q_span, idx_span) = assemble_tokens(&vocab, &words, &indexes, rb);
        out.push(Sample {
            tokens,
            q_span,
            idx_span,
            query,
            indexes,
            reward_bucket: rb,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_cost::SimBackend;
    use pipa_workload::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cost() -> SimBackend {
        SimBackend::new(Benchmark::TpcH.database(1.0, None))
    }

    #[test]
    fn corpus_samples_are_well_formed() {
        let cost = cost();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let corpus = build_corpus(&cost, 40, &mut rng).unwrap();
        assert_eq!(corpus.len(), 40);
        for s in &corpus {
            assert_eq!(s.tokens[0], CLS);
            assert_eq!(*s.tokens.last().unwrap(), EOS);
            assert!(s.q_span.0 < s.q_span.1);
            // Conditioning segments come first, the query last.
            assert!(s.idx_span.1 <= s.q_span.0);
            assert!(s.q_span.1 < s.tokens.len());
        }
    }

    #[test]
    fn labels_prefer_selective_columns() {
        let cost = cost();
        let schema = cost.database().schema();
        let key = schema.column_id("l_orderkey").unwrap();
        let flag = schema.column_id("l_returnflag").unwrap();
        let q = pipa_sim::QueryBuilder::new()
            .filter(schema, pipa_sim::Predicate::eq(key, 0.5))
            .filter(schema, pipa_sim::Predicate::eq(flag, 0.5))
            .aggregate(pipa_sim::Aggregate::CountStar)
            .build(schema)
            .unwrap();
        let labels = label_indexes(&cost, &q, 2).unwrap();
        assert_eq!(
            labels.first(),
            Some(&key),
            "key index dominates: {labels:?}"
        );
    }

    #[test]
    fn rewards_span_buckets() {
        let cost = cost();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let corpus = build_corpus(&cost, 60, &mut rng).unwrap();
        let mut buckets: Vec<u8> = corpus.iter().map(|s| s.reward_bucket).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() >= 3, "reward diversity: {buckets:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        let cost = cost();
        let a = build_corpus(&cost, 10, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        let b = build_corpus(&cost, 10, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens, y.tokens);
        }
    }
}
