//! Indexing preference: the ranking `k` over indexable columns (paper
//! §4.1–4.2, Eq. 5–8) and its segmentation into top/mid/low ranks (§5).

use pipa_cost::{CostBackend, CostResult};
use pipa_sim::{ColumnId, Schema};

/// Estimated indexing preference: per-column expected contribution `K`
/// and the derived ranking.
#[derive(Debug, Clone)]
pub struct IndexingPreference {
    /// `K(l_j)` accumulator values, indexed by `ColumnId.0`.
    pub k_values: Vec<f64>,
    /// Columns sorted by descending `K` (ties: ascending column id).
    pub ranking: Vec<ColumnId>,
}

impl IndexingPreference {
    /// Build from raw `K` values.
    pub fn from_k_values(k_values: Vec<f64>) -> Self {
        let mut ranking: Vec<ColumnId> = (0..k_values.len() as u32).map(ColumnId).collect();
        ranking.sort_by(|a, b| {
            k_values[b.0 as usize]
                .total_cmp(&k_values[a.0 as usize])
                .then(a.0.cmp(&b.0))
        });
        IndexingPreference { k_values, ranking }
    }

    /// Rank position (0-based) of a column.
    pub fn rank_of(&self, col: ColumnId) -> usize {
        self.ranking
            .iter()
            .position(|&c| c == col)
            .expect("column in ranking")
    }

    /// The top-ranked column (`l_1`).
    pub fn best(&self) -> ColumnId {
        self.ranking[0]
    }

    /// Number of columns with strictly positive `K` (columns the IA was
    /// ever observed to prefer).
    pub fn num_positive(&self) -> usize {
        self.k_values.iter().filter(|&&v| v > 0.0).count()
    }
}

/// The three rank segments of §5. The top segment is the best index plus
/// its foreign-key closure (§6.4: "we treat the best index and its foreign
/// keys as the top-ranked index"); the mid segment runs to `q`; the rest
/// is low-ranked.
#[derive(Debug, Clone)]
pub struct Segments {
    /// Top-ranked columns (never targeted by the injection).
    pub top: Vec<ColumnId>,
    /// Mid-ranked columns (the injection's target segment).
    pub mid: Vec<ColumnId>,
    /// Low-ranked columns.
    pub low: Vec<ColumnId>,
}

/// Segmentation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// End of the mid segment as a fraction of `L` (paper default: 1/4).
    pub mid_end_fraction: f64,
    /// Extra top ranks beyond the best index's FK closure (Figure 10a's
    /// "start point" sweep; `None` = FK closure only, the paper default).
    pub fixed_start: Option<usize>,
    /// Fixed mid-segment length (Figure 10a fixes it to 4; `None` uses
    /// `mid_end_fraction`).
    pub fixed_len: Option<usize>,
    /// Columns whose `K` is at least this fraction of the best column's
    /// `K` join the top segment. The paper's TPC-H head was one key
    /// family (l_partkey + FKs), so the FK closure alone captured it; on
    /// landscapes where the head is several unrelated strong columns,
    /// reinforcing any of them would void the attack (§5: "the stress
    /// test will be invalid if the injection workloads strengthen the
    /// top-ranked columns").
    pub top_k_fraction: f64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            mid_end_fraction: 0.25,
            fixed_start: None,
            fixed_len: None,
            top_k_fraction: 0.35,
        }
    }
}

/// Split a preference ranking into segments.
pub fn segment(pref: &IndexingPreference, schema: &Schema, cfg: &SegmentConfig) -> Segments {
    let l = pref.ranking.len();
    let start = match cfg.fixed_start {
        Some(s) => s.min(l),
        None => {
            // Best index + FK closure + near-top columns form the top
            // segment (capped at L/8 so a flat landscape cannot swallow
            // the mid segment).
            let closure = schema.foreign_key_closure(pref.best());
            let k_best = pref.k_values[pref.best().0 as usize];
            let mut top_end = 1;
            for (pos, c) in pref.ranking.iter().enumerate() {
                let near_top =
                    k_best > 0.0 && pref.k_values[c.0 as usize] >= cfg.top_k_fraction * k_best;
                if (closure.contains(c) || near_top) && pos < (l / 8).max(2) {
                    top_end = top_end.max(pos + 1);
                }
            }
            top_end
        }
    };
    let mid_end = match cfg.fixed_len {
        Some(len) => (start + len).min(l),
        None => ((l as f64 * cfg.mid_end_fraction).round() as usize).clamp(start + 1, l),
    };
    Segments {
        top: pref.ranking[..start].to_vec(),
        mid: pref.ranking[start..mid_end].to_vec(),
        low: pref.ranking[mid_end..].to_vec(),
    }
}

/// Build a preference whose unobserved (`K ≤ 0`) columns are ranked by
/// the evaluator-side indexability prior instead of by column id. Both
/// the probing stage and the clear-box P-C baseline use this: internal
/// advisor state only covers columns the advisor ever touched, and the
/// tail ordering decides what "mid-ranked" means.
pub fn preference_with_prior(
    cost: &dyn CostBackend,
    mut k_values: Vec<f64>,
) -> CostResult<IndexingPreference> {
    let min_pos = k_values
        .iter()
        .copied()
        .filter(|&v| v > 0.0)
        .fold(f64::INFINITY, f64::min);
    if min_pos.is_finite() {
        let prior = crate::probe::indexability_prior(cost)?;
        let prior_max = prior.iter().copied().fold(0.0f64, f64::max).max(1e-12);
        for (k, &p) in k_values.iter_mut().zip(&prior) {
            if *k <= 0.0 {
                *k = 0.5 * min_pos * (p / prior_max);
            }
        }
    }
    Ok(IndexingPreference::from_k_values(k_values))
}

/// True (oracle) preference from what-if benefits — used by tests and by
/// the probing-accuracy analysis (Figure 12b's "error rate" compares
/// estimated segments against a reference). Prices `w`'s empty
/// configuration once and previews each column's index from it.
pub fn oracle_preference(
    cost: &dyn CostBackend,
    w: &pipa_sim::Workload,
) -> CostResult<IndexingPreference> {
    let env = pipa_ia::IndexEnv::new(cost, w, Vec::new(), 0)?;
    let k_values = cost
        .catalog()
        .schema
        .indexable_columns()
        .into_iter()
        .map(|c| env.single_column_benefit(c))
        .collect::<CostResult<_>>()?;
    Ok(IndexingPreference::from_k_values(k_values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_workload::Benchmark;

    #[test]
    fn ranking_sorts_by_k_desc() {
        let pref = IndexingPreference::from_k_values(vec![0.1, 0.9, 0.0, 0.5]);
        assert_eq!(
            pref.ranking,
            vec![ColumnId(1), ColumnId(3), ColumnId(0), ColumnId(2)]
        );
        assert_eq!(pref.best(), ColumnId(1));
        assert_eq!(pref.rank_of(ColumnId(0)), 2);
        assert_eq!(pref.num_positive(), 3);
    }

    #[test]
    fn ties_break_by_column_id() {
        let pref = IndexingPreference::from_k_values(vec![0.0, 0.0, 0.0]);
        assert_eq!(pref.ranking, vec![ColumnId(0), ColumnId(1), ColumnId(2)]);
    }

    #[test]
    fn segments_partition_the_ranking() {
        let schema = Benchmark::TpcH.schema();
        let mut k = vec![0.0; schema.num_columns()];
        let lp = schema.column_id("l_partkey").unwrap();
        k[lp.0 as usize] = 1.0;
        let pref = IndexingPreference::from_k_values(k);
        let seg = segment(&pref, &schema, &SegmentConfig::default());
        let total = seg.top.len() + seg.mid.len() + seg.low.len();
        assert_eq!(total, schema.num_columns());
        assert!(seg.top.contains(&lp));
        assert!(!seg.mid.contains(&lp));
    }

    #[test]
    fn fk_closure_expands_top_segment() {
        // If l_partkey is best and ps_partkey/p_partkey rank high, they
        // join the top segment (paper §6.4's start-point-5 finding).
        let schema = Benchmark::TpcH.schema();
        let mut k = vec![0.0; schema.num_columns()];
        let lp = schema.column_id("l_partkey").unwrap();
        let psp = schema.column_id("ps_partkey").unwrap();
        let pp = schema.column_id("p_partkey").unwrap();
        k[lp.0 as usize] = 1.0;
        k[psp.0 as usize] = 0.9;
        k[pp.0 as usize] = 0.8;
        let pref = IndexingPreference::from_k_values(k);
        let seg = segment(&pref, &schema, &SegmentConfig::default());
        assert!(seg.top.contains(&psp) && seg.top.contains(&pp));
        assert!(seg.top.len() >= 3);
    }

    #[test]
    fn fixed_boundaries_override() {
        let schema = Benchmark::TpcH.schema();
        let pref = IndexingPreference::from_k_values(vec![0.5; schema.num_columns()]);
        let seg = segment(
            &pref,
            &schema,
            &SegmentConfig {
                fixed_start: Some(5),
                fixed_len: Some(4),
                ..Default::default()
            },
        );
        assert_eq!(seg.top.len(), 5);
        assert_eq!(seg.mid.len(), 4);
        assert_eq!(seg.low.len(), schema.num_columns() - 9);
    }

    #[test]
    fn oracle_preference_ranks_useful_columns_first() {
        let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        use rand::SeedableRng;
        let w = g
            .normal(&mut rand_chacha::ChaCha8Rng::seed_from_u64(1))
            .unwrap();
        let pref = oracle_preference(&cost, &w).unwrap();
        let best = pref.best();
        let name = &cost.database().schema().column(best).name;
        assert!(
            name.contains("date") || name.contains("key"),
            "plausible best column, got {name}"
        );
    }
}
