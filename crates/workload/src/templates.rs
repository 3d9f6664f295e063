//! Parameterized query templates.
//!
//! A [`TemplateSpec`] is the structural skeleton of a benchmark query:
//! tables, join edges, and *parameterizable* predicates whose literals are
//! drawn fresh at instantiation time. This mirrors how TPC query templates
//! work (`qgen`/`dsqgen` substitute random parameters) and how the paper's
//! TP baseline generates injection workloads ("each query is generated
//! from the Templates of the target workload").

use pipa_sim::{Aggregate, ColumnId, Predicate, Query, QueryBuilder, Schema, SimResult};
use rand::Rng;

/// How a predicate's literal(s) are drawn at instantiation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamKind {
    /// `col = ?` with `?` uniform over the domain.
    Eq,
    /// `col between ? and ?+w` with `w` uniform in `[width_min, width_max]`
    /// (domain fractions).
    Range {
        /// Minimum range width (domain fraction).
        width_min: f64,
        /// Maximum range width (domain fraction).
        width_max: f64,
    },
    /// `col <= ?` with `?` uniform in `[lo, hi]` fractions.
    Le {
        /// Lower bound on the drawn fraction.
        lo: f64,
        /// Upper bound on the drawn fraction.
        hi: f64,
    },
    /// `col >= ?` with `?` uniform in `[lo, hi]` fractions.
    Ge {
        /// Lower bound on the drawn fraction.
        lo: f64,
        /// Upper bound on the drawn fraction.
        hi: f64,
    },
    /// `col in (?, ... k values)`.
    In {
        /// Number of IN-list members.
        k: usize,
    },
}

/// One parameterizable predicate slot.
#[derive(Debug, Clone)]
pub struct ParamPredicate {
    /// Filtered column (by name; resolved against the schema).
    pub column: String,
    /// Literal-drawing rule.
    pub kind: ParamKind,
}

/// Shorthand constructor for a [`ParamPredicate`].
pub fn pred(column: &str, kind: ParamKind) -> ParamPredicate {
    ParamPredicate {
        column: column.to_string(),
        kind,
    }
}

/// Convert a name list into owned strings.
pub fn names(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|x| x.to_string()).collect()
}

/// Aggregate slot in a template.
#[derive(Debug, Clone)]
pub enum AggSpec {
    /// `count(*)`.
    CountStar,
    /// `sum(col)`.
    Sum(String),
    /// `avg(col)`.
    Avg(String),
    /// `min(col)`.
    Min(String),
    /// `max(col)`.
    Max(String),
}

/// Shorthand for [`AggSpec::Sum`].
pub fn sum(c: &str) -> AggSpec {
    AggSpec::Sum(c.to_string())
}

/// Shorthand for [`AggSpec::Avg`].
pub fn avg(c: &str) -> AggSpec {
    AggSpec::Avg(c.to_string())
}

/// A benchmark query template.
#[derive(Debug, Clone)]
pub struct TemplateSpec {
    /// Template number within its benchmark (1-based, e.g. TPC-H Q6 = 6).
    pub id: usize,
    /// Short label, e.g. `"q6_forecast_revenue"`.
    pub label: String,
    /// Join edges as `(left column, right column)` names. Tables are
    /// implied by the referenced columns.
    pub joins: Vec<(String, String)>,
    /// Parameterized predicates.
    pub predicates: Vec<ParamPredicate>,
    /// Plain projected columns.
    pub select: Vec<String>,
    /// Aggregates.
    pub aggregates: Vec<AggSpec>,
    /// GROUP BY columns.
    pub group_by: Vec<String>,
    /// ORDER BY columns.
    pub order_by: Vec<String>,
}

impl TemplateSpec {
    /// Instantiate with fresh random parameters.
    pub fn instantiate<R: Rng + ?Sized>(&self, schema: &Schema, rng: &mut R) -> SimResult<Query> {
        let col = |n: &str| schema.column_id(n);
        let mut b = QueryBuilder::new();
        for (l, r) in &self.joins {
            b = b.join(schema, col(l)?, col(r)?);
        }
        for p in &self.predicates {
            b = b.filter(schema, instantiate_predicate(col(&p.column)?, p.kind, rng));
        }
        for s in &self.select {
            let c = col(s)?;
            b = b.table(schema.table_of(c)).select(c);
        }
        for a in &self.aggregates {
            let agg = match a {
                AggSpec::CountStar => Aggregate::CountStar,
                AggSpec::Sum(c) => Aggregate::Sum(col(c)?),
                AggSpec::Avg(c) => Aggregate::Avg(col(c)?),
                AggSpec::Min(c) => Aggregate::Min(col(c)?),
                AggSpec::Max(c) => Aggregate::Max(col(c)?),
            };
            if let Some(c) = agg.column() {
                b = b.table(schema.table_of(c));
            }
            b = b.aggregate(agg);
        }
        for g in &self.group_by {
            b = b.group_by(col(g)?);
        }
        for o in &self.order_by {
            b = b.order_by(col(o)?);
        }
        b.build(schema)
    }

    /// Columns this template can filter on (its indexable surface).
    pub fn filter_column_names(&self) -> Vec<&str> {
        self.predicates.iter().map(|p| p.column.as_str()).collect()
    }
}

/// Draw a concrete predicate for a slot.
pub fn instantiate_predicate<R: Rng + ?Sized>(
    col: ColumnId,
    kind: ParamKind,
    rng: &mut R,
) -> Predicate {
    match kind {
        ParamKind::Eq => Predicate::eq(col, rng.gen::<f64>()),
        ParamKind::Range {
            width_min,
            width_max,
        } => {
            let w = rng.gen_range(width_min..=width_max);
            let lo = rng.gen_range(0.0..=(1.0 - w).max(0.0));
            Predicate::between(col, lo, lo + w)
        }
        ParamKind::Le { lo, hi } => Predicate::le(col, rng.gen_range(lo..=hi)),
        ParamKind::Ge { lo, hi } => Predicate::ge(col, rng.gen_range(lo..=hi)),
        ParamKind::In { k } => {
            let fracs = (0..k.max(1)).map(|_| rng.gen::<f64>()).collect();
            Predicate::in_list(col, fracs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_sim::DataType;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_table(
            "orders",
            1000,
            &[
                ("o_orderkey", DataType::BigInt),
                ("o_custkey", DataType::Int),
                ("o_totalprice", DataType::Decimal),
            ],
        );
        s.add_table(
            "customer",
            100,
            &[
                ("c_custkey", DataType::Int),
                ("c_acctbal", DataType::Decimal),
            ],
        );
        s
    }

    fn template() -> TemplateSpec {
        TemplateSpec {
            id: 1,
            label: "toy".to_string(),
            joins: vec![("o_custkey".to_string(), "c_custkey".to_string())],
            predicates: vec![
                pred(
                    "o_totalprice",
                    ParamKind::Range {
                        width_min: 0.1,
                        width_max: 0.2,
                    },
                ),
                pred("c_acctbal", ParamKind::Ge { lo: 0.5, hi: 0.9 }),
            ],
            select: names(&["o_orderkey"]),
            aggregates: vec![sum("o_totalprice")],
            group_by: names(&["o_orderkey"]),
            order_by: names(&["o_orderkey"]),
        }
    }

    #[test]
    fn instantiation_produces_valid_queries() {
        let s = schema();
        let t = template();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            let q = t.instantiate(&s, &mut rng).unwrap();
            assert!(q.validate(&s).is_ok());
            assert_eq!(q.tables.len(), 2);
            assert_eq!(q.predicates.len(), 2);
        }
    }

    #[test]
    fn instantiations_vary_parameters() {
        let s = schema();
        let t = template();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = t.instantiate(&s, &mut rng).unwrap();
        let b = t.instantiate(&s, &mut rng).unwrap();
        assert_ne!(a.predicates, b.predicates, "fresh literals each time");
    }

    #[test]
    fn deterministic_under_seed() {
        let s = schema();
        let t = template();
        let a = t
            .instantiate(&s, &mut ChaCha8Rng::seed_from_u64(9))
            .unwrap();
        let b = t
            .instantiate(&s, &mut ChaCha8Rng::seed_from_u64(9))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn filter_surface_lists_predicates() {
        assert_eq!(
            template().filter_column_names(),
            vec!["o_totalprice", "c_acctbal"]
        );
    }

    #[test]
    fn unknown_column_is_an_error() {
        let s = schema();
        let mut t = template();
        t.predicates.push(pred("nonexistent", ParamKind::Eq));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(t.instantiate(&s, &mut rng).is_err());
    }

    #[test]
    fn in_list_has_k_members() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = instantiate_predicate(ColumnId(0), ParamKind::In { k: 4 }, &mut rng);
        match p.op {
            pipa_sim::PredOp::In(ref v) => assert_eq!(v.len(), 4),
            _ => panic!("expected IN"),
        }
    }
}
