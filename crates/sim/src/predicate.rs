//! Sargable filter predicates.
//!
//! A predicate stores its operands as *domain fractions* so that
//! selectivity estimation, SQL rendering, and data-independent workload
//! generation all agree. The paper's attack requires injected queries to be
//! "executable and sargable"; every predicate representable here is both.

use crate::schema::ColumnId;
use crate::stats::ColumnStats;
use crate::value::fraction_to_value;

/// Predicate operator with normalized operands.
#[derive(Debug, Clone, PartialEq)]
pub enum PredOp {
    /// `col = v` where `v` sits at the given domain fraction.
    Eq(f64),
    /// `col <= v`.
    Le(f64),
    /// `col >= v`.
    Ge(f64),
    /// `v_lo <= col <= v_hi` (rendered as BETWEEN).
    Between(f64, f64),
    /// `col IN (v_1..v_k)` at the given fractions.
    In(Vec<f64>),
}

/// A single sargable predicate on one column.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Filtered column.
    pub col: ColumnId,
    /// Operator and operands.
    pub op: PredOp,
}

impl Predicate {
    /// Equality predicate at a domain fraction.
    pub fn eq(col: ColumnId, frac: f64) -> Self {
        Predicate {
            col,
            op: PredOp::Eq(frac),
        }
    }

    /// Range predicate covering `[lo, hi]` domain fractions.
    pub fn between(col: ColumnId, lo: f64, hi: f64) -> Self {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        Predicate {
            col,
            op: PredOp::Between(lo, hi),
        }
    }

    /// One-sided ranges.
    pub fn le(col: ColumnId, frac: f64) -> Self {
        Predicate {
            col,
            op: PredOp::Le(frac),
        }
    }

    /// `col >= v` at a domain fraction.
    pub fn ge(col: ColumnId, frac: f64) -> Self {
        Predicate {
            col,
            op: PredOp::Ge(frac),
        }
    }

    /// IN-list at the given fractions.
    pub fn in_list(col: ColumnId, fracs: Vec<f64>) -> Self {
        Predicate {
            col,
            op: PredOp::In(fracs),
        }
    }

    /// Estimated selectivity given the column's statistics.
    pub fn selectivity(&self, stats: &ColumnStats) -> f64 {
        match &self.op {
            PredOp::Eq(_) => stats.eq_selectivity(),
            PredOp::Le(f) => stats.range_selectivity(stats.min, stats.position_at(*f)),
            PredOp::Ge(f) => stats.range_selectivity(stats.position_at(*f), stats.max),
            PredOp::Between(lo, hi) => {
                stats.range_selectivity(stats.position_at(*lo), stats.position_at(*hi))
            }
            PredOp::In(fracs) => (stats.eq_selectivity() * fracs.len() as f64).clamp(0.0, 1.0),
        }
    }

    /// Whether this predicate is an equality (useful for index matching:
    /// equality prefixes extend multi-column index usability).
    pub fn is_equality(&self) -> bool {
        matches!(self.op, PredOp::Eq(_))
    }

    /// Render as SQL given the column's name and statistics.
    pub fn render_sql(&self, name: &str, stats: &ColumnStats) -> String {
        let v = |f: f64| fraction_to_value(stats.ty, stats.min, stats.max, f).render_sql();
        match &self.op {
            PredOp::Eq(f) => format!("{name} = {}", v(*f)),
            PredOp::Le(f) => format!("{name} <= {}", v(*f)),
            PredOp::Ge(f) => format!("{name} >= {}", v(*f)),
            PredOp::Between(lo, hi) => {
                format!("{name} between {} and {}", v(*lo), v(*hi))
            }
            PredOp::In(fs) => {
                let items: Vec<String> = fs.iter().map(|f| v(*f)).collect();
                format!("{name} in ({})", items.join(", "))
            }
        }
    }

    /// The inclusive domain-position interval this predicate accepts, for
    /// the executor. `None` bound means unbounded on that side. For IN
    /// lists the hull is returned (the executor re-checks membership).
    pub fn position_bounds(&self, stats: &ColumnStats) -> (Option<i64>, Option<i64>) {
        match &self.op {
            PredOp::Eq(f) => {
                let p = stats.position_at(*f);
                (Some(p), Some(p))
            }
            PredOp::Le(f) => (None, Some(stats.position_at(*f))),
            PredOp::Ge(f) => (Some(stats.position_at(*f)), None),
            PredOp::Between(lo, hi) => (Some(stats.position_at(*lo)), Some(stats.position_at(*hi))),
            PredOp::In(fs) => {
                let ps: Vec<i64> = fs.iter().map(|f| stats.position_at(*f)).collect();
                (ps.iter().min().copied(), ps.iter().max().copied())
            }
        }
    }

    /// The exact row-level check with its operands resolved to domain
    /// positions, for applying to many rows (executor use).
    pub fn position_test(&self, stats: &ColumnStats) -> PositionTest {
        match &self.op {
            PredOp::Eq(f) => {
                let p = stats.position_at(*f);
                PositionTest::Range(p, p)
            }
            PredOp::Le(f) => PositionTest::Range(i64::MIN, stats.position_at(*f)),
            PredOp::Ge(f) => PositionTest::Range(stats.position_at(*f), i64::MAX),
            PredOp::Between(lo, hi) => {
                PositionTest::Range(stats.position_at(*lo), stats.position_at(*hi))
            }
            PredOp::In(fs) => PositionTest::In(fs.iter().map(|f| stats.position_at(*f)).collect()),
        }
    }

    /// Exact row-level check against a domain position (executor use).
    pub fn matches_position(&self, pos: i64, stats: &ColumnStats) -> bool {
        self.position_test(stats).matches(pos)
    }
}

/// A predicate's row-level check resolved against its column's
/// statistics (see [`Predicate::position_test`]): matching a position is
/// integer comparison only. NULLs are the caller's to exclude.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PositionTest {
    /// `lo <= pos <= hi`; one-sided ranges use `i64::MIN` / `i64::MAX`.
    Range(i64, i64),
    /// `pos` is one of the listed positions.
    In(Vec<i64>),
}

impl PositionTest {
    /// Whether a domain position passes.
    pub fn matches(&self, pos: i64) -> bool {
        match self {
            PositionTest::Range(lo, hi) => *lo <= pos && pos <= *hi,
            PositionTest::In(ps) => ps.contains(&pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn stats() -> ColumnStats {
        ColumnStats::uniform(ColumnId(3), DataType::Int, 1000, 0, 9999)
    }

    #[test]
    fn eq_selectivity_matches_stats() {
        let s = stats();
        let p = Predicate::eq(ColumnId(3), 0.5);
        assert!((p.selectivity(&s) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn between_selectivity_tracks_width() {
        let s = stats();
        let narrow = Predicate::between(ColumnId(3), 0.4, 0.45);
        let wide = Predicate::between(ColumnId(3), 0.1, 0.9);
        assert!(narrow.selectivity(&s) < wide.selectivity(&s));
        assert!((wide.selectivity(&s) - 0.8).abs() < 0.01);
    }

    #[test]
    fn between_normalizes_order() {
        let p = Predicate::between(ColumnId(3), 0.9, 0.1);
        assert_eq!(p, Predicate::between(ColumnId(3), 0.1, 0.9));
    }

    #[test]
    fn in_list_selectivity_scales() {
        let s = stats();
        let p = Predicate::in_list(ColumnId(3), vec![0.1, 0.2, 0.3]);
        assert!((p.selectivity(&s) - 0.003).abs() < 1e-9);
    }

    #[test]
    fn one_sided_ranges() {
        let s = stats();
        let le = Predicate::le(ColumnId(3), 0.25);
        let ge = Predicate::ge(ColumnId(3), 0.75);
        assert!((le.selectivity(&s) - 0.25).abs() < 0.01);
        assert!((ge.selectivity(&s) - 0.25).abs() < 0.01);
    }

    #[test]
    fn renders_sql() {
        let s = stats();
        let p = Predicate::between(ColumnId(3), 0.0, 1.0);
        assert_eq!(
            p.render_sql("l_quantity", &s),
            "l_quantity between 0 and 9999"
        );
        let p = Predicate::eq(ColumnId(3), 0.0);
        assert_eq!(p.render_sql("l_quantity", &s), "l_quantity = 0");
    }

    #[test]
    fn bounds_and_matching_agree() {
        let s = stats();
        let p = Predicate::between(ColumnId(3), 0.2, 0.4);
        let (lo, hi) = p.position_bounds(&s);
        let (lo, hi) = (lo.unwrap(), hi.unwrap());
        assert!(p.matches_position(lo, &s) && p.matches_position(hi, &s));
        assert!(!p.matches_position(lo - 1, &s) && !p.matches_position(hi + 1, &s));
    }

    #[test]
    fn in_hull_contains_members() {
        let s = stats();
        let p = Predicate::in_list(ColumnId(3), vec![0.9, 0.1]);
        let (lo, hi) = p.position_bounds(&s);
        assert!(lo.unwrap() <= hi.unwrap());
        assert!(p.matches_position(s.position_at(0.1), &s));
        assert!(!p.matches_position(s.position_at(0.5), &s));
    }
}
