//! Traffic models: Zipf-skewed template popularity, diurnal load
//! curves, and bursty multi-tenant arrival processes.
//!
//! The paper's generator draws one query per template with a uniform
//! frequency — every template is equally hot and every parameter
//! binding is seen exactly once. Production traffic is nothing like
//! that (ROADMAP item 4, after spyne-ide's `column_usage_patterns`
//! metadata): a handful of templates carry most of the load, queries
//! *repeat* (the same dashboards fire the same parameter bindings all
//! day), load swings over the day, and bursty tenants pile on top of
//! each other. A [`TrafficModel`] captures those axes as pure,
//! seed-deterministic functions:
//!
//! * [`Popularity`] — how template/parameter mass concentrates
//!   (uniform or Zipf with a configurable exponent);
//! * [`Diurnal`] — a piecewise-linear day curve (pure integer/float
//!   arithmetic, no transcendental functions, so the multiplier is
//!   bit-stable across platforms);
//! * [`Arrivals`] — steady or bursty multi-tenant arrivals, each
//!   tenant's burst phase derived from the stream seed;
//! * an embedded [`DriftSchedule`] — which templates are live in a
//!   window (composes with the PR 8 streaming layer).
//!
//! [`TrafficModel::window_traffic`] compiles one window into a
//! [`WindowTraffic`]: a finite pool of `templates × param_slots`
//! concrete queries (each `(template, slot)` pair instantiates from its
//! own derived seed, so the same pair always yields the bit-identical
//! query — this is what makes caches *hit* under repetition) plus the
//! popularity CDFs to sample them from. Sampling a million queries
//! touches only this pool, which is how a bounded what-if cache sees a
//! realistic skewed key distribution.
//!
//! Determinism: everything here is a pure function of `(model,
//! generator, window, seed)`. Samples come from a caller-provided
//! seeded RNG, so `--jobs 1` and `--jobs N` runs that hand each cell
//! the same derived seed draw byte-identical streams
//! (`tests/scale_properties.rs` pins this).

use crate::drift::{window_seed, DriftSchedule};
use crate::generator::WorkloadGenerator;
use pipa_sim::{ColumnId, Query, SimResult, Workload};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How popularity mass distributes over a ranked pool (templates or
/// parameter slots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Every item equally likely (the paper's implicit model).
    Uniform,
    /// Zipf: item at rank `r` (0-based) has weight `(r+1)^-exponent`.
    /// Exponents near 1.0 match web/OLAP template skew; larger values
    /// concentrate harder.
    Zipf {
        /// Skew exponent (`s` in `(r+1)^-s`); 0 degenerates to uniform.
        exponent: f64,
    },
}

impl Popularity {
    /// Short stable label for artifacts and traces.
    pub fn label(self) -> &'static str {
        match self {
            Popularity::Uniform => "uniform",
            Popularity::Zipf { .. } => "zipf",
        }
    }

    /// Cumulative distribution over `n` ranked items (ascending, last
    /// entry exactly 1.0). Empty for `n = 0`.
    pub fn cdf(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let weights: Vec<f64> = match self {
            Popularity::Uniform => vec![1.0; n],
            Popularity::Zipf { exponent } => {
                (0..n).map(|r| ((r + 1) as f64).powf(-exponent)).collect()
            }
        };
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Guard the tail against float round-down so sampling with
        // `u < 1.0` can never fall off the end.
        cdf[n - 1] = 1.0;
        cdf
    }

    /// Probability mass of rank `r` out of `n` items.
    pub fn share(self, r: usize, n: usize) -> f64 {
        let cdf = self.cdf(n);
        if r >= n {
            return 0.0;
        }
        if r == 0 {
            cdf[0]
        } else {
            cdf[r] - cdf[r - 1]
        }
    }
}

/// A piecewise-linear diurnal load curve: a triangle wave peaking at
/// `peak_hour` with multiplier 1.0 and bottoming out 12 hours away at
/// `trough`. Pure arithmetic — no `sin` — so the curve is bit-stable
/// everywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Load multiplier at the quietest hour, in `(0, 1]`.
    pub trough: f64,
    /// Hour of day (0–23) at which the multiplier is 1.0.
    pub peak_hour: u64,
}

impl Diurnal {
    /// A flat curve (multiplier 1.0 at every hour).
    pub fn flat() -> Self {
        Diurnal {
            trough: 1.0,
            peak_hour: 0,
        }
    }

    /// Business-hours shape: peak at 14:00, trough 0.25 at 02:00.
    pub fn business() -> Self {
        Diurnal {
            trough: 0.25,
            peak_hour: 14,
        }
    }

    /// Load multiplier for an hour of day (hours beyond 23 wrap).
    pub fn multiplier(&self, hour: u64) -> f64 {
        let h = hour % 24;
        let d = {
            let raw = (h as i64 - self.peak_hour as i64).rem_euclid(24);
            raw.min(24 - raw) as f64
        };
        1.0 - (1.0 - self.trough.clamp(0.0, 1.0)) * d / 12.0
    }

    /// Hours whose multiplier is within 10% of the peak — the
    /// `peak_access_hours` of a spyne-style usage profile.
    pub fn peak_hours(&self) -> Vec<u64> {
        (0..24).filter(|&h| self.multiplier(h) >= 0.9).collect()
    }
}

/// Multi-tenant arrival process: how many tenants are active and how
/// their load spikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// One steady stream (multiplier 1.0 every window).
    Steady,
    /// `tenants` independent streams, each bursting for `burst_len`
    /// consecutive windows out of every `burst_every` (phase derived
    /// from the stream seed, so tenants de-synchronize). During a
    /// burst a tenant contributes `burst_mult ×` its steady share.
    Bursty {
        /// Number of tenant streams.
        tenants: usize,
        /// Burst period, in windows.
        burst_every: u64,
        /// Burst duration, in windows.
        burst_len: u64,
        /// Load multiplier while bursting.
        burst_mult: f64,
    },
}

impl Arrivals {
    /// Short stable label for artifacts and traces.
    pub fn label(self) -> &'static str {
        match self {
            Arrivals::Steady => "steady",
            Arrivals::Bursty { .. } => "bursty",
        }
    }

    /// Aggregate load multiplier across tenants for one window. Pure in
    /// `(self, window, seed)`.
    pub fn multiplier(self, window: u64, seed: u64) -> f64 {
        match self {
            Arrivals::Steady => 1.0,
            Arrivals::Bursty {
                tenants,
                burst_every,
                burst_len,
                burst_mult,
            } => {
                let tenants = tenants.max(1);
                let period = burst_every.max(1);
                let len = burst_len.clamp(1, period);
                let mut total = 0.0;
                for t in 0..tenants {
                    let phase = window_seed(seed, t as u64) % period;
                    let in_burst = (window + period - phase) % period < len;
                    total += if in_burst { burst_mult } else { 1.0 };
                }
                total / tenants as f64
            }
        }
    }
}

/// A complete traffic model: popularity skew × day curve × arrivals ×
/// template drift, plus the parameter-slot pool that makes queries
/// repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficModel {
    /// How template (and slot) popularity concentrates.
    pub popularity: Popularity,
    /// Day curve scaling per-window load.
    pub diurnal: Diurnal,
    /// Multi-tenant arrival process.
    pub arrivals: Arrivals,
    /// Which templates are live per window.
    pub drift: DriftSchedule,
    /// Distinct parameter bindings per template. Real traffic repeats
    /// bindings (dashboards, canned reports); `param_slots` bounds the
    /// distinct-query universe so repetition actually occurs.
    pub param_slots: usize,
}

impl TrafficModel {
    /// Uniform popularity, flat day, steady arrivals, no drift — the
    /// paper's implicit traffic model, expressed in this layer (the
    /// skew baseline in benchmarks).
    pub fn uniform(param_slots: usize) -> Self {
        TrafficModel {
            popularity: Popularity::Uniform,
            diurnal: Diurnal::flat(),
            arrivals: Arrivals::Steady,
            drift: DriftSchedule::Static,
            param_slots: param_slots.max(1),
        }
    }

    /// Zipf-skewed popularity with a flat day and steady arrivals.
    pub fn zipf(exponent: f64, param_slots: usize) -> Self {
        TrafficModel {
            popularity: Popularity::Zipf { exponent },
            ..Self::uniform(param_slots)
        }
    }

    /// Queries arriving in `window` given a steady-state `base` rate:
    /// `base × diurnal(window mod 24) × arrivals(window)`, floored at 1.
    pub fn window_load(&self, window: u64, base: usize, seed: u64) -> usize {
        let m = self.diurnal.multiplier(window) * self.arrivals.multiplier(window, seed);
        ((base as f64 * m).round() as usize).max(1)
    }

    /// Compile one window's traffic: instantiate the live templates ×
    /// parameter slots and attach the popularity CDFs. Pure in
    /// `(model, generator, window, seed)` — every `(template, slot)`
    /// pair draws its parameters from a seed derived from both, so the
    /// pool is bit-identical no matter when or where it is built.
    pub fn window_traffic(
        &self,
        gen: &WorkloadGenerator,
        window: u64,
        seed: u64,
    ) -> SimResult<WindowTraffic> {
        let pool_seed = window_seed(seed, window);
        let templates = gen.templates();
        let live = self.drift.window_template_indices(templates.len(), window);
        let slots = self.param_slots.max(1);
        let mut queries = Vec::with_capacity(live.len() * slots);
        for (rank, &ti) in live.iter().enumerate() {
            let tseed = window_seed(pool_seed, rank as u64);
            for s in 0..slots {
                let mut rng = ChaCha8Rng::seed_from_u64(window_seed(tseed, s as u64));
                queries.push(templates[ti].instantiate(gen.schema(), &mut rng)?);
            }
        }
        Ok(WindowTraffic {
            queries,
            template_cdf: self.popularity.cdf(live.len()),
            slot_cdf: self.popularity.cdf(slots),
            templates: live.len(),
            slots,
        })
    }
}

/// One window's compiled traffic: the `templates × slots` query pool
/// (template-major) and the popularity CDFs to sample it from.
#[derive(Debug, Clone)]
pub struct WindowTraffic {
    queries: Vec<Query>,
    template_cdf: Vec<f64>,
    slot_cdf: Vec<f64>,
    templates: usize,
    slots: usize,
}

impl WindowTraffic {
    /// Number of distinct queries in the pool.
    pub fn distinct_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of live templates this window.
    pub fn templates(&self) -> usize {
        self.templates
    }

    /// Parameter slots per template.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The pool query at index `i` (template-major:
    /// `i = template_rank × slots + slot`).
    pub fn query(&self, i: usize) -> &Query {
        &self.queries[i]
    }

    /// Template rank (0 = hottest under Zipf) of pool index `i`.
    pub fn template_of(&self, i: usize) -> usize {
        i / self.slots.max(1)
    }

    /// Probability mass of template rank `t`.
    pub fn template_share(&self, t: usize) -> f64 {
        if t >= self.templates {
            return 0.0;
        }
        if t == 0 {
            self.template_cdf[0]
        } else {
            self.template_cdf[t] - self.template_cdf[t - 1]
        }
    }

    /// Draw one pool index: template rank by the template CDF, slot by
    /// the slot CDF (both inverse-CDF over `[0, 1)` draws, so two
    /// `f64`s per sample).
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> usize {
        let t = pick(&self.template_cdf, rng.gen::<f64>());
        let s = pick(&self.slot_cdf, rng.gen::<f64>());
        t * self.slots + s
    }

    /// Draw `n` queries and aggregate them into a frequency-weighted
    /// [`Workload`] over the distinct pool (pool order, zero-draw
    /// entries skipped). Also returns the raw per-pool-index draw
    /// counts. This is how a million-query stream becomes a workload an
    /// advisor can train on without holding a million query objects.
    pub fn sample_workload<R: RngCore>(&self, n: usize, rng: &mut R) -> (Workload, Vec<u64>) {
        let mut draws = vec![0u64; self.queries.len()];
        for _ in 0..n {
            draws[self.sample(rng)] += 1;
        }
        (self.aggregate(&draws), draws)
    }

    /// Aggregate per-pool-index draw counts into a frequency-weighted
    /// [`Workload`] (counts clamp to `u32`).
    pub fn aggregate(&self, draws: &[u64]) -> Workload {
        let mut w = Workload::new();
        for (i, &c) in draws.iter().enumerate().take(self.queries.len()) {
            if c > 0 {
                w.push(self.queries[i].clone(), c.min(u32::MAX as u64) as u32);
            }
        }
        w
    }
}

/// First rank whose cumulative mass exceeds `u ∈ [0, 1)`.
fn pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Spyne-style per-column usage profile of a workload: how often each
/// column is selected, filtered on, or joined through, frequency
/// weighted, with hot columns flagged (≥ 2× the mean nonzero total).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnUsage {
    /// The column.
    pub col: ColumnId,
    /// Frequency-weighted appearances in projections.
    pub select_count: u64,
    /// Frequency-weighted appearances in filter predicates.
    pub filter_count: u64,
    /// Frequency-weighted appearances on either side of a join.
    pub join_count: u64,
    /// Whether this column's total usage is ≥ 2× the mean.
    pub hot: bool,
}

impl ColumnUsage {
    /// Total usage across the three roles.
    pub fn total(&self) -> u64 {
        self.select_count + self.filter_count + self.join_count
    }
}

/// Profile a workload's column usage (columns with any usage, ascending
/// by column id).
pub fn column_usage(w: &Workload) -> Vec<ColumnUsage> {
    use std::collections::BTreeMap;
    let mut map: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
    for wq in w.iter() {
        let f = wq.frequency as u64;
        for c in &wq.query.projection {
            map.entry(c.0).or_default().0 += f;
        }
        for p in &wq.query.predicates {
            map.entry(p.col.0).or_default().1 += f;
        }
        for j in &wq.query.joins {
            map.entry(j.left.0).or_default().2 += f;
            map.entry(j.right.0).or_default().2 += f;
        }
    }
    let totals: Vec<u64> = map.values().map(|&(s, f, j)| s + f + j).collect();
    let mean = if totals.is_empty() {
        0.0
    } else {
        totals.iter().sum::<u64>() as f64 / totals.len() as f64
    };
    map.into_iter()
        .map(
            |(col, (select_count, filter_count, join_count))| ColumnUsage {
                col: ColumnId(col),
                select_count,
                filter_count,
                join_count,
                hot: (select_count + filter_count + join_count) as f64 >= 2.0 * mean && mean > 0.0,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch;

    fn gen() -> WorkloadGenerator {
        WorkloadGenerator::new(tpch::schema(), tpch::default_templates())
    }

    #[test]
    fn zipf_cdf_is_monotone_and_skewed() {
        let cdf = Popularity::Zipf { exponent: 1.1 }.cdf(100);
        assert_eq!(cdf.len(), 100);
        assert_eq!(cdf[99], 1.0);
        for i in 1..100 {
            assert!(cdf[i] >= cdf[i - 1]);
        }
        // Rank 0 alone carries far more than the uniform 1%.
        assert!(cdf[0] > 0.1, "zipf head share {}", cdf[0]);
        let u = Popularity::Uniform.cdf(100);
        assert!((u[0] - 0.01).abs() < 1e-12);
        assert!(Popularity::Uniform.cdf(0).is_empty());
    }

    #[test]
    fn shares_sum_to_one() {
        for p in [Popularity::Uniform, Popularity::Zipf { exponent: 0.9 }] {
            let total: f64 = (0..18).map(|r| p.share(r, 18)).sum();
            assert!((total - 1.0).abs() < 1e-9, "{}", p.label());
            assert_eq!(p.share(18, 18), 0.0);
        }
    }

    #[test]
    fn diurnal_curve_peaks_and_troughs() {
        let d = Diurnal::business();
        assert!((d.multiplier(14) - 1.0).abs() < 1e-12);
        assert!((d.multiplier(2) - 0.25).abs() < 1e-12);
        // Symmetric around the peak, wraps midnight.
        assert!((d.multiplier(10) - d.multiplier(18)).abs() < 1e-12);
        assert!(d.peak_hours().contains(&14));
        let flat = Diurnal::flat();
        for h in 0..48 {
            assert_eq!(flat.multiplier(h), 1.0);
        }
    }

    #[test]
    fn bursty_arrivals_average_above_one_and_are_pure() {
        let a = Arrivals::Bursty {
            tenants: 8,
            burst_every: 10,
            burst_len: 2,
            burst_mult: 5.0,
        };
        let ms: Vec<f64> = (0..40).map(|w| a.multiplier(w, 7)).collect();
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        assert!(mean > 1.0, "bursts must add load: mean {mean}");
        assert!(ms.iter().any(|&m| m > 1.0) && ms.iter().any(|&m| m >= 1.0));
        assert_eq!(a.multiplier(3, 7), a.multiplier(3, 7));
        assert_eq!(Arrivals::Steady.multiplier(3, 7), 1.0);
    }

    #[test]
    fn window_load_composes_curves() {
        let m = TrafficModel {
            diurnal: Diurnal::business(),
            ..TrafficModel::zipf(1.1, 4)
        };
        // Hour 14 is the peak, hour 2 the trough.
        assert!(m.window_load(14, 1000, 3) > m.window_load(2, 1000, 3));
        assert!(m.window_load(2, 0, 3) >= 1, "load floors at 1");
    }

    #[test]
    fn window_traffic_pool_is_deterministic_and_template_major() {
        let g = gen();
        let m = TrafficModel::zipf(1.1, 3);
        let a = m.window_traffic(&g, 0, 42).unwrap();
        let b = m.window_traffic(&g, 0, 42).unwrap();
        assert_eq!(a.distinct_queries(), 18 * 3);
        assert_eq!(a.templates(), 18);
        assert_eq!(a.slots(), 3);
        for i in 0..a.distinct_queries() {
            assert_eq!(a.query(i), b.query(i), "pool entry {i}");
            assert_eq!(a.template_of(i), i / 3);
        }
        // A different seed re-parameterizes the pool.
        let c = m.window_traffic(&g, 0, 43).unwrap();
        assert!((0..a.distinct_queries()).any(|i| a.query(i) != c.query(i)));
    }

    #[test]
    fn sampling_is_seed_stable_and_skew_concentrates() {
        let g = gen();
        let m = TrafficModel::zipf(1.1, 4);
        let tr = m.window_traffic(&g, 0, 9).unwrap();
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        let a: Vec<usize> = (0..1000).map(|_| tr.sample(&mut r1)).collect();
        let b: Vec<usize> = (0..1000).map(|_| tr.sample(&mut r2)).collect();
        assert_eq!(a, b, "same seed, same draw sequence");
        // Rank-0 template must dominate rank-17 under Zipf 1.1.
        let hot = a.iter().filter(|&&i| tr.template_of(i) == 0).count();
        let cold = a.iter().filter(|&&i| tr.template_of(i) == 17).count();
        assert!(hot > 5 * cold.max(1), "hot {hot} vs cold {cold}");
        assert!(tr.template_share(0) > tr.template_share(17));
    }

    #[test]
    fn sample_workload_aggregates_draws() {
        let g = gen();
        let m = TrafficModel::zipf(1.0, 2);
        let tr = m.window_traffic(&g, 1, 11).unwrap();
        let (w, draws) = tr.sample_workload(500, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(draws.iter().sum::<u64>(), 500);
        let total: u64 = w.iter().map(|wq| wq.frequency as u64).sum();
        assert_eq!(total, 500, "aggregation preserves the draw count");
        assert!(w.len() <= tr.distinct_queries());
    }

    #[test]
    fn drift_composition_rotates_the_live_pool() {
        let g = gen();
        let m = TrafficModel {
            drift: DriftSchedule::Rotate { span: 4, stride: 2 },
            ..TrafficModel::zipf(1.1, 2)
        };
        let w0 = m.window_traffic(&g, 0, 9).unwrap();
        let w1 = m.window_traffic(&g, 1, 9).unwrap();
        assert_eq!(w0.templates(), 4);
        assert_eq!(w1.templates(), 4);
        assert_eq!(w0.distinct_queries(), 8);
    }

    #[test]
    fn column_usage_profiles_hot_columns() {
        let g = gen();
        let m = TrafficModel::zipf(1.2, 2);
        let tr = m.window_traffic(&g, 0, 9).unwrap();
        let (w, _) = tr.sample_workload(2000, &mut ChaCha8Rng::seed_from_u64(1));
        let usage = column_usage(&w);
        assert!(!usage.is_empty());
        assert!(usage.iter().any(|u| u.filter_count > 0));
        assert!(usage.iter().any(|u| u.hot), "skew must surface hot columns");
        let total: u64 = usage.iter().map(|u| u.total()).sum();
        assert!(total > 0);
        // Sorted by column id.
        for pair in usage.windows(2) {
            assert!(pair[0].col.0 < pair[1].col.0);
        }
        assert!(column_usage(&Workload::new()).is_empty());
    }
}
