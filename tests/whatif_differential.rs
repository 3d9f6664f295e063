//! Differential suite for the incremental what-if engine (proptest).
//!
//! The benefit matrix, `what_if_batch`, `what_if_delta` and the
//! incremental eval sessions must be **bit-identical** (`f64::to_bits`)
//! to a scalar full recompute through `estimated_workload_cost` — on
//! proptest-generated TPC-H/TPC-DS workloads, under arbitrary
//! index-config edit sequences, and on both matrix-cold and
//! matrix-warm paths. Any divergence, even in the last ulp, is a bug: advisors make
//! strict `<` comparisons on these numbers, so "close enough" can flip
//! a recommendation.

use pipa::sim::{
    Aggregate, ColumnId, ConfigDelta, Database, Index, IndexConfig, Predicate, Query, QueryBuilder,
    TableId, Workload,
};
use pipa::workload::{Benchmark, TemplateSpec};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tpch() -> Database {
    Benchmark::TpcH.database(1.0, None)
}

/// A scalar-reference database: matrix off, so every call walks the
/// full analytical model from scratch, uncached (the "cold scalar
/// recompute" all incremental paths are measured against).
fn scalar_reference(bench: Benchmark) -> Database {
    let db = bench.database(1.0, None);
    db.set_whatif_matrix_enabled(false);
    db
}

// ---- generators -----------------------------------------------------------

/// Raw spec for one workload query: either a proptest-built single-table
/// query (exercises the Decomposable matrix path) or a benchmark
/// template instantiation (join templates exercise the JoinDecomposable
/// per-step matrix path).
#[derive(Debug, Clone)]
enum QSpec {
    Single {
        anchor: u32,
        preds: Vec<(u32, u8, f64, f64)>,
    },
    Template {
        idx: usize,
        seed: u64,
    },
}

fn arb_qspec(ncols: u32, ntemplates: usize) -> impl Strategy<Value = QSpec> {
    // The vendored mini-proptest has no `prop_oneof!`; encode the 3:1
    // single-table / template choice as a drawn discriminant instead.
    (
        0u8..4,
        0..ncols,
        proptest::collection::vec((0..ncols, 0..4u8, 0.0f64..1.0, 0.0f64..1.0), 1..3),
        0usize..ntemplates,
        0u64..1_000,
    )
        .prop_map(|(choice, anchor, preds, idx, seed)| {
            if choice < 3 {
                QSpec::Single { anchor, preds }
            } else {
                QSpec::Template { idx, seed }
            }
        })
}

fn mk_pred(col: ColumnId, kind: u8, a: f64, b: f64) -> Predicate {
    match kind {
        0 => Predicate::eq(col, a),
        1 => Predicate::le(col, a),
        2 => Predicate::ge(col, a),
        _ => Predicate::between(col, a.min(b), a.max(b)),
    }
}

fn build_query(db: &Database, templates: &[TemplateSpec], spec: &QSpec) -> Query {
    let schema = db.schema();
    match spec {
        QSpec::Single { anchor, preds } => {
            // Snap every predicate column onto the anchor's table so the
            // query stays single-table (joins are covered by templates).
            let table = schema.column(ColumnId(*anchor)).table;
            let cols: Vec<ColumnId> = (0..schema.num_columns() as u32)
                .map(ColumnId)
                .filter(|&c| schema.column(c).table == table)
                .collect();
            let mut b = QueryBuilder::new();
            for &(c, kind, x, y) in preds {
                let col = cols[c as usize % cols.len()];
                b = b.filter(schema, mk_pred(col, kind, x, y));
            }
            b.aggregate(Aggregate::CountStar).build(schema).unwrap()
        }
        QSpec::Template { idx, seed } => {
            let t = &templates[idx % templates.len()];
            let mut rng = ChaCha8Rng::seed_from_u64(*seed);
            t.instantiate(schema, &mut rng).unwrap()
        }
    }
}

fn build_workload(db: &Database, templates: &[TemplateSpec], specs: &[(QSpec, u32)]) -> Workload {
    let mut w = Workload::new();
    for (spec, freq) in specs {
        w.push(build_query(db, templates, spec), *freq);
    }
    w
}

/// Index spec: 1–3 column picks, snapped to one table and deduped.
fn build_index(db: &Database, cols: &[u32]) -> Index {
    let schema = db.schema();
    let n = schema.num_columns() as u32;
    let first = ColumnId(cols[0] % n);
    let table = schema.column(first).table;
    let mut snapped: Vec<ColumnId> = Vec::new();
    for &c in cols {
        let mut col = ColumnId(c % n);
        if schema.column(col).table != table {
            col = first;
        }
        if !snapped.contains(&col) {
            snapped.push(col);
        }
    }
    if snapped.len() == 1 {
        Index::single(snapped[0])
    } else {
        Index::multi(schema, snapped).unwrap_or_else(|_| Index::single(first))
    }
}

fn arb_index_cols() -> impl Strategy<Value = Vec<u32>> {
    arb_index_cols_of(61)
}

fn arb_index_cols_of(ncols: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..ncols, 1..4)
}

fn arb_workload_specs() -> impl Strategy<Value = Vec<(QSpec, u32)>> {
    proptest::collection::vec((arb_qspec(61, 8), 1u32..6), 1..5)
}

/// TPC-DS column count (the proptests above draw TPC-H's 61).
fn tpcds_cols() -> u32 {
    Benchmark::TpcDs.schema().num_columns() as u32
}

/// A drawn index edit on `w`. When `used`, its leading column is one the
/// workload filters or joins on, as an advisor's edits are; otherwise
/// any column, which on TPC-DS mostly lands on a table no query scans.
fn build_edit(db: &Database, w: &Workload, used: bool, cols: &[u32]) -> Index {
    let cand = w.candidate_columns();
    let mut cols = cols.to_vec();
    if used && !cand.is_empty() {
        cols[0] = cand[cols[0] as usize % cand.len()].0;
    }
    build_index(db, &cols)
}

fn arb_tpcds_edits() -> impl Strategy<Value = Vec<(u8, Vec<u32>)>> {
    proptest::collection::vec((0u8..4, arb_index_cols_of(tpcds_cols())), 1..6)
}

/// Begin a session on `w`, then preview and commit each of `adds` in
/// turn: the begin total, every preview and every commit equal the
/// scalar recompute of the session's configuration, bit for bit.
fn assert_session_tracks_scalar(
    label: &str,
    bench: Benchmark,
    db: &Database,
    w: &Workload,
    adds: &[Index],
) {
    let scalar = scalar_reference(bench);
    let mut eval = db.whatif_eval_begin(w);
    let mut cfg = IndexConfig::empty();
    assert_bits(
        &format!("{label} begin"),
        scalar.estimated_workload_cost(w, &cfg),
        db.whatif_eval_total(w, &eval),
    );
    for idx in adds {
        let mut after = cfg.clone();
        after.add(idx.clone());
        let preview = db.whatif_eval_preview_add(w, &eval, &after, idx);
        let committed = db.whatif_eval_add(w, &mut eval, &after, idx);
        let reference = scalar.estimated_workload_cost(w, &after);
        assert_bits(&format!("{label} preview"), reference, preview);
        assert_bits(&format!("{label} commit"), reference, committed);
        cfg = after;
    }
}

/// One instantiation of each of the first `n` default templates.
fn template_workload(bench: Benchmark, db: &Database, n: usize, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = Workload::new();
    for t in bench.default_templates().iter().take(n) {
        w.push(t.instantiate(db.schema(), &mut rng).unwrap(), 2);
    }
    w
}

/// `(template, seed, frequency)` draws instantiated from `bench`'s
/// default templates.
fn join_template_workload(
    bench: Benchmark,
    db: &Database,
    tmpls: &[(usize, u64, u32)],
) -> Workload {
    let templates = bench.default_templates();
    let mut w = Workload::new();
    for (idx, seed, freq) in tmpls {
        let t = &templates[idx % templates.len()];
        let q = t
            .instantiate(db.schema(), &mut ChaCha8Rng::seed_from_u64(*seed))
            .unwrap();
        w.push(q, *freq);
    }
    w
}

fn assert_bits(label: &str, reference: f64, got: f64) {
    assert_eq!(
        reference.to_bits(),
        got.to_bits(),
        "{label}: scalar {reference} != incremental {got}"
    );
}

// ---- properties -----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `what_if_batch` / `matrix_workload_cost` ≡ scalar recompute, on
    /// the first (matrix-cold) call and again once every cell is warm.
    #[test]
    fn batch_matches_scalar_bitwise_cold_and_warm(
        specs in arb_workload_specs(),
        cfg_cols in proptest::collection::vec(arb_index_cols(), 1..4),
    ) {
        let scalar = scalar_reference(Benchmark::TpcH);
        let db = tpch();
        let templates = Benchmark::TpcH.default_templates();
        let w = build_workload(&db, &templates, &specs);
        let configs: Vec<IndexConfig> = cfg_cols
            .iter()
            .map(|cols| IndexConfig::from_indexes([build_index(&db, cols)]))
            .collect();

        let reference: Vec<f64> = configs
            .iter()
            .map(|c| scalar.estimated_workload_cost(&w, c))
            .collect();
        let cold = db.what_if_batch(&w, &configs);
        let warm = db.what_if_batch(&w, &configs);
        for (i, r) in reference.iter().enumerate() {
            assert_bits("batch cold", *r, cold[i]);
            assert_bits("batch warm", *r, warm[i]);
        }
    }

    /// `what_if_delta` over an arbitrary add/remove edit sequence ≡
    /// scalar recompute of each edited configuration.
    #[test]
    fn delta_edit_sequences_match_scalar_bitwise(
        specs in arb_workload_specs(),
        edits in proptest::collection::vec(
            ((0u8..2).prop_map(|b| b == 1), arb_index_cols()),
            1..6,
        ),
    ) {
        let scalar = scalar_reference(Benchmark::TpcH);
        let db = tpch();
        let templates = Benchmark::TpcH.default_templates();
        let w = build_workload(&db, &templates, &specs);

        let mut cfg = IndexConfig::empty();
        for (add, cols) in &edits {
            let idx = build_index(&db, cols);
            let delta = if *add {
                ConfigDelta::Add(idx)
            } else {
                ConfigDelta::Remove(idx)
            };
            let after = delta.apply(&cfg);
            let incremental = db.what_if_delta(&w, &cfg, &delta);
            let reference = scalar.estimated_workload_cost(&w, &after);
            assert_bits("delta", reference, incremental);
            cfg = after;
        }
    }

    /// A full eval session — begin, then a chain of preview+commit adds —
    /// tracks the scalar recompute bit-for-bit at every step, and the
    /// non-mutating preview always equals the committed total.
    #[test]
    fn eval_sessions_match_scalar_bitwise(
        specs in arb_workload_specs(),
        adds in proptest::collection::vec(arb_index_cols(), 1..5),
    ) {
        let db = tpch();
        let templates = Benchmark::TpcH.default_templates();
        let w = build_workload(&db, &templates, &specs);
        let adds: Vec<Index> = adds.iter().map(|cols| build_index(&db, cols)).collect();
        assert_session_tracks_scalar("session", Benchmark::TpcH, &db, &w, &adds);
    }

    /// The same session chains on TPC-DS, whose star joins over 24
    /// tables make most edits land on a table the query never scans.
    #[test]
    fn tpcds_eval_sessions_match_scalar_bitwise(
        specs in proptest::collection::vec((arb_qspec(tpcds_cols(), 128), 1u32..6), 1..5),
        edits in arb_tpcds_edits(),
    ) {
        let db = Benchmark::TpcDs.database(1.0, None);
        let templates = Benchmark::TpcDs.default_templates();
        let w = build_workload(&db, &templates, &specs);
        let adds: Vec<Index> = edits
            .iter()
            .map(|(used, cols)| build_edit(&db, &w, *used < 3, cols))
            .collect();
        assert_session_tracks_scalar("tpcds session", Benchmark::TpcDs, &db, &w, &adds);
    }

    /// Join-template-only workloads under session edit chains: the
    /// decomposed join path must track the scalar recompute bit-for-bit
    /// at every step, previews must equal commits, and nothing may take
    /// the full-model fallback (benchmark templates never scan a table
    /// twice, so every join decomposes).
    #[test]
    fn join_template_sessions_match_scalar_bitwise(
        tmpls in proptest::collection::vec((0usize..8, 0u64..1_000, 1u32..4), 1..4),
        adds in proptest::collection::vec(arb_index_cols(), 1..5),
    ) {
        let db = tpch();
        let w = join_template_workload(Benchmark::TpcH, &db, &tmpls);
        let adds: Vec<Index> = adds.iter().map(|cols| build_index(&db, cols)).collect();
        assert_session_tracks_scalar("join session", Benchmark::TpcH, &db, &w, &adds);
        prop_assert_eq!(
            db.whatif_matrix_stats().full_fallbacks,
            0,
            "benchmark templates must all decompose"
        );
    }

    /// The join-template session chains on TPC-DS.
    #[test]
    fn tpcds_join_template_sessions_match_scalar_bitwise(
        tmpls in proptest::collection::vec((0usize..128, 0u64..1_000, 1u32..4), 1..4),
        edits in arb_tpcds_edits(),
    ) {
        let db = Benchmark::TpcDs.database(1.0, None);
        let w = join_template_workload(Benchmark::TpcDs, &db, &tmpls);
        let adds: Vec<Index> = edits
            .iter()
            .map(|(used, cols)| build_edit(&db, &w, *used < 3, cols))
            .collect();
        assert_session_tracks_scalar("tpcds join session", Benchmark::TpcDs, &db, &w, &adds);
        prop_assert_eq!(
            db.whatif_matrix_stats().full_fallbacks,
            0,
            "benchmark templates must all decompose"
        );
    }

    /// The what-if memo must be value-transparent: the matrix cold, warm,
    /// and under a zero byte budget (every cell and shape dropped as soon
    /// as it is stored) all agree with the scalar reference on
    /// join-heavy workloads.
    #[test]
    fn cache_cold_and_warm_paths_agree(
        tmpl in 0usize..8,
        seed in 0u64..500,
        cols in arb_index_cols(),
    ) {
        let scalar = scalar_reference(Benchmark::TpcH);
        let db = tpch();
        let templates = Benchmark::TpcH.default_templates();
        let q = templates[tmpl % templates.len()]
            .instantiate(db.schema(), &mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        let w = Workload::from_queries([(q, 3)]);
        let cfg = IndexConfig::from_indexes([build_index(&db, &cols)]);

        let reference = scalar.estimated_workload_cost(&w, &cfg);
        let cold = db.estimated_workload_cost(&w, &cfg);
        let warm = db.estimated_workload_cost(&w, &cfg);
        db.set_whatif_matrix_byte_budget(0);
        let uncached = db.estimated_workload_cost(&w, &cfg);
        prop_assert_eq!(db.whatif_matrix_stats().approx_bytes, 0);
        assert_bits("matrix cold", reference, cold);
        assert_bits("matrix warm", reference, warm);
        assert_bits("zero budget", reference, uncached);
    }
}

// ---- deterministic cross-benchmark sweeps ---------------------------------

/// Every default template of both benchmarks, instantiated at several
/// seeds, under single- and multi-column configs: matrix ≡ scalar,
/// cold and warm.
#[test]
fn all_templates_of_both_benchmarks_match_scalar() {
    for bench in [Benchmark::TpcH, Benchmark::TpcDs] {
        let scalar = scalar_reference(bench);
        let db = bench.database(1.0, None);
        let templates = bench.default_templates();
        let mut w = Workload::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for t in &templates {
            for _ in 0..2 {
                w.push(t.instantiate(db.schema(), &mut rng).unwrap(), 2);
            }
        }
        // TPC-DS default templates are all join-shaped; add single-table
        // queries so the sweep drives the Decomposable path on both
        // benchmarks, not just the decomposed joins.
        for c in (0..db.schema().num_columns() as u32).step_by(17) {
            let q = QueryBuilder::new()
                .filter(db.schema(), Predicate::le(ColumnId(c), 0.4))
                .aggregate(Aggregate::CountStar)
                .build(db.schema())
                .unwrap();
            w.push(q, 1);
        }
        // One raw duplicate-table scan (builders dedupe tables, so push
        // the duplicate directly): the genuinely non-decomposable shape
        // that must keep taking the full-model fallback.
        {
            let mut q = templates
                .iter()
                .map(|t| t.instantiate(db.schema(), &mut rng).unwrap())
                .find(|q| q.tables.len() >= 2)
                .expect("benchmark has a join template");
            q.tables.push(q.tables[0]);
            w.push(q, 1);
        }
        // One config per candidate column (the advisor's action space),
        // answered as a batch, twice (cold then warm).
        let configs: Vec<IndexConfig> = w
            .candidate_columns()
            .into_iter()
            .take(12)
            .map(|c| IndexConfig::from_indexes([Index::single(c)]))
            .collect();
        let reference: Vec<f64> = configs
            .iter()
            .map(|c| scalar.estimated_workload_cost(&w, c))
            .collect();
        for pass in ["cold", "warm"] {
            let got = db.what_if_batch(&w, &configs);
            for (i, r) in reference.iter().enumerate() {
                assert_eq!(
                    r.to_bits(),
                    got[i].to_bits(),
                    "{bench:?} {pass} config {i}: {r} != {}",
                    got[i]
                );
            }
        }
        let stats = db.whatif_matrix_stats();
        assert!(stats.matrix_evals > 0, "{bench:?}: no matrix evals");
        assert!(stats.join_evals > 0, "{bench:?}: no decomposed join evals");
        assert!(
            stats.full_fallbacks > 0,
            "{bench:?}: duplicate-table query must fall back"
        );
    }
}

// ---- edits that touch no matrix cell --------------------------------------

/// Access-cell lookups so far (hits and misses).
fn lookups(db: &Database) -> u64 {
    let s = db.whatif_matrix_stats();
    s.entry_hits + s.entry_misses
}

/// The two edits a session answers without a cell: an index on a table
/// no query scans, and a multi-column index on a scanned table whose
/// leading column no query filters or joins on (its second column is
/// filtered). Preview, commit and the scalar recompute agree bit for
/// bit, and previewing either one makes no matrix lookup.
#[test]
fn tpcds_session_edits_that_touch_no_cell_match_scalar() {
    let bench = Benchmark::TpcDs;
    let db = bench.database(1.0, None);
    let schema = db.schema();
    let w = template_workload(bench, &db, 12, 5);
    let scanned: Vec<TableId> = w.iter().flat_map(|wq| wq.query.tables.clone()).collect();
    let filtered: Vec<ColumnId> = w
        .iter()
        .flat_map(|wq| wq.query.predicates.iter().map(|p| p.col))
        .collect();
    let joined: Vec<ColumnId> = w
        .iter()
        .flat_map(|wq| wq.query.joins.iter().flat_map(|j| [j.left, j.right]))
        .collect();

    let unscanned = schema
        .tables()
        .iter()
        .find(|t| !scanned.contains(&t.id))
        .expect("twelve templates leave a TPC-DS table unscanned")
        .id;
    let on_unscanned = Index::single(
        schema
            .columns()
            .iter()
            .find(|c| c.table == unscanned)
            .expect("every table has a column")
            .id,
    );
    let unfiltered_lead = filtered
        .iter()
        .find_map(|&f| {
            let lead = schema.columns().iter().find(|c| {
                c.table == schema.table_of(f)
                    && !filtered.contains(&c.id)
                    && !joined.contains(&c.id)
            })?;
            Index::multi(schema, vec![lead.id, f]).ok()
        })
        .expect("a scanned table has an unfiltered, unjoined column");
    assert!(scanned.contains(&unfiltered_lead.table(schema)));

    // Every column the workload filters or joins on first, so the
    // no-cell edits meet states away from their empty-configuration
    // baselines.
    let mut adds: Vec<Index> = w
        .candidate_columns()
        .into_iter()
        .map(Index::single)
        .collect();
    // Non-vacuous: some edit lowers a join query's cost through a table
    // other than its first, which a skip keyed on the wrong table misses.
    let scalar = scalar_reference(bench);
    assert!(w.iter().any(|wq| {
        let one = Workload::from_queries([(wq.query.clone(), 1)]);
        let base = scalar.estimated_workload_cost(&one, &IndexConfig::empty());
        adds.iter().any(|idx| {
            wq.query.tables[1..].contains(&idx.table(schema))
                && scalar.estimated_workload_cost(&one, &IndexConfig::from_indexes([idx.clone()]))
                    < base
        })
    }));
    adds.extend([on_unscanned.clone(), unfiltered_lead.clone()]);
    assert_session_tracks_scalar("no-cell edit", bench, &db, &w, &adds);

    let useful = Index::single(filtered[0]);
    let mut eval = db.whatif_eval_begin(&w);
    let base = IndexConfig::from_indexes([useful.clone()]);
    db.whatif_eval_add(&w, &mut eval, &base, &useful);
    for idx in [&on_unscanned, &unfiltered_lead] {
        let mut after = base.clone();
        after.add(idx.clone());
        let before = lookups(&db);
        let preview = db.whatif_eval_preview_add(&w, &eval, &after, idx);
        assert_eq!(lookups(&db), before, "{idx:?} made a matrix lookup");
        assert_bits("no-cell preview", db.whatif_eval_total(&w, &eval), preview);
    }
}

/// A TPC-DS sweep (templates plus single-table queries, every candidate
/// column as a one-index configuration, batch and session) stores only
/// applicable access cells: none of them holds `+∞`.
#[test]
fn tpcds_matrix_stores_only_applicable_access_cells() {
    let bench = Benchmark::TpcDs;
    let db = bench.database(1.0, None);
    let mut w = template_workload(bench, &db, 24, 9);
    for c in (0..db.schema().num_columns() as u32).step_by(13) {
        let q = QueryBuilder::new()
            .filter(db.schema(), Predicate::le(ColumnId(c), 0.4))
            .aggregate(Aggregate::CountStar)
            .build(db.schema())
            .unwrap();
        w.push(q, 1);
    }
    let candidates: Vec<Index> = w
        .candidate_columns()
        .into_iter()
        .map(Index::single)
        .collect();
    let configs: Vec<IndexConfig> = candidates
        .iter()
        .map(|i| IndexConfig::from_indexes([i.clone()]))
        .collect();
    let _ = db.what_if_batch(&w, &configs);
    let eval = db.whatif_eval_begin(&w);
    for (idx, cfg) in candidates.iter().zip(&configs) {
        let _ = db.whatif_eval_preview_add(&w, &eval, cfg, idx);
    }
    let costs = db.whatif_matrix_access_costs();
    assert!(!costs.is_empty(), "the sweep stored no access cell");
    assert_eq!(costs.len(), db.whatif_matrix_stats().entries);
    assert!(
        costs.iter().all(|c| c.is_finite()),
        "{} of {} resident access cells hold +inf",
        costs.iter().filter(|c| !c.is_finite()).count(),
        costs.len()
    );
}

// ---- join-shape classification edge cases ---------------------------------
//
// `QueryShape` is crate-internal, so these pin the chosen shape through
// the public `MatrixStats` counters (exactly one of `matrix_evals` /
// `join_evals` / `full_fallbacks` advances per evaluation) alongside
// bit-equality with the scalar recompute.

fn col(db: &Database, name: &str) -> ColumnId {
    db.schema().column_id(name).unwrap()
}

/// Evaluate one query and return which shape counter advanced, asserting
/// bit-equality to the scalar reference on the way.
fn eval_and_classify(
    db: &Database,
    scalar: &Database,
    q: &Query,
    cfg: &IndexConfig,
) -> &'static str {
    let w = Workload::from_queries([(q.clone(), 1)]);
    let before = db.whatif_matrix_stats();
    let got = db.estimated_workload_cost(&w, cfg);
    let after = db.whatif_matrix_stats();
    assert_bits(
        "edge-case shape",
        scalar.estimated_workload_cost(&w, cfg),
        got,
    );
    let deltas = [
        ("matrix", after.matrix_evals - before.matrix_evals),
        ("join", after.join_evals - before.join_evals),
        ("fallback", after.full_fallbacks - before.full_fallbacks),
    ];
    let moved: Vec<&str> = deltas
        .iter()
        .filter(|(_, d)| *d > 0)
        .map(|(n, _)| *n)
        .collect();
    assert_eq!(
        moved.len(),
        1,
        "exactly one shape counter must advance, got {moved:?}"
    );
    moved[0]
}

/// A builder self-join (both join columns on one table) dedupes to a
/// single-table query: decomposable matrix row, not a join shape.
#[test]
fn self_join_classifies_as_single_table_decomposable() {
    let scalar = scalar_reference(Benchmark::TpcH);
    let db = tpch();
    let q = QueryBuilder::new()
        .join(db.schema(), col(&db, "l_orderkey"), col(&db, "l_partkey"))
        .filter(db.schema(), Predicate::le(col(&db, "l_shipdate"), 0.3))
        .aggregate(Aggregate::CountStar)
        .build(db.schema())
        .unwrap();
    assert_eq!(q.tables.len(), 1, "builder must dedupe the self-join");
    for cfg in [
        IndexConfig::empty(),
        IndexConfig::from_indexes([Index::single(col(&db, "l_shipdate"))]),
    ] {
        assert_eq!(eval_and_classify(&db, &scalar, &q, &cfg), "matrix");
    }
}

/// A raw duplicate-table scan is the genuinely non-decomposable shape:
/// full-model fallback, still bit-identical.
#[test]
fn duplicate_table_scan_falls_back_to_full_model() {
    let scalar = scalar_reference(Benchmark::TpcH);
    let db = tpch();
    let mut q = QueryBuilder::new()
        .join(db.schema(), col(&db, "l_orderkey"), col(&db, "o_orderkey"))
        .aggregate(Aggregate::CountStar)
        .build(db.schema())
        .unwrap();
    q.tables.push(q.tables[0]);
    for cfg in [
        IndexConfig::empty(),
        IndexConfig::from_indexes([Index::single(col(&db, "l_orderkey"))]),
    ] {
        assert_eq!(eval_and_classify(&db, &scalar, &q, &cfg), "fallback");
    }
}

/// A multi-way (three-table) join decomposes; per-step nested-loop cells
/// engage for join-key indexes on any step.
#[test]
fn multi_way_join_decomposes_with_per_step_cells() {
    let scalar = scalar_reference(Benchmark::TpcH);
    let db = tpch();
    let q = QueryBuilder::new()
        .join(db.schema(), col(&db, "c_custkey"), col(&db, "o_custkey"))
        .join(db.schema(), col(&db, "o_orderkey"), col(&db, "l_orderkey"))
        .filter(db.schema(), Predicate::le(col(&db, "c_acctbal"), 0.2))
        .aggregate(Aggregate::CountStar)
        .build(db.schema())
        .unwrap();
    assert_eq!(q.tables.len(), 3);
    for cfg in [
        IndexConfig::empty(),
        IndexConfig::from_indexes([Index::single(col(&db, "o_custkey"))]),
        IndexConfig::from_indexes([
            Index::single(col(&db, "o_custkey")),
            Index::single(col(&db, "l_orderkey")),
            Index::single(col(&db, "c_acctbal")),
        ]),
    ] {
        assert_eq!(eval_and_classify(&db, &scalar, &q, &cfg), "join");
    }
    assert!(
        db.whatif_matrix_stats().nl_entries > 0,
        "join-key indexes must own nested-loop cells"
    );
}

/// A join whose configuration has no indexable column on either side of
/// the join predicate (indexes only on unrelated tables) still
/// decomposes, and the unrelated indexes change nothing: the cost equals
/// the empty-config cost bit-for-bit.
#[test]
fn join_with_no_applicable_index_on_either_side_matches_empty_config() {
    let scalar = scalar_reference(Benchmark::TpcH);
    let db = tpch();
    let q = QueryBuilder::new()
        .join(db.schema(), col(&db, "s_suppkey"), col(&db, "ps_suppkey"))
        .aggregate(Aggregate::CountStar)
        .build(db.schema())
        .unwrap();
    let unrelated = IndexConfig::from_indexes([
        Index::single(col(&db, "p_size")),
        Index::single(col(&db, "c_acctbal")),
    ]);
    assert_eq!(eval_and_classify(&db, &scalar, &q, &unrelated), "join");
    let w = Workload::from_queries([(q, 1)]);
    let empty = db.estimated_workload_cost(&w, &IndexConfig::empty());
    let with = db.estimated_workload_cost(&w, &unrelated);
    assert_eq!(empty.to_bits(), with.to_bits());
}

/// Empty-config deltas: `what_if_delta` from the empty base and a
/// no-op removal against the empty config both match the scalar
/// recompute of the edited (or unchanged) configuration.
#[test]
fn empty_config_deltas_match_scalar() {
    let scalar = scalar_reference(Benchmark::TpcH);
    let db = tpch();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let templates = Benchmark::TpcH.default_templates();
    let mut w = Workload::new();
    for t in templates.iter().take(4) {
        w.push(t.instantiate(db.schema(), &mut rng).unwrap(), 2);
    }
    let empty = IndexConfig::empty();
    let idx = Index::single(col(&db, "l_orderkey"));

    let add = ConfigDelta::Add(idx.clone());
    let reference = scalar.estimated_workload_cost(&w, &add.apply(&empty));
    assert_bits(
        "empty-base add",
        reference,
        db.what_if_delta(&w, &empty, &add),
    );

    // Removing an index the empty config doesn't hold is a no-op edit.
    let remove = ConfigDelta::Remove(idx);
    let unchanged = scalar.estimated_workload_cost(&w, &empty);
    assert_bits(
        "empty-base no-op remove",
        unchanged,
        db.what_if_delta(&w, &empty, &remove),
    );
}

/// Disabling the matrix must not change values — only the route taken.
#[test]
fn disabled_matrix_routes_to_identical_values() {
    let db = tpch();
    let templates = Benchmark::TpcH.default_templates();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut w = Workload::new();
    for t in templates.iter().take(6) {
        w.push(t.instantiate(db.schema(), &mut rng).unwrap(), 1);
    }
    let cfg = IndexConfig::from_indexes([Index::single(ColumnId(5))]);
    let enabled = db.estimated_workload_cost(&w, &cfg);
    db.set_whatif_matrix_enabled(false);
    let disabled = db.estimated_workload_cost(&w, &cfg);
    let delta_disabled = db.what_if_delta(
        &w,
        &IndexConfig::empty(),
        &ConfigDelta::Add(Index::single(ColumnId(5))),
    );
    db.set_whatif_matrix_enabled(true);
    assert_eq!(enabled.to_bits(), disabled.to_bits());
    assert_eq!(enabled.to_bits(), delta_disabled.to_bits());
}
