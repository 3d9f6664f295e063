//! Skewed traffic at scale: a ≥1M-query Zipf/diurnal stream against an
//! SF-100 analytical database under hard memory bounds.
//!
//! Four legs, all seed-deterministic:
//!
//! * **stream** — a day of traffic (24 diurnal windows, bursty
//!   multi-tenant arrivals, Zipf template popularity) costed through the
//!   what-if path's one memo, the benefit matrix, under a byte budget of
//!   1/32 of the day's own unbudgeted footprint (cells and query shapes).
//!   Reports throughput, the matrix cell-hit-rate gap between Zipf and
//!   uniform popularity at the same budget (skew is what makes a bounded
//!   memo work), compactions, and — the hard contract — that the
//!   budgeted run returns **bit-identical** costs to the unbudgeted run
//!   of the same draw sequence (compaction drops presence only; it can
//!   cost time, never correctness);
//! * **matrix** — the same pool scored under a sweep of single-index
//!   configurations with the benefit matrix *on* but under a byte
//!   budget of half the sweep's own unbudgeted footprint: rotating shard
//!   compaction must run, keep the tracked footprint at the budget (peak
//!   overshoot ≤ one cell), and answer every cost bit-identically to the
//!   unbudgeted pass;
//! * **tape** — a recorded what-if tape streamed to disk and back
//!   through the chunked reader with its size guard, proving the
//!   round trip and that the guard actually trips;
//! * **economics** — one equal-budget poisoning attack priced under
//!   hot-aligned vs cold-aligned Zipf traffic
//!   ([`pipa_core::traffic::poisoning_economics`]): the hot premium is
//!   what the attack is worth when it lands on head templates.
//!
//! Writes `results/BENCH_scale.json`; floors on the committed artifact
//! are enforced by `tests/results_schema.rs`. `SCALE_BENCH_SMOKE=1`
//! shrinks the stream, matrix and tape legs and skips the artifact write
//! (CI smoke); the economics leg runs at full size in both modes, since a
//! smaller attack moves no template and would price hot and cold at zero.

use pipa_core::experiment::{CellConfig, InjectorKind};
use pipa_core::runner::CellSeed;
use pipa_core::traffic::{poisoning_economics, PoisonEconomics};
use pipa_cost::{CostBackend, CostError, RecordingBackend, ReplayBackend, DEFAULT_TAPE_BYTE_LIMIT};
use pipa_ia::AdvisorSpec;
use pipa_sim::{Database, Index, IndexConfig, MatrixStats};
use pipa_workload::{Arrivals, Benchmark, Diurnal, TrafficModel, WorkloadGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 0x5CA1E;

/// The stream leg's byte budget is the unbudgeted day's footprint over
/// this.
const STREAM_BUDGET_DIVISOR: usize = 32;

/// A business day with bursty multi-tenant arrivals layered on `model`.
fn business_day(mut model: TrafficModel) -> TrafficModel {
    model.diurnal = Diurnal::business();
    model.arrivals = Arrivals::Bursty {
        tenants: 8,
        burst_every: 6,
        burst_len: 2,
        burst_mult: 3.0,
    };
    model
}

#[derive(Serialize)]
struct StreamLeg {
    /// Total queries streamed (Σ window loads) — the ≥1M floor.
    queries: u64,
    windows: u64,
    /// Distinct (template, slot) pool size per window.
    distinct_pool_per_window: usize,
    zipf_exponent: f64,
    /// Peak matrix footprint of the unbudgeted Zipf day (cells and
    /// shapes).
    footprint_bytes: usize,
    /// The budget the day streams under: `footprint_bytes / 32`.
    byte_budget: usize,
    /// The budgeted Zipf day.
    elapsed_s: f64,
    throughput_qps: f64,
    /// The unbudgeted Zipf day, for comparison.
    unbudgeted_throughput_qps: f64,
    /// Matrix cell-hit rates of the budgeted Zipf and uniform days.
    hit_rate_zipf: f64,
    hit_rate_uniform: f64,
    /// Shard clears the budget forced during the Zipf day.
    compactions: u64,
    /// High-water and final footprint of the budgeted Zipf day.
    peak_bytes: usize,
    resident_bytes: usize,
    /// Query shapes resident after the budgeted Zipf day.
    shapes_resident: usize,
    /// Budgeted-vs-unbudgeted differential: XOR/rotate fold over every
    /// cost's f64 bits, equal iff every cost is bit-identical.
    bounded_bits_identical: bool,
    /// Peak-hour vs trough window load (the diurnal curve, realized).
    peak_window_load: usize,
    trough_window_load: usize,
}

#[derive(Serialize)]
struct MatrixLeg {
    byte_budget: usize,
    peak_bytes: usize,
    resident_bytes: usize,
    compactions: u64,
    configs_swept: usize,
}

#[derive(Serialize)]
struct TapeLeg {
    entries: usize,
    bytes_streamed: u64,
    round_trip_ok: bool,
    guard_trips: bool,
}

#[derive(Serialize)]
struct BenchArtifact {
    id: String,
    description: String,
    /// Cores the host offered: the throughputs compare only between
    /// hosts with the same count.
    cores_available: usize,
    scale_factor: f64,
    seed: u64,
    smoke: bool,
    stream: StreamLeg,
    matrix: MatrixLeg,
    tape: TapeLeg,
    economics: PoisonEconomics,
}

/// Fold a cost stream into an order-sensitive bit fingerprint: equal
/// iff every f64 in the stream is bit-identical.
fn fold_bits(acc: u64, cost: f64) -> u64 {
    acc.rotate_left(1) ^ cost.to_bits()
}

struct StreamRun {
    total: u64,
    fingerprint: u64,
    elapsed_s: f64,
    peak_load: usize,
    trough_load: usize,
    stats: MatrixStats,
}

impl StreamRun {
    fn throughput_qps(&self) -> f64 {
        self.total as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Drive `windows` windows of `model` traffic through the what-if path
/// on a cleared matrix under `byte_budget` (`usize::MAX` = unbudgeted).
/// The cost bits are a pure function of `(model, base, seed)`, whatever
/// the budget.
#[allow(clippy::too_many_arguments)]
fn run_stream(
    db: &Database,
    gen: &WorkloadGenerator,
    cfg: &IndexConfig,
    model: &TrafficModel,
    windows: u64,
    base: usize,
    seed: u64,
    byte_budget: usize,
) -> StreamRun {
    db.clear_whatif_matrix();
    db.set_whatif_matrix_byte_budget(byte_budget);
    let start = Instant::now();
    let mut total = 0u64;
    let mut fingerprint = 0u64;
    let mut peak_load = 0usize;
    let mut trough_load = usize::MAX;
    for w in 0..windows {
        let traffic = model
            .window_traffic(gen, w, seed)
            .expect("window pool instantiates");
        let load = model.window_load(w, base, seed);
        peak_load = peak_load.max(load);
        trough_load = trough_load.min(load);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..load {
            let q = traffic.query(traffic.sample(&mut rng));
            fingerprint = fold_bits(fingerprint, db.estimated_query_cost(q, cfg));
        }
        total += load as u64;
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = db.whatif_matrix_stats();
    db.set_whatif_matrix_byte_budget(usize::MAX);
    StreamRun {
        total,
        fingerprint,
        elapsed_s,
        peak_load,
        trough_load,
        stats,
    }
}

fn main() {
    let bench = pipa_bench::cli::BenchArgs::for_bench("scale");
    let smoke = bench.smoke;
    let scale_factor = 100.0;
    let (windows, base, slots) = if smoke {
        (4u64, 1_500usize, 8usize)
    } else {
        (24u64, 70_000usize, 64usize)
    };

    eprintln!("[scale] synthesizing SF-{scale_factor} statistics (no rows materialized)...");
    let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(scale_factor, None));
    let db = cost.database();
    let gen = WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );

    // A fixed, modest index configuration: the first candidate columns
    // of the window-0 pool, one single-column index each. What matters
    // is that costing is index-sensitive, not that the config is good.
    let zipf = business_day(TrafficModel::zipf(1.1, slots));
    let pool0 = zipf
        .window_traffic(&gen, 0, SEED)
        .expect("window 0 instantiates");
    let mut agg_rng = ChaCha8Rng::seed_from_u64(SEED);
    let (pool_w, _) = pool0.sample_workload(256, &mut agg_rng);
    let cfg: IndexConfig = IndexConfig::from_indexes(
        pool_w
            .candidate_columns()
            .into_iter()
            .take(6)
            .map(Index::single),
    );

    // --- stream leg: the unbudgeted day sizes the budget, then the
    // budgeted Zipf and uniform days --------------------------------------
    eprintln!(
        "[scale] streaming {windows} windows (Zipf, {} distinct per window), unbudgeted...",
        pool0.distinct_queries()
    );
    let unbudgeted = run_stream(db, &gen, &cfg, &zipf, windows, base, SEED, usize::MAX);
    let footprint_bytes = unbudgeted.stats.peak_bytes;
    let byte_budget = footprint_bytes / STREAM_BUDGET_DIVISOR;
    eprintln!(
        "[scale] the same day under a {byte_budget} B matrix budget (of {footprint_bytes} B)..."
    );
    let bounded = run_stream(db, &gen, &cfg, &zipf, windows, base, SEED, byte_budget);
    assert_eq!(bounded.total, unbudgeted.total);
    let bounded_bits_identical = bounded.fingerprint == unbudgeted.fingerprint;
    assert!(
        bounded_bits_identical,
        "the budget changed a cost bit: {:#x} vs {:#x}",
        bounded.fingerprint, unbudgeted.fingerprint
    );
    assert!(
        bounded.stats.compactions > 0,
        "the budget never forced a compaction: the leg proves nothing"
    );
    assert!(
        bounded.stats.approx_bytes <= byte_budget,
        "matrix over budget: {} > {byte_budget}",
        bounded.stats.approx_bytes
    );

    let uniform_model = business_day(TrafficModel::uniform(slots));
    eprintln!("[scale] streaming the uniform baseline at the same budget...");
    let uniform = run_stream(
        db,
        &gen,
        &cfg,
        &uniform_model,
        windows,
        base,
        SEED,
        byte_budget,
    );

    let stream = StreamLeg {
        queries: bounded.total,
        windows,
        distinct_pool_per_window: pool0.distinct_queries(),
        zipf_exponent: 1.1,
        footprint_bytes,
        byte_budget,
        elapsed_s: bounded.elapsed_s,
        throughput_qps: bounded.throughput_qps(),
        unbudgeted_throughput_qps: unbudgeted.throughput_qps(),
        hit_rate_zipf: bounded.stats.hit_rate(),
        hit_rate_uniform: uniform.stats.hit_rate(),
        compactions: bounded.stats.compactions,
        peak_bytes: bounded.stats.peak_bytes,
        resident_bytes: bounded.stats.approx_bytes,
        shapes_resident: bounded.stats.shapes,
        bounded_bits_identical,
        peak_window_load: bounded.peak_load,
        trough_window_load: bounded.trough_load,
    };
    eprintln!(
        "[scale] {} queries in {:.2}s ({:.0} q/s; unbudgeted {:.0} q/s); cell hit rate zipf {:.3} \
         vs uniform {:.3}; {} compactions",
        stream.queries,
        stream.elapsed_s,
        stream.throughput_qps,
        stream.unbudgeted_throughput_qps,
        stream.hit_rate_zipf,
        stream.hit_rate_uniform,
        stream.compactions
    );

    // --- matrix leg: byte-budgeted benefit matrix under a config sweep
    let sweep: Vec<IndexConfig> = pool_w
        .candidate_columns()
        .into_iter()
        .take(if smoke { 4 } else { 12 })
        .map(|c| IndexConfig::from_indexes([Index::single(c)]))
        .collect();
    let sweep_bits = || -> Vec<u64> {
        sweep
            .iter()
            .flat_map(|sweep_cfg| {
                (0..pool0.distinct_queries())
                    .map(|i| db.estimated_query_cost(pool0.query(i), sweep_cfg).to_bits())
            })
            .collect()
    };
    // An unbudgeted pass sizes the budget at half the sweep's own cell
    // footprint, so the budgeted pass has to compact however few cells
    // the cost model stores.
    db.clear_whatif_matrix();
    let unbudgeted = sweep_bits();
    let sweep_bytes = db.whatif_matrix_stats().peak_bytes;
    assert!(sweep_bytes > 0, "the sweep stored no matrix cell");
    let byte_budget = sweep_bytes / 2;
    db.clear_whatif_matrix();
    db.set_whatif_matrix_byte_budget(byte_budget);
    eprintln!(
        "[scale] sweeping {} single-index configs under a {byte_budget} B matrix budget \
         (half of the sweep's {sweep_bytes} B)...",
        sweep.len()
    );
    let budgeted = sweep_bits();
    assert!(
        budgeted == unbudgeted,
        "compaction changed a cost bit of the sweep"
    );
    let mstats = db.whatif_matrix_stats();
    assert!(
        mstats.compactions > 0,
        "the budget never forced a compaction: the leg proves nothing"
    );
    let matrix = MatrixLeg {
        byte_budget,
        peak_bytes: mstats.peak_bytes,
        resident_bytes: mstats.approx_bytes,
        compactions: mstats.compactions,
        configs_swept: sweep.len(),
    };
    eprintln!(
        "[scale] matrix peak {} B (budget {} B), {} compactions",
        matrix.peak_bytes, matrix.byte_budget, matrix.compactions
    );
    db.set_whatif_matrix_byte_budget(usize::MAX);

    // --- tape leg: streamed what-if tape with the size guard ----------
    let rec = RecordingBackend::new(&cost);
    let mut tape_rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x7a9e);
    let (tape_w, _) = pool0.sample_workload(if smoke { 64 } else { 512 }, &mut tape_rng);
    for wq in tape_w.iter() {
        rec.query_cost(&wq.query, &cfg).expect("record est cost");
    }
    let tape = rec.tape();
    let path = std::env::temp_dir().join(format!("pipa_scale_tape_{}.jsonl", std::process::id()));
    let bytes_streamed = tape.write_jsonl_file(&path).expect("tape write streams");
    let reread = pipa_cost::Tape::read_jsonl_file(&path, DEFAULT_TAPE_BYTE_LIMIT)
        .expect("tape reads back under the default guard");
    let round_trip_ok = reread == tape;
    let guard_trips = matches!(
        pipa_cost::Tape::read_jsonl_file(&path, bytes_streamed / 2),
        Err(CostError::TapeTooLarge { .. })
    );
    // Replaying the streamed tape must answer the recorded pairs.
    let replay = ReplayBackend::new(cost.catalog(), reread);
    let wq0 = tape_w.iter().next().expect("nonempty tape workload");
    let replayed = replay.query_cost(&wq0.query, &cfg).expect("replay hit");
    assert_eq!(
        replayed.to_bits(),
        cost.query_cost(&wq0.query, &cfg).unwrap().to_bits(),
        "replayed cost must be bit-identical"
    );
    let _ = std::fs::remove_file(&path);
    let tape_leg = TapeLeg {
        entries: tape.est_len(),
        bytes_streamed,
        round_trip_ok,
        guard_trips,
    };
    eprintln!(
        "[scale] tape: {} entries, {} bytes streamed, round trip {}",
        tape_leg.entries, tape_leg.bytes_streamed, tape_leg.round_trip_ok
    );

    // --- economics leg: hot-vs-cold pricing of one PIPA attack --------
    let mut cell = CellConfig::quick(Benchmark::TpcH);
    cell.scale = scale_factor;
    eprintln!("[scale] pricing one equal-budget attack under hot vs cold traffic...");
    let economics = poisoning_economics(
        &cost,
        &cell,
        AdvisorSpec::new("dbabandit"),
        InjectorKind::Pipa,
        1.1,
        CellSeed::derive(SEED, 0),
    )
    .expect("economics pipeline");
    assert!(
        economics.per_template_ad.iter().any(|&d| d != 0.0),
        "the attack moved no template's cost"
    );
    assert!(
        economics.ad_hot > economics.ad_cold,
        "hot alignment must dominate: {} <= {}",
        economics.ad_hot,
        economics.ad_cold
    );
    eprintln!(
        "[scale] AD uniform {:.4} | hot {:.4} | cold {:.4} (hot premium {:.4})",
        economics.ad_uniform,
        economics.ad_hot,
        economics.ad_cold,
        economics.hot_premium()
    );

    let artifact = BenchArtifact {
        id: "BENCH_scale".to_string(),
        description: "≥1M-query Zipf/diurnal stream at SF 100 through the byte-budgeted \
                      benefit matrix (bit-identical to unbudgeted), budgeted config sweep, \
                      streamed cost tape with size guard, and hot-vs-cold poisoning \
                      economics"
            .to_string(),
        cores_available: pipa_bench::cli::cores_available(),
        scale_factor,
        seed: SEED,
        smoke,
        stream,
        matrix,
        tape: tape_leg,
        economics,
    };
    bench.write_artifact(&artifact);
}
