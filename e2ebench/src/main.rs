//! End-to-end benchmark of the PIPA reproduction.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper-cell --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no wrapper in the
//! way. `--trace 1` runs a fixed set of units twice each, plain and with
//! every layer wrapped, checks that both give `==` outcomes, and reports
//! the per-layer split. The last line of standard output is the result
//! as one JSON object; see `e2ebench/README.md` for every metric.

mod check;
mod host;
mod reference;
mod stats;
mod trace;
mod workloads;
mod wrap;

use check::Digest;
use pipa::nn::kernels;
use reference::RefClock;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Kind, Scenario, SessionClass, DEFAULT_SEED, FLEET_WORKERS};

const USAGE: &str = "usage: e2ebench --workload <paper-cell|stream-defended|fleet-mixed> \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Units a plain run always completes, so the tail rule has a sample
/// with ten beyond it.
const MIN_UNITS: usize = stats::TAIL_BEYOND + 1;
/// Set-ups per plain run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// A plain run stops measuring after this long even short of
/// [`MIN_UNITS`], so it ends well within three minutes.
const MAX_MEASURE: Duration = Duration::from_secs(100);
/// Leading units whose outcomes make up the digest.
const DIGEST_UNITS: u64 = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Diagnostics: printed with the result, never compared.
    diag: Vec<(String, String)>,
    digest: Digest,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // Ratios over empty denominators read 0, never NaN.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn diag(&mut self, key: &str, value: impl std::fmt::Display) {
        self.diag.push((key.to_string(), value.to_string()));
    }

    fn fail(&mut self, units: u64, error: String) {
        self.failed += units;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    wrap::register_timed("dqn");
    wrap::register_timed("dbabandit");

    let steal_before = host::steal_ticks();
    let mut report = Report::default();
    let run = if args.trace {
        traced_run(&args, &mut report)
    } else {
        plain_run(&args, &mut report)
    };
    if let Err(e) = run {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }

    let digest = report.digest.hex();
    match check::pinned(args.kind.name()) {
        Some(pinned) if args.seed == DEFAULT_SEED && pinned != digest => report.fail(
            1,
            format!("outcome digest {digest} differs from the pinned {pinned}"),
        ),
        _ => {}
    }
    report.diag("digest", &digest);
    report.diag("cores_available", host::cores_available());
    report.diag("build_profile", host::build_profile());
    report.diag("git_rev", host::git_rev());
    report.diag("workload", args.kind.name());
    report.diag("seed", args.seed);
    let steal = steal_before.zip(host::steal_ticks()).map(|(a, b)| b - a);
    report.diag(
        "steal_ticks",
        steal.map_or("unknown".to_string(), |s| s.to_string()),
    );
    print_report(&report);
    if report.failed > 0 {
        std::process::exit(1);
    }
}

fn print_report(report: &Report) {
    for e in &report.errors {
        eprintln!("e2ebench: FAILED: {e}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut diag = String::from("{");
    for (i, (k, v)) in report.diag.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(diag, "{sep}{}: {}", json_str(k), json_str(v));
    }
    println!("e2ebench-diag {diag}}}");
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Set up [`SETUP_REPEATS`] times (the last set-up is the one kept) and
/// report the median set-up time. Each set-up is timed between runs of
/// the one-thread reference kernel, like a unit, and `setup_s` states it
/// in seconds at the kernel's nominal speed.
fn timed_setup(args: &Args, report: &mut Report) -> Result<Scenario, String> {
    let mut clock = RefClock::start(1);
    let mut scenario = None;
    for _ in 0..SETUP_REPEATS {
        drop(scenario.take());
        let t = Instant::now();
        scenario = Some(Scenario::setup(args.kind, args.seed, false)?);
        clock.lap(&[t.elapsed().as_secs_f64()]);
    }
    let setup_ref = stats::median(&clock.scaled).unwrap_or(0.0);
    report.metric("setup_s", setup_ref * reference::NOMINAL_S, "s");
    report.diag("setup_wall_s", stats::median(&clock.walls).unwrap_or(0.0));
    report.diag("setup_samples", clock.walls.len());
    Ok(scenario.expect("at least one set-up"))
}

/// The end-to-end run: plain units, no wrappers, for `--seconds`. The
/// reference kernel runs before the first unit and after every unit
/// (every drain for the fleet), and the gated timings are reported in
/// `ref` (see [`RefClock`]).
fn plain_run(args: &Args, report: &mut Report) -> Result<(), String> {
    let scenario = timed_setup(args, report)?;
    let budget = Duration::from_secs(args.seconds);
    let mut clock = RefClock::start(match scenario {
        Scenario::Fleet(_) => FLEET_WORKERS,
        _ => 1,
    });
    let started = Instant::now();
    let mut fleet_sessions: Vec<(SessionClass, f64)> = Vec::new();
    match &scenario {
        Scenario::Fleet(fleet) => {
            let queued = fleet.queued() as u64;
            let mut first = None;
            while more_units(report.attempted, started, budget) {
                let run = fleet.plain_drain();
                report.attempted += queued;
                let (failed, error) = check::fleet(&run.report, queued as usize);
                if let Some(e) = error {
                    report.fail(failed as u64, e);
                }
                match &first {
                    None => {
                        report.digest.add(&run.report);
                        first = Some(run.report);
                    }
                    Some(f) if *f != run.report => report.fail(
                        queued,
                        "a drain's report differs from the first drain's".into(),
                    ),
                    Some(_) => {}
                }
                for (class, nanos) in fleet.classes.iter().zip(&run.timing.session_nanos) {
                    fleet_sessions.push((*class, *nanos as f64 / 1e6));
                }
                let sessions: Vec<f64> = run
                    .timing
                    .session_nanos
                    .iter()
                    .map(|nanos| *nanos as f64 / 1e9)
                    .collect();
                clock.lap(&sessions);
            }
        }
        _ => {
            let mut unit = 0;
            while more_units(report.attempted, started, budget) {
                let t = Instant::now();
                let outcome = scenario.plain_unit(unit);
                let wall = t.elapsed().as_secs_f64();
                report.attempted += 1;
                let passed = match outcome
                    .map_err(|e| e.to_string())
                    .and_then(|o| o.check().map(|_| o))
                {
                    Ok(o) => {
                        if unit < DIGEST_UNITS {
                            o.digest(&mut report.digest);
                        }
                        vec![wall]
                    }
                    Err(e) => {
                        report.fail(1, format!("unit {unit}: {e}"));
                        Vec::new()
                    }
                };
                unit += 1;
                clock.lap(&passed);
            }
        }
    }
    let c = &clock;
    let passed = c.walls.len() as f64;
    let (tail_ref, tail_pct) = tail_or_max(&c.scaled);
    report.metric("units_per_ref", passed / c.measured_ref, "1/ref");
    report.metric("unit_ref", stats::median(&c.scaled).unwrap_or(0.0), "ref");
    report.metric("unit_tail_ref", tail_ref, "ref");
    let ok = (report.attempted - report.failed.min(report.attempted)) as f64;
    report.metric("ok_frac", ok / report.attempted.max(1) as f64, "frac");
    report.diag("ref_s", stats::median(&c.refs).unwrap_or(0.0));
    report.diag("ref_samples", c.refs.len());
    report.diag("units_per_s", passed / c.measured_s);
    report.diag("unit_s", stats::median(&c.walls).unwrap_or(0.0));
    report.diag("unit_tail_s", tail_or_max(&c.walls).0);
    report.diag("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    report.diag("units", c.walls.len());
    report.diag("unit_tail_percentile", tail_pct);
    report.diag("measured_s", c.measured_s);
    report.diag(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    for (kind, recommend) in [("whatif", false), ("recommend", true)] {
        let ms: Vec<f64> = fleet_sessions
            .iter()
            .filter(|(c, _)| c.recommend == recommend)
            .map(|(_, ms)| *ms)
            .collect();
        if ms.is_empty() {
            continue;
        }
        let (tail, tail_pct) = tail_or_max(&ms);
        report.diag(
            &format!("session_ms.{kind}"),
            stats::median(&ms).unwrap_or(0.0),
        );
        report.diag(&format!("session_tail_ms.{kind}"), tail);
        report.diag(&format!("session_tail_ms.{kind}.percentile"), tail_pct);
        report.diag(&format!("session_ms.{kind}.samples"), ms.len());
    }
    Ok(())
}

/// Whether a plain run goes on: until it has attempted [`MIN_UNITS`]
/// units and measured for `budget`, but never past [`MAX_MEASURE`].
fn more_units(attempted: u64, started: Instant, budget: Duration) -> bool {
    let elapsed = started.elapsed();
    elapsed < MAX_MEASURE && ((attempted as usize) < MIN_UNITS || elapsed < budget)
}

/// The tail by the reporting rule and its percentile; with too few
/// samples for the rule, the maximum (reported as percentile 100).
fn tail_or_max(samples: &[f64]) -> (f64, f64) {
    match stats::tail(samples) {
        Some(t) => (t.value, t.percentile),
        None => (samples.iter().copied().fold(0.0, f64::max), 100.0),
    }
}

/// Units per traced run: a fixed set, so counts repeat exactly.
fn traced_units(kind: Kind) -> u64 {
    match kind {
        Kind::PaperCell => 4,
        Kind::StreamDefended => 6,
        Kind::FleetMixed => 8,
    }
}

/// Simulator, kernel and generator counters, snapshotted around units.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    matrix_evals: u64,
    join_evals: u64,
    fallbacks: u64,
    cache_hits: u64,
    cache_misses: u64,
    matmuls: u64,
    flops: u64,
    buf_reuses: u64,
    qgen_accepted: u64,
}

impl Counters {
    fn snapshot(db: Option<&pipa::cost::SimBackend>) -> Counters {
        let k = kernels::stats();
        let mut c = Counters {
            matmuls: k.matmuls,
            flops: k.flops,
            buf_reuses: k.buf_reuses,
            qgen_accepted: wrap::QGEN_ACCEPTED.load(std::sync::atomic::Ordering::Relaxed),
            ..Counters::default()
        };
        if let Some(db) = db {
            let m = db.database().whatif_matrix_stats();
            let w = db.database().whatif_cache_stats();
            c.matrix_evals = m.matrix_evals;
            c.join_evals = m.join_evals;
            c.fallbacks = m.full_fallbacks;
            c.cache_hits = w.hits;
            c.cache_misses = w.misses;
        }
        c
    }

    fn add_delta(&mut self, before: &Counters, after: &Counters) {
        self.matrix_evals += after.matrix_evals - before.matrix_evals;
        self.join_evals += after.join_evals - before.join_evals;
        self.fallbacks += after.fallbacks - before.fallbacks;
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.cache_misses += after.cache_misses - before.cache_misses;
        self.matmuls += after.matmuls - before.matmuls;
        self.flops += after.flops - before.flops;
        self.buf_reuses += after.buf_reuses - before.buf_reuses;
        self.qgen_accepted += after.qgen_accepted - before.qgen_accepted;
    }
}

/// What the traced run measured, before it is divided per unit.
#[derive(Default)]
struct Traced {
    units: f64,
    /// Plain and traced wall time over the paired units.
    plain_ns: u64,
    traced_ns: u64,
    /// Unit wall time the layer split divides up.
    wall_ns: u64,
    counters: Counters,
    matrix_peak_bytes: u64,
    scenario_evals: u64,
    /// Retrains, rollbacks, injected and screened-out queries.
    outcome_counts: [u64; 4],
    /// Fleet only: serve-layer figures from the plain drains.
    serve: Option<Serve>,
}

struct Serve {
    busy_frac: f64,
    whatif_evals_per_s: f64,
    /// Median session latency by (recommend, learned).
    session_ms: [(SessionClass, f64); 4],
}

/// The traced run: a fixed set of units, each run plain and traced.
fn traced_run(args: &Args, report: &mut Report) -> Result<(), String> {
    let scenario = Scenario::setup(args.kind, args.seed, true)?;
    trace::take();
    let units = traced_units(args.kind);
    let mut t = Traced::default();
    match &scenario {
        Scenario::Fleet(fleet) => traced_fleet(fleet, units, &mut t, report),
        _ => traced_cells(&scenario, units, &mut t, report),
    }
    let spans = trace::take();
    let totals = trace::totals(&spans);
    if matches!(scenario, Scenario::Fleet(_)) {
        // Fleet spans nest in sessions the program times itself.
        if totals.attributed_ns() > t.wall_ns {
            return Err("span accounting: attributed self time exceeds session time".into());
        }
    } else {
        check_conservation(&spans).map_err(|e| format!("span accounting: {e}"))?;
        t.wall_ns = spans
            .iter()
            .filter(|s| s.name == trace::UNIT_SPAN)
            .map(trace::Span::duration_ns)
            .sum();
    }
    let path = std::path::PathBuf::from(format!(
        "e2ebench/out/spans-{}-seed{}.tsv",
        args.kind.name(),
        args.seed
    ));
    match trace::write_tsv(&path, &spans) {
        Ok(()) => report.diag(
            "spans",
            format!("{} spans in {}", spans.len(), path.display()),
        ),
        Err(e) => report.diag("spans", format!("not written: {e}")),
    }
    layer_metrics(&t, &totals, report);
    Ok(())
}

/// Every traced unit's self times sum to its root span's duration.
fn check_conservation(spans: &[trace::Span]) -> Result<(), String> {
    let mut by_unit: std::collections::BTreeMap<u32, Vec<trace::Span>> = Default::default();
    for s in spans {
        let unit = s.unit.ok_or("a span outside any unit")?;
        by_unit.entry(unit).or_default().push(*s);
    }
    for (unit, spans) in by_unit {
        let roots: Vec<&trace::Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
        let [root] = roots[..] else {
            return Err(format!("unit {unit} has {} root spans", roots.len()));
        };
        let selfs: u64 = trace::self_times(&spans).iter().sum();
        if selfs != root.duration_ns() {
            return Err(format!(
                "unit {unit}: self times sum to {selfs} ns, wall is {} ns",
                root.duration_ns()
            ));
        }
    }
    Ok(())
}

fn traced_cells(scenario: &Scenario, units: u64, t: &mut Traced, report: &mut Report) {
    for unit in 0..units {
        report.attempted += 1;
        let started = Instant::now();
        let plain = scenario.plain_unit(unit);
        t.plain_ns += started.elapsed().as_nanos() as u64;
        let before = Counters::snapshot(scenario.traced_db());
        let started = Instant::now();
        let traced = scenario.traced_unit(unit);
        let traced_ns = started.elapsed().as_nanos() as u64;
        let after = Counters::snapshot(scenario.traced_db());
        t.counters.add_delta(&before, &after);
        t.traced_ns += traced_ns;
        t.units += 1.0;
        let checked = match (plain, traced) {
            (Ok(p), Ok(q)) if p != q => {
                Err("traced outcome differs from the plain one".to_string())
            }
            (Ok(p), Ok(_)) => p.check().map(|_| p),
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        match checked {
            Ok(o) => {
                if unit < DIGEST_UNITS {
                    o.digest(&mut report.digest);
                }
                t.scenario_evals += o.scenario_evals();
                for (sum, c) in t.outcome_counts.iter_mut().zip(o.counts()) {
                    *sum += c;
                }
            }
            Err(e) => report.fail(1, format!("unit {unit}: {e}")),
        }
    }
    trace::set_unit(None);
    if let Some(db) = scenario.traced_db() {
        t.matrix_peak_bytes = db.database().whatif_matrix_stats().peak_bytes as u64;
    }
}

fn traced_fleet(fleet: &workloads::Fleet, drains: u64, t: &mut Traced, report: &mut Report) {
    let queued = fleet.queued() as u64;
    let mut plain_wall = 0u64;
    let mut busy = 0u64;
    let mut whatif_evals = 0u64;
    let mut session_ms: Vec<(SessionClass, f64)> = Vec::new();
    for drain in 0..drains {
        report.attempted += queued;
        let plain = fleet.plain_drain();
        let before = Counters::snapshot(None);
        let traced = fleet.traced_drain();
        let after = Counters::snapshot(None);
        t.counters.add_delta(&before, &after);
        t.plain_ns += plain.timing.wall_nanos;
        t.traced_ns += traced.timing.wall_nanos;
        t.wall_ns += traced.timing.session_nanos.iter().sum::<u64>();
        t.units += traced.timing.session_nanos.len() as f64;
        plain_wall += plain.timing.wall_nanos;
        busy += plain.timing.session_nanos.iter().sum::<u64>();
        whatif_evals += plain.report.whatif_evals();
        for (class, nanos) in fleet.classes.iter().zip(&plain.timing.session_nanos) {
            session_ms.push((*class, *nanos as f64 / 1e6));
        }
        let (failed, error) = check::fleet(&plain.report, queued as usize);
        if let Some(e) = error {
            report.fail(failed as u64, format!("drain {drain}: {e}"));
        } else if plain.report != traced.report {
            report.fail(
                queued,
                format!("drain {drain}: traced report differs from the plain one"),
            );
        } else if drain == 0 {
            report.digest.add(&plain.report);
        }
    }
    let class = |recommend, learned| SessionClass { recommend, learned };
    let median_of = |c: SessionClass| {
        let ms: Vec<f64> = session_ms
            .iter()
            .filter(|(k, _)| *k == c)
            .map(|(_, v)| *v)
            .collect();
        (c, stats::median(&ms).unwrap_or(0.0))
    };
    t.serve = Some(Serve {
        busy_frac: busy as f64 / (FLEET_WORKERS as f64 * plain_wall as f64),
        whatif_evals_per_s: whatif_evals as f64 / (plain_wall as f64 / 1e9),
        session_ms: [
            median_of(class(false, false)),
            median_of(class(false, true)),
            median_of(class(true, false)),
            median_of(class(true, true)),
        ],
    });
}

/// Divide the traced run's totals per unit and report every per-layer
/// metric (the same list on every workload; layers a workload does not
/// reach read 0).
fn layer_metrics(t: &Traced, totals: &trace::Totals, report: &mut Report) {
    let n = t.units.max(1.0);
    let wall = t.wall_ns as f64;
    let per_unit_s = |ns: u64| ns as f64 / 1e9 / n;
    let share = |prefix: &str| totals.self_ns_with_prefix(prefix) as f64 / wall;
    let other_ns = t.wall_ns - totals.attributed_ns();
    for (layer, span) in [
        ("cost.estimate", "cost.estimate"),
        ("cost.session", "cost.session"),
        ("cost.execute", "cost.execute"),
    ] {
        let s = totals.get(span);
        report.metric(format!("{layer}.calls"), s.calls as f64 / n, "count");
        report.metric(format!("{layer}.s"), per_unit_s(s.self_ns), "s");
        if layer == "cost.estimate" {
            report.metric(
                "cost.estimate.us_per_call",
                s.self_ns as f64 / 1e3 / s.calls as f64,
                "us",
            );
        }
    }
    report.metric("cost.share", share("cost."), "frac");

    let c = &t.counters;
    let evals = (c.matrix_evals + c.join_evals + c.fallbacks) as f64;
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    report.metric("sim.query_evals", evals / n, "count");
    report.metric(
        "sim.matrix_rate",
        (c.matrix_evals + c.join_evals) as f64 / evals,
        "frac",
    );
    report.metric("sim.join_share", c.join_evals as f64 / evals, "frac");
    report.metric("sim.fallbacks", c.fallbacks as f64 / n, "count");
    report.metric("sim.cache_lookups", lookups / n, "count");
    report.metric("sim.cache_hit_rate", c.cache_hits as f64 / lookups, "frac");
    report.metric("sim.matrix_peak_bytes", t.matrix_peak_bytes as f64, "bytes");

    report.metric("nn.matmuls", c.matmuls as f64 / n, "count");
    report.metric("nn.gflop", c.flops as f64 / 1e9 / n, "gflop");
    report.metric("nn.buf_reuses", c.buf_reuses as f64 / n, "count");

    report.metric(
        "ia.train.s",
        per_unit_s(totals.get("ia.train").self_ns),
        "s",
    );
    report.metric(
        "ia.retrain.s",
        per_unit_s(totals.get("ia.retrain").self_ns),
        "s",
    );
    let recommend = totals.get(trace::RECOMMEND_SPAN);
    report.metric("ia.recommend.s", per_unit_s(recommend.self_ns), "s");
    report.metric("ia.recommend.calls", recommend.calls as f64 / n, "count");
    report.metric("ia.share", share("ia."), "frac");

    let generate = totals.get("qgen.generate");
    report.metric("qgen.generate.calls", generate.calls as f64 / n, "count");
    report.metric("qgen.generate.s", per_unit_s(generate.self_ns), "s");
    report.metric(
        "qgen.accept_rate",
        c.qgen_accepted as f64 / generate.calls as f64,
        "frac",
    );
    report.metric("qgen.share", share("qgen."), "frac");

    report.metric(
        "core.inject.s",
        per_unit_s(totals.get(trace::INJECT_SPAN).self_ns),
        "s",
    );
    report.metric(
        "core.probe.recommend_s",
        per_unit_s(totals.probe_recommend_ns),
        "s",
    );
    report.metric("core.other.s", per_unit_s(other_ns), "s");
    report.metric(
        "core.scenario_evals_per_s",
        t.scenario_evals as f64 / (t.plain_ns as f64 / 1e9),
        "1/s",
    );
    for (name, count) in [
        "core.retrains",
        "core.rollbacks",
        "core.injected",
        "core.screened",
    ]
    .into_iter()
    .zip(t.outcome_counts)
    {
        report.metric(name, count as f64 / n, "count");
    }
    report.metric(
        "workload.gen.s",
        per_unit_s(totals.get("workload.gen").self_ns),
        "s",
    );

    let serve = t.serve.as_ref();
    report.metric(
        "serve.busy_frac",
        serve.map_or(0.0, |s| s.busy_frac),
        "frac",
    );
    report.metric(
        "serve.whatif_evals_per_s",
        serve.map_or(0.0, |s| s.whatif_evals_per_s),
        "1/s",
    );
    for (recommend, kind) in [(false, "whatif"), (true, "recommend")] {
        for (learned, backend) in [(false, "replay"), (true, "learned")] {
            let ms = serve
                .and_then(|s| {
                    s.session_ms
                        .iter()
                        .find(|(c, _)| c.recommend == recommend && c.learned == learned)
                })
                .map_or(0.0, |(_, ms)| *ms);
            report.metric(format!("serve.session_ms.{kind}.{backend}"), ms, "ms");
        }
    }

    report.metric(
        "trace.overhead",
        t.traced_ns as f64 / t.plain_ns as f64 - 1.0,
        "frac",
    );
    report.metric("trace.unattributed_share", other_ns as f64 / wall, "frac");
    report.diag("traced_units", t.units);
    report.diag("traced_unit_s", per_unit_s(t.wall_ns));
}

#[cfg(test)]
mod tests;
