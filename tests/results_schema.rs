//! Schema regression over the committed experiment artifacts.
//!
//! Every `results/*.json` must stay a strictly valid JSON object (parsed
//! by the same validator `trace_lint` uses — `pipa_obs::json`), carry an
//! `id` matching its file name and a human-readable `description`, and —
//! for the figure/table artifacts — the `params`/`results` envelope the
//! plotting scripts consume. A hand-edit that breaks any of this fails
//! `cargo test` instead of a downstream notebook.

use pipa_obs::json::top_level_keys;
use std::fs;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
}

fn artifacts() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(results_dir())
        .expect("results/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_results_artifact_is_strict_json_with_id_and_description() {
    let files = artifacts();
    assert!(!files.is_empty(), "no artifacts under results/");
    for path in &files {
        let text = fs::read_to_string(path).unwrap();
        let keys = top_level_keys(&text)
            .unwrap_or_else(|e| panic!("{}: invalid JSON: {e}", path.display()));
        for required in ["id", "description"] {
            assert!(
                keys.iter().any(|k| k == required),
                "{}: missing top-level {required:?} (has {keys:?})",
                path.display()
            );
        }
        // The id must match the file name so artifacts can't silently
        // swap identities when copied around.
        let stem = path.file_stem().unwrap().to_string_lossy();
        assert!(
            text.contains(&format!("\"id\": \"{stem}\""))
                || text.contains(&format!("\"id\":\"{stem}\"")),
            "{}: id does not match file stem {stem:?}",
            path.display()
        );
    }
}

#[test]
fn figure_and_table_artifacts_carry_params_and_results() {
    for path in artifacts() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if !(name.starts_with("fig") || name.starts_with("table") || name.starts_with("ablation")) {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        let keys = top_level_keys(&text).unwrap();
        for required in ["params", "results"] {
            assert!(
                keys.iter().any(|k| k == required),
                "{name}: figure/table artifact missing {required:?} (has {keys:?})"
            );
        }
    }
}

/// Extract the numeric value following `"key":` anywhere in the file
/// (the obs validator only exposes top-level keys, and the workspace
/// deliberately has no full JSON value parser).
fn num_field(text: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let rest = text
        .split(&needle)
        .nth(1)
        .unwrap_or_else(|| panic!("missing field {key:?}"))
        .trim_start();
    let lit: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .collect();
    lit.parse()
        .unwrap_or_else(|_| panic!("field {key:?} is not a number (got {lit:?})"))
}

#[test]
fn bench_nn_artifact_meets_the_kernel_acceptance_floor() {
    let path = results_dir().join("BENCH_nn.json");
    let text = fs::read_to_string(&path).expect("results/BENCH_nn.json is committed");
    let keys = top_level_keys(&text).unwrap();
    for required in [
        "threads",
        "matmul_dims",
        "mlp_batch",
        "decode_tokens",
        "median_ns",
        "matmul_blocked_speedup",
        "matmul_t_speedup",
        "mlp_train_speedup",
        "decode_speedup",
        "kernel_counters",
    ] {
        assert!(
            keys.iter().any(|k| k == required),
            "BENCH_nn.json: missing top-level {required:?} (has {keys:?})"
        );
    }
    // Every cell the speedups are derived from must be present and
    // positive, so a partial bench run can't produce a plausible file.
    for cell in [
        "matmul_naive",
        "matmul_blocked",
        "matmul_t_naive",
        "matmul_t_blocked",
        "mlp_train_naive",
        "mlp_train_fast",
        "decode_naive",
        "decode_fast",
    ] {
        let ns = num_field(&text, cell);
        assert!(ns.is_finite() && ns > 0.0, "median_ns.{cell} = {ns}");
    }
    for sp in ["matmul_blocked_speedup", "matmul_t_speedup"] {
        let v = num_field(&text, sp);
        assert!(v.is_finite() && v > 1.0, "{sp} = {v} should exceed 1.0");
    }
    // Acceptance floor from the kernel PR: the end-to-end hot paths
    // (replay train step, decoder token step) must hold at least 2x.
    for sp in ["mlp_train_speedup", "decode_speedup"] {
        let v = num_field(&text, sp);
        assert!(v.is_finite() && v >= 2.0, "{sp} = {v} should be >= 2.0");
    }
    for counter in ["matmuls", "flops", "buf_reuses"] {
        let v = num_field(&text, counter);
        assert!(v > 0.0, "kernel_counters.{counter} = {v} should be > 0");
    }
}

#[test]
fn bench_whatif_artifact_keeps_trait_dispatch_within_budget() {
    // PR: the CostBackend seam put a virtual call on every cost lookup.
    // The whatif bench measures the same candidate-scoring loop directly
    // against `Database` and through `&dyn CostBackend` (matrix and
    // cache disabled, so the full analytical model dominates both); the
    // committed artifact must show dynamic dispatch costing <= 5%.
    let path = results_dir().join("BENCH_whatif.json");
    let text = fs::read_to_string(&path).expect("results/BENCH_whatif.json is committed");
    for cell in ["dispatch_direct", "dispatch_trait"] {
        let ns = num_field(&text, cell);
        assert!(ns.is_finite() && ns > 0.0, "median_ns.{cell} = {ns}");
    }
    let overhead = num_field(&text, "trait_dispatch_overhead");
    assert!(
        overhead.is_finite() && overhead > 0.0,
        "trait_dispatch_overhead = {overhead}"
    );
    assert!(
        overhead <= 1.05,
        "trait dispatch must cost <= 5% over direct calls, got {overhead}x"
    );
    // The matrix speedups from the incremental what-if PR must survive
    // the seam: greedy single-table scoring still beats scalar recompute.
    let speedup = num_field(&text, "greedy_single_speedup");
    assert!(speedup > 1.5, "greedy_single_speedup = {speedup}");
}

#[test]
fn bench_whatif_artifact_shows_the_join_decomposition_win() {
    // The join-aware decomposition PR: join-shaped queries are answered
    // from per-join-step matrix cells instead of the full-model
    // fallback, so the mixed (join-heavy) workload must show both a low
    // fallback rate and a real end-to-end speedup.
    let path = results_dir().join("BENCH_whatif.json");
    let text = fs::read_to_string(&path).expect("results/BENCH_whatif.json is committed");

    let mixed_speedup = num_field(&text, "greedy_mixed_speedup");
    assert!(
        mixed_speedup.is_finite() && mixed_speedup >= 2.0,
        "greedy_mixed_speedup = {mixed_speedup} should be >= 2.0"
    );

    // `fallback_rate` appears in several counter blocks; scope to the
    // matrix_mixed block (the join-heavy greedy cell).
    let mixed = text
        .split("\"matrix_mixed\"")
        .nth(1)
        .expect("matrix_mixed counters present");
    let fallback = num_field(mixed, "fallback_rate");
    assert!(
        fallback <= 0.2,
        "matrix_mixed.fallback_rate = {fallback} should be <= 0.2"
    );
    let join_evals = num_field(mixed, "join_evals");
    assert!(
        join_evals > 0.0,
        "matrix_mixed.join_evals = {join_evals}: the mixed workload must exercise the join path"
    );

    // The join-mix grid is committed and covers both endpoints.
    let grid = text
        .split("\"join_mix\"")
        .nth(1)
        .expect("join_mix grid present");
    for frac in ["0.0", "1.0"] {
        assert!(
            grid.contains(&format!("\"join_fraction\": {frac}")),
            "join_mix grid missing join_fraction {frac}"
        );
    }
}

#[test]
fn bench_serve_artifact_meets_the_fleet_floors() {
    // The serving-layer PR: a >= 1000-session replay fleet must be
    // committed with sane latency percentiles, real aggregate what-if
    // throughput, zero degraded tenants, and the report proven
    // bit-identical across worker counts before the artifact is written.
    let path = results_dir().join("BENCH_serve.json");
    let text = fs::read_to_string(&path).expect("results/BENCH_serve.json is committed");
    let keys = top_level_keys(&text).unwrap();
    for required in [
        "tenants",
        "sessions_total",
        "whatif_evals_total",
        "median_fleet_ns",
        "p50_session_ns",
        "p99_session_ns",
        "whatif_qps",
        "degraded_tenants",
        "deterministic_across_workers",
    ] {
        assert!(
            keys.iter().any(|k| k == required),
            "BENCH_serve.json: missing top-level {required:?} (has {keys:?})"
        );
    }
    let sessions = num_field(&text, "sessions_total");
    assert!(
        sessions >= 1000.0,
        "sessions_total = {sessions} should be >= 1000"
    );
    let p50 = num_field(&text, "p50_session_ns");
    let p99 = num_field(&text, "p99_session_ns");
    assert!(p50 > 0.0, "p50_session_ns = {p50}");
    assert!(p99 >= p50, "p99 ({p99}) should be >= p50 ({p50})");
    let qps = num_field(&text, "whatif_qps");
    assert!(qps.is_finite() && qps > 0.0, "whatif_qps = {qps}");
    assert_eq!(
        num_field(&text, "degraded_tenants"),
        0.0,
        "the committed fleet run must have no degraded tenants"
    );
    // Every worker-grid cell must be present and positive, so a partial
    // bench run can't produce a plausible file.
    for cell in [
        "replay_fleet_w1",
        "replay_fleet_w2",
        "replay_fleet_w4",
        "replay_fleet_w8",
    ] {
        let ns = num_field(&text, cell);
        assert!(ns.is_finite() && ns > 0.0, "median_fleet_ns.{cell} = {ns}");
    }
    assert!(
        text.contains("\"deterministic_across_workers\": true"),
        "the fleet report must be proven worker-count invariant"
    );
}

#[test]
fn bench_stream_artifact_meets_the_arms_race_floors() {
    // The streaming arms-race PR: the committed grid must sweep both
    // adaptive attackers and both online defenses across at least two
    // cadences, prove itself bit-identical across --jobs, and show at
    // least one defense measurably cutting steady-state toxicity against
    // the undefended column at equal attacker budget.
    let path = results_dir().join("BENCH_stream.json");
    let text = fs::read_to_string(&path).expect("results/BENCH_stream.json is committed");
    let keys = top_level_keys(&text).unwrap();
    for required in [
        "advisor",
        "windows_per_stream",
        "budget_per_window",
        "grid_cells",
        "attackers",
        "defenses",
        "cadences",
        "median_scenario_ns",
        "whatif_qps",
        "cores_available",
        "no_defense_steady_ad",
        "no_defense_steady_toxicity",
        "best_defense",
        "best_defense_steady_toxicity",
        "defense_toxicity_cut",
        "defense_ad_cut",
        "defense_columns",
        "deterministic_across_jobs",
        "curves",
    ] {
        assert!(
            keys.iter().any(|k| k == required),
            "BENCH_stream.json: missing top-level {required:?} (has {keys:?})"
        );
    }
    // Both adaptive attacker families and both online defenses must be
    // in the sweep, plus the undefended/unattacked controls.
    for label in [
        "\"none\"",
        "spread-",
        "burst-",
        "\"canary\"",
        "\"provenance\"",
    ] {
        assert!(text.contains(label), "grid missing {label} column");
    }
    let cells = num_field(&text, "grid_cells");
    assert!(
        cells >= 16.0,
        "grid_cells = {cells} should cover a real sweep"
    );
    let windows = num_field(&text, "windows_per_stream");
    assert!(windows >= 4.0, "windows_per_stream = {windows}");
    // The undefended column must actually be under attack, and the best
    // defense must measurably cut steady-state toxicity at equal budget
    // — the PR's acceptance criterion.
    let base_tox = num_field(&text, "no_defense_steady_toxicity");
    assert!(base_tox > 0.0, "no_defense_steady_toxicity = {base_tox}");
    let cut = num_field(&text, "defense_toxicity_cut");
    assert!(
        cut > 0.0,
        "defense_toxicity_cut = {cut}: a defense must beat no-defense"
    );
    let ad_cut = num_field(&text, "defense_ad_cut");
    assert!(ad_cut > 0.0, "defense_ad_cut = {ad_cut}");
    // Scenario medians and steady-state throughput must come from a real
    // (non-smoke) run.
    for cell in ["scenario_spread_none", "scenario_spread_canary"] {
        let ns = num_field(&text, cell);
        assert!(
            ns.is_finite() && ns > 0.0,
            "median_scenario_ns.{cell} = {ns}"
        );
    }
    let qps = num_field(&text, "whatif_qps");
    assert!(qps.is_finite() && qps > 0.0, "whatif_qps = {qps}");
    // The winning defense column must report real recall (it caught
    // attack surface, not just got lucky). Scope to the defense_columns
    // block of the winner; columns precede curves in the artifact.
    let best = text
        .split("\"best_defense\":")
        .nth(1)
        .and_then(|r| r.split('"').nth(1))
        .expect("best_defense present");
    let col = text
        .split(&format!("\"defense\": \"{best}\""))
        .nth(1)
        .expect("winner appears in defense_columns");
    let recall = num_field(col, "mean_recall");
    assert!(recall > 0.0, "{best}.mean_recall = {recall}");
    assert!(
        text.contains("\"deterministic_across_jobs\": true"),
        "the stream grid must be proven --jobs invariant"
    );
}

#[test]
fn bench_scale_artifact_meets_the_skewed_traffic_floors() {
    // The skewed-traffic PR, restated over the benefit matrix once it
    // became the one what-if memo: the committed artifact must show a
    // >= 1M query Zipf/diurnal stream at SF 100 through the matrix under
    // a byte budget below the day's own footprint that (a) actually
    // compacted, (b) gave Zipf a higher cell-hit rate than the uniform
    // baseline (skew is the premise), and (c) returned bit-identical
    // costs to the unbudgeted day; the budgeted config sweep must have
    // compacted while staying at its budget; the streamed tape and its
    // size guard must both have fired; and hot-aligned traffic must
    // price the attack at least as high as cold-aligned (exchange
    // argument).
    let path = results_dir().join("BENCH_scale.json");
    let text = fs::read_to_string(&path).expect("results/BENCH_scale.json is committed");
    let keys = top_level_keys(&text).unwrap();
    for required in [
        "cores_available",
        "scale_factor",
        "stream",
        "matrix",
        "tape",
        "economics",
    ] {
        assert!(
            keys.iter().any(|k| k == required),
            "BENCH_scale.json: missing top-level {required:?} (has {keys:?})"
        );
    }
    assert!(
        text.contains("\"smoke\": false"),
        "a smoke run must never be committed as the artifact"
    );
    assert_eq!(num_field(&text, "scale_factor"), 100.0);
    assert!(num_field(&text, "cores_available") >= 1.0);

    // Stream leg (serialized before the matrix leg, so its fields come
    // first): >= 1M queries through a matrix budgeted below the day's
    // footprint, with skew paying for itself.
    let stream = text.split("\"stream\":").nth(1).expect("stream leg");
    let queries = num_field(stream, "queries");
    assert!(queries >= 1_000_000.0, "queries = {queries} < 1M");
    let footprint = num_field(stream, "footprint_bytes");
    let budget = num_field(stream, "byte_budget");
    assert!(
        budget > 0.0 && budget < footprint,
        "stream budget {budget} must be under the day's footprint {footprint} or nothing compacts"
    );
    let resident = num_field(stream, "resident_bytes");
    assert!(
        resident <= budget,
        "resident_bytes {resident} over the stream budget {budget}"
    );
    assert!(
        num_field(stream, "compactions") > 0.0,
        "no compactions recorded"
    );
    let hit_zipf = num_field(stream, "hit_rate_zipf");
    let hit_uniform = num_field(stream, "hit_rate_uniform");
    assert!(
        hit_zipf > hit_uniform,
        "Zipf hit rate {hit_zipf} must beat uniform {hit_uniform} at equal budget"
    );
    let qps = num_field(stream, "throughput_qps");
    assert!(qps.is_finite() && qps > 0.0, "throughput_qps = {qps}");
    let peak_load = num_field(stream, "peak_window_load");
    let trough_load = num_field(stream, "trough_window_load");
    assert!(
        peak_load > trough_load,
        "the diurnal curve must show: peak {peak_load} vs trough {trough_load}"
    );
    assert!(
        stream.contains("\"bounded_bits_identical\": true"),
        "the budgeted day must be proven bit-identical to the unbudgeted one"
    );

    // Matrix leg: the tracked footprint stayed at the budget and the
    // rotating compactor actually ran.
    let matrix = text.split("\"matrix\":").nth(1).expect("matrix leg");
    let budget = num_field(matrix, "byte_budget");
    let peak = num_field(matrix, "peak_bytes");
    assert!(budget > 0.0, "byte_budget = {budget}");
    assert!(
        peak <= budget + 48.0 * 16.0,
        "peak_bytes {peak} overshot budget {budget} by more than a shard's insert slack"
    );
    assert!(
        num_field(matrix, "compactions") > 0.0,
        "the budget never forced a compaction — the leg proved nothing"
    );

    // Tape leg: bytes actually streamed, round trip held, guard trips.
    assert!(
        num_field(&text, "bytes_streamed") > 0.0,
        "tape_bytes_streamed must be positive"
    );
    assert!(
        text.contains("\"round_trip_ok\": true"),
        "tape round trip failed"
    );
    assert!(
        text.contains("\"guard_trips\": true"),
        "the size guard must be shown to trip on an undersized limit"
    );

    // Economics leg: hot-aligned traffic dominates cold-aligned.
    let ad_hot = num_field(&text, "ad_hot");
    let ad_cold = num_field(&text, "ad_cold");
    assert!(ad_hot.is_finite() && ad_cold.is_finite());
    assert!(
        ad_hot >= ad_cold,
        "hot-aligned AD {ad_hot} must be >= cold-aligned {ad_cold}"
    );
}

#[test]
fn bench_targets_artifact_meets_the_new_target_class_floors() {
    // The registry PR: both target classes the seam opened — the
    // in-context advisor (fifth registered kind) and the learned-index
    // cost backend — must be committed through the full stress pipeline
    // and the streaming arms race, with finite AD next to the DQN
    // baseline and the whole artifact proven worker-count invariant.
    let path = results_dir().join("BENCH_targets.json");
    let text = fs::read_to_string(&path).expect("results/BENCH_targets.json is committed");
    let keys = top_level_keys(&text).unwrap();
    for required in [
        "registered_kinds",
        "runs",
        "injector",
        "median_stress_ns",
        "classes",
        "dqn_baseline_ad",
        "incontext_ad",
        "learned_index_ad",
        "stream",
        "deterministic_across_jobs",
        "stress_cells",
    ] {
        assert!(
            keys.iter().any(|k| k == required),
            "BENCH_targets.json: missing top-level {required:?} (has {keys:?})"
        );
    }
    // Every built-in kind id must be registered at bench time — the
    // registry the artifact saw is the registry consumers get.
    for kind in ["dbabandit", "dqn", "drlindex", "incontext", "swirl"] {
        assert!(
            text.contains(&format!("\"{kind}\"")),
            "registered_kinds missing built-in {kind:?}"
        );
    }
    // Both new classes and the baseline are present as summary rows.
    for class in ["dqn-sim", "incontext-sim", "dbabandit-learned"] {
        assert!(
            text.contains(&format!("\"class\": \"{class}\"")),
            "classes missing {class:?}"
        );
    }
    // Headline ADs are finite numbers (the stress pipeline completed on
    // every class — no NaN from a dead backend or an unbuilt advisor).
    for ad in ["dqn_baseline_ad", "incontext_ad", "learned_index_ad"] {
        let v = num_field(&text, ad);
        assert!(v.is_finite(), "{ad} = {v}");
    }
    // The streaming leg ran against both backends.
    for backend in ["\"sim\"", "\"learned-index\""] {
        assert!(
            text.contains(backend),
            "stream rows missing backend {backend}"
        );
    }
    // Criterion medians come from a real (non-smoke) run.
    for cell in ["stress_incontext_sim", "stress_dbabandit_learned"] {
        let ns = num_field(&text, cell);
        assert!(ns.is_finite() && ns > 0.0, "median_stress_ns.{cell} = {ns}");
    }
    assert!(
        text.contains("\"deterministic_across_jobs\": true"),
        "the target-class cells must be proven worker-count invariant"
    );
}

#[test]
fn bench_artifacts_have_no_duplicate_keys() {
    // BENCH_* files are written by the criterion harness glue; a bad
    // merge could duplicate keys without breaking the parser, so check
    // explicitly at every artifact's top level.
    for path in artifacts() {
        let text = fs::read_to_string(&path).unwrap();
        let keys = top_level_keys(&text).unwrap();
        let mut seen = keys.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(
            seen.len(),
            keys.len(),
            "{}: duplicate top-level keys in {keys:?}",
            path.display()
        );
    }
}
