//! Throughput of the parallel experiment runner: serial versus four
//! workers over the same 4-cell grid (2 advisors × 2 injectors × 1 run,
//! `Test` preset):
//!
//! * `runner/serial` — `--jobs 1`;
//! * `runner/parallel4` — `--jobs 4`: thread-pool scaling, bounded by
//!   the machine's core count (on a single-core container this is
//!   expected to be ≈1×).
//!
//! A custom `main` (the `[[bench]]` is `harness = false`) re-reads the
//! criterion JSON lines and writes `results/BENCH_runner.json` with the
//! derived speedup and the cores the host offered.

use pipa_core::experiment::{build_db, CellConfig, GridSpec, InjectorKind};
use pipa_core::run_grid;
use pipa_ia::{AdvisorSpec, SpeedPreset};
use pipa_workload::Benchmark;
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct Medians {
    serial: Option<f64>,
    parallel4: Option<f64>,
}

#[derive(Serialize)]
struct BenchArtifact {
    id: String,
    description: String,
    grid_cells: usize,
    cores_available: usize,
    median_ns: Medians,
    parallel4_speedup: Option<f64>,
}

fn grid() -> (CellConfig, GridSpec) {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg.injection_size = 4;
    let spec = GridSpec::new(
        vec![AdvisorSpec::new("dbabandit"), AdvisorSpec::new("swirl")],
        vec![InjectorKind::Fsm, InjectorKind::Pipa],
        1,
        7,
    );
    (cfg, spec)
}

fn main() {
    let bench = pipa_bench::cli::BenchArgs::for_bench("runner");
    let (cfg, spec) = grid();
    let db = build_db(&cfg);
    let mut c = bench.criterion(10);

    c.bench_function("runner/serial", |b| {
        b.iter(|| black_box(run_grid(&db, &cfg, &spec, 1)))
    });
    c.bench_function("runner/parallel4", |b| {
        b.iter(|| black_box(run_grid(&db, &cfg, &spec, 4)))
    });

    let lines = bench.lines();
    let serial = pipa_bench::cli::median_of(&lines, "runner/serial");
    let par4 = pipa_bench::cli::median_of(&lines, "runner/parallel4");
    let parallel_speedup = pipa_bench::cli::ratio(serial, par4);

    let cores = pipa_bench::cli::cores_available();
    println!("\ncores available: {cores}");
    if let Some(s) = parallel_speedup {
        println!("parallel (4 workers) speedup over serial: {s:.2}x");
    }

    let artifact = BenchArtifact {
        id: "BENCH_runner".to_string(),
        description: "experiment-runner throughput: serial vs 4 workers".to_string(),
        grid_cells: spec.len(),
        cores_available: cores,
        median_ns: Medians {
            serial,
            parallel4: par4,
        },
        parallel4_speedup: parallel_speedup,
    };
    bench.write_artifact(&artifact);
}
