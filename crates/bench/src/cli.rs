//! Minimal hand-rolled CLI shared by the experiment binaries (keeping
//! the dependency set to the sanctioned list — no clap).
//!
//! Common flags:
//!
//! * `--runs N` — repetitions per cell (default: per-experiment);
//! * `--seed N` — base seed (default 0);
//! * `--scale F` — benchmark scale factor (default 1.0);
//! * `--benchmark tpch|tpcds` — default tpch;
//! * `--quick` — quick advisor preset + ST generator (default);
//! * `--paper` — paper-scale trajectory counts + trained IABART;
//! * `--iabart` — force the IABART generator backend;
//! * `--actual` — materialize data and measure actual executed costs;
//! * `--jobs N` — worker threads for independent cells (0 = all cores,
//!   default 1; results are bit-identical for every N);
//! * `--out DIR` — write a JSON artifact (default `results/`);
//! * `--trace PATH` — write the deterministic per-cell event stream as
//!   JSONL (byte-identical for every `--jobs` setting);
//! * `--metrics-out PATH` — write wall-clock timing metrics as JSONL
//!   (*not* deterministic — timings vary run to run);
//! * `--test` — tiny advisor preset for smoke tests/CI.
//!
//! Anything else — an unknown flag, a missing or malformed value — is
//! rejected: the binary prints the error and a usage line and exits with
//! status 2 before running anything.

use pipa_core::experiment::{CellConfig, GenBackend};
use pipa_core::runner::CellSeed;
use pipa_ia::SpeedPreset;
use pipa_obs::TraceOutputs;
use pipa_workload::Benchmark;

/// Parsed common arguments.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Repetitions per experiment cell.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
    /// Scale factor.
    pub scale: f64,
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Advisor speed preset.
    pub preset: SpeedPreset,
    /// Use the trained IABART generator.
    pub use_iabart: bool,
    /// Materialize data for actual-cost measurement.
    pub actual: bool,
    /// Worker threads for independent cells (0 = available parallelism).
    pub jobs: usize,
    /// Artifact output directory.
    pub out_dir: String,
    /// Deterministic trace JSONL path (`--trace`).
    pub trace: Option<String>,
    /// Wall-clock metrics JSONL path (`--metrics-out`).
    pub metrics_out: Option<String>,
}

/// The flags every experiment binary accepts.
const USAGE: &str = "usage: <experiment> [--runs N] [--seed N] [--scale F] \
[--benchmark tpch|tpcds] [--quick | --paper | --test] [--iabart] [--actual] [--jobs N] \
[--out DIR] [--trace PATH] [--metrics-out PATH]";

/// Why a command line was rejected.
#[derive(Debug, PartialEq, Eq)]
enum ArgError {
    /// A flag no experiment binary knows.
    UnknownFlag(String),
    /// A flag that takes a value came last.
    MissingValue(&'static str),
    /// A flag's value did not parse.
    BadValue {
        flag: &'static str,
        value: String,
        reason: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue {
                flag,
                value,
                reason,
            } => write!(f, "{flag} {value:?}: {reason}"),
        }
    }
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            runs: 3,
            seed: 0,
            scale: 1.0,
            benchmark: Benchmark::TpcH,
            preset: SpeedPreset::Quick,
            use_iabart: false,
            actual: false,
            jobs: 1,
            out_dir: "results".to_string(),
            trace: None,
            metrics_out: None,
        }
    }
}

impl ExpArgs {
    /// Parse from `std::env::args` with a default run count. A rejected
    /// command line prints the error and a usage line to stderr and
    /// exits with status 2.
    pub fn parse(default_runs: usize) -> Self {
        Self::try_parse(default_runs, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parse `args` (without the program name) with a default run count.
    fn try_parse(
        default_runs: usize,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, ArgError> {
        let mut a = ExpArgs {
            runs: default_runs,
            ..Default::default()
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--runs" => a.runs = next_parse(&mut it, "--runs")?,
                "--seed" => a.seed = next_parse(&mut it, "--seed")?,
                "--scale" => a.scale = next_parse(&mut it, "--scale")?,
                "--benchmark" => {
                    let b: String = next_parse(&mut it, "--benchmark")?;
                    a.benchmark = match b.as_str() {
                        "tpch" => Benchmark::TpcH,
                        "tpcds" => Benchmark::TpcDs,
                        _ => {
                            return Err(ArgError::BadValue {
                                flag: "--benchmark",
                                value: b,
                                reason: "expected tpch or tpcds".to_string(),
                            })
                        }
                    };
                }
                "--quick" => a.preset = SpeedPreset::Quick,
                "--paper" => {
                    a.preset = SpeedPreset::Paper;
                    a.use_iabart = true;
                }
                "--test" => a.preset = SpeedPreset::Test,
                "--iabart" => a.use_iabart = true,
                "--actual" => a.actual = true,
                "--jobs" => a.jobs = next_parse(&mut it, "--jobs")?,
                "--out" => a.out_dir = next_parse(&mut it, "--out")?,
                "--trace" => a.trace = Some(next_parse(&mut it, "--trace")?),
                "--metrics-out" => a.metrics_out = Some(next_parse(&mut it, "--metrics-out")?),
                _ => return Err(ArgError::UnknownFlag(arg)),
            }
        }
        Ok(a)
    }

    /// Cell configuration derived from the flags. Training the IABART
    /// backend (when requested) happens here, once.
    pub fn cell_config(&self) -> CellConfig {
        let mut cfg = CellConfig::quick(self.benchmark);
        cfg.scale = self.scale;
        cfg.preset = self.preset;
        cfg.probe_epochs = match self.preset {
            SpeedPreset::Paper => 20,
            SpeedPreset::Quick => 8,
            SpeedPreset::Test => 2,
        };
        if self.actual {
            cfg.materialize = Some((self.seed ^ 0xda7a, 200_000));
        }
        if self.use_iabart {
            let cost = pipa_cost::SimBackend::new(self.benchmark.database(self.scale, None));
            eprintln!("[setup] training IABART generator (one-time)...");
            cfg.backend = GenBackend::train_iabart(&cost, 1500, self.seed)
                .expect("IABART corpus generation against the simulator backend");
        }
        cfg
    }

    /// Open the observability sinks requested by `--trace` /
    /// `--metrics-out` (both optional; with neither flag the returned
    /// outputs are disabled and tracing costs one atomic load per probe).
    pub fn trace_outputs(&self) -> TraceOutputs {
        TraceOutputs::create(self.trace.as_deref(), self.metrics_out.as_deref())
            .unwrap_or_else(|e| panic!("opening trace/metrics sink: {e}"))
    }

    /// The seed for run index `run`, derived from `--seed` with the
    /// runner's SplitMix64 scheme (never `seed + run`).
    pub fn cell_seed(&self, run: u64) -> CellSeed {
        CellSeed::derive(self.seed, run)
    }

    /// One-line parameter summary for artifacts.
    pub fn summary(&self) -> String {
        format!(
            // `jobs` is deliberately absent: parallelism must not leave
            // any trace in artifacts (--jobs N is byte-identical to
            // --jobs 1, see DESIGN.md "Determinism guarantees").
            "benchmark={} scale={} runs={} seed={} preset={:?} iabart={} actual={}",
            self.benchmark.name(),
            self.scale,
            self.runs,
            self.seed,
            self.preset,
            self.use_iabart,
            self.actual
        )
    }
}

fn next_parse<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &'static str,
) -> Result<T, ArgError>
where
    T::Err: std::fmt::Display,
{
    let value = it.next().ok_or(ArgError::MissingValue(flag))?;
    value.parse().map_err(|e: T::Err| ArgError::BadValue {
        flag,
        reason: e.to_string(),
        value,
    })
}

/// The shared harness for the custom-`main` benches (`harness = false`):
/// one place for the smoke-mode env toggle, the `CRITERION_JSON` capture
/// file, median extraction, and the `results/BENCH_*.json` artifact
/// write that each bench previously hand-rolled.
///
/// ```no_run
/// let bench = pipa_bench::cli::BenchArgs::for_bench("nn");
/// let mut c = bench.criterion(10);
/// // ... c.bench_function(...) ...
/// let median = bench.median_ns("nn/forward");
/// # let artifact = 0u32;
/// bench.write_artifact(&artifact); // skipped (with a note) in smoke mode
/// ```
pub struct BenchArgs {
    /// Bench name (`"nn"`, `"whatif"`, `"runner"`, `"serve"`); names the
    /// smoke env var, the capture file, and the artifact.
    pub name: &'static str,
    /// Smoke mode: `<NAME>_BENCH_SMOKE` is set. Dimensions shrink (the
    /// bench's business) and the artifact write is skipped (ours).
    pub smoke: bool,
    json_path: std::path::PathBuf,
}

impl BenchArgs {
    /// Set up the harness for `name`: read `<NAME>_BENCH_SMOKE`, point
    /// `CRITERION_JSON` at a fresh temp capture file.
    pub fn for_bench(name: &'static str) -> Self {
        let smoke = std::env::var(format!("{}_BENCH_SMOKE", name.to_uppercase())).is_ok();
        let json_path = std::env::temp_dir().join(format!("pipa_{name}_bench.jsonl"));
        let _ = std::fs::remove_file(&json_path);
        std::env::set_var("CRITERION_JSON", &json_path);
        BenchArgs {
            name,
            smoke,
            json_path,
        }
    }

    /// A criterion instance sized for this mode: `full_samples` samples
    /// normally, 3 samples × 30 ms in smoke mode.
    pub fn criterion(&self, full_samples: usize) -> criterion::Criterion {
        if self.smoke {
            criterion::Criterion::default()
                .sample_size(3)
                .measurement_time(std::time::Duration::from_millis(30))
        } else {
            criterion::Criterion::default().sample_size(full_samples)
        }
    }

    /// The captured criterion JSONL so far.
    pub fn lines(&self) -> String {
        std::fs::read_to_string(&self.json_path).unwrap_or_default()
    }

    /// Median nanoseconds of the cell benched as `id`.
    pub fn median_ns(&self, id: &str) -> Option<f64> {
        median_of(&self.lines(), id)
    }

    /// Write `results/BENCH_<name>.json` at the workspace root and
    /// return its path — unless smoke mode, which notes the skip and
    /// writes nothing.
    pub fn write_artifact<T: serde::Serialize>(&self, artifact: &T) -> Option<std::path::PathBuf> {
        if self.smoke {
            eprintln!(
                "[smoke] {}_BENCH_SMOKE set; artifact not written",
                self.name.to_uppercase()
            );
            return None;
        }
        // Cargo runs benches with the package dir as cwd; anchor the
        // artifact at the workspace-root results/ next to the experiment
        // outputs.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let out = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::create_dir_all(&dir).ok()?;
        std::fs::write(&out, serde_json::to_string_pretty(artifact).ok()?).ok()?;
        eprintln!("[artifact] {}", out.display());
        Some(out)
    }
}

/// Pull `median_ns` out of the criterion JSON line for `id`. The
/// vendored serde_json is serialize-only, and the line format is fixed
/// (`{"id":"...","median_ns":N,...}`), so a string scan suffices.
pub fn median_of(lines: &str, id: &str) -> Option<f64> {
    let line = lines
        .lines()
        .find(|l| l.contains(&format!("\"id\":\"{id}\"")))?;
    let rest = line.split("\"median_ns\":").nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// Cores the host offers this process (`available_parallelism`, 1 if
/// unknown): recorded in every bench artifact whose timings depend on it.
pub fn cores_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `a / b`, defined only when both exist and `b > 0` (speedup ratios).
pub fn ratio(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) if y > 0.0 => Some(x / y),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpArgs, ArgError> {
        ExpArgs::try_parse(3, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn known_flags_parse() {
        let a = parse(&[
            "--runs",
            "2",
            "--seed",
            "7",
            "--benchmark",
            "tpcds",
            "--test",
            "--jobs",
            "2",
            "--out",
            "o",
            "--trace",
            "t.jsonl",
        ])
        .unwrap();
        assert_eq!((a.runs, a.seed, a.jobs), (2, 7, 2));
        assert_eq!(a.benchmark, Benchmark::TpcDs);
        assert_eq!(a.preset, SpeedPreset::Test);
        assert_eq!(a.out_dir, "o");
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(
            parse(&[]).unwrap().runs,
            3,
            "the binary's default run count"
        );
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert_eq!(
            parse(&["--runs", "1", "--job", "2"]).unwrap_err(),
            ArgError::UnknownFlag("--job".to_string())
        );
        assert_eq!(
            parse(&["extra"]).unwrap_err(),
            ArgError::UnknownFlag("extra".to_string())
        );
    }

    #[test]
    fn missing_value_is_rejected() {
        assert_eq!(
            parse(&["--seed"]).unwrap_err(),
            ArgError::MissingValue("--seed")
        );
    }

    #[test]
    fn non_numeric_runs_is_rejected() {
        let e = parse(&["--runs", "two"]).unwrap_err();
        assert!(
            matches!(&e, ArgError::BadValue { flag: "--runs", value, .. } if value == "two"),
            "{e:?}"
        );
    }

    #[test]
    fn unknown_benchmark_is_rejected() {
        let e = parse(&["--benchmark", "tpcc"]).unwrap_err();
        assert!(
            matches!(&e, ArgError::BadValue { flag: "--benchmark", value, .. } if value == "tpcc"),
            "{e:?}"
        );
        assert_eq!(
            e.to_string(),
            "--benchmark \"tpcc\": expected tpch or tpcds"
        );
    }
}
