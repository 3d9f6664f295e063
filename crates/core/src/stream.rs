//! Streaming arms race: a dynamic attacker against an online defense.
//!
//! The paper's stress test is static — probe, inject, retrain once,
//! measure (see [`crate::harness::StressTest`]). Its §8 framing only
//! matters in the *updatable* regime, though: real advisors retrain on a
//! cadence while the workload drifts, the attacker spends an injection
//! budget window by window, and the defense has to act online. This
//! module models that regime as an ordered stream of windows:
//!
//! 1. **Window 0 (bootstrap)** is trusted: the advisor trains on it, the
//!    first configuration deploys, and the defenses seed their reference
//!    state (canary workload, provenance history) from it.
//! 2. **Each later window** delivers a clean workload drawn from the
//!    spec's [`DriftSchedule`]. The currently deployed configuration is
//!    costed against it first (that is the toxicity-over-time curve),
//!    then the attacker spends budget, then the observed traffic —
//!    clean plus whatever injection survived screening — joins the
//!    pending training set.
//! 3. **At cadence points** the advisor retrains on the pending traffic
//!    (optionally behind a [`CanaryGuard`]) and a new configuration
//!    deploys.
//!
//! Degradation is measured against a **clean twin**: a second advisor
//! built from the same seed, trained on the same clean windows at the
//! same cadence, but never fed an injection. Per-window AD is deployed
//! cost vs. the twin's cost on the same clean traffic, so a stream with
//! no attacker has AD exactly 0 in every window.
//!
//! A one-window stream with [`DriftSchedule::Static`] drift,
//! [`Cadence::EndOnly`] retraining, and no defense performs the exact
//! call sequence of the static pipeline — `tests/stream_differential.rs`
//! pins the reports bit-identical.

use crate::defense::{CanaryGuard, ProvenanceFilter};
use crate::experiment::{make_injector, CellConfig, InjectorKind};
use crate::harness::{index_names, strike, update, StressOutcome, Update};
use crate::metrics::{absolute_degradation, is_toxic};
use crate::runner::{derive_seed, par_map_traced, CellSeed};
use pipa_cost::{measured_workload_cost, CostBackend, CostResult};
use pipa_ia::{AdvisorSpec, BuildCtx};
use pipa_obs::{CellCtx, Event, TraceOutputs};
use pipa_sim::{IndexConfig, Workload};
use pipa_workload::{generator::WorkloadGenerator, DriftSchedule};
use serde::Serialize;
use std::collections::VecDeque;

/// When the advisor retrains along the stream. Every cadence also
/// retrains at the final window, so a finished stream always reflects
/// all observed traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// Retrain after every `k`-th window (`Every(1)` = each window).
    Every(usize),
    /// Retrain only once, after the final window — the static pipeline's
    /// "collect everything, update once" schedule (the `∞` cadence of
    /// the differential test).
    EndOnly,
}

impl Cadence {
    /// Whether a retrain fires at `window` of a `total`-window stream.
    pub fn due(self, window: usize, total: usize) -> bool {
        window == total
            || match self {
                Cadence::Every(k) => k > 0 && window.is_multiple_of(k),
                Cadence::EndOnly => false,
            }
    }

    /// Stable label for traces and artifacts.
    pub fn label(self) -> String {
        match self {
            Cadence::Every(k) => format!("every{k}"),
            Cadence::EndOnly => "end".to_string(),
        }
    }
}

/// How the attacker spends its per-window injection budget.
///
/// Both active strategies are *adaptive*: each strike builds a fresh
/// injector seeded for that window, so probing injectors (I-L, PIPA)
/// re-probe the victim's current parameters between windows rather than
/// replaying a stale probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackerStrategy {
    /// No attacker — the clean control stream.
    None,
    /// Spend the full budget every window, keeping the poison fraction
    /// of observed traffic steady.
    Spread(InjectorKind),
    /// Bank the budget and dump everything in the window a retrain
    /// fires, maximizing poison concentration in each training batch.
    Burst(InjectorKind),
}

impl AttackerStrategy {
    /// Stable label for traces and artifacts.
    pub fn label(self) -> String {
        match self {
            AttackerStrategy::None => "none".to_string(),
            AttackerStrategy::Spread(k) => format!("spread-{}", k.label()),
            AttackerStrategy::Burst(k) => format!("burst-{}", k.label()),
        }
    }

    fn injector_kind(self) -> Option<InjectorKind> {
        match self {
            AttackerStrategy::None => None,
            AttackerStrategy::Spread(k) | AttackerStrategy::Burst(k) => Some(k),
        }
    }
}

/// The online defense running alongside the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefensePolicy {
    /// No defense — every retrain deploys unconditionally.
    None,
    /// [`CanaryGuard`] at each retrain: the bootstrap window is the
    /// held-out canary; an update whose canary cost regresses beyond
    /// `tolerance` is rolled back (the previously deployed configuration
    /// stays in force).
    Canary {
        /// Relative canary regression tolerance.
        tolerance: f64,
    },
    /// Sliding-window [`ProvenanceFilter`]: each window's observed
    /// traffic is screened against the column profile of the last
    /// `history` windows of *accepted* traffic (bootstrap-seeded), and
    /// only what passes reaches training or the reference history.
    Provenance {
        /// Maximum novel-column fraction per query.
        max_novel_fraction: f64,
        /// Reference profile length, in windows.
        history: usize,
    },
}

impl DefensePolicy {
    /// Stable label for traces and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            DefensePolicy::None => "none",
            DefensePolicy::Canary { .. } => "canary",
            DefensePolicy::Provenance { .. } => "provenance",
        }
    }

    /// The retrain the policy asks for: behind a guard checked on
    /// `canary` under [`DefensePolicy::Canary`], unconditional otherwise.
    pub(crate) fn retrain(self, canary: &Workload) -> Update<'_> {
        match self {
            DefensePolicy::Canary { tolerance } => {
                Update::Guarded(CanaryGuard::new(tolerance), canary)
            }
            _ => Update::Retrain,
        }
    }

    /// The screen the policy runs, if it is a provenance policy.
    pub(crate) fn provenance(self) -> Option<ProvenanceFilter> {
        match self {
            DefensePolicy::Provenance {
                max_novel_fraction, ..
            } => Some(ProvenanceFilter { max_novel_fraction }),
            _ => None,
        }
    }
}

/// One streaming scenario: the stream's shape plus the two adversaries.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Attack windows after the trusted bootstrap window.
    pub windows: usize,
    /// How the clean traffic drifts across windows.
    pub drift: DriftSchedule,
    /// Retraining cadence.
    pub cadence: Cadence,
    /// Attacker strategy.
    pub attacker: AttackerStrategy,
    /// Per-window injection budget (queries).
    pub budget: usize,
    /// Online defense policy.
    pub defense: DefensePolicy,
}

/// What happened in one stream window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowReport {
    /// Window index (1-based; 0 is the bootstrap).
    pub window: usize,
    /// Queries the attacker injected this window.
    pub injected: usize,
    /// Injected-or-clean queries the provenance screen dropped.
    pub screened_out: usize,
    /// Clean-traffic cost under the configuration deployed when the
    /// window arrived.
    pub deployed_cost: f64,
    /// The same traffic under the clean twin's configuration.
    pub clean_cost: f64,
    /// Per-window absolute degradation vs. the twin.
    pub ad: f64,
    /// Whether the deployed configuration was toxic for this window
    /// (Definition 2.4 against the twin's counterfactual).
    pub toxic: bool,
    /// Whether a retrain fired at the end of this window.
    pub retrained: bool,
    /// Whether the canary guard rolled the retrain back.
    pub rolled_back: bool,
    /// Clean-traffic cost under the post-retrain deployment, when one
    /// fired.
    pub post_retrain_cost: Option<f64>,
}

/// Full outcome of one streaming scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamOutcome {
    /// Advisor display name.
    pub advisor: String,
    /// Attacker label.
    pub attacker: String,
    /// Defense label.
    pub defense: String,
    /// Drift-schedule label.
    pub drift: String,
    /// Cadence label.
    pub cadence: String,
    /// Per-window reports, in arrival order.
    pub windows: Vec<WindowReport>,
    /// Bootstrap cost: window 0 under the initial deployment.
    pub baseline_cost: f64,
    /// Final window's clean traffic under the final deployment.
    pub final_cost: f64,
    /// Mean per-window AD across the stream.
    pub mean_ad: f64,
    /// Mean AD over the last half of the stream (the steady state,
    /// after defenses and cadence effects settle).
    pub steady_ad: f64,
    /// Fraction of steady-state windows that were toxic.
    pub steady_toxicity: f64,
    /// Total queries injected.
    pub total_injected: usize,
    /// Total queries dropped by screening.
    pub total_screened: usize,
    /// Retrains fired.
    pub retrains: usize,
    /// Canary rollbacks.
    pub rollbacks: usize,
    /// Screened / injected (provenance) or rollbacks / retrains
    /// (canary): the fraction of attack surface the defense caught.
    pub defense_recall: f64,
    /// Deterministic count of scenario-level what-if cost evaluations
    /// (one per query per measured workload; advisor-internal trials are
    /// not included). The bench divides this by wall time for QPS.
    pub cost_evals: u64,
    /// Index names deployed after the bootstrap (pre-attack).
    pub baseline_indexes: Vec<String>,
    /// Index names deployed when the stream ended.
    pub final_indexes: Vec<String>,
    /// Injector label behind the attacker, when one exists.
    pub injector_label: Option<String>,
    /// Seed of the first window that actually built an injection.
    pub first_attack_seed: Option<u64>,
    /// Cell seed of the scenario.
    pub seed: u64,
}

impl StreamOutcome {
    /// Project the stream onto the static pipeline's report shape.
    ///
    /// For the differential configuration — one attack window, zero
    /// drift, [`Cadence::EndOnly`], no defense — this is *the* report
    /// the static [`crate::harness::StressTest`] produces for the same
    /// workload and injection seed, bit for bit: baseline = the
    /// pre-attack measurement, poisoned = the post-retrain measurement,
    /// and the seed is the attack window's derived seed.
    pub fn as_stress_outcome(&self) -> Option<StressOutcome> {
        let injector = self.injector_label.clone()?;
        let seed = self.first_attack_seed?;
        Some(StressOutcome {
            advisor: self.advisor.clone(),
            injector,
            baseline_cost: self.baseline_cost,
            poisoned_cost: self.final_cost,
            ad: absolute_degradation(self.final_cost, self.baseline_cost),
            toxic: is_toxic(self.final_cost, self.baseline_cost),
            baseline_indexes: self.baseline_indexes.clone(),
            poisoned_indexes: self.final_indexes.clone(),
            injection_size: self.total_injected,
            seed,
        })
    }
}

/// Union a non-empty window sequence in arrival order (clean before
/// injection within a window is already baked into each part).
fn union_all(parts: &[Workload]) -> Workload {
    let mut it = parts.iter();
    let mut acc = it.next().cloned().unwrap_or_default();
    for p in it {
        acc = acc.union(p);
    }
    acc
}

/// Run one streaming scenario.
///
/// Deterministic: the outcome is a pure function of `(catalog, cfg,
/// advisor spec, spec, seed)`. Window `w`'s clean traffic comes from
/// `spec.drift` at seed `seed ^ 0x4021` (the same convention as
/// [`crate::experiment::normal_workload`], so [`DriftSchedule::Static`]
/// replays exactly that workload), and window `w`'s attack stream is
/// [`derive_seed`]`(seed, w)`.
///
/// The advisor spec is resolved through the target registry. The
/// victim moves through the harness's [`update`] and [`strike`] steps,
/// so the backend's [`CostBackend::observe_training`] hook fires on the
/// bootstrap window and on every *victim* training batch. The clean
/// twin calls `train` and `retrain` directly: it is an advisor-only
/// counterfactual sharing the backend's state, so for learned cost
/// backends the twin's costs reflect the same (possibly poisoned) index
/// structure and per-window AD isolates the advisor's decisions.
pub fn run_stream(
    cost: &dyn CostBackend,
    cfg: &CellConfig,
    advisor_spec: AdvisorSpec,
    spec: &StreamSpec,
    seed: CellSeed,
) -> CostResult<StreamOutcome> {
    let gen = WorkloadGenerator::new(cfg.benchmark.schema(), cfg.benchmark.default_templates());
    let wseed = seed.get() ^ 0x4021;
    let use_actual = cfg.materialize.is_some();
    let mut cost_evals = 0u64;
    let mut measure = |w: &Workload, c: &IndexConfig| -> CostResult<f64> {
        cost_evals += w.len() as u64;
        measured_workload_cost(cost, w, c, use_actual)
    };

    // Bootstrap: train the victim and its clean twin on the trusted
    // window 0 and deploy the first configuration. The twin starts from
    // the same build seed, so the two are bit-identical until the first
    // injection reaches the victim.
    pipa_obs::phase("bootstrap");
    let w0 = spec.drift.window_workload(&gen, 0, wseed)?;
    let ctx = BuildCtx::new(cfg.preset, seed.get());
    let mut advisor = advisor_spec.build_with(ctx)?;
    update(advisor.as_mut(), cost, &w0, Update::Train)?;
    let mut deployed = advisor.recommend(cost, &w0)?;
    let baseline_cost = measure(&w0, &deployed)?;
    let baseline_indexes = index_names(cost, &deployed);

    let mut twin = advisor_spec.build_with(ctx)?;
    twin.train(cost, &w0)?;
    let mut twin_deployed = twin.recommend(cost, &w0)?;

    // Defense state, seeded from the trusted bootstrap: w0 is the
    // canary and the provenance history's first window.
    let mut history: VecDeque<Workload> = VecDeque::new();
    if let DefensePolicy::Provenance { .. } = spec.defense {
        history.push_back(w0.clone());
    }

    let mut victim_pending: Vec<Workload> = Vec::new();
    let mut twin_pending: Vec<Workload> = Vec::new();
    let mut banked_budget = 0usize;
    let mut windows = Vec::with_capacity(spec.windows);
    let mut total_injected = 0usize;
    let mut total_screened = 0usize;
    let mut retrains = 0usize;
    let mut rollbacks = 0usize;
    let mut poisoned_retrains = 0usize;
    let mut caught_retrains = 0usize;
    let mut first_attack_seed = None;
    let mut final_cost = baseline_cost;

    pipa_obs::phase("stream");
    for w in 1..=spec.windows {
        let wl = spec.drift.window_workload(&gen, w as u64, wseed)?;
        let attack_seed = derive_seed(seed.get(), w as u64);

        // The configuration serving this window's traffic was deployed
        // before the window arrived — measure it (and the twin's
        // counterfactual) before anything else happens.
        let deployed_cost = measure(&wl, &deployed)?;
        let clean_cost = measure(&wl, &twin_deployed)?;
        let ad = absolute_degradation(deployed_cost, clean_cost);
        let toxic = is_toxic(deployed_cost, clean_cost);

        // Attacker's turn. A fresh injector per strike means probing
        // strategies re-probe the advisor's *current* parameters.
        let due = spec.cadence.due(w, spec.windows);
        let budget = match spec.attacker {
            AttackerStrategy::None => 0,
            AttackerStrategy::Spread(_) => spec.budget,
            AttackerStrategy::Burst(_) => {
                banked_budget += spec.budget;
                if due {
                    std::mem::take(&mut banked_budget)
                } else {
                    0
                }
            }
        };
        let mut injector = spec
            .attacker
            .injector_kind()
            .filter(|_| budget > 0)
            .map(|kind| make_injector(kind, cfg, CellSeed::raw(attack_seed)));

        // Observed traffic: clean then injection (the same union order
        // the static pipeline uses for its training set), screened
        // online against the accepted history when the provenance
        // defense is active.
        let reference = union_all(history.make_contiguous());
        let screen = spec.defense.provenance().map(|f| (f, &reference));
        let struck = strike(
            advisor.as_mut(),
            cost,
            injector.as_deref_mut(),
            budget,
            attack_seed,
            &wl,
            screen,
        )?;
        let (injected, screened_out) = (struck.injected, struck.screened_out);
        if first_attack_seed.is_none() && injected > 0 {
            first_attack_seed = Some(attack_seed);
        }
        total_injected += injected;
        total_screened += screened_out;
        if let DefensePolicy::Provenance { history: depth, .. } = spec.defense {
            history.push_back(struck.observed.clone());
            while history.len() > depth.max(1) {
                history.pop_front();
            }
        }
        victim_pending.push(struck.observed);
        twin_pending.push(wl.clone());

        // Retrain at cadence points; the twin follows the same cadence
        // on clean-only traffic.
        let mut rolled_back = false;
        let mut post_retrain_cost = None;
        if due {
            let training = union_all(&victim_pending);
            let batch_poisoned = injected_since(&windows, injected) > 0;
            victim_pending.clear();
            match update(advisor.as_mut(), cost, &training, spec.defense.retrain(&w0))? {
                Some(guarded) => {
                    rolled_back = guarded.rolled_back;
                    if rolled_back {
                        rollbacks += 1;
                    }
                    deployed = guarded.final_config;
                }
                None => deployed = advisor.recommend(cost, &wl)?,
            }
            if batch_poisoned {
                poisoned_retrains += 1;
                if rolled_back {
                    caught_retrains += 1;
                }
            }
            retrains += 1;
            let twin_training = union_all(&twin_pending);
            twin_pending.clear();
            twin.retrain(cost, &twin_training)?;
            twin_deployed = twin.recommend(cost, &wl)?;
            post_retrain_cost = Some(measure(&wl, &deployed)?);
        }
        if let Some(c) = post_retrain_cost {
            final_cost = c;
        }

        if pipa_obs::is_recording() {
            pipa_obs::count("stream_injected", injected as u64);
            pipa_obs::count("stream_screened", screened_out as u64);
            pipa_obs::emit(
                Event::new("stream_window")
                    .field("window", w)
                    .field("injected", injected)
                    .field("screened_out", screened_out)
                    .field("deployed_cost", deployed_cost)
                    .field("clean_cost", clean_cost)
                    .field("ad", ad)
                    .field("toxic", toxic)
                    .field("retrained", due)
                    .field("rolled_back", rolled_back),
            );
        }
        windows.push(WindowReport {
            window: w,
            injected,
            screened_out,
            deployed_cost,
            clean_cost,
            ad,
            toxic,
            retrained: due,
            rolled_back,
            post_retrain_cost,
        });
    }

    let n = windows.len().max(1) as f64;
    let steady_from = windows.len() / 2;
    let steady = &windows[steady_from..];
    let steady_n = steady.len().max(1) as f64;
    let defense_recall = match spec.defense {
        DefensePolicy::Provenance { .. } if total_injected > 0 => {
            (total_screened.min(total_injected)) as f64 / total_injected as f64
        }
        DefensePolicy::Canary { .. } if poisoned_retrains > 0 => {
            caught_retrains as f64 / poisoned_retrains as f64
        }
        _ => 0.0,
    };
    let outcome = StreamOutcome {
        advisor: advisor.name(),
        attacker: spec.attacker.label(),
        defense: spec.defense.label().to_string(),
        drift: spec.drift.label().to_string(),
        cadence: spec.cadence.label(),
        baseline_cost,
        final_cost,
        mean_ad: windows.iter().map(|w| w.ad).sum::<f64>() / n,
        steady_ad: steady.iter().map(|w| w.ad).sum::<f64>() / steady_n,
        steady_toxicity: steady.iter().filter(|w| w.toxic).count() as f64 / steady_n,
        total_injected,
        total_screened,
        retrains,
        rollbacks,
        defense_recall,
        cost_evals,
        baseline_indexes,
        final_indexes: index_names(cost, &deployed),
        injector_label: spec.attacker.injector_kind().map(|k| k.label().to_string()),
        first_attack_seed,
        seed: seed.get(),
        windows,
    };
    if pipa_obs::is_recording() {
        pipa_obs::emit(
            Event::new("stream_outcome")
                .field("mean_ad", outcome.mean_ad)
                .field("steady_ad", outcome.steady_ad)
                .field("steady_toxicity", outcome.steady_toxicity)
                .field("total_injected", outcome.total_injected)
                .field("total_screened", outcome.total_screened)
                .field("retrains", outcome.retrains)
                .field("rollbacks", outcome.rollbacks),
        );
    }
    Ok(outcome)
}

/// Poison in the training batch now closing: injections since the last
/// retrain (scanned backwards over finished windows) plus this window's.
fn injected_since(done: &[WindowReport], this_window: usize) -> usize {
    let since_last_retrain: usize = done
        .iter()
        .rev()
        .take_while(|r| !r.retrained)
        .map(|r| r.injected)
        .sum();
    since_last_retrain + this_window
}

/// The arms-race grid: attacker × defense × cadence × run, all sharing
/// one stream shape (windows, drift, budget) and advisor.
#[derive(Clone)]
pub struct StreamGridSpec {
    /// Advisor under attack (any registered kind id).
    pub advisor: AdvisorSpec,
    /// Attacker strategies to sweep.
    pub attackers: Vec<AttackerStrategy>,
    /// Defense policies to sweep.
    pub defenses: Vec<DefensePolicy>,
    /// Retraining cadences to sweep.
    pub cadences: Vec<Cadence>,
    /// Attack windows per stream.
    pub windows: usize,
    /// Drift schedule shared by every cell.
    pub drift: DriftSchedule,
    /// Per-window injection budget.
    pub budget: usize,
    /// Repetitions per (attacker, defense, cadence) triple.
    pub runs: u64,
    /// Root seed; per-run seeds derive via [`CellSeed::derive`].
    pub root_seed: u64,
}

/// One cell of a [`StreamGridSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCell {
    /// Attacker strategy.
    pub attacker: AttackerStrategy,
    /// Defense policy.
    pub defense: DefensePolicy,
    /// Retraining cadence.
    pub cadence: Cadence,
    /// Run index.
    pub run: u64,
    /// `CellSeed::derive(root_seed, run)` — cells of the same run share
    /// the seed (hence the workload stream), so attacker and defense
    /// columns compare on identical traffic, exactly like
    /// [`crate::experiment::GridSpec`].
    pub seed: CellSeed,
}

impl StreamGridSpec {
    /// Every cell: attacker-major, then defense, then cadence, then run
    /// — the order [`run_stream_grid`] returns results in, independent
    /// of `--jobs`.
    pub fn cells(&self) -> Vec<StreamCell> {
        let mut out = Vec::with_capacity(self.len());
        for &attacker in &self.attackers {
            for &defense in &self.defenses {
                for &cadence in &self.cadences {
                    for run in 0..self.runs {
                        out.push(StreamCell {
                            attacker,
                            defense,
                            cadence,
                            run,
                            seed: CellSeed::derive(self.root_seed, run),
                        });
                    }
                }
            }
        }
        out
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.attackers.len() * self.defenses.len() * self.cadences.len() * self.runs as usize
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-cell scenario spec.
    pub fn cell_spec(&self, cell: &StreamCell) -> StreamSpec {
        StreamSpec {
            windows: self.windows,
            drift: self.drift,
            cadence: cell.cadence,
            attacker: cell.attacker,
            budget: self.budget,
            defense: cell.defense,
        }
    }
}

/// Evaluate every cell of a stream grid on up to `jobs` worker threads,
/// results in [`StreamGridSpec::cells`] order regardless of scheduling.
pub fn run_stream_grid(
    cost: &dyn CostBackend,
    cfg: &CellConfig,
    spec: &StreamGridSpec,
    jobs: usize,
) -> CostResult<Vec<(StreamCell, StreamOutcome)>> {
    run_stream_grid_traced(cost, cfg, spec, jobs, &TraceOutputs::disabled())
}

/// [`run_stream_grid`] with per-cell observability: each cell records
/// into its own `pipa-obs` scope (context: `cell_seed`, `attacker`,
/// `defense`, `cadence`, `run`) and the buffered traces are flushed in
/// cell order — byte-identical across `--jobs` settings, like
/// [`crate::experiment::run_grid_traced`].
pub fn run_stream_grid_traced(
    cost: &dyn CostBackend,
    cfg: &CellConfig,
    spec: &StreamGridSpec,
    jobs: usize,
    out: &TraceOutputs,
) -> CostResult<Vec<(StreamCell, StreamOutcome)>> {
    let results = par_map_traced(
        jobs,
        spec.cells(),
        out,
        |_, cell| {
            CellCtx::new(cell.seed.get())
                .field("attacker", cell.attacker.label())
                .field("defense", cell.defense.label())
                .field("cadence", cell.cadence.label())
                .field("run", cell.run)
        },
        |_, cell| {
            run_stream(
                cost,
                cfg,
                spec.advisor.clone(),
                &spec.cell_spec(&cell),
                cell.seed,
            )
            .map(|outcome| (cell, outcome))
        },
    );
    out.flush();
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::build_db;
    use pipa_ia::SpeedPreset;
    use pipa_workload::Benchmark;

    fn cfg() -> CellConfig {
        let mut cfg = CellConfig::quick(Benchmark::TpcH);
        cfg.preset = SpeedPreset::Test;
        cfg.probe_epochs = 2;
        cfg
    }

    fn advisor() -> AdvisorSpec {
        AdvisorSpec::new("dbabandit")
    }

    fn spec(attacker: AttackerStrategy, defense: DefensePolicy, cadence: Cadence) -> StreamSpec {
        StreamSpec {
            windows: 4,
            drift: DriftSchedule::Resample,
            cadence,
            attacker,
            budget: 4,
            defense,
        }
    }

    #[test]
    fn clean_stream_never_degrades_vs_its_twin() {
        let cfg = cfg();
        let cost = build_db(&cfg);
        let s = spec(
            AttackerStrategy::None,
            DefensePolicy::None,
            Cadence::Every(2),
        );
        let out = run_stream(&cost, &cfg, advisor(), &s, CellSeed::raw(21)).unwrap();
        assert_eq!(out.windows.len(), 4);
        for w in &out.windows {
            assert_eq!(w.ad, 0.0, "victim ≡ twin without an attacker: {w:?}");
            assert!(!w.toxic);
        }
        assert_eq!(out.total_injected, 0);
        assert_eq!(out.retrains, 2, "Every(2) over 4 windows fires at 2 and 4");
        assert!(
            out.as_stress_outcome().is_none(),
            "no attack, no stress view"
        );
    }

    #[test]
    fn spread_attacker_spends_budget_every_window() {
        let cfg = cfg();
        let cost = build_db(&cfg);
        let s = spec(
            AttackerStrategy::Spread(InjectorKind::Tp),
            DefensePolicy::None,
            Cadence::Every(1),
        );
        let out = run_stream(&cost, &cfg, advisor(), &s, CellSeed::raw(22)).unwrap();
        for w in &out.windows {
            assert_eq!(w.injected, 4, "TP fills the whole budget: {w:?}");
            assert!(w.retrained);
        }
        assert_eq!(out.total_injected, 16);
        assert_eq!(out.retrains, 4);
        assert_eq!(out.attacker, "spread-TP");
        // Adjacent strikes draw distinct seeds, so the injections differ.
        assert_eq!(out.first_attack_seed, Some(derive_seed(22, 1)));
    }

    #[test]
    fn burst_attacker_banks_budget_until_a_retrain() {
        let cfg = cfg();
        let cost = build_db(&cfg);
        let s = spec(
            AttackerStrategy::Burst(InjectorKind::Tp),
            DefensePolicy::None,
            Cadence::Every(2),
        );
        let out = run_stream(&cost, &cfg, advisor(), &s, CellSeed::raw(23)).unwrap();
        let injected: Vec<usize> = out.windows.iter().map(|w| w.injected).collect();
        assert_eq!(
            injected,
            vec![0, 8, 0, 8],
            "full bank lands at each retrain"
        );
        assert_eq!(out.total_injected, 16, "equal total budget to spread");
    }

    #[test]
    fn canary_guard_tracks_rollbacks_in_the_report() {
        let cfg = cfg();
        let cost = build_db(&cfg);
        // A tolerance of -1.0 makes every retrain "regress" (cost_after >
        // 0 >= cost_before * 0), so each one rolls back.
        let s = spec(
            AttackerStrategy::Spread(InjectorKind::Tp),
            DefensePolicy::Canary { tolerance: -1.0 },
            Cadence::Every(2),
        );
        let out = run_stream(&cost, &cfg, advisor(), &s, CellSeed::raw(24)).unwrap();
        assert_eq!(out.retrains, 2);
        assert_eq!(out.rollbacks, 2);
        assert_eq!(out.defense_recall, 1.0);
        assert!(out
            .windows
            .iter()
            .filter(|w| w.retrained)
            .all(|w| w.rolled_back));
    }

    #[test]
    fn provenance_screen_reports_drops_and_slides_history() {
        let cfg = cfg();
        let cost = build_db(&cfg);
        let s = spec(
            AttackerStrategy::Spread(InjectorKind::Pipa),
            DefensePolicy::Provenance {
                max_novel_fraction: 0.5,
                history: 2,
            },
            Cadence::Every(2),
        );
        let out = run_stream(&cost, &cfg, advisor(), &s, CellSeed::raw(25)).unwrap();
        assert!(out.total_injected > 0);
        assert!(
            out.total_screened > 0,
            "PIPA's mid-ranked columns should trip the screen: {out:?}"
        );
        assert!(out.defense_recall > 0.0 && out.defense_recall <= 1.0);
    }

    #[test]
    fn stream_grid_enumerates_cells_in_fixed_order() {
        let grid = StreamGridSpec {
            advisor: advisor(),
            attackers: vec![
                AttackerStrategy::Spread(InjectorKind::Tp),
                AttackerStrategy::Burst(InjectorKind::Tp),
            ],
            defenses: vec![
                DefensePolicy::None,
                DefensePolicy::Canary { tolerance: 0.02 },
            ],
            cadences: vec![Cadence::Every(1), Cadence::EndOnly],
            windows: 3,
            drift: DriftSchedule::Resample,
            budget: 2,
            runs: 2,
            root_seed: 9,
        };
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.len());
        assert_eq!(cells.len(), 16);
        assert!(!grid.is_empty());
        // Attacker-major order; same-run cells share the seed.
        assert_eq!(cells[0].attacker, cells[7].attacker);
        assert_eq!(cells[0].seed, cells[2].seed);
        assert_eq!(cells[0].seed, CellSeed::derive(9, 0));
        let spec0 = grid.cell_spec(&cells[0]);
        assert_eq!(spec0.windows, 3);
        assert_eq!(spec0.budget, 2);
    }
}
