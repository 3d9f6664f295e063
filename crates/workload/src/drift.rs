//! Drift schedules: how a streaming workload's template mix evolves
//! across windows.
//!
//! The paper's harness draws one normal workload and holds it fixed; a
//! *streaming* scenario (ROADMAP item 2) instead delivers the workload
//! as an ordered sequence of windows whose template mix may drift. A
//! [`DriftSchedule`] is a pure function `(generator, window, seed) →
//! workload`, so streams are exactly as deterministic as the static
//! pipeline: the same schedule, window index, and seed always yield the
//! bit-identical workload, on any thread.

use crate::generator::WorkloadGenerator;
use pipa_sim::{SimResult, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// SplitMix64 mix of a base seed and a window index — the same
/// derivation `pipa_core::runner::derive_seed` uses for experiment
/// cells (duplicated here because `pipa-workload` sits below
/// `pipa-core` in the crate graph), so adjacent windows draw
/// statistically independent parameter streams. Shared with
/// [`crate::traffic`], which derives per-template and per-slot
/// parameter streams from the same mix.
pub(crate) fn window_seed(base: u64, window: u64) -> u64 {
    let mut z = base.wrapping_add(window.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How the template mix of a workload stream drifts over windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftSchedule {
    /// No drift at all: every window replays the *identical* workload
    /// (same instantiations, same frequencies — generated once from the
    /// base seed, ignoring the window index). A zero-drift stream is
    /// therefore the paper's static setting delivered window by window,
    /// which is what lets the stream mode reproduce the static pipeline
    /// bit for bit.
    Static,
    /// The template *mix* drifts: window `w` instantiates the cyclic
    /// template subset `[w·stride, w·stride + span)` of the generator's
    /// pool, with fresh parameters and frequencies per window. Small
    /// `stride` models gradual traffic migration; `stride >= span`
    /// models hard mix changes.
    Rotate {
        /// Templates per window.
        span: usize,
        /// Template-index shift between consecutive windows.
        stride: usize,
    },
    /// The template mix stays the full pool, but every window
    /// re-instantiates all templates with fresh parameters and
    /// frequencies — parameter drift without mix drift.
    Resample,
}

impl DriftSchedule {
    /// Short stable label for artifacts and traces.
    pub fn label(self) -> &'static str {
        match self {
            DriftSchedule::Static => "static",
            DriftSchedule::Rotate { .. } => "rotate",
            DriftSchedule::Resample => "resample",
        }
    }

    /// Indexes (into a template pool of `pool` entries) of the
    /// templates active in `window`, in instantiation order. `Static`
    /// and `Resample` keep the full pool; `Rotate` yields the cyclic
    /// subset `[window·stride, window·stride + span)`. This is the
    /// template-mix half of [`Self::window_workload`], exposed so the
    /// [`crate::traffic`] layer can weight exactly the templates a
    /// drifting stream would instantiate.
    pub fn window_template_indices(self, pool: usize, window: u64) -> Vec<usize> {
        match self {
            DriftSchedule::Static | DriftSchedule::Resample => (0..pool).collect(),
            DriftSchedule::Rotate { span, stride } => {
                if pool == 0 {
                    return Vec::new();
                }
                let span = span.clamp(1, pool);
                let base = (window as usize).wrapping_mul(stride);
                (0..span).map(|i| (base + i) % pool).collect()
            }
        }
    }

    /// The clean workload arriving in window `window` of a stream
    /// seeded with `seed`. Pure: same `(schedule, generator, window,
    /// seed)` → bit-identical workload.
    pub fn window_workload(
        self,
        gen: &WorkloadGenerator,
        window: u64,
        seed: u64,
    ) -> SimResult<Workload> {
        match self {
            DriftSchedule::Static => gen.normal(&mut ChaCha8Rng::seed_from_u64(seed)),
            DriftSchedule::Resample => {
                gen.normal(&mut ChaCha8Rng::seed_from_u64(window_seed(seed, window)))
            }
            DriftSchedule::Rotate { .. } => {
                let templates = gen.templates();
                let mut rng = ChaCha8Rng::seed_from_u64(window_seed(seed, window));
                let mut w = Workload::new();
                for ti in self.window_template_indices(templates.len(), window) {
                    w.push(
                        templates[ti].instantiate(gen.schema(), &mut rng)?,
                        rng.gen_range(1..=crate::generator::MAX_FREQUENCY),
                    );
                }
                Ok(w)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch;

    fn gen() -> WorkloadGenerator {
        WorkloadGenerator::new(tpch::schema(), tpch::default_templates())
    }

    #[test]
    fn static_schedule_ignores_the_window_index() {
        let g = gen();
        let w0 = DriftSchedule::Static.window_workload(&g, 0, 9).unwrap();
        let w5 = DriftSchedule::Static.window_workload(&g, 5, 9).unwrap();
        assert_eq!(w0, w5, "zero drift must replay the identical workload");
        // And it is exactly the generator's normal workload for the seed.
        let direct = g.normal(&mut ChaCha8Rng::seed_from_u64(9)).unwrap();
        assert_eq!(w0, direct);
    }

    #[test]
    fn resample_drifts_parameters_but_not_the_mix() {
        let g = gen();
        let w0 = DriftSchedule::Resample.window_workload(&g, 0, 9).unwrap();
        let w1 = DriftSchedule::Resample.window_workload(&g, 1, 9).unwrap();
        assert_eq!(w0.len(), w1.len(), "full pool every window");
        assert!(w0.is_disjoint_from(&w1), "fresh parameters per window");
    }

    #[test]
    fn rotate_shifts_the_template_subset() {
        let g = gen();
        let d = DriftSchedule::Rotate { span: 6, stride: 2 };
        let w0 = d.window_workload(&g, 0, 3).unwrap();
        let w1 = d.window_workload(&g, 1, 3).unwrap();
        assert_eq!(w0.len(), 6);
        assert_eq!(w1.len(), 6);
        assert_ne!(
            w0.filter_columns(),
            w1.filter_columns(),
            "a stride-2 rotation over distinct templates moves the column mix"
        );
    }

    #[test]
    fn rotate_span_clamps_to_the_pool() {
        let g = gen();
        let d = DriftSchedule::Rotate {
            span: 999,
            stride: 1,
        };
        let w = d.window_workload(&g, 0, 3).unwrap();
        assert_eq!(w.len(), g.templates().len());
    }

    #[test]
    fn schedules_are_pure_functions_of_their_inputs() {
        let g = gen();
        for d in [
            DriftSchedule::Static,
            DriftSchedule::Resample,
            DriftSchedule::Rotate { span: 4, stride: 3 },
        ] {
            let a = d.window_workload(&g, 7, 11).unwrap();
            let b = d.window_workload(&g, 7, 11).unwrap();
            assert_eq!(a, b, "{}", d.label());
        }
    }

    #[test]
    fn window_template_indices_match_the_rotate_subset() {
        let d = DriftSchedule::Rotate { span: 3, stride: 2 };
        assert_eq!(d.window_template_indices(5, 0), vec![0, 1, 2]);
        assert_eq!(d.window_template_indices(5, 1), vec![2, 3, 4]);
        assert_eq!(d.window_template_indices(5, 2), vec![4, 0, 1]);
        assert_eq!(
            DriftSchedule::Static.window_template_indices(3, 9),
            vec![0, 1, 2]
        );
        assert!(DriftSchedule::Rotate { span: 2, stride: 1 }
            .window_template_indices(0, 4)
            .is_empty());
    }

    #[test]
    fn window_seed_matches_the_runner_derivation() {
        // Keep the local SplitMix64 in lock-step with
        // `pipa_core::runner::derive_seed` (reference value of the
        // published algorithm for seed 0, first output).
        assert_eq!(window_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(window_seed(10, 1), window_seed(11, 0));
    }
}
