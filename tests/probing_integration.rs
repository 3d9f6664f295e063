//! Integration tests of the probing stage against real advisors: the
//! estimated indexing preference must track what the victim actually
//! prefers.

use pipa::core::preference::{oracle_preference, segment, SegmentConfig};
use pipa::core::probe::{probe, ProbeConfig};
use pipa::ia::{AdvisorKind, BuildCtx, IndexAdvisor, SpeedPreset, TrajectoryMode};
use pipa::qgen::StGenerator;
use pipa::cost::SimBackend;
use pipa::sim::Workload;
use pipa::workload::Benchmark;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn setup() -> (SimBackend, Workload) {
    let db = SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let g = pipa::workload::generator::WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = g.normal(&mut ChaCha8Rng::seed_from_u64(31)).unwrap();
    (db, w)
}

#[test]
fn probing_recovers_the_victims_top_preference() {
    let (db, w) = setup();
    let mut advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best)
        .build_with(BuildCtx::new(SpeedPreset::Test, 31));
    advisor.train(&db, &w).expect("train");
    // What the victim actually recommends for its training workload.
    let actual = advisor.recommend(&db, &w).expect("recommend");
    let actual_leading = actual.leading_columns();

    let mut generator = StGenerator::new(31);
    let cfg = ProbeConfig {
        epochs: 8,
        queries_per_epoch: 12,
        seed: 31,
        ..Default::default()
    };
    let res = probe(as_ia(advisor.as_mut()), &db, &mut generator, &cfg).expect("probe");
    // The probed top segment should intersect the victim's actual picks.
    let seg = segment(&res.preference, db.database().schema(), &SegmentConfig::default());
    let overlap = seg
        .top
        .iter()
        .chain(seg.mid.iter().take(4))
        .filter(|c| actual_leading.contains(c))
        .count();
    assert!(
        overlap >= 1,
        "probing must surface at least one of the victim's actual picks; \
         top+mid4 = {:?}, actual = {:?}",
        seg.top,
        actual_leading
    );
}

#[test]
fn probed_ranking_correlates_with_the_oracle() {
    // Spearman-style sanity: the probed top-5 of a what-if-driven victim
    // should rank high in the oracle preference too.
    let (db, w) = setup();
    let mut advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best)
        .build_with(BuildCtx::new(SpeedPreset::Test, 37));
    advisor.train(&db, &w).expect("train");
    let mut generator = StGenerator::new(37);
    let cfg = ProbeConfig {
        epochs: 8,
        queries_per_epoch: 12,
        seed: 37,
        ..Default::default()
    };
    let res = probe(as_ia(advisor.as_mut()), &db, &mut generator, &cfg).expect("probe");
    let oracle = oracle_preference(&db, &w).expect("oracle preference");
    let mean_oracle_rank: f64 = res
        .preference
        .ranking
        .iter()
        .take(5)
        .map(|&c| oracle.rank_of(c) as f64)
        .sum::<f64>()
        / 5.0;
    // Random columns would average rank ≈ 30 of 61.
    assert!(
        mean_oracle_rank < 25.0,
        "probed top-5 should be oracle-high, mean oracle rank {mean_oracle_rank}"
    );
}

#[test]
fn more_probing_epochs_never_lose_information() {
    let (db, w) = setup();
    let run_probe = |epochs: usize| {
        let mut advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best)
            .build_with(BuildCtx::new(SpeedPreset::Test, 41));
        advisor.train(&db, &w).expect("train");
        let mut generator = StGenerator::new(41);
        let cfg = ProbeConfig {
            epochs,
            queries_per_epoch: 8,
            seed: 41,
            ..Default::default()
        };
        probe(as_ia(advisor.as_mut()), &db, &mut generator, &cfg).expect("probe")
    };
    let small = run_probe(2);
    let large = run_probe(10);
    assert!(large.epochs_run >= small.epochs_run);
    assert!(
        large.preference.num_positive() >= small.preference.num_positive(),
        "more epochs observe at least as many columns"
    );
}

#[test]
fn zero_probing_epochs_yield_prior_only_ranking() {
    let (db, w) = setup();
    let mut advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best)
        .build_with(BuildCtx::new(SpeedPreset::Test, 43));
    advisor.train(&db, &w).expect("train");
    let mut generator = StGenerator::new(43);
    let cfg = ProbeConfig {
        epochs: 0,
        queries_per_epoch: 8,
        seed: 43,
        ..Default::default()
    };
    let res = probe(as_ia(advisor.as_mut()), &db, &mut generator, &cfg).expect("probe");
    assert_eq!(res.epochs_run, 0);
    assert_eq!(res.preference.ranking.len(), 61);
}

fn as_ia(a: &mut dyn pipa::ia::ClearBoxAdvisor) -> &mut dyn IndexAdvisor {
    a
}
