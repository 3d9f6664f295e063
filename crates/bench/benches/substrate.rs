//! Criterion micro-benchmarks of the substrate: the hot paths every
//! experiment spends its time in. These guard the performance of the
//! simulator itself (an advisor training run issues tens of thousands of
//! what-if calls; a 2× regression here doubles every experiment).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pipa_ia::IndexEnv;
use pipa_qgen::{parse_words, QueryFsm};
use pipa_sim::{Index, IndexConfig};
use pipa_workload::{generator::WorkloadGenerator, Benchmark};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_cost_model(c: &mut Criterion) {
    let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let gen = WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = gen.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
    let ship = cost.database().schema().column_id("l_shipdate").unwrap();
    let cfg = IndexConfig::from_indexes([Index::single(ship)]);
    let q = w.entries()[2].query.clone();

    c.bench_function("cost/query_estimate", |b| {
        b.iter(|| {
            black_box(
                cost.database()
                    .estimated_query_cost(black_box(&q), black_box(&cfg)),
            )
        })
    });
    c.bench_function("cost/workload_estimate_18q", |b| {
        b.iter(|| {
            black_box(
                cost.database()
                    .estimated_workload_cost(black_box(&w), black_box(&cfg)),
            )
        })
    });
    // The advisors' route: one preview from the empty session per column.
    let env = IndexEnv::new(&cost, &w, Vec::new(), 0).expect("env");
    c.bench_function("cost/single_column_benefit", |b| {
        b.iter(|| black_box(env.single_column_benefit(black_box(ship)).expect("benefit")))
    });
}

fn bench_whatif_greedy(c: &mut Criterion) {
    let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let gen = WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = gen.normal(&mut ChaCha8Rng::seed_from_u64(2)).unwrap();
    c.bench_function("whatif/greedy_budget4", |b| {
        b.iter_batched(
            || pipa_ia::AutoAdminGreedy::new(4),
            |mut ia| {
                use pipa_ia::IndexAdvisor;
                black_box(ia.recommend(&cost, &w).expect("recommend"))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_executor(c: &mut Criterion) {
    let db = Benchmark::TpcH.database(1.0, Some((3, 60_000)));
    let gen = WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = gen.normal(&mut ChaCha8Rng::seed_from_u64(3)).unwrap();
    let q = w.entries()[5].query.clone();
    let ship = db.schema().column_id("l_shipdate").unwrap();
    let cfg = IndexConfig::from_indexes([Index::single(ship)]);
    // Warm the physical-index cache so the bench measures execution.
    let _ = db.actual_query_cost(&q, &cfg);
    c.bench_function("exec/query_actual_60k_rows", |b| {
        b.iter(|| black_box(db.actual_query_cost(black_box(&q), black_box(&cfg))))
    });
}

fn bench_fsm_and_parser(c: &mut Criterion) {
    let schema = Benchmark::TpcH.schema();
    c.bench_function("qgen/fsm_generate", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        b.iter(|| black_box(QueryFsm::generate(&schema, &mut rng, None)))
    });
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let words = QueryFsm::generate(&schema, &mut rng, None);
    c.bench_function("qgen/parse_words", |b| {
        b.iter(|| black_box(parse_words(&schema, black_box(&words)).unwrap()))
    });
}

fn bench_nn(c: &mut Criterion) {
    use pipa_nn::{mlp::Activation, Mlp, ParamStore, Tensor};
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let mut store = ParamStore::new();
    let mlp = Mlp::new(&mut store, "m", &[122, 64, 61], Activation::Relu, &mut rng);
    let x = Tensor::zeros(16, 122);
    c.bench_function("nn/mlp_infer_batch16", |b| {
        b.iter(|| black_box(mlp.infer(&store, black_box(&x))))
    });

    let a = Tensor::full(48, 48, 0.5);
    let bt = Tensor::full(48, 48, 0.25);
    c.bench_function("nn/matmul_48x48", |b| {
        b.iter(|| black_box(a.matmul(black_box(&bt))))
    });
}

fn bench_probing_epoch(c: &mut Criterion) {
    use pipa_core::probe::{probe, ProbeConfig};
    use pipa_ia::{AdvisorKind, BuildCtx, SpeedPreset, TrajectoryMode};
    let cost = pipa_cost::SimBackend::new(Benchmark::TpcH.database(1.0, None));
    let gen = WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    );
    let w = gen.normal(&mut ChaCha8Rng::seed_from_u64(7)).unwrap();
    let mut advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best)
        .build_with(BuildCtx::new(SpeedPreset::Test, 7));
    advisor.train(&cost, &w).expect("train");
    c.bench_function("pipa/probe_2_epochs", |b| {
        b.iter_batched(
            || pipa_qgen::StGenerator::new(7),
            |mut g| {
                let cfg = ProbeConfig {
                    epochs: 2,
                    queries_per_epoch: 6,
                    ..Default::default()
                };
                fn up(a: &mut dyn pipa_ia::ClearBoxAdvisor) -> &mut dyn pipa_ia::IndexAdvisor {
                    a
                }
                black_box(probe(up(advisor.as_mut()), &cost, &mut g, &cfg).expect("probe"))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets =
        bench_cost_model,
        bench_whatif_greedy,
        bench_executor,
        bench_fsm_and_parser,
        bench_nn,
        bench_probing_epoch
);
criterion_main!(benches);
