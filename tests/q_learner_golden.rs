//! Golden outcomes of the two Q-learning advisors, DQN and DRLindex.
//!
//! Each `-b`/`-m` variant runs `train(W)` → `recommend(W)` →
//! `recommend(W)` → `retrain(W ∪ W′)` → `recommend(W)` at the Test
//! preset and a fixed seed, on a normal TPC-H and a normal TPC-DS
//! workload. The test pins a hash of every reward trace's bits (one
//! trace after each call) and the index names of every recommendation.
//!
//! The sequence covers recommend's save-and-restore: two recommends in a
//! row start from the same parameters and replay buffer, though not the
//! same RNG state. It also covers the DQN target network's state across
//! calls: the trials re-sync the target and recommend does not restore
//! it, so the second recommend and the retrain bootstrap from trial
//! weights. Any change to an RNG draw, a float operation or their order
//! moves these bits.

use pipa::cost::{CostBackend, SimBackend};
use pipa::ia::{AdvisorSpec, BuildCtx, IndexAdvisor, SpeedPreset, TrajectoryMode};
use pipa::sim::IndexConfig;
use pipa::workload::{Benchmark, WorkloadGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 7;

/// FNV-1a over 64-bit words.
fn mix(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn names(cost: &dyn CostBackend, cfg: &IndexConfig) -> String {
    let schema = cost.catalog().schema;
    let names: Vec<String> = cfg.indexes().iter().map(|i| i.name(schema)).collect();
    names.join(",")
}

/// The reward-trace hash and the three recommendations of one run.
fn run(spec: &AdvisorSpec, bench: Benchmark) -> (u64, [String; 3]) {
    let cost = SimBackend::new(bench.database(1.0, None));
    let gen = WorkloadGenerator::new(bench.schema(), bench.default_templates());
    let w = gen
        .normal(&mut ChaCha8Rng::seed_from_u64(SEED))
        .expect("normal workload");
    let w2 = gen
        .normal(&mut ChaCha8Rng::seed_from_u64(SEED + 1))
        .expect("normal workload");
    let mut ia = spec
        .build_with(BuildCtx::new(SpeedPreset::Test, SEED))
        .expect("built-in kind");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut trace = |ia: &dyn IndexAdvisor| {
        mix(&mut hash, ia.reward_trace().len() as u64);
        for r in ia.reward_trace() {
            mix(&mut hash, r.to_bits());
        }
    };
    ia.train(&cost, &w).expect("train");
    trace(&ia);
    let first = ia.recommend(&cost, &w).expect("recommend");
    trace(&ia);
    let second = ia.recommend(&cost, &w).expect("recommend");
    trace(&ia);
    ia.retrain(&cost, &w.union(&w2)).expect("retrain");
    trace(&ia);
    let third = ia.recommend(&cost, &w).expect("recommend");
    trace(&ia);
    (
        hash,
        [
            names(&cost, &first),
            names(&cost, &second),
            names(&cost, &third),
        ],
    )
}

fn check(spec: AdvisorSpec, golden: [(Benchmark, u64, [&str; 3]); 2]) {
    let moved: Vec<String> = golden
        .into_iter()
        .filter_map(|(bench, want_hash, want_names)| {
            let (hash, got) = run(&spec, bench);
            (hash != want_hash || got != want_names).then(|| {
                format!(
                    "{}: hash {hash:#018x}, recommendations {got:?}",
                    bench.name()
                )
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} outcomes moved:\n{}",
        spec.label(),
        moved.join("\n")
    );
}

#[test]
fn dqn_b_outcomes_are_golden() {
    check(
        AdvisorSpec::new("dqn").mode(TrajectoryMode::Best),
        [
            (
                Benchmark::TpcH,
                0x817b6dc2ae3ce9bf,
                [
                    "idx_lineitem_l_orderkey,idx_lineitem_l_receiptdate,idx_lineitem_l_shipdate,idx_lineitem_l_partkey",
                    "idx_lineitem_l_partkey,idx_lineitem_l_orderkey,idx_lineitem_l_receiptdate,idx_lineitem_l_shipdate",
                    "idx_lineitem_l_orderkey,idx_lineitem_l_receiptdate,idx_lineitem_l_shipdate,idx_lineitem_l_partkey",
                ],
            ),
            (
                Benchmark::TpcDs,
                0x2d012732be787e70,
                [
                    "idx_inventory_inv_date_sk,idx_store_sales_ss_item_sk,idx_customer_demographics_cd_demo_sk,idx_store_returns_sr_returned_date_sk",
                    "idx_inventory_inv_date_sk,idx_store_sales_ss_item_sk,idx_date_dim_d_date_sk,idx_customer_demographics_cd_demo_sk",
                    "idx_inventory_inv_date_sk,idx_store_sales_ss_item_sk,idx_customer_demographics_cd_demo_sk,idx_store_returns_sr_returned_date_sk",
                ],
            ),
        ],
    );
}

#[test]
fn dqn_m_outcomes_are_golden() {
    check(
        AdvisorSpec::new("dqn").mode(TrajectoryMode::MeanLast(100)),
        [
            (
                Benchmark::TpcH,
                0x26d7fadf2674544c,
                [
                    "idx_lineitem_l_shipdate,idx_lineitem_l_orderkey,idx_lineitem_l_receiptdate,idx_lineitem_l_partkey",
                    "idx_lineitem_l_shipdate,idx_lineitem_l_orderkey,idx_lineitem_l_receiptdate,idx_lineitem_l_partkey",
                    "idx_lineitem_l_shipdate,idx_lineitem_l_orderkey,idx_lineitem_l_receiptdate,idx_lineitem_l_partkey",
                ],
            ),
            (
                Benchmark::TpcDs,
                0x4b36bcee52618397,
                [
                    "idx_inventory_inv_date_sk,idx_store_sales_ss_item_sk,idx_catalog_returns_cr_item_sk,idx_warehouse_w_state",
                    "idx_inventory_inv_date_sk,idx_store_sales_ss_item_sk,idx_catalog_returns_cr_item_sk,idx_catalog_returns_cr_net_loss",
                    "idx_inventory_inv_date_sk,idx_customer_demographics_cd_demo_sk,idx_store_sales_ss_item_sk,idx_catalog_sales_cs_item_sk",
                ],
            ),
        ],
    );
}

#[test]
fn drlindex_b_outcomes_are_golden() {
    check(
        AdvisorSpec::new("drlindex").mode(TrajectoryMode::Best),
        [
            (
                Benchmark::TpcH,
                0x11e775b65ff8abf6,
                [
                    "idx_lineitem_l_receiptdate,idx_partsupp_ps_suppkey,idx_lineitem_l_shipdate,idx_orders_o_orderdate",
                    "idx_lineitem_l_receiptdate,idx_partsupp_ps_suppkey,idx_lineitem_l_shipdate,idx_orders_o_orderdate",
                    "idx_lineitem_l_receiptdate,idx_lineitem_l_shipdate,idx_orders_o_orderdate,idx_partsupp_ps_suppkey",
                ],
            ),
            (
                Benchmark::TpcDs,
                0x242d08debc945816,
                [
                    "idx_web_site_web_mkt_id,idx_store_sales_ss_sold_date_sk,idx_web_sales_ws_ext_ship_cost,idx_item_i_item_sk",
                    "idx_date_dim_d_qoy,idx_store_sales_ss_sold_date_sk,idx_item_i_item_sk,idx_item_i_brand_id",
                    "idx_web_sales_ws_net_profit,idx_store_sales_ss_sold_date_sk,idx_catalog_sales_cs_call_center_sk,idx_item_i_brand_id",
                ],
            ),
        ],
    );
}

#[test]
fn drlindex_m_outcomes_are_golden() {
    check(
        AdvisorSpec::new("drlindex").mode(TrajectoryMode::MeanLast(100)),
        [
            (
                Benchmark::TpcH,
                0x61127c0c2f4d12cd,
                [
                    "idx_lineitem_l_receiptdate,idx_lineitem_l_shipdate,idx_orders_o_orderpriority,idx_part_p_partkey",
                    "idx_lineitem_l_receiptdate,idx_lineitem_l_shipdate,idx_orders_o_orderpriority,idx_partsupp_ps_suppkey",
                    "idx_lineitem_l_shipdate,idx_lineitem_l_receiptdate,idx_nation_n_nationkey,idx_orders_o_orderpriority",
                ],
            ),
            (
                Benchmark::TpcDs,
                0xe95dd13607fdca77,
                [
                    "idx_catalog_sales_cs_quantity,idx_web_site_web_mkt_id,idx_store_sales_ss_sold_date_sk,idx_item_i_item_sk",
                    "idx_store_sales_ss_cdemo_sk,idx_store_sales_ss_hdemo_sk,idx_web_sales_ws_item_sk,idx_household_demographics_hd_dep_count",
                    "idx_store_sales_ss_sold_date_sk,idx_web_site_web_mkt_id,idx_store_sales_ss_coupon_amt,idx_item_i_item_sk",
                ],
            ),
        ],
    );
}
