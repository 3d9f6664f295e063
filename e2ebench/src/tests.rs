//! The wrappers are transparent and the traced run's accounting closes,
//! on a tiny Test-preset cell and stream.

use super::check_conservation;
use crate::trace;
use crate::workloads::{Cells, Scenario, Streams};
use crate::wrap;
use pipa::core::experiment::CellConfig;
use pipa::ia::SpeedPreset;
use pipa::workload::Benchmark;

fn test_config() -> CellConfig {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg.injection_size = 6;
    cfg
}

/// Run units plain and traced; the outcomes must be equal, and the
/// traced units' spans must split each unit's wall time exactly.
fn assert_transparent(scenario: &Scenario, units: u64) {
    let _serial = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    wrap::register_timed("dbabandit");
    let me = trace::current_thread();
    trace::take();
    for unit in 0..units {
        let plain = scenario.plain_unit(unit).expect("plain unit runs");
        let traced = scenario.traced_unit(unit).expect("traced unit runs");
        assert_eq!(plain, traced, "unit {unit}");
        plain.check().expect("outcome passes the output checks");
    }
    trace::set_unit(None);
    let spans: Vec<trace::Span> = trace::take()
        .into_iter()
        .filter(|s| s.thread == me)
        .collect();
    let totals = trace::totals(&spans);
    assert_eq!(totals.get(trace::UNIT_SPAN).calls, units);
    assert!(totals.get("cost.estimate").calls > 0, "{totals:?}");
    assert!(totals.get("ia.train").calls > 0, "{totals:?}");
    check_conservation(&spans).expect("self times sum to unit wall time");
}

#[test]
fn wrappers_are_transparent_on_a_cell() {
    let cells = Cells::new(test_config(), "dbabandit", 5, true).expect("set-up runs");
    assert_transparent(&Scenario::Cell(cells), 2);
}

#[test]
fn wrappers_are_transparent_on_a_stream() {
    let streams = Streams::new(test_config(), 5, true).expect("set-up runs");
    assert_transparent(&Scenario::Stream(streams), 2);
}
