//! # pipa-obs — deterministic observability for the PIPA stress-test stack
//!
//! A zero-dependency span/counter/event layer threaded through every crate
//! (`pipa-sim` what-if lookups and executor page accesses, `pipa-ia`
//! training timings and reward traces, `pipa-core` harness stages). The
//! experiment binaries expose it as `--trace <path>` (events) and
//! `--metrics-out <path>` (timings).
//!
//! ## The two channels
//!
//! Instrumentation records into two separate streams with different
//! contracts:
//!
//! * the **trace** channel carries semantic events (phase transitions,
//!   probing epochs, counters, reward traces, stress outcomes). Every
//!   value in it is a pure function of the experiment's seeds, so the
//!   rendered JSONL is **byte-identical** across `--jobs 1` and
//!   `--jobs N` — the same determinism contract the result artifacts
//!   already obey (see `DESIGN.md`);
//! * the **metrics** channel carries wall-clock timings ([`timer`]),
//!   which are inherently nondeterministic and therefore quarantined in
//!   their own stream. Everything else about a metrics line (ordering,
//!   context fields) is still deterministic.
//!
//! ## How recording works
//!
//! Each experiment cell runs entirely on one thread, so the recorder is
//! thread-local: [`record_cell`] installs it, the instrumented code calls
//! the free functions ([`phase`], [`emit`], [`count`], [`metric`],
//! [`timer`]) without carrying a handle, and the finished
//! [`CellTrace`] is returned to the caller. The parallel runner buffers
//! one `CellTrace` per cell and flushes them **in input order**, which is
//! what makes the concatenated stream independent of thread scheduling.
//!
//! When no cell is being recorded every instrumentation point is a single
//! relaxed atomic load — cheap enough to leave in the hot paths
//! unconditionally (<5% on the runner benchmark).
//!
//! ## Line format
//!
//! One JSON object per line. Every line carries the required fields
//! `event`, `cell_seed` and `phase`, then any cell-context fields
//! (advisor, injector, run) followed by event-specific fields. Field
//! order is fixed by construction, never by a hash map, so rendering is
//! reproducible. [`json::top_level_keys`] provides the minimal validating
//! parser that `trace_lint` and CI use to check these invariants.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod recorder;
pub mod sink;

pub use event::{Event, Value};
pub use recorder::{
    count, emit, is_recording, metric, phase, record_cell, timer, CellCtx, CellTrace, Timer,
};
pub use sink::{JsonlSink, MemorySink, NoopSink, Sink, TraceOutputs};
