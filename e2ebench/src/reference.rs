//! The reference kernel: fixed work that belongs to the benchmark, not
//! to the program, timed between units to measure how fast the host
//! runs at that moment.
//!
//! On a shared host a core's speed moves by tens of percent over
//! seconds to minutes, and every unit slows down with it. The gated
//! timings are therefore reported in `ref`: the kernel runs before the
//! first unit and after every unit, and each unit's time is divided by
//! the mean of the two runs around it (see [`RefClock`]). A change to
//! the program moves the ratio; a change in the host's speed moves both
//! sides and cancels.
//!
//! The kernel mixes the kinds of work the program does: random
//! read-modify-write over a table larger than the caches (the executor
//! and the benefit matrix), small dense matrix products (the NN
//! kernels) and hash-map inserts (the what-if caches). It runs on as
//! many threads as the workload does, one lane each, so it measures
//! the cores the workload runs on.
//!
//! A kernel on more than one thread leaves the table out, and its time
//! is the mean of its lanes' own times. Two lanes of random access over
//! 16 MiB each contend with each other for memory, which the fleet's
//! sessions, on small tapes and models, do not: with the table, the
//! two-lane kernel moved more from run to run than the fleet did, and
//! dividing by it widened the spread of the fleet's timings.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The kernel's time on one thread of a 2-vCPU cloud VM (Xeon, 2.0 GHz)
/// at a quiet moment. `setup_s` must be stated in seconds, so it is
/// given in `ref` times this: the set-up's seconds at that speed.
pub const NOMINAL_S: f64 = 0.040;

/// Unit times taken between runs of the reference kernel, in seconds and
/// in `ref`. An interval is the time from the end of one reference run
/// to the start of the next. It and the unit times measured in it are
/// divided by the mean of those two runs, the host's speed around them.
pub struct RefClock {
    reference: Reference,
    /// The last reference run, in seconds.
    last: f64,
    opened: Instant,
    /// Every reference run, in seconds.
    pub refs: Vec<f64>,
    /// Unit wall times in seconds, and the same in `ref`.
    pub walls: Vec<f64>,
    pub scaled: Vec<f64>,
    /// Summed interval time, in seconds and in `ref`.
    pub measured_s: f64,
    pub measured_ref: f64,
}

impl RefClock {
    /// Run the kernel on `threads` threads and open the first interval.
    pub fn start(threads: usize) -> RefClock {
        let mut reference = Reference::new(threads);
        let last = reference.time();
        RefClock {
            reference,
            last,
            opened: Instant::now(),
            refs: vec![last],
            walls: Vec::new(),
            scaled: Vec::new(),
            measured_s: 0.0,
            measured_ref: 0.0,
        }
    }

    /// Close the interval with the unit times `walls` measured in it, run
    /// the kernel, and open the next interval.
    pub fn lap(&mut self, walls: &[f64]) {
        let interval = self.opened.elapsed().as_secs_f64();
        let next = self.reference.time();
        self.record(interval, walls, next);
        self.opened = Instant::now();
    }

    fn record(&mut self, interval: f64, walls: &[f64], next: f64) {
        let local = (self.last + next) / 2.0;
        self.measured_s += interval;
        self.measured_ref += interval / local;
        self.walls.extend_from_slice(walls);
        self.scaled.extend(walls.iter().map(|w| w / local));
        self.refs.push(next);
        self.last = next;
    }
}

/// Words of the random-access table: 16 MiB.
const TABLE_WORDS: usize = 1 << 21;
const TABLE_STEPS: usize = 1_500_000;
/// Side of the square matrices, and products per run.
const DIM: usize = 64;
const MATMULS: usize = 60;
const MAP_INSERTS: u64 = 200_000;
const MAP_KEYS: u64 = 50_000;

/// One thread's working set. It is allocated once, so a timed run does
/// not time the first touch of fresh pages. An empty table leaves the
/// random access out.
struct Lane {
    table: Vec<u64>,
    a: Vec<f32>,
    c: Vec<f32>,
}

impl Lane {
    fn new(table: bool) -> Lane {
        Lane {
            table: if table {
                vec![1; TABLE_WORDS]
            } else {
                Vec::new()
            },
            a: (0..DIM * DIM).map(|i| (i % 7) as f32 * 0.1).collect(),
            c: vec![0.0; DIM * DIM],
        }
    }

    /// Do the lane's work once and return its wall time in seconds.
    fn run(&mut self) -> f64 {
        let started = Instant::now();
        let sink = self.work();
        let wall = started.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        wall
    }

    /// The same work on every call; the result only keeps the compiler
    /// from dropping it.
    fn work(&mut self) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        let words = self.table.len();
        for _ in 0..if words > 0 { TABLE_STEPS } else { 0 } {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize % words];
            *slot = slot.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(x);
            acc = acc.wrapping_add(*slot);
        }
        for _ in 0..MATMULS {
            for i in 0..DIM {
                for k in 0..DIM {
                    let aik = self.a[i * DIM + k];
                    for j in 0..DIM {
                        self.c[i * DIM + j] += aik * self.a[k * DIM + j];
                    }
                }
            }
        }
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for i in 0..MAP_INSERTS {
            *map.entry(i.wrapping_mul(2_654_435_761) % MAP_KEYS)
                .or_default() += i;
        }
        acc ^ self.c[DIM + 1].to_bits() as u64 ^ map.len() as u64
    }
}

/// The reference kernel at a workload's parallelism.
pub struct Reference {
    lanes: Vec<Lane>,
}

impl Reference {
    /// A kernel that runs on `threads` threads at once; only a
    /// one-thread kernel has the table.
    pub fn new(threads: usize) -> Reference {
        let threads = threads.max(1);
        Reference {
            lanes: (0..threads).map(|_| Lane::new(threads == 1)).collect(),
        }
    }

    /// Run every lane once, at the same time, and return the mean of
    /// their wall times in seconds.
    pub fn time(&mut self) -> f64 {
        let walls: Vec<f64> = match &mut self.lanes[..] {
            [lane] => vec![lane.run()],
            lanes => std::thread::scope(|s| {
                let runs: Vec<_> = lanes.iter_mut().map(|l| s.spawn(|| l.run())).collect();
                runs.into_iter()
                    .map(|r| r.join().expect("a reference lane panicked"))
                    .collect()
            }),
        };
        walls.iter().sum::<f64>() / walls.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_interval_is_divided_by_the_runs_around_it() {
        let mut clock = RefClock::start(1);
        clock.last = 0.04;
        clock.record(1.2, &[1.0], 0.06);
        clock.record(2.0, &[0.5, 1.5], 0.04);
        clock.record(0.1, &[], 0.04);
        assert_eq!(clock.walls, [1.0, 0.5, 1.5]);
        assert_eq!(clock.scaled, [1.0 / 0.05, 0.5 / 0.05, 1.5 / 0.05]);
        assert_eq!(clock.measured_s, 1.2 + 2.0 + 0.1);
        assert_eq!(clock.measured_ref, 1.2 / 0.05 + 2.0 / 0.05 + 0.1 / 0.04);
        assert_eq!(clock.refs.len(), 4);
    }

    #[test]
    fn a_run_does_the_same_work_on_every_lane() {
        assert_eq!(Lane::new(true).work(), Lane::new(true).work());
        assert_eq!(Lane::new(false).work(), Lane::new(false).work());
        assert_eq!(Reference::new(1).lanes[0].table.len(), TABLE_WORDS);
        let mut reference = Reference::new(2);
        assert!(reference.time() > 0.0);
        assert_eq!(reference.lanes.len(), 2);
        assert!(reference.lanes.iter().all(|l| l.table.is_empty()));
    }
}
