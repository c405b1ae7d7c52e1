//! Host-speed calibration. On a shared host the speed of the machine
//! drifts by up to 2× over minutes with no CPU steal showing, which
//! moves every timing of a run at once. A fixed
//! reference workload — self-contained, so no change to the crates can
//! move it — is timed right beside each measured operation, and the
//! timings are reported as they would read on a host that runs the
//! reference in `REFERENCE_S`.

use crate::splitmix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Wall seconds of one reference pass on the host the figures are
/// scaled to: a round figure near the slowest pass seen on a shared
/// 2-core Xeon VM.
pub const REFERENCE_S: f64 = 0.05;

/// Heap entries and state slots of the reference: a discrete-event loop
/// over a 64 Ki-entry heap touching an 8 MiB table, like the engine's
/// event queue and job arrays.
const EVENTS: usize = 1 << 16;
const SLOTS: usize = 1 << 20;
const STEPS: usize = 150_000;

/// The reference workload's buffers, allocated once.
pub struct Calibrator {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            heap: BinaryHeap::with_capacity(EVENTS),
            state: vec![0.0; SLOTS],
        }
    }

    /// Runs the reference once and returns its wall seconds.
    pub fn pass(&mut self) -> f64 {
        let mut rng = splitmix(0x5eed);
        self.heap.clear();
        self.state.fill(0.0);
        for i in 0..EVENTS {
            self.heap.push(Reverse((rng() >> 24, i as u32)));
        }
        let t = Instant::now();
        for _ in 0..STEPS {
            let Reverse((at, i)) = self.heap.pop().expect("the heap never empties");
            let slot = (at as usize ^ (i as usize).wrapping_mul(0x9e37_79b9)) & (SLOTS - 1);
            let x = self.state[slot] * 0.5 + (at & 0xff) as f64;
            self.state[slot] = x;
            let gap = if x > 200.0 { rng() >> 44 } else { rng() >> 40 };
            self.heap.push(Reverse((at + 1 + gap, i)));
        }
        black_box(&self.state);
        t.elapsed().as_secs_f64()
    }

    /// The factor that turns a time measured now into reference-host
    /// time: `REFERENCE_S` over one pass's time.
    pub fn factor(&mut self) -> f64 {
        REFERENCE_S / self.pass()
    }
}
