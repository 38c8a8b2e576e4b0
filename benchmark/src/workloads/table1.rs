//! `table1`: the paper's five Table I rows, baseline against protected.
//!
//! Each operation is the one `overhaul_bench::table1` defines (so the row
//! definitions live in one place): a device open and close, an ICCCM
//! paste, a root-window capture, an 8-byte shared-memory store, and a file
//! create/stat/unlink cycle. Every row has a baseline machine (Overhaul
//! off) and a protected one (grant-all mode, so every check runs and every
//! operation succeeds). Rows run as chunk pairs, alternating which side
//! goes first, so slow drift in the host hits both sides alike.
//!
//! One round runs every row and checks each for mediation evidence. The
//! end-to-end numbers come from one row only, the clipboard paste
//! (`E2E_ROW`): the round's rate is protected pastes per second of
//! protected paste time, and each protected paste chunk adds its per-paste
//! time as one latency sample. Rows differ in cost by four orders of
//! magnitude, so a figure mixing them would measure whichever row its
//! median or its total happened to fall in. The other rows are reported
//! per layer, from the traced run's probe.

use std::time::{Duration, Instant};

use overhaul_bench::table1::{
    clipboard_iter, clipboard_setup, device_iter, device_setup, fs_iter, fs_setup, screen_iter,
    screen_setup, shm_iter, shm_setup,
};
use overhaul_core::System;
use overhaul_sim::SimRng;

use super::{Checks, Round, Workload};
use crate::hist::Histogram;
use crate::spans::Spans;

/// Pages in the shared-memory row's segment (as `table1::run_all`).
const SHM_PAGES: usize = 64;
/// The row the end-to-end metrics measure: the clipboard paste, the one
/// row whose operation runs the whole input-driven path (an X selection
/// conversion, a netlink permission query and the kernel's decision).
const E2E_ROW: usize = 1;

/// One Table I row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Short name (metric names use it).
    pub name: &'static str,
    /// Whether the protected machine records mediation evidence.
    mediated: bool,
    span_base: &'static str,
    span_prot: &'static str,
}

/// The five rows, in the paper's order.
pub const ROWS: [Row; 5] = [
    Row {
        name: "device",
        mediated: true,
        span_base: "device.open_close.base",
        span_prot: "device.open_close.prot",
    },
    Row {
        name: "clipboard",
        mediated: true,
        span_base: "xserver.paste.base",
        span_prot: "xserver.paste.prot",
    },
    Row {
        name: "screen",
        mediated: true,
        span_base: "xserver.get_image.base",
        span_prot: "xserver.get_image.prot",
    },
    Row {
        name: "shm",
        mediated: true,
        span_base: "mm.shm_write.base",
        span_prot: "mm.shm_write.prot",
    },
    Row {
        name: "fs",
        mediated: false,
        span_base: "vfs.file_cycle.base",
        span_prot: "vfs.file_cycle.prot",
    },
];

/// Round size: chunk pairs per row and operations per chunk.
#[derive(Debug, Clone, Copy)]
pub struct Table1Size {
    /// Chunk pairs per row, in `ROWS` order.
    pub pairs: [usize; 5],
    /// Operations per chunk, in `ROWS` order.
    pub ops: [u64; 5],
}

/// A baseline and a protected machine for one row.
trait RowPair {
    /// Runs `n` operations on one side; returns their wall time.
    fn chunk(&mut self, protected: bool, n: u64) -> Duration;
    /// Mediation evidence on one side: monitor grants, or page faults
    /// for the shared-memory row.
    fn evidence(&self, protected: bool) -> u64;
}

struct PairOf<B> {
    base: B,
    prot: B,
    iter: fn(&mut B),
    system: fn(&B) -> &System,
    shm: bool,
}

impl<B> RowPair for PairOf<B> {
    fn chunk(&mut self, protected: bool, n: u64) -> Duration {
        let PairOf {
            base, prot, iter, ..
        } = self;
        let bench = if protected { prot } else { base };
        let t = Instant::now();
        for _ in 0..n {
            iter(bench);
        }
        t.elapsed()
    }

    fn evidence(&self, protected: bool) -> u64 {
        let kernel = (self.system)(if protected { &self.prot } else { &self.base }).kernel();
        if self.shm {
            kernel.mm_stats().faults
        } else {
            kernel.monitor_stats().grants
        }
    }
}

fn pair<B: 'static>(
    setup: impl Fn(bool) -> B,
    iter: fn(&mut B),
    system: fn(&B) -> &System,
    shm: bool,
) -> Box<dyn RowPair> {
    Box::new(PairOf {
        base: setup(false),
        prot: setup(true),
        iter,
        system,
        shm,
    })
}

/// The workload state.
pub struct Table1 {
    size: Table1Size,
    rows: Vec<Box<dyn RowPair>>,
    rng: SimRng,
    /// Per-row protected ÷ baseline per-op time, one entry per pair.
    pub ratios: [Vec<f64>; 5],
}

impl Table1 {
    /// Page faults the protected shared-memory machine has taken.
    pub fn shm_faults(&self) -> u64 {
        self.rows[3].evidence(true)
    }
}

impl Workload for Table1 {
    const NAME: &'static str = "table1";
    const ROUNDS_PER_S: f64 = 1.9;
    const ROUNDS_ALIKE: bool = true;
    type Size = Table1Size;

    /// Most of a round is clipboard pairs; the other rows run just enough
    /// to be checked.
    fn full() -> Table1Size {
        Table1Size {
            pairs: [2, 20, 1, 2, 2],
            ops: [200, 10, 1, 4_096, 50],
        }
    }

    fn setup(seed: u64, size: Table1Size) -> Self {
        let rows = vec![
            pair(device_setup, device_iter, |b| &b.system, false),
            pair(clipboard_setup, clipboard_iter, |b| &b.system, false),
            pair(screen_setup, screen_iter, |b| &b.system, false),
            pair(|p| shm_setup(p, SHM_PAGES), shm_iter, |b| &b.system, true),
            pair(fs_setup, fs_iter, |b| &b.system, false),
        ];
        Table1 {
            size,
            rows,
            rng: SimRng::seeded(seed),
            ratios: Default::default(),
        }
    }

    fn round(&mut self, spans: &mut Spans, lat: &mut Histogram, checks: &mut Checks) -> Round {
        // The seed orders the rows within each round.
        let mut order = [0, 1, 2, 3, 4];
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.range(0, i as u64 + 1) as usize);
        }
        let mut ops = 0u64;
        let mut busy = Duration::ZERO;
        for i in order {
            let (row, n) = (ROWS[i], self.size.ops[i]);
            for _ in 0..self.size.pairs[i] {
                let prot_first = self.ratios[i].len() % 2 == 1;
                let mut base = Duration::ZERO;
                let mut prot = Duration::ZERO;
                for protected in [prot_first, !prot_first] {
                    let name = if protected {
                        row.span_prot
                    } else {
                        row.span_base
                    };
                    let span = spans.enter(name);
                    let d = self.rows[i].chunk(protected, n);
                    spans.exit(span, n);
                    *(if protected { &mut prot } else { &mut base }) = d;
                }
                let (base_ns, prot_ns) = (
                    base.as_nanos() as f64 / n as f64,
                    prot.as_nanos() as f64 / n as f64,
                );
                self.ratios[i].push(prot_ns / base_ns);
                if i == E2E_ROW {
                    lat.record(prot_ns.round() as u64);
                    ops += n;
                    busy += prot;
                }
                // Both sides ran `n` operations; a failing one panics.
                checks.attempted += 2 * n;
            }
            let (base_ev, prot_ev) = (self.rows[i].evidence(false), self.rows[i].evidence(true));
            checks.check(base_ev == 0 && (prot_ev > 0) == row.mediated, || {
                format!(
                    "{} row: baseline evidence {base_ev}, protected {prot_ev}",
                    row.name
                )
            });
        }
        Round { ops, busy }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Sizes for smoke tests only.
    pub fn tiny() -> Table1Size {
        Table1Size {
            pairs: [2, 1, 1, 2, 2],
            ops: [20, 2, 1, 4_096, 5],
        }
    }

    #[test]
    fn protected_rows_mediate_and_baselines_do_not() {
        let mut t = Table1::setup(1, tiny());
        let mut checks = Checks::default();
        let r = t.round(&mut Spans::off(), &mut Histogram::default(), &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.first_failure);
        let pastes = tiny().pairs[E2E_ROW] as u64 * tiny().ops[E2E_ROW];
        assert_eq!(r.ops, pastes, "only the clipboard row counts end to end");
        assert!(r.busy > Duration::ZERO);
        assert!(t.ratios.iter().all(|r| !r.is_empty()));
    }
}
