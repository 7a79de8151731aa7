//! Layer probes of the traced run: the layers the catalog cell functions
//! call internally (lock-step build and drive, the observer, the cell
//! digest, the batched kernel, the pasted border construction), timed by
//! making their public calls from outside on the cells of one grid seed.
//! Each probe result is checked against the catalog's own record.

use std::collections::BTreeMap;

use kset_bench::sweeps;
use kset_core::algorithms::floodmin::{floodmin_batch, floodmin_rounds, FloodMin, FloodMinLane};
use kset_core::sync::{LockStep, RoundCrash, SyncOutcome};
use kset_core::task::distinct_proposals;
use kset_impossibility::theorem8::border_demo;
use kset_sim::observe::{EventCounter, EventCounts, NoObserver};
use kset_sim::sweep::{CellRecord, GridCell, Observation};
use kset_sim::{stable_fingerprint, Engine, ProcessId};

use crate::trace::Tracer;
use crate::Tally;

/// Step budget the catalog's `border` cells give the pasted construction.
const BORDER_MAX_STEPS: u64 = 300_000;

/// Runs every probe once on the grids of `grid_seed`.
pub fn run(grid_seed: u64, t: &mut Tracer, tally: &mut Tally) {
    let scale = sweeps::grid("scale", grid_seed).expect("catalog grid");
    for cell in &scale.cells {
        let (n, rounds) = (cell.n, floodmin_rounds(cell.f, cell.k));
        let build = || {
            LockStep::new(
                FloodMin::system(&distinct_proposals(n), cell.f, cell.k),
                rounds,
                &scale_cell_crashes(cell),
            )
        };
        let mut plain = build();
        t.span("observe.plain_drive", |_| {
            plain.drive_observed(u64::MAX, &mut NoObserver)
        });
        let mut engine = t.span("sync.lockstep_build", |_| build());
        let mut counter = EventCounter::new();
        let drive = t.span("sync.lockstep_drive", |_| {
            let start = std::time::Instant::now();
            engine.drive_observed(u64::MAX, &mut counter);
            start.elapsed()
        });
        t.sample(
            "sync.ns_per_process_round",
            drive.as_nanos() as f64 / (n * rounds) as f64,
        );
        let counts = counter.counts();
        t.sample("observe.events_per_cell", events(&counts) as f64);
        let outcome = engine.outcome();
        let digest = t.span("sweeps.digest", |_| floodmin_digest(&outcome));
        let probed = CellRecord::new(cell, digest).with_observation(Observation::Counts(counts));
        tally.attempt(probed == scale.record(cell));
    }

    // The batched kernel on the same cells, grouped by shape as the
    // batched sweep groups them.
    let mut shapes: BTreeMap<(usize, usize), Vec<&GridCell>> = BTreeMap::new();
    for cell in &scale.cells {
        shapes
            .entry((cell.n, floodmin_rounds(cell.f, cell.k)))
            .or_default()
            .push(cell);
    }
    for ((n, rounds), cells) in shapes {
        for chunk in cells.chunks(16) {
            let lanes: Vec<FloodMinLane> = chunk
                .iter()
                .map(|cell| FloodMinLane {
                    values: distinct_proposals(n),
                    crashes: scale_cell_crashes(cell),
                })
                .collect();
            let out = t.span("sync.batch_call", |_| floodmin_batch(n, rounds, &lanes));
            t.sample("sync.batch_lanes_per_call", lanes.len() as f64);
            t.sample("sync.batch_lane_rounds", (lanes.len() * rounds) as f64);
            for ((outcome, counts), cell) in out.into_iter().zip(chunk) {
                let lane = CellRecord::new(cell, floodmin_digest(&outcome))
                    .with_observation(Observation::Counts(counts));
                tally.attempt(lane == scale.record(cell));
            }
        }
    }

    let border = sweeps::grid("border", grid_seed).expect("catalog grid");
    for cell in &border.cells {
        let demo = t.span("impossibility.border_demo", |_| {
            border_demo(cell.n, cell.k, BORDER_MAX_STEPS)
        });
        tally.attempt(demo.is_some_and(|d| d.violates_k_agreement()));
    }
}

/// The `scale` grid's crash layout for one cell, as the catalog derives it
/// from the cell seed.
fn scale_cell_crashes(cell: &GridCell) -> Vec<RoundCrash> {
    let GridCell { n, f, k, seed, .. } = *cell;
    let base = (seed as usize) % n;
    (0..f)
        .map(|j| RoundCrash {
            round: 1 + j % floodmin_rounds(f, k),
            pid: ProcessId::new((base + j) % n),
            receivers: ProcessId::all((seed >> 8) as usize % n).collect(),
        })
        .collect()
}

/// The `scale` grid's decision digest.
fn floodmin_digest(out: &SyncOutcome) -> u64 {
    stable_fingerprint(&(
        stable_fingerprint(&out.decisions),
        out.distinct_count(),
        out.rounds,
    ))
}

fn events(c: &EventCounts) -> u64 {
    c.sends + c.delivers + c.fd_samples + c.steps + c.rounds + c.crashes + c.decides + c.halts
}
