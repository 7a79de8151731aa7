//! The sharded-sweep grid catalog: the named grids CI shards across
//! processes, with their deterministic per-cell decision digests.
//!
//! The `experiments` binary (`sweep` / `merge` subcommands), the
//! integration tests and the shard-matrix CI workflow all resolve grid
//! names through this one module, so "grid `border` under seed 42" means
//! the same cell list and the same digest function everywhere. The
//! conformance claim the CI gate checks is: merging the [`ShardFile`](kset_sim::sweep::ShardFile)s of
//! any full shard partition reproduces, **byte for byte**, the file a
//! sequential single-process sweep writes.
//!
//! Two grids are registered:
//!
//! * **`border`** — the Theorem 8 border grid (`kn = (k+1)f`): each cell
//!   runs the full pasted impossibility construction
//!   ([`border_demo`]), digests its verdict and records the distinct
//!   decision values of the pasted run as its typed observation.
//! * **`scale`** — a [`scale_grid`] slice spanning n ∈ {64, …, 512}: each
//!   cell runs lock-step FloodMin with a seed-derived crash layout under
//!   an attached [`EventCounter`]
//!   ([`Engine::drive_observed`]), digests the decision vector and
//!   records the run's event counts as its typed observation.
//!
//! Observations ride the `kset-sweep v2` record format; they must be pure
//! functions of the cell (resume byte-identity depends on it), which the
//! deterministic substrates guarantee.

use std::fmt;

use kset_core::algorithms::floodmin::{floodmin_batch, floodmin_rounds, FloodMin, FloodMinLane};
use kset_core::sync::{LockStep, RoundCrash};
use kset_core::task::distinct_proposals;
use kset_impossibility::theorem8::border_demo;
use kset_impossibility::theorem8_border_cells;
use kset_sim::observe::EventCounter;
use kset_sim::sweep::{
    scale_grid, sweep_batched, sweep_seq, sweep_streaming_ordered, CellRecord, GridCell,
    Observation, ShardSpec, SweepHeader,
};
use kset_sim::{stable_fingerprint, Engine, ProcessId};

/// The grid names the catalog resolves (the CI matrix runs all of them).
pub const GRID_NAMES: &[&str] = &["border", "scale"];

/// A named, seeded sweep grid: its cells and its digest semantics.
pub struct SweepGrid {
    /// Catalog name (`border` or `scale`).
    pub name: &'static str,
    /// Whitespace-free axes description recorded in shard headers.
    pub axes: &'static str,
    /// The grid seed every cell seed derives from.
    pub grid_seed: u64,
    /// The full cell list, in emission order.
    pub cells: Vec<GridCell>,
    /// Computes one cell's digest and typed observation (pure).
    observe: fn(&GridCell) -> (u64, Option<Observation>),
    /// Optional structure-of-arrays kernel: the shape key two cells must
    /// share to ride one batch, and the batch observe function (one
    /// digest/observation pair per lane, in lane order, each identical to
    /// what `observe` computes for that cell). Grids without a kernel —
    /// or grids where no two cells share a shape — fall back to the
    /// scalar path cell by cell, so `--batch` is a no-op there rather
    /// than a failure.
    batch: Option<BatchKernel>,
}

/// Per-lane `(digest, observation)` pairs, in lane order.
type LaneResults = Vec<(u64, Option<Observation>)>;

/// The shape-keyed batch kernel of a [`SweepGrid`].
#[derive(Clone, Copy)]
struct BatchKernel {
    /// Cells may share a batch iff this key matches (`(n, rounds)` for
    /// the lock-step grids).
    shape: fn(&GridCell) -> (usize, usize),
    /// Runs one same-shape batch; returns per-lane `(digest, observation)`
    /// pairs in lane order.
    run: fn(&[&GridCell]) -> LaneResults,
}

impl fmt::Debug for SweepGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepGrid")
            .field("name", &self.name)
            .field("grid_seed", &self.grid_seed)
            .field("cells", &self.cells.len())
            .finish()
    }
}

/// A grid name outside [`GRID_NAMES`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownGrid(pub String);

impl fmt::Display for UnknownGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown grid {:?} (known: {GRID_NAMES:?})", self.0)
    }
}

impl std::error::Error for UnknownGrid {}

/// Resolves a catalog grid by name under a grid seed.
pub fn grid(name: &str, grid_seed: u64) -> Result<SweepGrid, UnknownGrid> {
    match name {
        "border" => Ok(SweepGrid {
            name: "border",
            axes: "theorem8-border:kn=(k+1)f",
            grid_seed,
            cells: theorem8_border_cells(grid_seed),
            observe: border_observe,
            // The pasted construction has no SoA kernel (and border cells
            // rarely share a shape anyway): --batch falls back to the
            // scalar path.
            batch: None,
        }),
        "scale" => Ok(SweepGrid {
            name: "scale",
            axes: "ns=64,128,256,512;fs=1,2,3;ks=1,2",
            grid_seed,
            cells: scale_grid(&[64, 128, 256, 512], &[1, 2, 3], &[1, 2], grid_seed)
                // kset-lint: allow(panic-in-library): invariant — the axes are compile-time catalog constants already validated against the grid contract
                .expect("catalog axes are duplicate-free and within capacity"),
            observe: floodmin_observe,
            batch: Some(BatchKernel {
                shape: |cell| (cell.n, floodmin_rounds(cell.f, cell.k)),
                run: floodmin_observe_batch,
            }),
        }),
        other => Err(UnknownGrid(other.to_string())),
    }
}

impl SweepGrid {
    /// The shard-file header for `shard` of this grid.
    pub fn header(&self, shard: ShardSpec) -> SweepHeader {
        SweepHeader::new(
            self.name,
            self.grid_seed,
            self.axes,
            self.cells.len(),
            shard,
        )
    }

    /// Computes one cell's decision digest (pure: safe to call from any
    /// shard, any thread, any host).
    pub fn digest(&self, cell: &GridCell) -> u64 {
        (self.observe)(cell).0
    }

    /// Computes one cell's full record: digest plus the grid's typed
    /// observation payload (pure, like [`SweepGrid::digest`]).
    pub fn record(&self, cell: &GridCell) -> CellRecord {
        let (digest, obs) = (self.observe)(cell);
        let record = CellRecord::new(cell, digest);
        match obs {
            Some(obs) => record.with_observation(obs),
            None => record,
        }
    }

    /// Sweeps one shard, **streaming**: records flow to `emit` in cell
    /// order as cells complete (at most `window` results in flight), so a
    /// caller can write the shard file without materializing the shard.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` (the CLI validates its `--window` before
    /// reaching here; library callers own the same contract).
    pub fn sweep_shard_streaming(
        &self,
        shard: ShardSpec,
        window: usize,
        emit: impl FnMut(CellRecord),
    ) {
        self.sweep_range_streaming(shard.range(self.cells.len()), window, emit);
    }

    /// Sweeps exactly the cells of `range` (global indices), streaming
    /// records in cell order — the resume path: a partial shard file
    /// names its owed range and only that remainder is recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `range` lies outside the grid or `window == 0`.
    pub fn sweep_range_streaming(
        &self,
        range: std::ops::Range<usize>,
        window: usize,
        mut emit: impl FnMut(CellRecord),
    ) {
        let slice = &self.cells[range];
        sweep_streaming_ordered(
            slice,
            window,
            |_, cell| self.record(cell),
            |_, record| emit(record),
        )
        // kset-lint: allow(panic-in-library): documented panicking contract — window == 0 is a caller bug, surfaced per the # Panics section
        .expect("window >= 1 is the caller's contract");
    }

    /// Sweeps the **full** grid sequentially on one thread — the reference
    /// the merged shard files must reproduce byte for byte.
    pub fn sweep_sequential(&self) -> Vec<CellRecord> {
        sweep_seq(&self.cells, |_, cell| self.record(cell))
    }

    /// Whether this grid registers a structure-of-arrays batch kernel
    /// (grids without one run `--batch` on the scalar path).
    pub fn supports_batching(&self) -> bool {
        self.batch.is_some()
    }

    /// Computes the records of one **same-shape** batch through the grid's
    /// SoA kernel, in lane order — or cell by cell through the scalar
    /// path if the grid has no kernel. Each record is identical to what
    /// [`SweepGrid::record`] computes for that cell; only the execution
    /// schedule differs.
    pub fn record_batch(&self, lanes: &[&GridCell]) -> Vec<CellRecord> {
        let Some(kernel) = self.batch else {
            return lanes.iter().map(|cell| self.record(cell)).collect();
        };
        (kernel.run)(lanes)
            .into_iter()
            .zip(lanes)
            .map(|((digest, obs), cell)| {
                let record = CellRecord::new(cell, digest);
                match obs {
                    Some(obs) => record.with_observation(obs),
                    None => record,
                }
            })
            .collect()
    }

    /// Sweeps one shard **batched**: cells grouped by the grid's shape
    /// key, executed through the SoA kernel in batches of at most `batch`
    /// lanes, and re-serialized in canonical cell order. Cell indices,
    /// seeds and record contents are invariant under batching, so the
    /// resulting records — and any shard file rendered from them — are
    /// byte-identical to the streaming/sequential reference.
    ///
    /// Grids without a kernel fall back to the scalar path (same records,
    /// no fusion); a degenerate grid where no two cells share a shape
    /// simply yields single-lane batches.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn sweep_shard_batched(&self, shard: ShardSpec, batch: usize) -> Vec<CellRecord> {
        let slice = shard.slice(&self.cells);
        let Some(kernel) = self.batch else {
            assert!(batch >= 1, "batch size must be at least 1");
            return slice.iter().map(|cell| self.record(cell)).collect();
        };
        sweep_batched(
            slice,
            batch,
            |_, cell| (kernel.shape)(cell),
            |lanes| {
                let cells: Vec<&GridCell> = lanes.iter().map(|(_, c)| *c).collect();
                self.record_batch(&cells)
            },
        )
    }
}

/// One Theorem 8 border cell: the digest of the pasted impossibility
/// construction's verdict at `(n, k)`, observed as the distinct decision
/// values of the pasted run.
fn border_observe(cell: &GridCell) -> (u64, Option<Observation>) {
    let demo = border_demo(cell.n, cell.k, 300_000)
        // kset-lint: allow(panic-in-library): invariant — theorem8_border_cells only emits exact divisible border points, so the demo always constructs
        .expect("border grid cells are exact divisible border points");
    debug_assert_eq!(demo.f, cell.f, "border cell carries the derived f");
    let digest = stable_fingerprint(&(
        demo.f,
        demo.pasted.verified,
        demo.pasted.distinct_decisions(),
        demo.pasted.report.failure_pattern.num_faulty(),
        demo.violates_k_agreement(),
    ));
    let obs = Observation::distinct(demo.pasted.report.distinct_decisions.iter().copied());
    (digest, Some(obs))
}

/// One scale cell: lock-step FloodMin under a seed-derived crash layout
/// (the same construction `tests/sweep_integration.rs` pins), with an
/// [`EventCounter`] attached through the uniform observation API — the
/// digest covers the decision vector, the observation records the run's
/// event totals.
fn floodmin_observe(cell: &GridCell) -> (u64, Option<Observation>) {
    let GridCell { n, f, k, .. } = *cell;
    // kset-lint: allow(unchecked-capacity): cell.n comes from scale_grid, which capacity-validates every axis value at grid construction
    let mut engine = LockStep::new(
        FloodMin::system(&distinct_proposals(n), f, k),
        floodmin_rounds(f, k),
        &scale_cell_crashes(cell),
    );
    let mut counter = EventCounter::new();
    engine.drive_observed(u64::MAX, &mut counter);
    let out = engine.outcome();
    let digest = floodmin_digest(&out);
    (digest, Some(Observation::Counts(counter.counts())))
}

/// The seed-derived crash layout of one scale cell — shared verbatim by
/// the scalar and batched paths, so the two execute the *same* scenario.
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

/// The scale grid's decision digest (allocation-free distinct count —
/// same value the old per-cell `BTreeSet` produced).
fn floodmin_digest(out: &kset_core::sync::SyncOutcome) -> u64 {
    stable_fingerprint(&(
        stable_fingerprint(&out.decisions),
        out.distinct_count(),
        out.rounds,
    ))
}

/// The batched twin of [`floodmin_observe`]: one [`floodmin_batch`] call
/// over a same-shape lane set, producing per lane exactly the digest and
/// [`Observation::Counts`] the scalar path computes for that cell.
fn floodmin_observe_batch(lanes: &[&GridCell]) -> LaneResults {
    let Some(first) = lanes.first() else {
        return Vec::new();
    };
    let rounds = floodmin_rounds(first.f, first.k);
    let cells: Vec<FloodMinLane> = lanes
        .iter()
        .map(|cell| {
            debug_assert_eq!((cell.n, floodmin_rounds(cell.f, cell.k)), (first.n, rounds));
            FloodMinLane {
                values: distinct_proposals(cell.n),
                crashes: scale_cell_crashes(cell),
            }
        })
        .collect();
    floodmin_batch(first.n, rounds, &cells)
        .into_iter()
        .map(|(out, counts)| (floodmin_digest(&out), Some(Observation::Counts(counts))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_resolves_every_registered_name() {
        for name in GRID_NAMES {
            let g = grid(name, 42).expect("registered name resolves");
            assert_eq!(g.name, *name);
            assert!(!g.cells.is_empty());
        }
        assert!(grid("no-such-grid", 42).is_err());
    }

    #[test]
    fn batched_records_match_sequential_for_every_grid() {
        use kset_sim::sweep::ShardSpec;

        for name in GRID_NAMES {
            let g = grid(name, 42).unwrap();
            let reference = g.sweep_sequential();
            for batch in [1, 3, 16] {
                let batched = g.sweep_shard_batched(ShardSpec::FULL, batch);
                assert_eq!(batched, reference, "grid {name} batch {batch}");
            }
        }
    }

    #[test]
    fn scale_grid_registers_a_batch_kernel() {
        assert!(grid("scale", 42).unwrap().supports_batching());
        assert!(!grid("border", 42).unwrap().supports_batching());
    }

    #[test]
    fn scale_digest_is_deterministic() {
        let g = grid("scale", 42).unwrap();
        let a = g.digest(&g.cells[0]);
        let b = g.digest(&g.cells[0]);
        assert_eq!(a, b);
        assert_ne!(a, g.digest(&g.cells[1]), "cells digest differently");
    }
}
