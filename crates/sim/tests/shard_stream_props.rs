//! Property tests for the shard/stream/merge layer: for arbitrary grids
//! and any shard count, the shards are disjoint, their union is the full
//! grid, cell indices and seeds match the unsharded emission exactly, and
//! merging per-shard streaming result files reproduces the sequential
//! sweep byte for byte.
//!
//! This is the contract the shard-matrix CI gate leans on: sharding is a
//! pure *partition* of the emitted index space — it renumbers nothing,
//! reseeds nothing, and loses nothing.

use proptest::prelude::*;

use kset_sim::sweep::{
    cell_seed, merge, scale_grid, sweep, sweep_seq, sweep_streaming_ordered, CellRecord, GridCell,
    ShardFile, ShardSpec,
};

/// Builds a duplicate-free axis from a raw draw (values are offsets into a
/// strictly increasing sequence, so any draw yields a valid axis).
fn axis(raw: &[usize], lo: usize) -> Vec<usize> {
    let mut v = lo;
    raw.iter()
        .map(|&step| {
            v += 1 + step % 5;
            v
        })
        .collect()
}

/// The shard partition of `cells`, as (spec, slice) pairs.
fn partition(cells: &[GridCell], count: usize) -> Vec<(ShardSpec, &[GridCell])> {
    (0..count)
        .map(|i| {
            let spec = ShardSpec::new(i, count).expect("i < count");
            (spec, spec.slice(cells))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shards are disjoint, contiguous, and their union — in order — is
    /// the unsharded emission: same cells, same indices, same seeds.
    #[test]
    fn shards_partition_the_unsharded_emission(
        ns_raw in proptest::collection::vec(0usize..64, 1..5),
        fs_raw in proptest::collection::vec(0usize..8, 1..4),
        ks_raw in proptest::collection::vec(0usize..8, 1..4),
        grid_seed in 0u64..1_000_000,
        shard_count in 1usize..9,
    ) {
        let ns = axis(&ns_raw, 3);
        let fs = axis(&fs_raw, 0);
        let ks = axis(&ks_raw, 0);
        let cells = scale_grid(&ns, &fs, &ks, grid_seed).expect("axes are duplicate-free");
        let mut rebuilt: Vec<GridCell> = Vec::new();
        for (spec, slice) in partition(&cells, shard_count) {
            let range = spec.range(cells.len());
            prop_assert_eq!(slice.len(), range.len());
            prop_assert_eq!(range.start, rebuilt.len(), "contiguous, in order");
            for (offset, cell) in slice.iter().enumerate() {
                // Global indices and seeds are shard-invariant.
                prop_assert_eq!(cell.index, range.start + offset);
                prop_assert_eq!(cell.seed, cell_seed(grid_seed, cell.index));
            }
            rebuilt.extend_from_slice(slice);
        }
        prop_assert_eq!(rebuilt, cells);
    }

    /// Merging the per-shard `sweep_streaming_ordered` outputs equals `sweep_seq`
    /// of the full grid — as records, and byte-for-byte as files.
    #[test]
    fn merged_streaming_shards_equal_sequential_sweep(
        ns_raw in proptest::collection::vec(0usize..32, 1..4),
        fs_raw in proptest::collection::vec(0usize..6, 1..3),
        grid_seed in 0u64..1_000_000,
        shard_count in 1usize..7,
        window in 1usize..9,
    ) {
        let ns = axis(&ns_raw, 3);
        let fs = axis(&fs_raw, 0);
        let cells = scale_grid(&ns, &fs, &[1, 2], grid_seed).expect("axes are duplicate-free");
        // A deterministic, order-sensitive digest of each cell.
        let digest = |cell: &GridCell| {
            cell.seed
                .rotate_left((cell.n % 61) as u32)
                .wrapping_mul(2 * (cell.f as u64) + 1)
                .wrapping_add(cell.k as u64)
        };
        let total = cells.len();
        let sequential = ShardFile {
            header: header(grid_seed, total, ShardSpec::FULL),
            records: sweep_seq(&cells, |_, c| CellRecord::new(c, digest(c))),
        };
        let mut shard_files = Vec::new();
        for (spec, slice) in partition(&cells, shard_count) {
            // Stream each shard through a bounded window, in cell order.
            let mut records = Vec::with_capacity(slice.len());
            sweep_streaming_ordered(slice, window, |_, c| CellRecord::new(c, digest(c)),
                |_, r| records.push(r)).unwrap();
            shard_files.push(ShardFile { header: header(grid_seed, total, spec), records });
        }
        // Every shard file round-trips through the text format.
        for file in &shard_files {
            let reparsed = ShardFile::parse(&file.render());
            prop_assert_eq!(reparsed.as_ref(), Ok(file));
        }
        let merged = merge(&shard_files).expect("a full partition merges");
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(merged.render(), sequential.render(), "byte-identical files");
    }

    /// The collecting parallel runner returns exactly what `sweep_seq`
    /// computes, in cell order, for every grid length.
    #[test]
    fn parallel_sweep_covers_the_grid(
        len in 0usize..200,
        salt in 0u64..1_000_000,
    ) {
        let cells: Vec<u64> = (0..len as u64).map(|c| c ^ salt).collect();
        let f = |i: usize, c: &u64| c.wrapping_mul(31).wrapping_add(i as u64);
        prop_assert_eq!(sweep(&cells, f), sweep_seq(&cells, f));
    }
}

fn header(grid_seed: u64, total: usize, shard: ShardSpec) -> kset_sim::sweep::SweepHeader {
    kset_sim::sweep::SweepHeader::new("props", grid_seed, "synthetic", total, shard)
}
