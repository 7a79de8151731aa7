//! The sweep job: catalog grid seeds swept in four executor modes, each
//! mode's records taken through the record path (render to shard-file
//! bytes, digest, parse, merge) and compared with the sequential bytes.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use kset_bench::fleet::{catalog_source, grid_id};
use kset_bench::sweeps::SweepGrid;
use kset_sim::fleet::{
    run_worker, Coordinator, CoordinatorConfig, FleetObserver, NoFleetObserver, WorkerConfig,
};
use kset_sim::sweep::{merge, CellRecord, ShardFile, ShardSpec};
use kset_sim::StableHasher;

use crate::sys::Usage;
use crate::trace::Tracer;
use crate::Tally;

/// Results in flight in streaming mode (the CLI's default `--window`).
const WINDOW: usize = 64;
/// Lanes per batched kernel call (`--batch 16`).
const BATCH_LANES: usize = 16;

/// Timings of a set of grid seeds swept in every mode.
#[derive(Debug, Clone)]
pub struct Swept {
    /// Nanoseconds per mode (executor plus record path), in the order seq,
    /// stream, batch, fleet.
    pub nanos: [u64; 4],
    /// Cells over all the grids.
    pub cells: usize,
    /// Whole-file digest of each grid's sequential shard file.
    pub digests: Vec<u64>,
}

/// One executor mode: sweeps a grid and returns its shard-file bytes.
type Mode = fn(&SweepGrid, &mut Tracer, &mut Tally) -> String;

/// Sweeps every grid in the four modes, one mode at a time, so that each
/// mode's time is one stretch of work; `seq` runs first and its bytes are
/// the reference the other modes must reproduce.
pub fn run(grids: &[SweepGrid], t: &mut Tracer, tally: &mut Tally) -> Swept {
    const MODES: [Mode; 4] = [seq, stream, batch, fleet];
    let mut nanos = [0u64; 4];
    let mut reference: Vec<(String, u64)> = Vec::with_capacity(grids.len());
    for (m, mode) in MODES.into_iter().enumerate() {
        let start = Instant::now();
        for (i, grid) in grids.iter().enumerate() {
            let bytes = mode(grid, t, tally);
            let (digest, ok) = record_path(&bytes, t);
            match reference.get(i) {
                None => {
                    tally.attempt(ok);
                    reference.push((bytes, digest));
                }
                Some((seq_bytes, seq_digest)) => {
                    tally.attempt(ok && digest == *seq_digest && bytes == *seq_bytes);
                }
            }
        }
        nanos[m] = start.elapsed().as_nanos() as u64;
    }
    Swept {
        nanos,
        cells: grids.iter().map(|g| g.cells.len()).sum(),
        digests: reference.into_iter().map(|(_, digest)| digest).collect(),
    }
}

fn seq(grid: &SweepGrid, t: &mut Tracer, _: &mut Tally) -> String {
    let before = Usage::thread();
    let records = t.span("sweep.seq", |t| {
        if t.on() {
            grid.cells
                .iter()
                .map(|cell| t.span("sweeps.record", |_| grid.record(cell)))
                .collect()
        } else {
            grid.sweep_sequential()
        }
    });
    if t.on() {
        let used = Usage::thread().since(&before);
        let cells = grid.cells.len() as f64;
        t.sample("sync.minor_faults_per_cell", used.minflt as f64 / cells);
        t.sample(
            "sync.sys_frac",
            used.sys.as_secs_f64() / used.cpu().as_secs_f64().max(1e-9),
        );
    }
    render(grid, records, t)
}

fn stream(grid: &SweepGrid, t: &mut Tracer, _: &mut Tally) -> String {
    let start = Instant::now();
    let before = Usage::process();
    let mut records = Vec::with_capacity(grid.cells.len());
    t.span("sweep.stream", |_| {
        grid.sweep_shard_streaming(ShardSpec::FULL, WINDOW, |r| records.push(r))
    });
    if t.on() {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu = Usage::process().since(&before).cpu().as_secs_f64();
        let wall = start.elapsed().as_secs_f64();
        t.sample("sweep.stream_cpu_util", cpu / (threads as f64 * wall));
    }
    render(grid, records, t)
}

fn batch(grid: &SweepGrid, t: &mut Tracer, _: &mut Tally) -> String {
    let records = t.span("sweep.batch", |_| {
        grid.sweep_shard_batched(ShardSpec::FULL, BATCH_LANES)
    });
    render(grid, records, t)
}

/// The sequential shard file of `grid` and its whole-file digest.
pub fn sequential_file_digest(grid: &SweepGrid) -> u64 {
    let mut t = Tracer::new(false);
    file_digest(&render(grid, grid.sweep_sequential(), &mut t))
}

fn render(grid: &SweepGrid, records: Vec<CellRecord>, t: &mut Tracer) -> String {
    let file = ShardFile {
        header: grid.header(ShardSpec::FULL),
        records,
    };
    let bytes = t.span("record.render", |_| file.render());
    t.sample("record.rendered_cells", file.records.len() as f64);
    t.sample(
        "record.bytes_per_cell",
        bytes.len() as f64 / file.records.len() as f64,
    );
    bytes
}

fn file_digest(bytes: &str) -> u64 {
    let mut hasher = StableHasher::new();
    std::hash::Hasher::write(&mut hasher, bytes.as_bytes());
    std::hash::Hasher::finish(&hasher)
}

/// Digests, parses and merges one shard file; `true` when the merge of the
/// parsed file gives back the same file.
fn record_path(bytes: &str, t: &mut Tracer) -> (u64, bool) {
    let digest = t.span("record.file_digest", |_| file_digest(bytes));
    let Ok(file) = t.span("record.parse", |_| ShardFile::parse(bytes)) else {
        return (digest, false);
    };
    t.sample("record.path_cells", file.records.len() as f64);
    let merged = t.span("record.merge", |_| merge(std::slice::from_ref(&file)));
    (digest, merged.as_ref() == Ok(&file))
}

/// Grant and completion times of each lease, for lease latency.
#[derive(Debug, Default)]
struct LeaseClock {
    granted: HashMap<u64, Instant>,
    first_grant: Option<Instant>,
    leases: Vec<(Instant, Instant)>,
}

impl FleetObserver for LeaseClock {
    fn on_lease_granted(&mut self, lease: u64, _worker: &str, _range: &Range<usize>) {
        let now = Instant::now();
        self.first_grant.get_or_insert(now);
        self.granted.insert(lease, now);
    }

    fn on_lease_completed(&mut self, lease: u64) {
        if let Some(granted) = self.granted.remove(&lease) {
            self.leases.push((granted, Instant::now()));
        }
    }
}

/// Sweeps `grid` through an in-process coordinator and one worker over
/// loopback; returns the coordinator's file bytes. Lost, expired and
/// faulted leases count as failed operations.
fn fleet(grid: &SweepGrid, t: &mut Tracer, tally: &mut Tally) -> String {
    let coordinator = t
        .span("fleet.bind", |_| {
            Coordinator::bind(
                "127.0.0.1:0",
                grid_id(grid),
                Vec::new(),
                CoordinatorConfig::default(),
            )
        })
        .expect("loopback bind");
    let addr = coordinator.local_addr().expect("bound address").to_string();
    let traced = t.on();
    let busy = AtomicU64::new(0);
    let mut clock = LeaseClock::default();
    let mut bytes = String::new();
    let start = Instant::now();
    let (run, worker) = t.span("fleet.run", |t| {
        let out = std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let mut source = catalog_source();
                run_worker(&addr, &WorkerConfig::new("perfbench"), |id, index| {
                    if !traced {
                        return source(id, index);
                    }
                    let begin = Instant::now();
                    let record = source(id, index);
                    busy.fetch_add(begin.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    record
                })
            });
            let observer: &mut dyn FleetObserver = if traced {
                &mut clock
            } else {
                &mut NoFleetObserver
            };
            let run = coordinator.run(observer, |chunk| bytes.push_str(chunk));
            (run, worker.join().expect("fleet worker thread"))
        });
        for &(granted, completed) in &clock.leases {
            t.record("fleet.lease", granted, completed);
        }
        out
    });
    let wall = start.elapsed();
    let (ok, counts) = match (run, worker) {
        (Ok((_, counts)), Ok(_)) => (true, Some(counts)),
        (Ok((_, counts)), Err(_)) => (false, Some(counts)),
        (Err(_), _) => (false, None),
    };
    tally.attempt(ok);
    if let Some(c) = counts {
        tally.attempted += c.leases;
        tally.failed += c.lost + c.expired + c.faults;
        t.sample("fleet.leases", c.leases as f64);
        t.sample(
            "fleet.cells_per_lease",
            c.merged as f64 / c.leases.max(1) as f64,
        );
        t.sample("fleet.lost", c.lost as f64);
        t.sample("fleet.expired", c.expired as f64);
        t.sample("fleet.faults", c.faults as f64);
    }
    if let Some(first) = clock.first_grant {
        t.sample(
            "fleet.first_grant_ms",
            first.saturating_duration_since(start).as_secs_f64() * 1e3,
        );
    }
    let busy = busy.load(Ordering::Relaxed) as f64 / 1e9;
    t.sample("fleet.worker_busy_frac", busy / wall.as_secs_f64());
    bytes
}
