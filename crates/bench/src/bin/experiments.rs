//! The experiments binary: regenerates every border table of the paper,
//! and runs/merges sharded sweeps.
//!
//! ```sh
//! cargo run --release -p kset-bench --bin experiments          # all tables
//! cargo run --release -p kset-bench --bin experiments -- --e4  # one table
//!
//! # Sharded sweeps: run shard 1 of 3 of the border grid, streaming the
//! # records into a self-describing shard file …
//! experiments sweep --grid border --shard 1/3 --out border-1.txt
//! # … the sequential single-process reference of the same grid …
//! experiments sweep --grid border --seq --out border-seq.txt
//! # … the batched schedule: same-shape cells fused into
//! # structure-of-arrays batches of 16, output byte-identical to --seq …
//! experiments sweep --grid scale --batch 16 --out scale-batched.txt
//! # … and merge the shards, verifying exact coverage and (optionally)
//! # that the merged records equal an in-process sequential recompute.
//! experiments merge --out merged.txt --check-against-sequential \
//!     border-0.txt border-1.txt border-2.txt
//!
//! # A sweep killed mid-run leaves a valid partial (kset-sweep v2) file;
//! # resume recomputes only the owed cells and rewrites the completed
//! # file, byte-identical to an uninterrupted sweep.
//! experiments sweep --resume border-1.txt
//!
//! # Fleet mode: a coordinator leases cell ranges to TCP workers, steals
//! # work back from crashed or hung ones, and streams the incrementally
//! # merged file — byte-identical to --seq under any worker churn.
//! experiments coordinate --grid scale --listen 127.0.0.1:7700 --out scale.txt
//! experiments work --connect 127.0.0.1:7700 --name w0
//! experiments work --connect 127.0.0.1:7700 --name w1 --fail-after 5  # chaos
//! ```
//!
//! The merged file is **byte-identical** to the sequential one whenever
//! the shards cover the grid exactly — that identity is the shard-matrix
//! conformance gate in CI. Grid names resolve through
//! [`kset_bench::sweeps`]; cells are citable as `(grid_seed, index)`.
//!
//! The table output is recorded in EXPERIMENTS.md; the "paper" columns are
//! the closed-form borders from the theorems, the "measured" columns come
//! from the simulator constructions. Agreement between the two is the
//! reproduction claim.

use kset_bench::{glyph, Table};
use kset_core::algorithms::floodmin::{floodmin_rounds, FloodMin};
use kset_core::algorithms::two_stage::{decision_bound, kset_threshold};
use kset_core::sync::{run_sync, RoundCrash};
use kset_core::task::distinct_proposals;
use kset_graph::{
    check_lemma6, check_lemma7, check_source_count_bound, source_components, stage_one_graph,
};
use kset_impossibility::theorem10::demo as theorem10_demo;
use kset_impossibility::theorem2::{demo_decide_own, demo_two_stage};
use kset_impossibility::theorem8::{border_demo, possibility_demo};
use kset_impossibility::{
    bouzid_travers_impossible, corollary13_solvable, theorem10_impossible, theorem2_impossible,
    theorem8_solvable, Theorem1Outcome,
};
use kset_sim::sweep::sweep;
use kset_sim::ProcessId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => return sweep_cmd(&args[1..]),
        Some("merge") => return merge_cmd(&args[1..]),
        Some("coordinate") => return coordinate_cmd(&args[1..]),
        Some("work") => return work_cmd(&args[1..]),
        _ => {}
    }
    const TABLES: [(&str, fn()); 7] = [
        ("--e1", e1_theorem2),
        ("--e2", e2_theorem8_possible),
        ("--e3", e3_theorem8_border),
        ("--e4", e4_theorem10),
        ("--e5", e5_corollary13),
        ("--e6", e6_graph_lemmas),
        ("--e7", e7_discrete_event),
    ];
    if let Some(unknown) = args
        .iter()
        .find(|a| !TABLES.iter().any(|(flag, _)| a == flag))
    {
        usage(&format!("unknown argument {unknown:?}"));
    }
    for (flag, table) in TABLES {
        if args.is_empty() || args.iter().any(|a| a == flag) {
            table();
        }
    }
}

/// E1 — Theorem 2: the partially synchronous border, with the Theorem 1
/// checker run against two candidates at every impossible grid point, and
/// the synchronous contrast column (FloodMin).
fn e1_theorem2() {
    let mut t = Table::new(
        "E1 — Theorem 2 border: k ≤ (n−1)/(n−f) (proc sync, comm async)",
        &[
            "n",
            "f",
            "k",
            "paper: impossible",
            "checker vs DecideOwn",
            "checker vs two-stage(L=n−f)",
            "sync point solvable (FloodMin)",
        ],
    );
    for n in 4..=8usize {
        for (f, k) in [(n - 1, 2), (n - 2, 2), (n - 1, 3), (n - 2, 3)] {
            if k >= n {
                continue;
            }
            let impossible = theorem2_impossible(n, f, k);
            let naive = demo_decide_own(n, f, k, 100_000)
                .map(|d| outcome_tag(&d.analysis.outcome, d.refuted()))
                .unwrap_or_else(|| "n/a (solvable)".into());
            let twostage = demo_two_stage(n, f, k, 200_000)
                .map(|d| outcome_tag(&d.analysis.outcome, d.refuted()))
                .unwrap_or_else(|| "n/a (solvable)".into());
            // Synchronous contrast: FloodMin on the same (n, f, k).
            let values = distinct_proposals(n);
            let crashes: Vec<RoundCrash> = (0..f)
                .map(|i| RoundCrash {
                    round: i / k + 1,
                    pid: ProcessId::new(i),
                    receivers: [ProcessId::new((i + 1) % n)].into(),
                })
                .collect();
            let out = run_sync(
                FloodMin::system(&values, f, k),
                floodmin_rounds(f, k),
                &crashes,
            );
            let sync_ok = out.distinct_decisions().len() <= k;
            t.row(&[
                n.to_string(),
                f.to_string(),
                k.to_string(),
                glyph(impossible).into(),
                naive,
                twostage,
                glyph(sync_ok).into(),
            ]);
        }
    }
    println!("{t}");
}

fn outcome_tag(outcome: &Theorem1Outcome, refuted: bool) -> String {
    let tag = match outcome {
        Theorem1Outcome::DirectViolation { distinct, k } => {
            format!("violated ({distinct}>{k})")
        }
        Theorem1Outcome::ReductionEstablished => "reduced to ⟨D̄⟩-consensus".into(),
        Theorem1Outcome::ConditionAFailed { .. } => "not flagged".into(),
    };
    format!("{tag}{}", if refuted { " ⇒ refuted" } else { "" })
}

/// E2 — Theorem 8 possibility side: the two-stage protocol across the
/// solvable grid, hostile schedules, rotating dead sets. Cells sweep in
/// parallel.
fn e2_theorem8_possible() {
    let mut t = Table::new(
        "E2 — Theorem 8 possibility: two-stage with L = n−f (f initial crashes)",
        &[
            "n",
            "f",
            "k",
            "paper: solvable",
            "runs",
            "all hold",
            "max distinct",
            "bound ⌊n/L⌋",
        ],
    );
    let grid: Vec<(usize, usize)> = vec![(4, 1), (5, 2), (6, 3), (7, 3), (8, 5), (9, 4), (10, 7)];
    let demos = sweep(&grid, |_, &(n, f)| {
        let l = kset_threshold(n, f);
        let k = decision_bound(n, l).max(1);
        theorem8_solvable(n, f, k).then(|| possibility_demo(n, f, k, 6))
    });
    for ((n, f), demo) in grid.iter().zip(demos) {
        let Some(demo) = demo else {
            continue;
        };
        let l = kset_threshold(*n, *f);
        t.row(&[
            n.to_string(),
            f.to_string(),
            demo.k.to_string(),
            glyph(true).into(),
            demo.runs.to_string(),
            glyph(demo.all_hold).into(),
            demo.max_distinct.to_string(),
            decision_bound(*n, l).to_string(),
        ]);
    }
    println!("{t}");
}

/// E3 — Theorem 8 impossibility side: the k+1-partition construction at
/// the exact border kn = (k+1)f. The grid cells are independent, so they
/// run through the parallel sweep; results come back in grid order, so the
/// table is identical to a sequential pass.
fn e3_theorem8_border() {
    let mut t = Table::new(
        "E3 — Theorem 8 border (kn = (k+1)f): pasted failure-free run",
        &[
            "n",
            "k",
            "f",
            "pasting verified",
            "faulty in run",
            "distinct decisions",
            "violates k-agreement",
        ],
    );
    let grid: Vec<(usize, usize)> = kset_impossibility::THEOREM8_BORDER_GRID.to_vec();
    let demos = sweep(&grid, |_, &(n, k)| border_demo(n, k, 300_000));
    for ((n, k), demo) in grid.iter().zip(demos) {
        let Some(demo) = demo else {
            continue;
        };
        t.row(&[
            n.to_string(),
            k.to_string(),
            demo.f.to_string(),
            glyph(demo.pasted.verified).into(),
            demo.pasted.report.failure_pattern.num_faulty().to_string(),
            demo.pasted.distinct_decisions().to_string(),
            glyph(demo.violates_k_agreement()).into(),
        ]);
    }
    println!("{t}");
}

/// E4 — Theorem 10: (Σk, Ωk) refuted for 2 ≤ k ≤ n−2, with Lemma 9
/// validation and the Bouzid–Travers comparison column.
fn e4_theorem10() {
    let mut t = Table::new(
        "E4 — Theorem 10: (Σk, Ωk) vs k-set agreement, candidate LeaderAdopt",
        &[
            "n",
            "k",
            "paper: impossible",
            "BT[5] covers",
            "outcome",
            "history legal (Lemma 9)",
            "refuted",
        ],
    );
    for n in 5..=8usize {
        for k in 2..=n - 2 {
            let Some(demo) = theorem10_demo(n, k, 200_000) else {
                continue;
            };
            t.row(&[
                n.to_string(),
                k.to_string(),
                glyph(theorem10_impossible(n, k)).into(),
                glyph(bouzid_travers_impossible(n, k)).into(),
                outcome_tag(&demo.analysis.outcome, demo.refuted()),
                glyph(demo.history_legal_for_sigma_omega_k()).into(),
                glyph(demo.refuted()).into(),
            ]);
        }
    }
    println!("{t}");
}

/// E5 — Corollary 13 endpoints: consensus from (Σ, Ω) and (n−1)-set
/// agreement from loneliness, across crash counts.
fn e5_corollary13() {
    use kset_core::algorithms::lonely_set::LonelySetAgreement;
    use kset_core::algorithms::sigma_omega_consensus::SigmaOmegaConsensus;
    use kset_core::runner::run_round_robin_with_oracle;
    use kset_core::task::KSetTask;
    use kset_fd::{LonelinessOracle, RealisticSigmaOmega};
    use kset_sim::{CrashPlan, Time};

    let mut t = Table::new(
        "E5 — Corollary 13 endpoints: k = 1 via (Σ,Ω), k = n−1 via L",
        &[
            "n",
            "k",
            "f (initial)",
            "paper: solvable",
            "holds",
            "distinct",
        ],
    );
    let n = 6;
    for f in 0..n {
        let values = distinct_proposals(n);
        let survivor = f; // lowest non-dead id
        let dead: Vec<ProcessId> = (0..f).map(ProcessId::new).collect();
        // k = 1.
        let oracle = RealisticSigmaOmega::consensus(n, Time::new(20), ProcessId::new(survivor));
        let report = run_round_robin_with_oracle::<SigmaOmegaConsensus, _>(
            values.clone(),
            oracle,
            CrashPlan::initially_dead(dead.clone()),
            400_000,
        );
        let verdict = KSetTask::consensus(n).judge(&values, &report);
        t.row(&[
            n.to_string(),
            "1".into(),
            f.to_string(),
            glyph(corollary13_solvable(n, 1)).into(),
            glyph(verdict.holds()).into(),
            verdict.distinct.to_string(),
        ]);
        // k = n−1.
        let report = run_round_robin_with_oracle::<LonelySetAgreement, _>(
            values.clone(),
            LonelinessOracle::new(n),
            CrashPlan::initially_dead(dead),
            100_000,
        );
        let verdict = KSetTask::set_agreement(n).judge(&values, &report);
        t.row(&[
            n.to_string(),
            (n - 1).to_string(),
            f.to_string(),
            glyph(corollary13_solvable(n, n - 1)).into(),
            glyph(verdict.holds()).into(),
            verdict.distinct.to_string(),
        ]);
    }
    println!("{t}");
}

// ---------------------------------------------------------------------------
// Sharded sweeps: `sweep` / `merge` subcommands (the CI shard matrix).
// ---------------------------------------------------------------------------

/// Incrementally fingerprints the bytes written to a shard file, so the
/// summary line can report a whole-file digest without rematerializing it.
/// Uses the release-stable [`kset_sim::StableHasher`]: the digest a shard
/// job prints must match the digest the (separately built) merge job
/// prints for the same bytes.
struct FileDigest(kset_sim::StableHasher);

impl FileDigest {
    fn new() -> Self {
        FileDigest(kset_sim::StableHasher::new())
    }

    fn update(&mut self, chunk: &str) {
        std::hash::Hasher::write(&mut self.0, chunk.as_bytes());
    }

    fn finish(&self) -> u64 {
        std::hash::Hasher::finish(&self.0)
    }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments [--e1 … --e7]\n\
         \u{20}      experiments sweep --grid <{names}> --out FILE \
         [--grid-seed N] [--shard I/J] [--window N] [--seq | --batch B]\n\
         \u{20}      experiments sweep --resume FILE [--out FILE] [--window N]\n\
         \u{20}      experiments merge --out FILE [--check-against-sequential] SHARD_FILE...\n\
         \u{20}      experiments coordinate --grid <{names}> --listen ADDR --out FILE \
         [--grid-seed N] [--lease-cells N] [--lease-timeout-ms N] [--resume FILE]\n\
         \u{20}      experiments work --connect ADDR [--name NAME] [--fail-after N]",
        names = kset_bench::sweeps::GRID_NAMES.join("|")
    );
    std::process::exit(2);
}

/// `sweep`: run one shard of a catalog grid, streaming records to a
/// self-describing shard file (`--seq` forces the single-threaded
/// sequential reference pass instead of the streaming parallel runner —
/// the files they write are byte-identical, which CI asserts; `--batch B`
/// runs same-shape cells through the grid's structure-of-arrays kernel in
/// batches of at most B lanes, again byte-identical).
///
/// `--resume FILE` reads a partial `kset-sweep v2` shard file — every
/// parameter (grid, seed, shard) comes from its header — recomputes
/// **only the cells the file still owes**, and rewrites the completed
/// file (in place unless `--out` redirects), byte-identical to an
/// uninterrupted sweep.
fn sweep_cmd(args: &[String]) {
    use kset_sim::sweep::ShardSpec;

    let mut grid_name: Option<String> = None;
    let mut grid_seed: u64 = 42;
    let mut shard = ShardSpec::FULL;
    let mut out: Option<String> = None;
    let mut window: usize = 64;
    let mut seq = false;
    let mut batch: Option<usize> = None;
    let mut resume: Option<String> = None;
    let mut explicit = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        if matches!(
            arg.as_str(),
            "--grid" | "--grid-seed" | "--shard" | "--seq" | "--batch"
        ) {
            explicit.push(arg.as_str());
        }
        match arg.as_str() {
            "--grid" => grid_name = Some(value("--grid").clone()),
            "--grid-seed" => {
                grid_seed = value("--grid-seed")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --grid-seed: {e}")));
            }
            "--shard" => {
                shard = value("--shard")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --shard: {e}")));
            }
            "--out" => out = Some(value("--out").clone()),
            "--window" => {
                window = value("--window")
                    .parse()
                    .ok()
                    .filter(|&w: &usize| w > 0)
                    .unwrap_or_else(|| usage("bad --window: need an integer of at least 1"));
            }
            "--seq" => seq = true,
            "--batch" => {
                batch = Some(
                    value("--batch")
                        .parse()
                        .ok()
                        .filter(|&b: &usize| b > 0)
                        .unwrap_or_else(|| usage("bad --batch: need an integer of at least 1")),
                );
            }
            "--resume" => resume = Some(value("--resume").clone()),
            other => usage(&format!("unknown sweep argument {other:?}")),
        }
    }
    if let Some(resume) = resume {
        if let Some(flag) = explicit.first() {
            usage(&format!(
                "--resume reads every parameter from the file's header; drop {flag}"
            ));
        }
        return resume_cmd(&resume, out.as_deref().unwrap_or(&resume), window);
    }
    let Some(grid_name) = grid_name else {
        usage("sweep needs --grid");
    };
    let Some(out) = out else {
        usage("sweep needs --out");
    };
    if seq && !shard.is_full() {
        usage("--seq is the whole-grid reference pass; it cannot take --shard");
    }
    if seq && batch.is_some() {
        usage("--seq and --batch are different execution schedules; pick one");
    }
    let grid = kset_bench::sweeps::grid(&grid_name, grid_seed).unwrap_or_else(|e| fail(e));

    let mut writer = ShardWriter::create(&out);
    writer.emit(&grid.header(shard).render());
    let mut records = 0usize;
    let mode;
    if seq {
        mode = "sequential".to_string();
        for record in grid.sweep_sequential() {
            records += 1;
            writer.emit(&format!("{}\n", record.render_line()));
        }
    } else if let Some(batch) = batch {
        mode = format!("batched:{batch}");
        for record in grid.sweep_shard_batched(shard, batch) {
            records += 1;
            writer.emit(&format!("{}\n", record.render_line()));
        }
    } else {
        mode = "streaming".to_string();
        grid.sweep_shard_streaming(shard, window, |record| {
            records += 1;
            writer.emit(&format!("{}\n", record.render_line()));
        });
    }
    writer.emit(&kset_sim::sweep::record::render_footer(records));
    let file_digest = writer.finish();
    println!(
        "sweep grid={grid_name} seed={grid_seed} shard={shard} mode={mode} \
         cells={records} out={out} file-digest={file_digest:#018x}",
    );
}

/// A shard file being written: bytes stream to disk and into the running
/// whole-file digest the summary line reports.
struct ShardWriter {
    path: String,
    file: std::io::BufWriter<std::fs::File>,
    digest: FileDigest,
}

impl ShardWriter {
    fn create(path: &str) -> Self {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(format_args!("cannot create {path}: {e}")));
        ShardWriter {
            path: path.to_string(),
            file: std::io::BufWriter::new(file),
            digest: FileDigest::new(),
        }
    }

    fn emit(&mut self, chunk: &str) {
        use std::io::Write as _;
        self.digest.update(chunk);
        self.file
            .write_all(chunk.as_bytes())
            .unwrap_or_else(|e| fail(format_args!("cannot write {}: {e}", self.path)));
    }

    fn finish(mut self) -> u64 {
        use std::io::Write as _;
        self.file
            .flush()
            .unwrap_or_else(|e| fail(format_args!("cannot write {}: {e}", self.path)));
        self.digest.finish()
    }
}

/// The `sweep --resume` path: parse the partial file, recompute only the
/// owed cells, rewrite the completed shard file.
fn resume_cmd(resume_path: &str, out: &str, window: usize) {
    use kset_sim::sweep::PartialShardFile;

    let text = std::fs::read_to_string(resume_path)
        .unwrap_or_else(|e| fail(format_args!("cannot read {resume_path}: {e}")));
    let partial =
        PartialShardFile::parse(&text).unwrap_or_else(|e| fail(format_args!("{resume_path}: {e}")));
    let header = &partial.header;
    let grid = kset_bench::sweeps::grid(&header.grid, header.grid_seed).unwrap_or_else(|e| fail(e));
    // The header must still describe the catalog grid it names — resuming
    // against a drifted catalog would silently mix semantics.
    let expected = grid.header(header.shard);
    if *header != expected {
        fail(format_args!(
            "{resume_path}: header does not match the current \"{}\" catalog grid \
             (axes or cell count drifted); re-sweep instead of resuming",
            header.grid
        ));
    }
    let resumed = partial.records.len();
    let owed = partial.owed();
    let recomputed = owed.len();

    // Resume must itself be kill-safe: the default output is the partial
    // file, and truncating it before the recompute finishes would destroy
    // exactly the work resuming exists to preserve. Write beside it and
    // rename into place only once the completed file is flushed (a plain
    // `sweep` writes directly on purpose — its streamed partial IS the
    // crash artifact; here the crash artifact already exists).
    let staging = format!("{out}.resume-tmp");
    let mut writer = ShardWriter::create(&staging);
    writer.emit(&header.render());
    for record in &partial.records {
        writer.emit(&format!("{}\n", record.render_line()));
    }
    let mut records = resumed;
    grid.sweep_range_streaming(owed, window, |record| {
        records += 1;
        writer.emit(&format!("{}\n", record.render_line()));
    });
    writer.emit(&kset_sim::sweep::record::render_footer(records));
    let file_digest = writer.finish();
    std::fs::rename(&staging, out)
        .unwrap_or_else(|e| fail(format_args!("cannot move {staging} into {out}: {e}")));
    println!(
        "sweep grid={} seed={} shard={} mode=resume resumed={resumed} \
         recomputed={recomputed} cells={records} out={out} file-digest={file_digest:#018x}",
        header.grid, header.grid_seed, header.shard,
    );
}

/// `merge`: reassemble per-shard files into the canonical full-grid file,
/// verifying exact coverage; `--check-against-sequential` additionally
/// recomputes the whole grid in-process and demands identical records.
fn merge_cmd(args: &[String]) {
    use kset_sim::sweep::{merge, ShardFile, ShardSpec};

    let mut out: Option<String> = None;
    let mut check = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--out needs a value"))
                        .clone(),
                );
            }
            "--check-against-sequential" => check = true,
            flag if flag.starts_with("--") => usage(&format!("unknown merge argument {flag:?}")),
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        usage("merge needs at least one shard file");
    }
    let shards: Vec<ShardFile> = paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")));
            ShardFile::parse(&text).unwrap_or_else(|e| fail(format_args!("{path}: {e}")))
        })
        .collect();
    let merged = merge(&shards).unwrap_or_else(|e| fail(e));
    let rendered = merged.render();
    let mut digest = FileDigest::new();
    digest.update(&rendered);
    println!(
        "merge grid={} seed={} shards={} cells={} file-digest={:#018x}",
        merged.header.grid,
        merged.header.grid_seed,
        shards.len(),
        merged.records.len(),
        digest.finish(),
    );
    if let Some(out) = &out {
        std::fs::write(out, &rendered)
            .unwrap_or_else(|e| fail(format_args!("cannot write {out}: {e}")));
    }
    if check {
        let grid = kset_bench::sweeps::grid(&merged.header.grid, merged.header.grid_seed)
            .unwrap_or_else(|e| fail(e));
        let sequential = ShardFile {
            header: grid.header(ShardSpec::FULL),
            records: grid.sweep_sequential(),
        };
        for (m, s) in merged.records.iter().zip(&sequential.records) {
            if m != s {
                fail(format_args!(
                    "cell {} diverges from the sequential recompute: \
                     merged {m:?}, sequential {s:?}",
                    m.index
                ));
            }
        }
        if rendered != sequential.render() {
            fail("merged file is not byte-identical to the sequential recompute");
        }
        println!(
            "check grid={} seed={}: merged == sequential ({} cells)",
            merged.header.grid,
            merged.header.grid_seed,
            merged.records.len(),
        );
    }
}

/// Coordinator-side progress log: one stderr line per scheduling event,
/// driven by the fleet's typed observer hooks (stdout stays reserved for
/// the machine-readable listening/summary lines).
struct LogObserver;

impl kset_sim::fleet::FleetObserver for LogObserver {
    fn on_worker_connected(&mut self, worker: &str) {
        eprintln!("fleet: worker {worker} connected");
    }
    fn on_lease_granted(&mut self, lease: u64, worker: &str, range: &std::ops::Range<usize>) {
        eprintln!(
            "fleet: lease {lease} -> {worker}: cells {}..{}",
            range.start, range.end
        );
    }
    fn on_lease_expired(&mut self, lease: u64, worker: &str, remainder: &std::ops::Range<usize>) {
        eprintln!(
            "fleet: lease {lease} ({worker}) expired; reassigning {}..{}",
            remainder.start, remainder.end
        );
    }
    fn on_worker_lost(&mut self, worker: &str) {
        eprintln!("fleet: worker {worker} lost");
    }
    fn on_protocol_fault(&mut self, worker: &str) {
        eprintln!("fleet: worker {worker} violated the protocol; cut off");
    }
    fn on_stale_dropped(&mut self, lease: u64) {
        eprintln!("fleet: stale message for dead lease {lease} dropped");
    }
    fn on_complete(&mut self, cells: usize) {
        eprintln!("fleet: all {cells} cells merged");
    }
}

/// `coordinate`: serve a catalog grid to fleet workers until every cell
/// has merged, streaming the incrementally merged file to `--out` (always
/// a valid partial-file prefix, so a killed coordinator can be restarted
/// with `--resume` on its own output). The final file is byte-identical
/// to `sweep --seq` of the same grid — the fleet CI gate `cmp`s exactly
/// that.
fn coordinate_cmd(args: &[String]) {
    use kset_sim::fleet::{Coordinator, CoordinatorConfig, LeaseParams};
    use kset_sim::sweep::{PartialShardFile, ShardSpec};

    let mut grid_name: Option<String> = None;
    let mut grid_seed: u64 = 42;
    let mut listen: Option<String> = None;
    let mut out: Option<String> = None;
    let mut lease_cells: usize = 4;
    let mut lease_timeout_ms: u64 = 30_000;
    let mut poll_ms: u64 = 10;
    let mut resume: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--grid" => grid_name = Some(value("--grid").clone()),
            "--grid-seed" => {
                grid_seed = value("--grid-seed")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --grid-seed: {e}")));
            }
            "--listen" => listen = Some(value("--listen").clone()),
            "--out" => out = Some(value("--out").clone()),
            "--lease-cells" => {
                lease_cells = value("--lease-cells")
                    .parse()
                    .ok()
                    .filter(|&c: &usize| c > 0)
                    .unwrap_or_else(|| usage("bad --lease-cells: need an integer of at least 1"));
            }
            "--lease-timeout-ms" => {
                lease_timeout_ms = value("--lease-timeout-ms")
                    .parse()
                    .ok()
                    .filter(|&t: &u64| t > 0)
                    .unwrap_or_else(|| {
                        usage("bad --lease-timeout-ms: need an integer of at least 1")
                    });
            }
            "--poll-ms" => {
                poll_ms = value("--poll-ms")
                    .parse()
                    .ok()
                    .filter(|&t: &u64| t > 0)
                    .unwrap_or_else(|| usage("bad --poll-ms: need an integer of at least 1"));
            }
            "--resume" => resume = Some(value("--resume").clone()),
            other => usage(&format!("unknown coordinate argument {other:?}")),
        }
    }
    let Some(grid_name) = grid_name else {
        usage("coordinate needs --grid");
    };
    let Some(listen) = listen else {
        usage("coordinate needs --listen");
    };
    let Some(out) = out else {
        usage("coordinate needs --out");
    };
    let grid = kset_bench::sweeps::grid(&grid_name, grid_seed).unwrap_or_else(|e| fail(e));
    let grid_id = kset_bench::fleet::grid_id(&grid);

    // `--resume FILE` seeds the merge from a partial coordinator artifact.
    // Like `sweep --resume`, the rewrite must be kill-safe when it targets
    // the partial file itself: stage beside it, rename once complete. A
    // fresh run writes `--out` directly — the streamed partial IS the
    // crash artifact.
    let resume_records = match &resume {
        None => Vec::new(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")));
            let partial = PartialShardFile::parse(&text)
                .unwrap_or_else(|e| fail(format_args!("{path}: {e}")));
            let expected = grid.header(ShardSpec::FULL);
            if partial.header != expected {
                fail(format_args!(
                    "{path}: header does not match the current \"{grid_name}\" catalog \
                     grid (fleet artifacts are always full-grid, shard 0/1); \
                     re-coordinate instead of resuming"
                ));
            }
            partial.records
        }
    };
    let resumed = resume_records.len();

    let config = CoordinatorConfig {
        lease: LeaseParams {
            cells: lease_cells,
            timeout: std::time::Duration::from_millis(lease_timeout_ms),
        },
        poll: std::time::Duration::from_millis(poll_ms),
    };
    let coordinator =
        Coordinator::bind(&listen, grid_id, resume_records, config).unwrap_or_else(|e| fail(e));
    let addr = coordinator.local_addr().unwrap_or_else(|e| fail(e));
    println!("coordinate listening on {addr} grid={grid_name} seed={grid_seed}");
    // The line above is how spawning tests/scripts learn the bound port;
    // make sure it crosses a pipe before the (potentially long) run.
    {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }

    let staging = resume.as_deref().map(|_| format!("{out}.resume-tmp"));
    let write_path = staging.as_deref().unwrap_or(&out);
    let mut writer = ShardWriter::create(write_path);
    let mut log = LogObserver;
    let (_file, counts) = coordinator
        .run(&mut log, |chunk| writer.emit(chunk))
        .unwrap_or_else(|e| fail(e));
    let file_digest = writer.finish();
    if let Some(staging) = &staging {
        std::fs::rename(staging, &out)
            .unwrap_or_else(|e| fail(format_args!("cannot move {staging} into {out}: {e}")));
    }
    println!(
        "coordinate grid={grid_name} seed={grid_seed} cells={merged} resumed={resumed} \
         workers={workers} leases={leases} completed={completed} expired={expired} \
         stale={stale} lost={lost} faults={faults} out={out} file-digest={file_digest:#018x}",
        merged = counts.merged,
        workers = counts.workers,
        leases = counts.leases,
        completed = counts.completed,
        expired = counts.expired,
        stale = counts.stale,
        lost = counts.lost,
        faults = counts.faults,
    );
}

/// `work`: one fleet worker computing catalog cells for the coordinator at
/// `--connect` until it says fin. `--fail-after N` is deterministic fault
/// injection — the worker drops its connection cold after computing N
/// cells (exit code 3), which is what the chaos gates use to kill workers
/// mid-range on purpose.
fn work_cmd(args: &[String]) {
    use kset_sim::fleet::{run_worker, WorkerConfig};

    let mut connect: Option<String> = None;
    let mut name = "worker".to_string();
    let mut fail_after: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--connect" => connect = Some(value("--connect").clone()),
            "--name" => name = value("--name").clone(),
            "--fail-after" => {
                fail_after = Some(
                    value("--fail-after")
                        .parse()
                        .unwrap_or_else(|e| usage(&format!("bad --fail-after: {e}"))),
                );
            }
            other => usage(&format!("unknown work argument {other:?}")),
        }
    }
    let Some(connect) = connect else {
        usage("work needs --connect");
    };
    let config = WorkerConfig { name, fail_after };
    let report = run_worker(&connect, &config, kset_bench::fleet::catalog_source())
        .unwrap_or_else(|e| fail(e));
    println!(
        "work name={} leases={} cells={} injected-failure={}",
        config.name,
        report.leases,
        report.cells,
        glyph(report.injected_failure),
    );
    if report.injected_failure {
        std::process::exit(3);
    }
}

/// E6 — Lemmas 6/7 on random stage-one graphs: source-component counts vs
/// the ⌊n/(δ+1)⌋ bound.
fn e6_graph_lemmas() {
    let mut t = Table::new(
        "E6 — Lemmas 6/7: source components of stage-one graphs (100 seeds each)",
        &[
            "n",
            "δ",
            "lemma 6",
            "lemma 7",
            "count bound",
            "max sources seen",
            "bound ⌊n/(δ+1)⌋",
        ],
    );
    for (n, delta) in [(6, 1), (6, 2), (9, 2), (12, 2), (12, 3), (16, 3), (20, 4)] {
        let mut ok6 = true;
        let mut ok7 = true;
        let mut okb = true;
        let mut max_sources = 0;
        for seed in 0..100 {
            let g = stage_one_graph(n, delta, seed);
            ok6 &= check_lemma6(&g, delta).is_ok();
            ok7 &= check_lemma7(&g, delta).is_ok();
            okb &= check_source_count_bound(&g, delta).is_ok();
            max_sources = max_sources.max(source_components(&g).len());
        }
        t.row(&[
            n.to_string(),
            delta.to_string(),
            glyph(ok6).into(),
            glyph(ok7).into(),
            glyph(okb).into(),
            max_sources.to_string(),
            (n / (delta + 1)).to_string(),
        ]);
    }
    println!("{t}");
}

/// E7 — step/round agreement over the Theorem 8 border grid (the
/// discrete-event engine runs these unit families as the step engine),
/// then the timed family's idle-skip — the virtual horizon grows linearly
/// with the latency bound while the executed units stay constant.
fn e7_discrete_event() {
    use kset_core::scenario::{differential, RoundAdapter};
    use kset_sim::des::Latency;
    use kset_sim::scenario::{Scenario, ScheduleFamily};
    use kset_sim::Engine;

    let mut t = Table::new(
        "E7a — step/round agreement on the Theorem 8 border grid",
        &["n", "k", "f", "sim = lock"],
    );
    for cell in kset_impossibility::theorem8_border_cells(42) {
        let scenario = Scenario::from_cell(&cell);
        let report = match differential::check::<FloodMin>(&scenario) {
            Ok(report) => report,
            Err(_) => continue,
        };
        t.row(&[
            cell.n.to_string(),
            cell.k.to_string(),
            cell.f.to_string(),
            glyph(report.agrees()).into(),
        ]);
    }
    println!("{t}");

    let mut t = Table::new(
        "E7b — timed family, fixed latency d (n=8, f=3, k=1): idle time is skipped",
        &["d", "virtual horizon", "units", "distinct", "decided"],
    );
    for d in [1u64, 4, 64, 1024] {
        let scenario = Scenario::favourable(8, 3, 1).with_schedule(ScheduleFamily::Timed {
            latency: Latency::fixed(d),
            gst: 0,
            seed: 42,
        });
        let Ok(mut engine) = scenario.to_des::<RoundAdapter<FloodMin>>() else {
            continue;
        };
        engine.drive(scenario.max_units);
        t.row(&[
            d.to_string(),
            engine.now().to_string(),
            engine.units().to_string(),
            engine.distinct_decisions().len().to_string(),
            glyph(engine.done()).into(),
        ]);
    }
    println!("{t}");
}
