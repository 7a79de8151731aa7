//! `kset-lint` — the workspace's zero-dependency static-analysis pass.
//!
//! The reproduction's guarantees (shard merges byte-identical to sequential
//! sweeps, `--resume` byte-identical to uninterrupted runs, both substrates
//! agreeing across the Theorem 8 border grid) rest on source-level
//! invariants. This crate enforces them mechanically, with `file:line`
//! diagnostics and per-site justified suppressions:
//!
//! | rule | contract |
//! |------|----------|
//! | `nondeterminism-in-record-path` | no `HashMap`/`HashSet`, ambient clocks, or ambient RNG in the modules that produce `kset-sweep` records, digests, and scenario lines |
//! | `observer-bypass` | engine driving outside `engine.rs`/`sync.rs`/`des/engine.rs` must not call the `step`/`step_once`/`execute_round_observed`/`tick`/`dispatch_with` internals that skip the `_observed` unified event stream |
//! | `unchecked-capacity` | panicking `ProcessSet`/`WideSet`/`Simulation`/`LockStep` constructors are flagged where `try_*` + `CapacityError` forms exist |
//! | `panic-in-library` | `unwrap()`/`expect()`/`panic!` in non-test library code needs a justification allow |
//! | `shim-drift` | `crates/shims` public items must stay within the checked-in upstream-API-subset manifest |
//!
//! Suppression grammar (see [`scan`]):
//!
//! ```text
//! // kset-lint: allow(<rule>): <non-empty justification>
//! ```
//!
//! The pass runs three ways: the `kset-lint` binary (CI job), the in-process
//! workspace scan in `tests/workspace_scan.rs` (so `cargo test` is the
//! gate), and fixture-driven self-tests over `tests/fixtures/`.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod shim_manifest;
pub mod workspace;

use std::fs;
use std::path::{Path, PathBuf};

use report::Report;
use rules::{Diagnostic, Status};
use scan::ScannedFile;
use workspace::WorkspaceError;

/// Location of the shim manifest, workspace-relative.
pub const SHIM_MANIFEST_PATH: &str = "crates/lint/shim-manifest.txt";

/// Errors from a full workspace pass.
#[derive(Debug)]
pub enum LintError {
    /// Workspace discovery or file IO failed.
    Workspace(WorkspaceError),
    /// A source file could not be read.
    Read(PathBuf, std::io::Error),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Workspace(e) => write!(f, "workspace discovery: {e}"),
            LintError::Read(p, e) => write!(f, "reading {}: {e}", p.display()),
        }
    }
}

impl std::error::Error for LintError {}

impl From<WorkspaceError> for LintError {
    fn from(e: WorkspaceError) -> Self {
        LintError::Workspace(e)
    }
}

/// Runs the full pass over the workspace rooted at `root`.
pub fn run_workspace(root: &Path) -> Result<Report, LintError> {
    let members = workspace::discover_members(root)?;
    let sources = workspace::discover_sources(root, &members)?;

    let mut report = Report::default();
    for file in &sources {
        let abs = root.join(&file.rel_path);
        let text = fs::read_to_string(&abs).map_err(|e| LintError::Read(abs.clone(), e))?;
        let mut scanned = ScannedFile::scan(&file.rel_path, text);
        report
            .diagnostics
            .extend(rules::check_file(file, &mut scanned));
        report.files_scanned += 1;
    }

    // shim-drift: workspace-level manifest comparison.
    let surface = shim_manifest::extract_shim_surface(root, &members)?;
    let manifest_path = root.join(SHIM_MANIFEST_PATH);
    match fs::read_to_string(&manifest_path) {
        Ok(manifest) => report
            .diagnostics
            .extend(shim_manifest::check_drift(&manifest, &surface)),
        Err(_) => report.diagnostics.push(Diagnostic {
            rule: rules::SHIM_DRIFT,
            file: SHIM_MANIFEST_PATH.to_string(),
            line: 1,
            message: "shim manifest missing; generate it with `kset-lint --write-shim-manifest`"
                .to_string(),
            status: Status::Violation,
            justification: None,
        }),
    }

    report.finish();
    Ok(report)
}

/// Regenerates the shim manifest from the live shim surface; returns the
/// rendered text (the binary writes it to [`SHIM_MANIFEST_PATH`]).
pub fn regenerate_shim_manifest(root: &Path) -> Result<String, LintError> {
    let members = workspace::discover_members(root)?;
    let surface = shim_manifest::extract_shim_surface(root, &members)?;
    Ok(shim_manifest::render_manifest(&surface))
}
