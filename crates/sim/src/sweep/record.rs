//! The plain-text shard result format (`kset-sweep v2`) and its
//! coverage-checked merge.
//!
//! Each shard of a sharded sweep writes a **self-describing, line-oriented
//! text file** (the workspace vendors no serde): a three-line header naming
//! the grid, its seed, its axes, the total cell count and the shard spec;
//! one `cell` line per swept cell carrying the cell's global index, its
//! `(n, f, k)` point, its [`cell_seed`], a decision digest and an
//! optional typed [`Observation`] payload; and an
//! `end <count>` footer so truncated files are detectable.
//!
//! ```text
//! kset-sweep v2
//! grid border seed 42 axes theorem8-border cells 9
//! shard 1/3 range 3..6
//! cell 3 n 6 f 4 k 2 seed 0xc86a910a935dc447 digest 0x0011223344556677 obs distinct 0,3,7
//! cell 4 n 9 f 6 k 2 seed 0x... digest 0x... obs counts sends 81 dropped 12 delivers 54 fd 0 steps 0 rounds 3 crashes 6 decides 3 halts 1
//! cell 5 n 12 f 8 k 2 seed 0x... digest 0x...
//! end 3
//! ```
//!
//! Any other magic line — the retired `v1` included — is
//! [`ParseError::BadMagic`].
//!
//! **Partial files.** A file whose cell lines stop before the footer is
//! no longer garbage: [`PartialShardFile::parse`] accepts any prefix that
//! extends past the three header lines (a torn final line — a write cut
//! mid-line by a crash — is tolerated when nothing follows it; a cut
//! *inside* the header leaves nothing to resume and stays a typed error)
//! and derives **exactly which cells are still owed** from the header's
//! range and the validated record prefix. That is what makes sweeps resumable: `experiments sweep
//! --resume FILE` recomputes only [`PartialShardFile::owed`] and rewrites
//! the completed file, byte-identical to an uninterrupted sweep.
//!
//! [`ShardFile::parse`] validates everything re-derivable: the shard's
//! declared range must be [`ShardSpec::range`] of
//! the declared total, cell indices must walk that range exactly (so
//! duplicated, out-of-order, missing and foreign indices are all typed
//! errors), every seed must re-derive from `(grid_seed, index)`, and the
//! footer count must match. [`merge`] then reassembles a full grid from
//! per-shard files, verifying **exact coverage** — headers identical,
//! every shard of the partition present exactly once, every cell index
//! exactly once — before returning the canonical single-shard
//! ([`ShardSpec::FULL`]) file, whose rendering is byte-identical to what a
//! sequential single-process sweep of the full grid writes. That byte
//! identity is the CI conformance gate, observation payloads included.

use std::fmt;

use super::{cell_seed, GridCell, ShardError, ShardSpec};
use crate::observe::EventCounts;

/// The first line of every shard file.
pub const FORMAT_MAGIC: &str = "kset-sweep v2";

/// A typed, plain-text observation payload attached to a cell record —
/// what the cell's run *looked like*, not just a digest of it.
///
/// Three shapes, one per observation style the workspace produces:
///
/// * [`Observation::Decisions`] — the per-process decision vector
///   (`-` renders an undecided slot);
/// * [`Observation::Distinct`] — the distinct decision values, strictly
///   ascending (the quantity k-Agreement bounds);
/// * [`Observation::Counts`] — the [`EventCounts`] of an
///   [`EventCounter`](crate::observe::EventCounter) attached to the cell's
///   run through [`Engine::drive_observed`](crate::Engine::drive_observed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// Per-process decisions, `None` = undecided.
    Decisions(Vec<Option<u64>>),
    /// Distinct decision values, strictly ascending.
    Distinct(Vec<u64>),
    /// Event totals of the cell's observed run.
    Counts(EventCounts),
}

impl Observation {
    /// Builds a [`Observation::Distinct`] from any value iterator,
    /// sorting and deduplicating so the rendering is canonical.
    pub fn distinct(values: impl IntoIterator<Item = u64>) -> Self {
        let mut v: Vec<u64> = values.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Observation::Distinct(v)
    }

    /// Renders the observation tail (the part after `obs `, no
    /// surrounding whitespace). List fields use the workspace's shared
    /// csv grammar (comma-separated, `-` when empty).
    pub fn render(&self) -> String {
        use crate::textfmt::render_csv as csv;
        match self {
            Observation::Decisions(ds) => {
                // An empty decision vector would render like one undecided
                // slot; systems have n ≥ 1 processes, so an empty vector
                // is a writer bug, not a runtime condition.
                assert!(!ds.is_empty(), "decision vectors cover n >= 1 processes");
                format!(
                    "decisions {}",
                    csv(ds.iter().map(|d| match d {
                        Some(v) => v.to_string(),
                        None => "-".to_string(),
                    }))
                )
            }
            Observation::Distinct(vs) => {
                format!("distinct {}", csv(vs.iter().map(u64::to_string)))
            }
            Observation::Counts(c) => format!(
                "counts sends {} dropped {} delivers {} fd {} steps {} rounds {} \
                 crashes {} decides {} halts {}",
                c.sends,
                c.dropped,
                c.delivers,
                c.fd_samples,
                c.steps,
                c.rounds,
                c.crashes,
                c.decides,
                c.halts
            ),
        }
    }

    /// Parses the observation tail tokens (everything after the `obs`
    /// keyword). `None` = malformed.
    fn parse_tokens(tokens: &[&str]) -> Option<Observation> {
        match tokens {
            ["decisions", csv] => {
                if *csv == "-" {
                    // A 1-process grid cell with an undecided process
                    // renders the same "-" as an empty vector would; the
                    // vector is never empty in practice (n ≥ 1), so "-"
                    // reads back as one undecided slot.
                    return Some(Observation::Decisions(vec![None]));
                }
                let out = crate::textfmt::parse_csv_with(csv, |tok| match tok {
                    "-" => Some(None),
                    _ => tok.parse().ok().map(Some),
                })?;
                Some(Observation::Decisions(out))
            }
            ["distinct", csv] => {
                let out: Vec<u64> = crate::textfmt::parse_csv_with(csv, |tok| tok.parse().ok())?;
                if out.windows(2).any(|w| w[0] >= w[1]) {
                    return None; // not strictly ascending: not canonical
                }
                Some(Observation::Distinct(out))
            }
            ["counts", "sends", sends, "dropped", dropped, "delivers", delivers, "fd", fd, "steps", steps, "rounds", rounds, "crashes", crashes, "decides", decides, "halts", halts] => {
                Some(Observation::Counts(EventCounts {
                    sends: sends.parse().ok()?,
                    dropped: dropped.parse().ok()?,
                    delivers: delivers.parse().ok()?,
                    fd_samples: fd.parse().ok()?,
                    steps: steps.parse().ok()?,
                    rounds: rounds.parse().ok()?,
                    crashes: crashes.parse().ok()?,
                    decides: decides.parse().ok()?,
                    halts: halts.parse().ok()?,
                }))
            }
            _ => None,
        }
    }
}

/// One swept cell: its grid coordinates, the digest of its outcome, and
/// an optional typed [`Observation`].
///
/// `digest` is whatever 64-bit summary the sweep worker produced (the
/// experiments binary uses the release-stable
/// [`stable_fingerprint`](crate::stable_fingerprint) of the
/// cell's decision outcome); equality of digests across runs is the
/// determinism claim the shard-matrix CI gate checks. The observation is
/// *payload*, not checksum: it must be a deterministic function of the
/// cell (resume byte-identity depends on it) but takes no part in
/// coverage checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Global index of the cell in the full grid's emission order.
    pub index: usize,
    /// System size.
    pub n: usize,
    /// Failure budget of the cell.
    pub f: usize,
    /// Agreement degree.
    pub k: usize,
    /// The cell's deterministic seed, `cell_seed(grid_seed, index)`.
    pub seed: u64,
    /// 64-bit digest of the cell's decision outcome.
    pub digest: u64,
    /// Typed observation payload (`None` for cells swept without an
    /// observer).
    pub obs: Option<Observation>,
}

impl CellRecord {
    /// Pairs a grid cell with its decision digest (no observation).
    pub fn new(cell: &GridCell, digest: u64) -> Self {
        CellRecord {
            index: cell.index,
            n: cell.n,
            f: cell.f,
            k: cell.k,
            seed: cell.seed,
            digest,
            obs: None,
        }
    }

    /// Attaches a typed observation payload. Returns `self` for chaining.
    #[must_use]
    pub fn with_observation(mut self, obs: Observation) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Renders the `cell` line (no trailing newline).
    pub fn render_line(&self) -> String {
        let mut line = format!(
            "cell {} n {} f {} k {} seed {:#018x} digest {:#018x}",
            self.index, self.n, self.f, self.k, self.seed, self.digest
        );
        if let Some(obs) = &self.obs {
            line.push_str(" obs ");
            line.push_str(&obs.render());
        }
        line
    }

    /// Parses one `cell` line (the inverse of [`CellRecord::render_line`]),
    /// or `None` if it does not match the `cell` grammar — the
    /// single-record entry point the fleet protocol shares with the file
    /// parser, so a record on the wire and a record in a shard file can
    /// never drift apart.
    ///
    /// This validates the *line* only; contextual checks (index walking,
    /// seed re-derivation) belong to the caller, exactly as in
    /// [`ShardFile::parse`].
    pub fn parse_line(line: &str) -> Option<CellRecord> {
        let t: Vec<&str> = line.split_whitespace().collect();
        let ["cell", index, "n", n, "f", f, "k", k, "seed", seed, "digest", digest, ref obs_tokens @ ..] =
            t[..]
        else {
            return None;
        };
        let obs = match obs_tokens {
            [] => None,
            ["obs", rest @ ..] => Some(Observation::parse_tokens(rest)?),
            _ => return None,
        };
        Some(CellRecord {
            index: index.parse().ok()?,
            n: n.parse().ok()?,
            f: f.parse().ok()?,
            k: k.parse().ok()?,
            seed: parse_hex(seed)?,
            digest: parse_hex(digest)?,
            obs,
        })
    }
}

/// The self-describing header of a shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepHeader {
    /// Name of the grid (one whitespace-free token, e.g. `border`).
    pub grid: String,
    /// The grid seed every cell seed derives from.
    pub grid_seed: u64,
    /// Whitespace-free description of the grid's axes
    /// (e.g. `ns=64,128;fs=1,2;ks=1`): what the index space was built from.
    pub axes: String,
    /// Total number of cells in the **full** grid (not this shard).
    pub total: usize,
    /// Which shard of the grid this file holds.
    pub shard: ShardSpec,
}

impl SweepHeader {
    /// Builds a header, validating that `grid` and `axes` are single
    /// non-empty whitespace-free tokens (the format is token-delimited).
    ///
    /// # Panics
    ///
    /// Panics on an empty or whitespace-containing `grid`/`axes` — those
    /// are writer bugs, not runtime conditions.
    pub fn new(
        grid: impl Into<String>,
        grid_seed: u64,
        axes: impl Into<String>,
        total: usize,
        shard: ShardSpec,
    ) -> Self {
        let (grid, axes) = (grid.into(), axes.into());
        for (name, value) in [("grid", &grid), ("axes", &axes)] {
            assert!(
                !value.is_empty() && !value.contains(char::is_whitespace),
                "{name} must be one non-empty whitespace-free token, got {value:?}"
            );
        }
        SweepHeader {
            grid,
            grid_seed,
            axes,
            total,
            shard,
        }
    }

    /// The contiguous range of global cell indices this shard owns.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.shard.range(self.total)
    }

    /// Renders the three header lines (with trailing newline).
    pub fn render(&self) -> String {
        let r = self.range();
        format!(
            "{}\ngrid {} seed {} axes {} cells {}\nshard {} range {}..{}\n",
            FORMAT_MAGIC,
            self.grid,
            self.grid_seed,
            self.axes,
            self.total,
            self.shard,
            r.start,
            r.end
        )
    }

    /// The header this file must agree with to merge with `other`:
    /// everything except the shard index.
    fn merge_key(&self) -> (&str, u64, &str, usize, usize) {
        (
            &self.grid,
            self.grid_seed,
            &self.axes,
            self.total,
            self.shard.shard_count(),
        )
    }
}

/// Renders the `end <count>` footer line (with trailing newline). Shared
/// by [`ShardFile::render`] and streaming writers that append record
/// lines as cells complete.
pub fn render_footer(records: usize) -> String {
    format!("end {records}\n")
}

/// A parsed (or about-to-be-rendered) shard result file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFile {
    /// The self-describing header.
    pub header: SweepHeader,
    /// One record per owned cell, in global cell order.
    pub records: Vec<CellRecord>,
}

impl ShardFile {
    /// Renders the complete file: header, one line per record, footer.
    pub fn render(&self) -> String {
        let mut out = self.header.render();
        for record in &self.records {
            out.push_str(&record.render_line());
            out.push('\n');
        }
        out.push_str(&render_footer(self.records.len()));
        out
    }

    /// Parses and validates a **complete** shard file.
    ///
    /// Beyond the grammar, this checks every property re-derivable from
    /// the header alone: the declared range is the shard's
    /// [`range`](SweepHeader::range), record indices walk that range
    /// exactly (duplicates, gaps, reorderings and foreign indices all
    /// surface as [`ParseError::UnexpectedIndex`]), seeds re-derive via
    /// [`cell_seed`], the footer count matches, and
    /// nothing follows the footer. A file that parses is a complete,
    /// internally consistent shard; for the prefix of one, see
    /// [`PartialShardFile::parse`].
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let partial = PartialShardFile::parse_inner(text, false)?;
        debug_assert!(partial.is_complete(), "strict parsing rejects prefixes");
        Ok(ShardFile {
            header: partial.header,
            records: partial.records,
        })
    }
}

/// A validated **prefix** of a shard file: everything swept before the
/// writer stopped — crash, kill, or clean completion — plus the derived
/// set of cells still owed.
///
/// The prefix carries the full self-describing header, so the partial
/// file alone determines the grid, the shard, and [`owed`](Self::owed) —
/// exactly the cells a `--resume` run must recompute. A complete file is
/// the degenerate partial with nothing owed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialShardFile {
    /// The self-describing header.
    pub header: SweepHeader,
    /// The validated record prefix, in global cell order from the start
    /// of the shard's range.
    pub records: Vec<CellRecord>,
}

impl PartialShardFile {
    /// Parses a possibly-incomplete shard file (a complete file also
    /// parses, as the degenerate partial with nothing owed).
    ///
    /// The prefix must extend past the three header lines — a file cut
    /// inside the header identifies no grid, no shard and no owed set,
    /// so there is nothing to resume and the cut stays a typed error
    /// ([`ParseError::Truncated`] / [`ParseError::BadMagic`] /
    /// [`ParseError::BadLine`], depending on where the knife fell).
    /// Past the header, the accepted endings in place of the strict
    /// `end <count>` footer are:
    ///
    /// * end of input after any number of complete cell lines — the
    ///   writer was killed between lines;
    /// * one torn final line with no trailing newline — the writer was
    ///   killed mid-write; the torn tail is discarded and its cell is
    ///   owed again.
    ///
    /// Everything *before* the cut is validated exactly as in
    /// [`ShardFile::parse`]: prefix indices walk the range from its
    /// start, seeds re-derive, observations are well-formed. A malformed
    /// line *followed by more input* is corruption, not truncation, and
    /// stays a typed error.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        Self::parse_inner(text, true)
    }

    /// The contiguous range of cell indices this shard still owes: the
    /// tail of the header's range not covered by the record prefix.
    pub fn owed(&self) -> std::ops::Range<usize> {
        let range = self.header.range();
        range.start + self.records.len()..range.end
    }

    /// Whether the prefix already covers the whole shard (a complete
    /// file: nothing owed; the footer was present and correct).
    pub fn is_complete(&self) -> bool {
        self.owed().is_empty()
    }

    /// Reinterprets a complete partial as the [`ShardFile`] it is.
    ///
    /// # Panics
    ///
    /// Panics if cells are still owed — completing them first is the
    /// caller's job (that is what resuming *is*).
    pub fn into_complete(self) -> ShardFile {
        assert!(self.is_complete(), "cells still owed: {:?}", self.owed());
        ShardFile {
            header: self.header,
            records: self.records,
        }
    }

    fn parse_inner(text: &str, allow_partial: bool) -> Result<Self, ParseError> {
        let lines: Vec<&str> = text.lines().collect();
        let total_lines = lines.len();
        let torn_tail = !text.is_empty() && !text.ends_with('\n');
        let mut lines = lines.into_iter().enumerate();
        let mut next_line = |expect: &str| {
            lines
                .next()
                .ok_or_else(|| ParseError::Truncated {
                    expected: expect.to_string(),
                })
                .map(|(no, line)| (no + 1, line))
        };

        let (no, magic) = next_line("format magic")?;
        if magic != FORMAT_MAGIC {
            return Err(ParseError::BadMagic {
                line: no,
                found: magic.to_string(),
            });
        }

        let (no, grid_line) = next_line("grid header")?;
        let t: Vec<&str> = grid_line.split_whitespace().collect();
        let [_, grid, _, seed, _, axes, _, cells] = t[..] else {
            return Err(ParseError::bad_line(no, grid_line));
        };
        if t[0] != "grid" || t[2] != "seed" || t[4] != "axes" || t[6] != "cells" {
            return Err(ParseError::bad_line(no, grid_line));
        }
        let grid_seed: u64 = seed
            .parse()
            .map_err(|_| ParseError::bad_line(no, grid_line))?;
        let total: usize = cells
            .parse()
            .map_err(|_| ParseError::bad_line(no, grid_line))?;

        let (no, shard_line) = next_line("shard header")?;
        let t: Vec<&str> = shard_line.split_whitespace().collect();
        let [_, spec, _, range] = t[..] else {
            return Err(ParseError::bad_line(no, shard_line));
        };
        if t[0] != "shard" || t[2] != "range" {
            return Err(ParseError::bad_line(no, shard_line));
        }
        let shard: ShardSpec = spec.parse().map_err(ParseError::BadShard)?;
        let (start, end) = range
            .split_once("..")
            .and_then(|(s, e)| Some((s.parse::<usize>().ok()?, e.parse::<usize>().ok()?)))
            .ok_or_else(|| ParseError::bad_line(no, shard_line))?;
        let header = SweepHeader::new(grid, grid_seed, axes, total, shard);
        let expected = header.range();
        if (start, end) != (expected.start, expected.end) {
            return Err(ParseError::RangeMismatch {
                declared: start..end,
                derived: expected,
            });
        }

        // The range length comes from an untrusted header: cap the
        // pre-allocation so a file claiming 10^12 cells errors out on its
        // first bad line instead of aborting on the reservation.
        let mut records = Vec::with_capacity(expected.len().min(4096));
        let mut walk = expected.clone();
        let declared = loop {
            let (no, line) = match lines.next() {
                Some((no, line)) => (no + 1, line),
                None if allow_partial => {
                    // Clean cut between lines: everything parsed so far is
                    // the valid prefix.
                    return Ok(PartialShardFile { header, records });
                }
                None => {
                    return Err(ParseError::Truncated {
                        expected: "cell record or footer".to_string(),
                    });
                }
            };
            // The writer emits whole `\n`-terminated lines, so text that
            // does not end in a newline ends in a *torn* line — and a torn
            // line must never be parsed: a digest cut mid-hex still reads
            // as valid hex and would resume into a corrupt record. Drop it
            // categorically; its cell is owed again.
            if allow_partial && torn_tail && no == total_lines {
                return Ok(PartialShardFile { header, records });
            }
            let t: Vec<&str> = line.split_whitespace().collect();
            match t[..] {
                ["end", count] => {
                    break count
                        .parse::<usize>()
                        .map_err(|_| ParseError::bad_line(no, line))?;
                }
                ["cell", ..] => {
                    let record = CellRecord::parse_line(line)
                        .ok_or_else(|| ParseError::bad_line(no, line))?;
                    match walk.next() {
                        Some(expect) if expect == record.index => {}
                        expect => {
                            return Err(ParseError::UnexpectedIndex {
                                expected: expect,
                                found: record.index,
                            });
                        }
                    }
                    let derived = cell_seed(grid_seed, record.index);
                    if record.seed != derived {
                        return Err(ParseError::SeedMismatch {
                            index: record.index,
                            derived,
                            found: record.seed,
                        });
                    }
                    records.push(record);
                }
                _ => return Err(ParseError::bad_line(no, line)),
            }
        };
        if declared != records.len() {
            return Err(ParseError::CountMismatch {
                declared,
                actual: records.len(),
            });
        }
        if let Some(missing) = walk.next() {
            return Err(ParseError::UnexpectedIndex {
                expected: Some(missing),
                found: usize::MAX,
            });
        }
        if let Some((no, line)) = lines.find(|(_, l)| !l.trim().is_empty()) {
            return Err(ParseError::bad_line(no + 1, line));
        }
        Ok(PartialShardFile { header, records })
    }
}

fn parse_hex(token: &str) -> Option<u64> {
    let hex = token.strip_prefix("0x")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Why a shard file failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input ended before the grammar did — a truncated file.
    Truncated {
        /// What the parser was looking for when the input ran out.
        expected: String,
    },
    /// The first line is not [`FORMAT_MAGIC`].
    BadMagic {
        /// 1-based line number.
        line: usize,
        /// The line found instead.
        found: String,
    },
    /// A line did not match the token grammar.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending line.
        content: String,
    },
    /// The shard spec itself was invalid (e.g. `5/3`).
    BadShard(ShardError),
    /// The declared cell range is not what the shard spec derives to.
    RangeMismatch {
        /// The range the file claims.
        declared: std::ops::Range<usize>,
        /// The range `ShardSpec::range(total)` derives.
        derived: std::ops::Range<usize>,
    },
    /// Cell indices must walk the shard's range exactly; duplicated,
    /// out-of-order, missing and out-of-shard indices all land here.
    UnexpectedIndex {
        /// The next index the range walk expected (`None`: walk done).
        expected: Option<usize>,
        /// The index found (`usize::MAX` when a record is missing
        /// entirely).
        found: usize,
    },
    /// A record's seed does not re-derive from `(grid_seed, index)`.
    SeedMismatch {
        /// The record's cell index.
        index: usize,
        /// `cell_seed(grid_seed, index)`.
        derived: u64,
        /// The seed in the file.
        found: u64,
    },
    /// The `end` footer disagrees with the number of records present.
    CountMismatch {
        /// The count the footer declares.
        declared: usize,
        /// The records actually present.
        actual: usize,
    },
}

impl ParseError {
    fn bad_line(line: usize, content: &str) -> Self {
        ParseError::BadLine {
            line,
            content: content.to_string(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { expected } => {
                write!(f, "truncated shard file: expected {expected}")
            }
            ParseError::BadMagic { line, found } => {
                write!(
                    f,
                    "line {line}: not a {FORMAT_MAGIC:?} file (found {found:?})"
                )
            }
            ParseError::BadLine { line, content } => {
                write!(f, "line {line}: malformed line {content:?}")
            }
            ParseError::BadShard(e) => write!(f, "invalid shard spec: {e}"),
            ParseError::RangeMismatch { declared, derived } => write!(
                f,
                "declared range {}..{} but the shard spec derives {}..{}",
                declared.start, declared.end, derived.start, derived.end
            ),
            ParseError::UnexpectedIndex { expected, found } => match expected {
                Some(e) if *found == usize::MAX => {
                    write!(f, "missing record for cell {e}")
                }
                Some(e) => write!(f, "expected cell {e}, found cell {found}"),
                None => write!(f, "cell {found} lies outside this shard's range"),
            },
            ParseError::SeedMismatch {
                index,
                derived,
                found,
            } => write!(
                f,
                "cell {index}: seed {found:#018x} does not re-derive \
                 (cell_seed gives {derived:#018x})"
            ),
            ParseError::CountMismatch { declared, actual } => {
                write!(f, "footer declares {declared} records, file has {actual}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Merges per-shard result files back into the canonical full-grid file,
/// verifying exact coverage.
///
/// Requirements, each with a typed [`MergeError`]:
///
/// * every file describes the **same grid** — name, grid seed, axes,
///   total and shard count all equal (cross-grid mixes are rejected);
/// * the shard indices are exactly `0..shard_count`, each **exactly
///   once** (a withheld or doubled shard is rejected);
/// * the union of records covers every cell index **exactly once**, and
///   every seed re-derives from `(grid_seed, index)` (defense in depth —
///   [`ShardFile::parse`] already enforces both per file).
///
/// The result carries [`ShardSpec::FULL`] and records in cell order, so
/// `merge(shards)?.render()` is byte-identical to the file a sequential
/// single-process sweep of the whole grid writes.
pub fn merge(shards: &[ShardFile]) -> Result<ShardFile, MergeError> {
    use std::collections::{BTreeMap, BTreeSet};

    let Some(first) = shards.first() else {
        return Err(MergeError::NoShards);
    };
    let key = first.header.merge_key();
    let count = first.header.shard.shard_count();
    let total = first.header.total;
    // Header totals and shard counts come from *files*: never allocate
    // proportionally to them (a corrupt header claiming 10^12 cells must
    // produce a typed error, not an OOM abort), only to the actual input.
    let mut seen_shards: BTreeSet<usize> = BTreeSet::new();
    let mut slots: BTreeMap<usize, CellRecord> = BTreeMap::new();
    for file in shards {
        if file.header.merge_key() != key {
            return Err(MergeError::GridMismatch {
                expected: Box::new(first.header.clone()),
                found: Box::new(file.header.clone()),
            });
        }
        let index = file.header.shard.shard_index();
        if !seen_shards.insert(index) {
            return Err(MergeError::DuplicateShard { shard_index: index });
        }
        for record in &file.records {
            let derived = cell_seed(first.header.grid_seed, record.index);
            if record.seed != derived {
                return Err(MergeError::SeedMismatch {
                    index: record.index,
                    derived,
                    found: record.seed,
                });
            }
            if record.index >= total {
                return Err(MergeError::IndexOutOfRange {
                    index: record.index,
                    total,
                });
            }
            if slots.insert(record.index, record.clone()).is_some() {
                return Err(MergeError::DuplicateIndex {
                    index: record.index,
                });
            }
        }
    }
    // The first absent shard (or cell) lies within one position of the
    // number of *present* ones, so these scans are bounded by the input
    // size even when the claimed counts are absurd.
    if seen_shards.len() != count {
        let shard_index = (0..count)
            .find(|i| !seen_shards.contains(i))
            // kset-lint: allow(panic-in-library): pigeonhole — seen_shards.len() != count with all members below count guarantees a missing index
            .expect("fewer distinct shards than the count: one is missing");
        return Err(MergeError::MissingShard { shard_index });
    }
    if slots.len() != total {
        let index = (0..total)
            .find(|i| !slots.contains_key(i))
            // kset-lint: allow(panic-in-library): pigeonhole — slots.len() != total with all keys below total guarantees a missing index
            .expect("fewer distinct cells than the total: one is missing");
        return Err(MergeError::MissingIndex { index });
    }
    Ok(ShardFile {
        header: SweepHeader {
            shard: ShardSpec::FULL,
            ..first.header.clone()
        },
        // BTreeMap iteration is index order: exactly the sequential file.
        records: slots.into_values().collect(),
    })
}

/// Why a set of shard files does not merge into a full grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No input files.
    NoShards,
    /// Two files describe different grids (name, seed, axes, total or
    /// shard count differ) — a cross-grid mix.
    GridMismatch {
        /// The header of the first file, setting the expectation.
        expected: Box<SweepHeader>,
        /// The disagreeing header.
        found: Box<SweepHeader>,
    },
    /// The same shard index appeared twice.
    DuplicateShard {
        /// The doubled shard.
        shard_index: usize,
    },
    /// A shard of the partition was withheld.
    MissingShard {
        /// The absent shard.
        shard_index: usize,
    },
    /// Two records claim the same cell.
    DuplicateIndex {
        /// The doubled cell index.
        index: usize,
    },
    /// A cell of the grid has no record.
    MissingIndex {
        /// The uncovered cell index.
        index: usize,
    },
    /// A record's index lies outside the grid.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The grid's cell count.
        total: usize,
    },
    /// A record's seed does not re-derive from `(grid_seed, index)`.
    SeedMismatch {
        /// The record's cell index.
        index: usize,
        /// `cell_seed(grid_seed, index)`.
        derived: u64,
        /// The seed in the file.
        found: u64,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "no shard files to merge"),
            MergeError::GridMismatch { expected, found } => write!(
                f,
                "cross-grid mix: expected grid {} seed {} axes {} cells {} ({} shards), \
                 found grid {} seed {} axes {} cells {} ({} shards)",
                expected.grid,
                expected.grid_seed,
                expected.axes,
                expected.total,
                expected.shard.shard_count(),
                found.grid,
                found.grid_seed,
                found.axes,
                found.total,
                found.shard.shard_count(),
            ),
            MergeError::DuplicateShard { shard_index } => {
                write!(f, "shard {shard_index} appears more than once")
            }
            MergeError::MissingShard { shard_index } => {
                write!(f, "shard {shard_index} is missing from the merge set")
            }
            MergeError::DuplicateIndex { index } => {
                write!(f, "cell {index} is covered by two records")
            }
            MergeError::MissingIndex { index } => {
                write!(f, "cell {index} is covered by no record")
            }
            MergeError::IndexOutOfRange { index, total } => {
                write!(f, "cell {index} lies outside the {total}-cell grid")
            }
            MergeError::SeedMismatch {
                index,
                derived,
                found,
            } => write!(
                f,
                "cell {index}: seed {found:#018x} does not re-derive \
                 (cell_seed gives {derived:#018x})"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic grid of `total` cells with digests derived from seeds.
    fn shard_file(grid: &str, grid_seed: u64, total: usize, spec: ShardSpec) -> ShardFile {
        let header = SweepHeader::new(grid, grid_seed, "ns=4;fs=1;ks=1", total, spec);
        let records = header
            .range()
            .map(|index| CellRecord {
                index,
                n: 4,
                f: 1,
                k: 1,
                seed: cell_seed(grid_seed, index),
                digest: cell_seed(grid_seed, index).rotate_left(7),
                obs: None,
            })
            .collect();
        ShardFile { header, records }
    }

    #[test]
    fn round_trip_is_identity() {
        for (index, count) in [(0, 1), (0, 3), (1, 3), (2, 3)] {
            let file = shard_file("demo", 42, 10, ShardSpec::new(index, count).unwrap());
            let parsed = ShardFile::parse(&file.render()).expect("rendered files parse");
            assert_eq!(parsed, file);
            assert_eq!(parsed.render(), file.render());
        }
    }

    #[test]
    fn parse_rejects_truncation() {
        let full = shard_file("demo", 42, 10, ShardSpec::FULL).render();
        // Drop the footer line.
        let truncated = full.trim_end_matches('\n').rsplit_once('\n').unwrap().0;
        assert!(matches!(
            ShardFile::parse(truncated),
            Err(ParseError::Truncated { .. })
        ));
        // Drop everything after the header.
        let header_only: String = full.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            ShardFile::parse(&header_only),
            Err(ParseError::Truncated { .. })
        ));
        assert!(matches!(
            ShardFile::parse(""),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn parse_rejects_duplicate_and_reordered_indices() {
        let file = shard_file("demo", 42, 6, ShardSpec::FULL);
        let mut dup = file.clone();
        dup.records[3] = dup.records[2].clone();
        assert_eq!(
            ShardFile::parse(&dup.render()),
            Err(ParseError::UnexpectedIndex {
                expected: Some(3),
                found: 2
            })
        );
        let mut swapped = file.clone();
        swapped.records.swap(1, 2);
        assert!(matches!(
            ShardFile::parse(&swapped.render()),
            Err(ParseError::UnexpectedIndex { .. })
        ));
    }

    #[test]
    fn parse_rejects_seed_mismatch() {
        let mut file = shard_file("demo", 42, 6, ShardSpec::FULL);
        file.records[4].seed ^= 1;
        assert!(matches!(
            ShardFile::parse(&file.render()),
            Err(ParseError::SeedMismatch { index: 4, .. })
        ));
    }

    #[test]
    fn parse_rejects_footer_count_mismatch_and_trailing_garbage() {
        let good = shard_file("demo", 42, 4, ShardSpec::FULL).render();
        let lying = good.replace("end 4", "end 3");
        assert_eq!(
            ShardFile::parse(&lying),
            Err(ParseError::CountMismatch {
                declared: 3,
                actual: 4
            })
        );
        let trailing = format!("{good}cell 9 n 4 f 1 k 1 seed 0x0 digest 0x0\n");
        assert!(matches!(
            ShardFile::parse(&trailing),
            Err(ParseError::BadLine { .. })
        ));
    }

    #[test]
    fn parse_rejects_foreign_range_and_bad_shard() {
        let good = shard_file("demo", 42, 10, ShardSpec::new(1, 3).unwrap()).render();
        // Claim a range the spec does not derive.
        let skewed = good.replace("range 4..7", "range 3..7");
        assert!(matches!(
            ShardFile::parse(&skewed),
            Err(ParseError::RangeMismatch { .. })
        ));
        let invalid = good.replace("shard 1/3", "shard 7/3");
        assert!(matches!(
            ShardFile::parse(&invalid),
            Err(ParseError::BadShard(_))
        ));
    }

    #[test]
    fn merge_reassembles_any_partition() {
        let seq = shard_file("demo", 42, 11, ShardSpec::FULL);
        for count in 1..=5 {
            let shards: Vec<ShardFile> = (0..count)
                .map(|i| shard_file("demo", 42, 11, ShardSpec::new(i, count).unwrap()))
                .collect();
            // Merge in reverse order too: input order must not matter.
            let merged = merge(&shards).expect("full partition merges");
            assert_eq!(merged, seq);
            let reversed: Vec<ShardFile> = shards.into_iter().rev().collect();
            assert_eq!(merge(&reversed).unwrap().render(), seq.render());
        }
    }

    #[test]
    fn merge_rejects_withheld_doubled_and_mixed_shards() {
        let make = |i| shard_file("demo", 42, 11, ShardSpec::new(i, 3).unwrap());
        assert_eq!(
            merge(&[make(0), make(2)]),
            Err(MergeError::MissingShard { shard_index: 1 })
        );
        assert_eq!(
            merge(&[make(0), make(1), make(1)]),
            Err(MergeError::DuplicateShard { shard_index: 1 })
        );
        assert_eq!(merge(&[]), Err(MergeError::NoShards));
        // Cross-grid mixes: different seed, and different grid name.
        let other_seed = shard_file("demo", 43, 11, ShardSpec::new(1, 3).unwrap());
        assert!(matches!(
            merge(&[make(0), other_seed, make(2)]),
            Err(MergeError::GridMismatch { .. })
        ));
        let other_grid = shard_file("border", 42, 11, ShardSpec::new(1, 3).unwrap());
        assert!(matches!(
            merge(&[make(0), other_grid, make(2)]),
            Err(MergeError::GridMismatch { .. })
        ));
    }

    #[test]
    fn hostile_claimed_totals_error_instead_of_allocating() {
        // Header totals and shard counts are untrusted input: a file
        // claiming ~2^64 cells must produce a typed error, not a capacity
        // panic or an OOM abort (these tests pass *by terminating*).
        let range = ShardSpec::new(0, 3).unwrap().range(usize::MAX);
        let text = format!(
            "{FORMAT_MAGIC}\n\
             grid demo seed 42 axes a cells {}\n\
             shard 0/3 range {}..{}\n\
             cell 0 n 4 f 1 k 1 seed {:#018x} digest 0x0\n\
             end 1\n",
            usize::MAX,
            range.start,
            range.end,
            cell_seed(42, 0),
        );
        assert!(matches!(
            ShardFile::parse(&text),
            Err(ParseError::UnexpectedIndex { .. })
        ));

        // Merge side: a programmatic file claiming an absurd grid total …
        let huge_total = ShardFile {
            header: SweepHeader::new("demo", 42, "a", usize::MAX, ShardSpec::FULL),
            records: vec![CellRecord {
                index: 0,
                n: 4,
                f: 1,
                k: 1,
                seed: cell_seed(42, 0),
                digest: 0,
                obs: None,
            }],
        };
        assert_eq!(
            merge(&[huge_total]),
            Err(MergeError::MissingIndex { index: 1 })
        );
        // … or an absurd shard count.
        let huge_count = ShardFile {
            header: SweepHeader::new("demo", 42, "a", 1, ShardSpec::new(0, usize::MAX).unwrap()),
            records: vec![CellRecord {
                index: 0,
                n: 4,
                f: 1,
                k: 1,
                seed: cell_seed(42, 0),
                digest: 0,
                obs: None,
            }],
        };
        assert_eq!(
            merge(&[huge_count]),
            Err(MergeError::MissingShard { shard_index: 1 })
        );
    }

    /// The v2 sibling of `shard_file`: every third cell carries a counts
    /// observation, every fifth a distinct-set, to exercise the obs
    /// grammar.
    fn shard_file_v2(grid: &str, grid_seed: u64, total: usize, spec: ShardSpec) -> ShardFile {
        let mut file = shard_file(grid, grid_seed, total, spec);
        for record in &mut file.records {
            record.obs = match record.index % 5 {
                0 => Some(Observation::Counts(EventCounts {
                    sends: record.index as u64 * 3,
                    dropped: 1,
                    delivers: record.index as u64 * 2,
                    fd_samples: 0,
                    steps: 9,
                    rounds: 0,
                    crashes: 1,
                    decides: 3,
                    halts: 1,
                })),
                1 => Some(Observation::distinct([record.index as u64, 2, 2, 1])),
                2 => Some(Observation::Decisions(vec![
                    Some(7),
                    None,
                    Some(record.index as u64),
                ])),
                3 => Some(Observation::Distinct(Vec::new())),
                _ => None,
            };
        }
        file
    }

    #[test]
    fn v2_round_trip_with_observations_is_identity() {
        for (index, count) in [(0, 1), (0, 3), (1, 3), (2, 3)] {
            let file = shard_file_v2("demo", 42, 10, ShardSpec::new(index, count).unwrap());
            let parsed = ShardFile::parse(&file.render()).expect("rendered v2 files parse");
            assert_eq!(parsed, file);
            assert_eq!(parsed.render(), file.render());
        }
    }

    #[test]
    fn v1_magic_is_a_bad_magic_error() {
        // The retired v1 format is an unknown magic like any other, in
        // complete and partial reading alike.
        let v1 = shard_file("demo", 42, 4, ShardSpec::FULL)
            .render()
            .replacen(FORMAT_MAGIC, "kset-sweep v1", 1);
        assert!(v1.starts_with("kset-sweep v1\n"));
        assert!(matches!(
            ShardFile::parse(&v1),
            Err(ParseError::BadMagic { line: 1, .. })
        ));
        assert!(matches!(
            PartialShardFile::parse(&v1),
            Err(ParseError::BadMagic { line: 1, .. })
        ));
    }

    #[test]
    fn malformed_observation_tails_are_rejected() {
        let good = shard_file_v2("demo", 42, 10, ShardSpec::FULL).render();
        for (from, to) in [
            ("obs distinct 1,2", "obs distinct 2,1"),  // not ascending
            ("obs distinct 1,2", "obs distinct 1,,2"), // empty token
            ("obs counts sends", "obs counts snds"),   // bad keyword
            ("obs decisions", "obs decision"),         // bad kind
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "replacement {from:?} must apply");
            assert!(
                matches!(ShardFile::parse(&bad), Err(ParseError::BadLine { .. })),
                "{to:?} must be rejected"
            );
        }
    }

    #[test]
    fn partial_parse_accepts_any_clean_prefix_and_names_owed_cells() {
        let file = shard_file_v2("demo", 42, 10, ShardSpec::new(1, 3).unwrap());
        let full = file.render();
        let range = file.header.range(); // 4..7
        for kept in 0..range.len() {
            // Header (3 lines) + `kept` cell lines, each newline-complete.
            let prefix: String = full
                .lines()
                .take(3 + kept)
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
            let partial = PartialShardFile::parse(&prefix).expect("clean prefixes parse");
            assert_eq!(partial.records.len(), kept);
            assert_eq!(partial.records[..], file.records[..kept]);
            assert_eq!(partial.owed(), range.start + kept..range.end);
            assert!(!partial.is_complete());
        }
        // All cells but no footer yet: nothing is owed — the resume pass
        // just rewrites the file with its footer.
        let all_cells: String =
            full.lines()
                .take(3 + range.len())
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        let footerless = PartialShardFile::parse(&all_cells).expect("footer-less prefix parses");
        assert!(footerless.is_complete());
        // The complete file is the degenerate partial with nothing owed.
        let complete = PartialShardFile::parse(&full).expect("complete files parse");
        assert!(complete.is_complete());
        assert_eq!(complete.owed(), range.end..range.end);
        assert_eq!(complete.into_complete(), file);
    }

    #[test]
    fn partial_parse_drops_torn_final_lines() {
        let file = shard_file_v2("demo", 42, 10, ShardSpec::FULL);
        let full = file.render();
        // Cut mid-way through the third cell line — including cuts that
        // leave a grammatically parseable (but value-truncated) digest.
        let third_line_end: usize = full.lines().take(6).map(|l| l.len() + 1).sum();
        for cut_back in [1, 3, 9, 17] {
            let torn = &full[..third_line_end - cut_back];
            assert!(!torn.ends_with('\n'));
            let partial = PartialShardFile::parse(torn).expect("torn tails are dropped");
            assert_eq!(
                partial.records.len(),
                2,
                "cut_back {cut_back}: the torn third record is owed again"
            );
            assert_eq!(partial.owed(), 2..10);
        }
    }

    #[test]
    fn partial_parse_rejects_cuts_inside_the_header() {
        // A file cut inside its 3-line header identifies no grid and no
        // owed set — nothing to resume, so every header cut is a typed
        // error, not an empty partial.
        let full = shard_file_v2("demo", 42, 10, ShardSpec::FULL).render();
        let header_end: usize = full.lines().take(3).map(|l| l.len() + 1).sum();
        // (Cutting exactly the header's final newline is the one benign
        // header cut: the shard line is complete and must re-derive the
        // declared range byte-exactly, so it parses as an empty partial.)
        assert!(PartialShardFile::parse(&full[..header_end - 1]).is_ok());
        for cut in [0, 5, 14, header_end / 2, header_end - 2] {
            let err =
                PartialShardFile::parse(&full[..cut]).expect_err("header cuts cannot be resumed");
            assert!(
                matches!(
                    err,
                    ParseError::Truncated { .. }
                        | ParseError::BadMagic { .. }
                        | ParseError::BadLine { .. }
                        | ParseError::RangeMismatch { .. }
                ),
                "cut at byte {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn partial_parse_still_rejects_mid_file_corruption() {
        let file = shard_file_v2("demo", 42, 10, ShardSpec::FULL);
        let full = file.render();
        // A malformed line *followed by more input* is corruption.
        let corrupt = full.replacen("digest", "digset", 1);
        assert!(matches!(
            PartialShardFile::parse(&corrupt),
            Err(ParseError::BadLine { .. })
        ));
        // Seed lies stay fatal even in the last complete line.
        let mut seed_lie = file.clone();
        seed_lie.records[9].seed ^= 1;
        assert!(matches!(
            PartialShardFile::parse(&seed_lie.render()),
            Err(ParseError::SeedMismatch { index: 9, .. })
        ));
        // A lying footer is fatal: the file *claims* completeness.
        let lying = full.replace("end 10", "end 9");
        assert!(matches!(
            PartialShardFile::parse(&lying),
            Err(ParseError::CountMismatch { .. })
        ));
    }

    #[test]
    fn merged_v2_render_with_observations_is_byte_identical_to_sequential() {
        let seq = shard_file_v2("demo", 7, 23, ShardSpec::FULL).render();
        let shards: Vec<ShardFile> = (0..3)
            .map(|i| shard_file_v2("demo", 7, 23, ShardSpec::new(i, 3).unwrap()))
            .collect();
        assert_eq!(merge(&shards).unwrap().render(), seq);
    }

    #[test]
    fn merged_render_is_byte_identical_to_sequential() {
        let seq = shard_file("demo", 7, 23, ShardSpec::FULL).render();
        let shards: Vec<ShardFile> = (0..3)
            .map(|i| shard_file("demo", 7, 23, ShardSpec::new(i, 3).unwrap()))
            .collect();
        assert_eq!(merge(&shards).unwrap().render(), seq);
    }
}
