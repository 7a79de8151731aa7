//! The fleet wire protocol: line-oriented, space-delimited messages in the
//! grammar family of `textfmt.rs` and the `kset-sweep v2` record format.
//!
//! Every message is one `\n`-terminated line of whitespace-free tokens.
//! The five verbs:
//!
//! ```text
//! hello kset-fleet v1 worker <name>
//! lease <id> grid <name> seed <seed> axes <axes> total <total> range <a>..<b>
//! progress lease <id> cell <idx> n <n> f <f> k <k> seed 0x<16> digest 0x<16> [obs ...]
//! done lease <id> cells <count>
//! fin reason <complete|shutdown>
//! ```
//!
//! The tail of a `progress` line is exactly one [`CellRecord::render_line`]
//! — the protocol does not invent a second record grammar, so a record on
//! the wire and a record in a shard file can never drift apart. Parsing is
//! strict: any line that does not match a verb exactly is a
//! [`ProtoError`], and the coordinator treats that as a faulty worker, not
//! a recoverable hiccup.
//!
//! This module is deliberately pure (no sockets, no clocks): it is on the
//! `kset-lint` record path together with `merge.rs`, because a
//! nondeterministic rendering here would corrupt the byte-identity
//! invariant the whole fleet exists to preserve.

use std::fmt;
use std::ops::Range;

use crate::sweep::record::{CellRecord, SweepHeader};
use crate::sweep::ShardSpec;

/// The protocol magic every worker announces in its `hello` line. Version
/// bumps here are breaking: a coordinator rejects any other magic.
pub const PROTOCOL_MAGIC: &str = "kset-fleet v1";

/// Identifies the grid a lease belongs to — enough for a worker to resolve
/// the grid in its own catalog *and verify it resolved the same grid* the
/// coordinator is sweeping (name, seed, axes signature, and cell count all
/// have to agree before a worker computes anything).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridId {
    /// Catalog name of the grid (one whitespace-free token).
    pub grid: String,
    /// The grid seed every cell seed derives from.
    pub grid_seed: u64,
    /// The axes signature (one whitespace-free token).
    pub axes: String,
    /// Total number of cells in the grid.
    pub total: usize,
}

impl GridId {
    /// Checks the invariants the wire grammar and [`SweepHeader::new`]
    /// require: `grid` and `axes` must be non-empty whitespace-free
    /// tokens. Parsed `GridId`s satisfy this by construction; hand-built
    /// ones are validated at [`FleetState::new`](super::FleetState::new).
    pub fn validate(&self) -> Result<(), BadGridId> {
        for (field, value) in [("grid", &self.grid), ("axes", &self.axes)] {
            if value.is_empty() || value.contains(char::is_whitespace) {
                return Err(BadGridId {
                    field,
                    value: value.clone(),
                });
            }
        }
        Ok(())
    }

    /// The `kset-sweep v2` header of the *full* grid file this fleet run
    /// produces. Callers must [`validate`](GridId::validate) first (the
    /// coordinator does, once, at construction).
    pub fn full_header(&self) -> SweepHeader {
        SweepHeader::new(
            self.grid.clone(),
            self.grid_seed,
            self.axes.clone(),
            self.total,
            ShardSpec::FULL,
        )
    }
}

/// A `grid`/`axes` token that cannot be rendered on one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadGridId {
    /// Which field is at fault (`"grid"` or `"axes"`).
    pub field: &'static str,
    /// The offending value.
    pub value: String,
}

impl fmt::Display for BadGridId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} must be one non-empty whitespace-free token, got {:?}",
            self.field, self.value
        )
    }
}

impl std::error::Error for BadGridId {}

/// Why the coordinator shut a conversation down (the `fin` payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinReason {
    /// Every cell of the grid has merged; there is no more work, ever.
    Complete,
    /// The coordinator is going away without a complete grid.
    Shutdown,
}

impl FinReason {
    fn token(self) -> &'static str {
        match self {
            FinReason::Complete => "complete",
            FinReason::Shutdown => "shutdown",
        }
    }
}

/// One protocol message (one line on the wire, without the newline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker → coordinator: first line of every conversation.
    Hello {
        /// Self-chosen worker name (one whitespace-free token), used only
        /// for reporting.
        worker: String,
    },
    /// Coordinator → worker: own these cells until the lease deadline.
    Lease {
        /// Coordinator-unique lease id.
        lease: u64,
        /// The grid the range indexes into.
        grid: GridId,
        /// The contiguous cell range leased.
        range: Range<usize>,
    },
    /// Worker → coordinator: one computed cell. Doubles as the heartbeat —
    /// each accepted record extends the lease deadline.
    Progress {
        /// The lease this cell was computed under.
        lease: u64,
        /// The computed record, exactly as it will appear in the file.
        record: CellRecord,
    },
    /// Worker → coordinator: the lease's range is fully delivered.
    Done {
        /// The finished lease.
        lease: u64,
        /// How many cells the worker sent under it (cross-checked).
        cells: usize,
    },
    /// Coordinator → worker: conversation over, hang up.
    Fin {
        /// Why.
        reason: FinReason,
    },
}

impl Message {
    /// Renders the message as one line (no trailing newline) — the exact
    /// inverse of [`Message::parse`].
    pub fn render(&self) -> String {
        match self {
            Message::Hello { worker } => {
                format!("hello {PROTOCOL_MAGIC} worker {worker}")
            }
            Message::Lease { lease, grid, range } => format!(
                "lease {} grid {} seed {} axes {} total {} range {}..{}",
                lease, grid.grid, grid.grid_seed, grid.axes, grid.total, range.start, range.end
            ),
            Message::Progress { lease, record } => {
                format!("progress lease {} {}", lease, record.render_line())
            }
            Message::Done { lease, cells } => {
                format!("done lease {lease} cells {cells}")
            }
            Message::Fin { reason } => format!("fin reason {}", reason.token()),
        }
    }

    /// Parses one line (newline already stripped). Strict: unknown verbs,
    /// missing tokens, non-numeric fields, and a wrong `hello` magic are
    /// all errors — a fleet conversation has no lines worth guessing at.
    pub fn parse(line: &str) -> Result<Message, ProtoError> {
        let malformed = || ProtoError::Malformed {
            line: line.to_string(),
        };
        let t: Vec<&str> = line.split_whitespace().collect();
        match t[..] {
            ["hello", magic_a, magic_b, "worker", worker] => {
                let magic = format!("{magic_a} {magic_b}");
                if magic != PROTOCOL_MAGIC {
                    return Err(ProtoError::BadMagic { found: magic });
                }
                Ok(Message::Hello {
                    worker: worker.to_string(),
                })
            }
            ["lease", lease, "grid", grid, "seed", seed, "axes", axes, "total", total, "range", range] =>
            {
                let (start, end) = range
                    .split_once("..")
                    .and_then(|(s, e)| Some((s.parse::<usize>().ok()?, e.parse::<usize>().ok()?)))
                    .ok_or_else(malformed)?;
                Ok(Message::Lease {
                    lease: lease.parse().map_err(|_| malformed())?,
                    grid: GridId {
                        grid: grid.to_string(),
                        grid_seed: seed.parse().map_err(|_| malformed())?,
                        axes: axes.to_string(),
                        total: total.parse().map_err(|_| malformed())?,
                    },
                    range: start..end,
                })
            }
            ["progress", "lease", lease, "cell", ..] => {
                // The record tail is canonical single-spaced `render_line`
                // output; re-joining the tokens reconstructs it faithfully.
                let tail = t[3..].join(" ");
                let record = CellRecord::parse_line(&tail).ok_or_else(malformed)?;
                Ok(Message::Progress {
                    lease: lease.parse().map_err(|_| malformed())?,
                    record,
                })
            }
            ["done", "lease", lease, "cells", cells] => Ok(Message::Done {
                lease: lease.parse().map_err(|_| malformed())?,
                cells: cells.parse().map_err(|_| malformed())?,
            }),
            ["fin", "reason", "complete"] => Ok(Message::Fin {
                reason: FinReason::Complete,
            }),
            ["fin", "reason", "shutdown"] => Ok(Message::Fin {
                reason: FinReason::Shutdown,
            }),
            _ => Err(malformed()),
        }
    }
}

/// Why a protocol line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The line does not match any message grammar (including torn or
    /// truncated lines — a digest cut mid-hex still reads as valid hex,
    /// so partial lines must never be salvaged).
    Malformed {
        /// The offending line.
        line: String,
    },
    /// A `hello` announcing a protocol this coordinator does not speak.
    BadMagic {
        /// The magic the peer announced.
        found: String,
    },
    /// The line was not valid UTF-8.
    NotUtf8,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Malformed { line } => write!(f, "malformed fleet line {line:?}"),
            ProtoError::BadMagic { found } => {
                write!(f, "peer speaks {found:?}, expected {PROTOCOL_MAGIC:?}")
            }
            ProtoError::NotUtf8 => write!(f, "fleet line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::record::Observation;

    fn grid_id() -> GridId {
        GridId {
            grid: "border".to_string(),
            grid_seed: 42,
            axes: "theorem8-border:kn=(k+1)f".to_string(),
            total: 9,
        }
    }

    fn sample_record() -> CellRecord {
        CellRecord {
            index: 3,
            n: 6,
            f: 2,
            k: 1,
            seed: 0x1234_5678_9abc_def0,
            digest: 0x0fed_cba9_8765_4321,
            obs: Some(Observation::Decisions(vec![Some(0), None])),
        }
    }

    #[test]
    fn every_message_round_trips() {
        let messages = [
            Message::Hello {
                worker: "w-1".to_string(),
            },
            Message::Lease {
                lease: 7,
                grid: grid_id(),
                range: 3..6,
            },
            Message::Progress {
                lease: 7,
                record: sample_record(),
            },
            Message::Done { lease: 7, cells: 3 },
            Message::Fin {
                reason: FinReason::Complete,
            },
            Message::Fin {
                reason: FinReason::Shutdown,
            },
        ];
        for msg in messages {
            let line = msg.render();
            assert!(!line.contains('\n'), "one line each: {line:?}");
            assert_eq!(Message::parse(&line), Ok(msg), "{line:?}");
        }
    }

    #[test]
    fn progress_tail_is_exactly_a_record_line() {
        let record = sample_record();
        let line = Message::Progress {
            lease: 9,
            record: record.clone(),
        }
        .render();
        assert_eq!(line, format!("progress lease 9 {}", record.render_line()));
    }

    #[test]
    fn torn_and_garbage_lines_are_malformed() {
        for torn in [
            "",
            "progress lease 0 cell 3 n 6 f",
            "progress lease 0 cell 3 n 6 f 2 k 1 seed 0x12 digest 0x3", // short hex is fine...
            "lease 1 grid g seed 42 axes a total 9 range 3..",
            "done lease 1 cells",
            "fin reason later",
            "begin transaction",
            "hello kset-fleet v1 worker w extra",
        ] {
            match Message::parse(torn) {
                Err(ProtoError::Malformed { .. }) => {}
                // `0x12` IS valid hex — a short token still parses; the
                // coordinator's seed re-derivation catches that lie.
                Ok(Message::Progress { .. }) if torn.contains("0x12") => {}
                other => panic!("{torn:?} must not parse cleanly: {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_magic_is_its_own_error() {
        assert_eq!(
            Message::parse("hello kset-fleet v9 worker w"),
            Err(ProtoError::BadMagic {
                found: "kset-fleet v9".to_string()
            })
        );
    }

    #[test]
    fn grid_id_validation_rejects_bad_tokens() {
        let mut id = grid_id();
        assert_eq!(id.validate(), Ok(()));
        id.axes = "two tokens".to_string();
        assert!(id.validate().is_err());
        id.axes = String::new();
        assert!(id.validate().is_err());
    }
}
