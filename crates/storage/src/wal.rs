//! The write-ahead log: bounded **segments** per snapshot generation,
//! holding the updates committed since that snapshot.
//!
//! Layout: the [envelope](crate::envelope) header (`SMWL`, version 2),
//! then these fields (little-endian) and the records, one frame each:
//!
//! ```text
//! seq      u64 — the base snapshot's seq   8 bytes
//! segment  u32 — index within the          4 bytes
//!                generation, from 0
//! base     u64 — global update sequence    8 bytes
//!                before this segment's
//!                first record
//! records… frame bodies: one encoded Update each (silkmoth_core::wire)
//! ```
//!
//! A generation's log is the concatenation of its segments
//! `wal-<seq>-0.log, wal-<seq>-1.log, …` in index order; the store
//! seals the active segment at a policy-set byte threshold and opens
//! the next. Record `i` (zero-based) of a segment has global sequence
//! `base + i + 1`, so each segment is independently addressable — the
//! basis for parallel recovery and for retaining sealed segments past
//! snapshot rotation while a replication cursor still needs them. A
//! segment's records end where the next segment's base begins.
//!
//! This module is the only reader of the format: one listing of the
//! segment files, and one parser ([`Segment`]) — a header check, then
//! the envelope's walk of the record frames. Recovery (`Store::open`)
//! decodes every body; replication shipping
//! ([`RetainedLog::records_after`]) slices the raw payloads.
//!
//! Any other version is rejected by name, never guessed at — including
//! version 1 (the pre-segment format, one `wal-<seq>.log` per
//! generation), which no deployed store ever held: skipping such a
//! file would silently drop committed records, so finding one is hard
//! corruption.
//!
//! A record is **committed** once its bytes are on disk (the store
//! `fsync`s before acknowledging), so the walk's torn frame starts a
//! torn, unacknowledged tail. Recovery discards it, reports the
//! discard, and truncates the file back to the valid prefix before new
//! records are appended; shipping never reaches it, because it asks
//! only for records the store counts as committed, so a torn frame
//! inside that range is corruption. The writer maintains the same invariant on its
//! side: a failed append (partial write, fsync error) rolls the file
//! back to the last committed offset, so torn bytes can never sit
//! *between* committed records. Only the **final** segment of a
//! generation can legitimately end torn — new segments are created
//! only after a fully committed append — so the store treats a torn
//! tail in a sealed (non-final) segment as hard corruption.
//!
//! Damage that cannot be a torn tail is a hard error, never a silent
//! discard: an unknown format version, a corrupt magic/seq on a file
//! that **holds records** (the header is written and fsync'd before
//! any record is ever acknowledged, so no crash produces that shape),
//! or a CRC-valid record that fails to decode. Only a header-only file
//! with a bad header — the torn-creation window — is discarded whole.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::envelope::{push_frame, walk_frames, EnvelopeError, Header};
use crate::store::{list_files, StoreFile, WalDiscard};
use crate::StorageError;

const WAL_HEADER: Header = Header::new(*b"SMWL", 2);
/// The envelope header plus seq, segment and base.
const WAL_HEADER_LEN: u64 = 28;

/// How long one committed [`WalWriter::append_many`] spent in the
/// buffered write vs. the fsync (`sync` is zero when fsync-less).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AppendTiming {
    pub(crate) write: Duration,
    pub(crate) sync: Duration,
}

/// Segment `segment` of generation `seq`'s WAL.
pub(crate) fn segment_path(dir: &Path, seq: u64, segment: u32) -> PathBuf {
    dir.join(format!("wal-{seq}-{segment}.log"))
}

/// One WAL segment file found in a store directory.
#[derive(Debug)]
pub(crate) struct SegmentInfo {
    pub(crate) path: PathBuf,
    /// The snapshot generation and the index within it, from the name.
    pub(crate) generation: u64,
    pub(crate) segment: u32,
    /// Global update sequence before the segment's first record, from
    /// the header (`None` when the header is unreadable or disagrees
    /// with the name: such a segment serves no one).
    pub(crate) base: Option<u64>,
    /// Where its records end, if it has a base: the next segment's base
    /// (`None` for the last segment, whose extent is open).
    pub(crate) end: Option<u64>,
}

/// Every WAL segment present in `dir` in base order, those with an
/// unreadable header first: bases are global, so the order chains the
/// segments of every generation into one log. A version-1 single-file
/// log (`wal-<g>.log`) is a hard [`StorageError::Corrupt`]: it may hold
/// committed records this build cannot replay.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<SegmentInfo>, StorageError> {
    let mut segments = Vec::new();
    for (path, file) in list_files(dir)? {
        match file {
            StoreFile::Segment(generation, segment) => segments.push(SegmentInfo {
                base: read_segment_base(&path, generation, segment),
                path,
                generation,
                segment,
                end: None,
            }),
            StoreFile::V1Wal => return Err(unsupported_version(&path, 1)),
            StoreFile::Snapshot(_) | StoreFile::Temp => {}
        }
    }
    segments.sort_unstable_by_key(|s| (s.base, s.generation, s.segment));
    for i in 1..segments.len() {
        segments[i - 1].end = segments[i].base;
    }
    Ok(segments)
}

/// Reads just the header of a segment file and returns its base
/// sequence when the header is intact and matches the name-derived
/// generation and index.
fn read_segment_base(path: &Path, generation: u64, segment: u32) -> Option<u64> {
    let mut header = [0u8; WAL_HEADER_LEN as usize];
    let mut f = File::open(path).ok()?;
    f.read_exact(&mut header).ok()?;
    let parsed = parse_header(&header).ok()?;
    (parsed.generation == generation && parsed.segment == segment).then_some(parsed.base_seq)
}

/// A structurally valid WAL header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParsedHeader {
    generation: u64,
    pub(crate) segment: u32,
    pub(crate) base_seq: u64,
}

/// The hard error for a WAL of any version but this build's:
/// discarding a file that may hold another format's committed records
/// would lose data.
fn unsupported_version(path: &Path, version: u32) -> StorageError {
    StorageError::Corrupt {
        file: path.display().to_string(),
        detail: format!(
            "unsupported WAL format version {version} (this build reads version {})",
            WAL_HEADER.version
        ),
    }
}

/// Parses a header. The version is judged as soon as it is readable:
/// another format's header may be shorter than ours (version 1's was
/// 16 bytes) and must not pass for a torn creation.
fn parse_header(bytes: &[u8]) -> Result<ParsedHeader, EnvelopeError> {
    let fields = WAL_HEADER.check(bytes)?;
    let (fields, _) = fields
        .split_first_chunk::<20>()
        .ok_or(EnvelopeError::Truncated("header"))?;
    Ok(ParsedHeader {
        generation: u64::from_le_bytes(fields[..8].try_into().expect("8 bytes")),
        segment: u32::from_le_bytes(fields[8..12].try_into().expect("4 bytes")),
        base_seq: u64::from_le_bytes(fields[12..].try_into().expect("8 bytes")),
    })
}

fn encode_header(seq: u64, segment: u32, base_seq: u64) -> Vec<u8> {
    let mut header = WAL_HEADER.begin(WAL_HEADER_LEN as usize);
    header.extend_from_slice(&seq.to_le_bytes());
    header.extend_from_slice(&segment.to_le_bytes());
    header.extend_from_slice(&base_seq.to_le_bytes());
    header
}

/// One WAL segment file read whole, its header checked against the
/// generation it belongs to — the one parser of the format.
#[derive(Debug)]
pub(crate) struct Segment {
    bytes: Vec<u8>,
    /// The header, or why a header-only file was discarded whole.
    pub(crate) header: Result<ParsedHeader, String>,
}

impl Segment {
    /// Reads segment `path` of generation `generation`. A damaged
    /// header discards a file that holds nothing else (the
    /// torn-creation window) and is a hard [`StorageError::Corrupt`] on
    /// a file that holds records — see the module docs.
    pub(crate) fn read(path: &Path, generation: u64) -> Result<Self, StorageError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(StorageError::io(format!("reading {}", path.display())))?;
        let damaged = |detail: String| {
            if bytes.len() > WAL_HEADER_LEN as usize {
                return Err(StorageError::Corrupt {
                    file: path.display().to_string(),
                    detail: format!("{detail} on a WAL holding records"),
                });
            }
            Ok(Err(detail))
        };
        let header = match parse_header(&bytes) {
            Ok(header) if header.generation == generation => Ok(header),
            Ok(header) => damaged(format!(
                "header seq {} does not match snapshot seq {generation}",
                header.generation
            ))?,
            Err(EnvelopeError::UnknownVersion(v, _)) => return Err(unsupported_version(path, v)),
            Err(e) => damaged(e.to_string())?,
        };
        Ok(Self { bytes, header })
    }

    /// The record frames, in append order — each body one encoded
    /// `Update`, exactly the bytes the store framed; none for a file
    /// discarded whole — then where the valid prefix of the file ends,
    /// and the torn tail past it, if any.
    pub(crate) fn records(&self) -> (Vec<&[u8]>, u64, Option<WalDiscard>) {
        let (bodies, valid_len, reason) = match &self.header {
            Ok(_) => {
                let (bodies, len, torn) = walk_frames(&self.bytes[WAL_HEADER_LEN as usize..]);
                let reason = torn.map(|e| format!("torn record: {e}"));
                (bodies, WAL_HEADER_LEN + len as u64, reason)
            }
            Err(reason) => (Vec::new(), 0, Some(reason.clone())),
        };
        let discarded = reason.map(|reason| WalDiscard {
            offset: valid_len,
            bytes: self.bytes.len() as u64 - valid_len,
            reason,
        });
        (bodies, valid_len, discarded)
    }
}

/// A durable store's retained WAL as replication ships it, taken with
/// [`Store::retained_log`](crate::Store::retained_log): every segment
/// still on disk — sealed segments of older generations kept back for
/// a replication cursor included — chained into one log by base
/// sequence, up to the records committed when the handle was taken.
/// Reads take no store lock: committed WAL bytes are append-only.
#[derive(Debug, Clone)]
pub struct RetainedLog {
    pub(crate) dir: PathBuf,
    pub(crate) committed: u64,
}

impl RetainedLog {
    /// The raw payloads (each one encoded `Update`, exactly the bytes
    /// the store framed) of up to `limit` committed records after the
    /// cursor `applied`, record `applied + 1` first, every one
    /// CRC-checked — the records before it in its segment included.
    ///
    /// `Ok(None)` means the cursor cannot be served from the retained
    /// log — it predates the log, runs ahead of the committed count, or
    /// its segment was retired mid-read — so the caller bootstraps
    /// instead. Fewer intact records than committed inside the range is
    /// [`StorageError::Corrupt`]. Reading races appends safely: records
    /// are appended with a single `write_all` before the committed
    /// count advances, and committed bytes are never truncated.
    pub fn records_after(
        &self,
        applied: u64,
        limit: usize,
    ) -> Result<Option<Vec<Vec<u8>>>, StorageError> {
        if applied > self.committed {
            return Ok(None);
        }
        let take = ((self.committed - applied) as usize).min(limit);
        if take == 0 {
            return Ok(Some(Vec::new()));
        }
        let segments = list_segments(&self.dir)?;
        let mut chain = segments
            .iter()
            .filter_map(|seg| Some((seg.base?, seg)))
            .peekable();
        if chain.peek().is_none_or(|&(base, _)| base > applied) {
            return Ok(None);
        }
        // Each segment's end is the next one's base, so a hole in the
        // log shows as a shortfall in the segment before it, and the
        // last segment runs to the committed count: a loop that
        // returns nothing early has taken all `take` records.
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(take);
        for (base, seg) in chain {
            let cursor = applied + out.len() as u64;
            // Records past the committed count (a rotation racing this
            // read created a newer, still-empty segment) are never
            // requested.
            let end = seg.end.unwrap_or(self.committed).min(self.committed);
            if out.len() == take || cursor >= end {
                continue;
            }
            let want = ((end - cursor) as usize).min(take - out.len());
            let segment = match Segment::read(&seg.path, seg.generation) {
                Ok(segment) => segment,
                // Retired between the listing and the read.
                Err(StorageError::Io { source, .. })
                    if source.kind() == std::io::ErrorKind::NotFound =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            };
            let before = out.len();
            let (bodies, ..) = segment.records();
            let wanted = bodies.iter().skip((cursor - base) as usize).take(want);
            out.extend(wanted.map(|body| body.to_vec()));
            let got = out.len() - before;
            if got < want {
                return Err(StorageError::Corrupt {
                    file: seg.path.display().to_string(),
                    detail: format!(
                        "only {got} of {want} committed records after cursor {cursor} are intact"
                    ),
                });
            }
        }
        Ok(Some(out))
    }
}

/// An open WAL segment being appended to. The file is held in **append
/// mode**, so every write — including the first one after a rollback
/// truncation — lands exactly at end-of-file.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
    /// Bytes of the file known to hold only the header plus complete,
    /// successfully appended records — the rollback point for a failed
    /// append.
    committed_len: u64,
    /// Set when a failed append could not be rolled back: the file may
    /// hold torn bytes that later records would land *behind*, so the
    /// writer refuses everything until the store is reopened (recovery
    /// truncates the tail).
    poisoned: Option<String>,
}

impl WalWriter {
    /// Creates a fresh WAL segment containing only the header, synced
    /// to disk.
    pub(crate) fn create(
        path: &Path,
        seq: u64,
        segment: u32,
        base_seq: u64,
    ) -> Result<Self, StorageError> {
        let err = || StorageError::io(format!("creating {}", path.display()));
        {
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)
                .map_err(err())?;
            file.write_all(&encode_header(seq, segment, base_seq))
                .map_err(err())?;
            file.sync_all().map_err(err())?;
        }
        let file = OpenOptions::new().append(true).open(path).map_err(err())?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            committed_len: WAL_HEADER_LEN,
            poisoned: None,
        })
    }

    /// Reopens an existing segment for appending, first
    /// truncating it to `valid_len` (or recreating the header when the
    /// whole file was discarded) so a torn tail can never precede new
    /// records.
    pub(crate) fn reopen(
        path: &Path,
        seq: u64,
        segment: u32,
        base_seq: u64,
        valid_len: u64,
    ) -> Result<Self, StorageError> {
        if valid_len < WAL_HEADER_LEN {
            return Self::create(path, seq, segment, base_seq);
        }
        let err = || StorageError::io(format!("reopening {}", path.display()));
        let file = OpenOptions::new().append(true).open(path).map_err(err())?;
        file.set_len(valid_len).map_err(err())?;
        file.sync_all().map_err(err())?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            committed_len: valid_len,
            poisoned: None,
        })
    }

    /// Bytes known committed (header + records) — what the store's
    /// seal policy compares against its segment-size threshold.
    pub(crate) fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// Appends a batch of records (every frame + payload buffered into
    /// a **single** write) and, when `sync`, fsyncs once — the
    /// amortized group-commit point the store acknowledges. All or
    /// nothing: on failure the file is rolled back to the last
    /// committed offset, so a partially written (or
    /// written-but-unsynced, hence unacknowledged) batch can never
    /// precede a later acknowledged one; if even the rollback fails,
    /// the writer poisons itself.
    ///
    /// Returns how long the buffered write and the fsync each took
    /// (the fsync duration is **exactly zero** when `sync` is off) for
    /// the store's telemetry hook.
    pub(crate) fn append_many(
        &mut self,
        payloads: &[Vec<u8>],
        sync: bool,
    ) -> Result<AppendTiming, StorageError> {
        if let Some(why) = &self.poisoned {
            return Err(StorageError::Io {
                context: format!("WAL {} is poisoned", self.path.display()),
                source: std::io::Error::other(why.clone()),
            });
        }
        let total: usize = payloads.iter().map(|p| 8 + p.len()).sum();
        let mut batch = Vec::with_capacity(total);
        for payload in payloads {
            push_frame(&mut batch, |body| body.extend_from_slice(payload));
        }
        let context = format!("appending to {}", self.path.display());
        let started = Instant::now();
        let mut written_at = started;
        let result = self.file.write_all(&batch).and_then(|()| {
            written_at = Instant::now();
            if sync {
                self.file.sync_data()
            } else {
                Ok(())
            }
        });
        match result {
            Ok(()) => {
                self.committed_len += batch.len() as u64;
                Ok(AppendTiming {
                    write: written_at - started,
                    sync: if sync {
                        written_at.elapsed()
                    } else {
                        // The contract the fsync histogram depends on:
                        // fsync-less appends report exactly zero, not
                        // the (tiny, nonzero) time since the write.
                        Duration::ZERO
                    },
                })
            }
            Err(e) => {
                if let Err(rollback) = self.file.set_len(self.committed_len) {
                    self.poison(format!(
                        "append failed ({e}) and rollback truncation failed ({rollback})"
                    ));
                }
                Err(StorageError::Io { context, source: e })
            }
        }
    }

    /// Marks the writer unusable; every later
    /// [`append_many`](Self::append_many) fails until the store is
    /// reopened.
    pub(crate) fn poison(&mut self, why: String) {
        self.poisoned = Some(why);
    }
}
