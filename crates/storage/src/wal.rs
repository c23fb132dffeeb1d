//! The write-ahead log: bounded **segments** per snapshot generation,
//! holding the updates committed since that snapshot.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    "SMWL"                          4 bytes
//! version  u32 (currently 2)               4 bytes
//! seq      u64 — the base snapshot's seq   8 bytes
//! segment  u32 — index within the          4 bytes
//!                generation, from 0
//! base     u64 — global update sequence    8 bytes
//!                before this segment's
//!                first record
//! records…
//!
//! record := payload_len u32 | crc32(payload) u32 | payload
//! payload: one encoded Update (silkmoth_core::wire)
//! ```
//!
//! A generation's log is the concatenation of its segments
//! `wal-<seq>-0.log, wal-<seq>-1.log, …` in index order; the store
//! seals the active segment at a policy-set byte threshold and opens
//! the next. Record `i` (zero-based) of a segment has global sequence
//! `base + i + 1`, so each segment is independently addressable — the
//! basis for parallel recovery and for retaining sealed segments past
//! snapshot rotation while a replication cursor still needs them.
//!
//! Any other version is rejected by name, never guessed at — including
//! version 1 (the pre-segment format, one `wal-<seq>.log` per
//! generation), which no deployed store ever held: skipping such a
//! file would silently drop committed records, so finding one is hard
//! corruption.
//!
//! A record is **committed** once its bytes are on disk (the store
//! `fsync`s before acknowledging), so recovery treats a structurally
//! invalid *suffix* — short prefix, length past end-of-file, CRC
//! mismatch — as a torn, unacknowledged tail: replay stops there, the
//! discard is reported, and the file is truncated back to the valid
//! prefix before new records are appended. The writer maintains the
//! same invariant on its side: a failed append (partial write, fsync
//! error) rolls the file back to the last committed offset, so torn
//! bytes can never sit *between* committed records. Only the **final**
//! segment of a generation can legitimately end torn — new segments
//! are created only after a fully committed append — so the store
//! treats a torn tail in a sealed (non-final) segment as hard
//! corruption.
//!
//! Damage that cannot be a torn tail is a hard error, never a silent
//! discard: an unknown format version, a corrupt magic/seq on a file
//! that **holds records** (the header is written and fsync'd before
//! any record is ever acknowledged, so no crash produces that shape),
//! or a CRC-valid record that fails to decode. Only a header-only file
//! with a bad header — the torn-creation window — is discarded whole.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use silkmoth_core::wire::decode_update;
use silkmoth_core::Update;

use crate::crc32::crc32;
use crate::store::WalDiscard;
use crate::StorageError;

pub(crate) const WAL_MAGIC: &[u8; 4] = b"SMWL";
pub(crate) const WAL_VERSION: u32 = 2;
pub(crate) const WAL_HEADER_LEN: u64 = 28;

/// How long one committed [`WalWriter::append_many`] spent in the
/// buffered write vs. the fsync (`sync` is zero when fsync-less).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AppendTiming {
    pub write: Duration,
    pub sync: Duration,
}

/// Segment `segment` of generation `seq`'s WAL — the path contract
/// replication readers share with the store itself.
pub fn wal_segment_path(dir: &Path, seq: u64, segment: u32) -> PathBuf {
    dir.join(format!("wal-{seq}-{segment}.log"))
}

/// One WAL segment file found in a store directory: its name-derived
/// identity plus the base sequence read from its header (`None` when
/// the header is unreadable or disagrees with the file name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSegmentInfo {
    /// The segment file.
    pub path: PathBuf,
    /// The snapshot generation the segment belongs to.
    pub generation: u64,
    /// Index within the generation, from 0.
    pub segment: u32,
    /// Global update sequence before the segment's first record, from
    /// the header; record `i` has sequence `base_seq + i + 1`.
    pub base_seq: Option<u64>,
}

/// Every WAL segment present in `dir`, sorted by
/// `(generation, segment)` — which is also ascending base-sequence
/// order for intact headers. A file named like a version-1
/// single-file log (`wal-<g>.log`) is a hard [`StorageError::Corrupt`]:
/// it may hold committed records this build cannot replay.
pub fn list_wal_segments(dir: &Path) -> Result<Vec<WalSegmentInfo>, StorageError> {
    let mut segments = Vec::new();
    let entries =
        fs::read_dir(dir).map_err(StorageError::io(format!("listing {}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(StorageError::io(format!("listing {}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(body) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
        else {
            continue;
        };
        let Some((gen, seg)) = body.split_once('-') else {
            if body.parse::<u64>().is_ok() {
                return Err(unsupported_version(&entry.path(), 1));
            }
            continue;
        };
        let (Ok(generation), Ok(segment)) = (gen.parse::<u64>(), seg.parse::<u32>()) else {
            continue;
        };
        let path = entry.path();
        let base_seq = read_segment_base(&path, generation, segment);
        segments.push(WalSegmentInfo {
            path,
            generation,
            segment,
            base_seq,
        });
    }
    segments.sort_unstable_by_key(|s| (s.generation, s.segment));
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
struct ParsedHeader {
    generation: u64,
    segment: u32,
    base_seq: u64,
}

/// The hard error for a WAL of any version but [`WAL_VERSION`]:
/// discarding a file that may hold another format's committed records
/// would lose data.
fn unsupported_version(path: &Path, version: u32) -> StorageError {
    StorageError::Corrupt {
        file: path.display().to_string(),
        detail: format!(
            "unsupported WAL format version {version} (this build reads version {WAL_VERSION})"
        ),
    }
}

enum HeaderIssue {
    /// Too short to hold the header — the torn-creation window when
    /// the file holds nothing else.
    Short,
    /// Wrong magic bytes.
    BadMagic,
    /// A version this build does not know — always a hard error.
    UnknownVersion(u32),
}

fn parse_header(bytes: &[u8]) -> Result<ParsedHeader, HeaderIssue> {
    // The version is judged as soon as it is readable: another
    // format's header may be shorter than ours (version 1's was 16
    // bytes) and must not pass for a torn creation.
    if bytes.len() >= 8 && &bytes[..4] == WAL_MAGIC {
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != WAL_VERSION {
            return Err(HeaderIssue::UnknownVersion(version));
        }
    }
    if bytes.len() < WAL_HEADER_LEN as usize {
        return Err(HeaderIssue::Short);
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(HeaderIssue::BadMagic);
    }
    Ok(ParsedHeader {
        generation: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        segment: u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")),
        base_seq: u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes")),
    })
}

fn encode_header(seq: u64, segment: u32, base_seq: u64) -> Vec<u8> {
    let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
    header.extend_from_slice(WAL_MAGIC);
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    header.extend_from_slice(&seq.to_le_bytes());
    header.extend_from_slice(&segment.to_le_bytes());
    header.extend_from_slice(&base_seq.to_le_bytes());
    header
}

/// What reading a WAL file produced: the committed records, how far
/// the valid prefix reaches, and why reading stopped early (if it
/// did).
#[derive(Debug)]
pub struct WalReplay {
    /// Every committed record, in append order.
    pub entries: Vec<Update>,
    /// Byte length of the valid prefix (header + committed records).
    pub valid_len: u64,
    /// The discarded torn tail, when the file did not end cleanly.
    pub discarded: Option<WalDiscard>,
    /// The header's base sequence (`None` when the file was discarded
    /// whole).
    pub base_seq: Option<u64>,
    /// The header's segment index (`None` when the file was discarded
    /// whole).
    pub segment: Option<u32>,
}

/// Reads and validates one WAL segment file against its expected
/// generation `seq`. See the module docs for the
/// tail-handling policy: a short or corrupt header on a file with
/// **no** records is the torn-creation crash window and is discarded
/// whole (empty replay, `valid_len == 0`); a corrupt header on a file
/// that holds record bytes is a hard [`StorageError::Corrupt`],
/// because discarding it would silently drop committed records.
pub fn read_wal(path: &Path, seq: u64) -> Result<WalReplay, StorageError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(StorageError::io(format!("reading {}", path.display())))?;

    let discard_all = |reason: String| WalReplay {
        entries: Vec::new(),
        valid_len: 0,
        discarded: Some(WalDiscard {
            offset: 0,
            bytes: bytes.len() as u64,
            reason,
        }),
        base_seq: None,
        segment: None,
    };
    let corrupt_header = |detail: String| StorageError::Corrupt {
        file: path.display().to_string(),
        detail: format!("{detail} on a WAL holding records"),
    };
    let header = match parse_header(&bytes) {
        Ok(header) => header,
        // A file too short for its header cannot hold records: the
        // torn-creation window, discarded whole (records are only ever
        // appended after the full header is fsync'd).
        Err(HeaderIssue::Short) => return Ok(discard_all("short header".into())),
        Err(HeaderIssue::BadMagic) => {
            // Anything longer than the header must hold records (or
            // the tail of some other format's records) — never a torn
            // creation.
            if bytes.len() > WAL_HEADER_LEN as usize {
                return Err(corrupt_header("bad magic".into()));
            }
            return Ok(discard_all("bad magic".into()));
        }
        Err(HeaderIssue::UnknownVersion(v)) => return Err(unsupported_version(path, v)),
    };
    let has_records = bytes.len() > WAL_HEADER_LEN as usize;
    if header.generation != seq {
        let detail = format!(
            "header seq {} does not match snapshot seq {seq}",
            header.generation
        );
        if has_records {
            return Err(corrupt_header(detail));
        }
        return Ok(discard_all(detail));
    }

    let mut entries = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut discarded = None;
    while pos < bytes.len() {
        let tail = |reason: String| WalDiscard {
            offset: pos as u64,
            bytes: (bytes.len() - pos) as u64,
            reason,
        };
        if bytes.len() - pos < 8 {
            discarded = Some(tail("torn record frame".into()));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let want_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > bytes.len() - pos - 8 {
            discarded = Some(tail(format!("record length {len} past end of file")));
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != want_crc {
            discarded = Some(tail("record CRC mismatch".into()));
            break;
        }
        let entry = decode_update(payload).map_err(|e| StorageError::Corrupt {
            file: path.display().to_string(),
            detail: format!("CRC-valid record {} undecodable: {e}", entries.len()),
        })?;
        entries.push(entry);
        pos += 8 + len;
    }
    Ok(WalReplay {
        entries,
        valid_len: pos as u64,
        discarded,
        base_seq: Some(header.base_seq),
        segment: Some(header.segment),
    })
}

/// Reads raw committed record payloads from one WAL segment file for
/// replication shipping: skips the first `skip`
/// records, then returns up to `limit` payloads (each one encoded
/// `Update`, exactly the bytes the store framed), validating the
/// header and every record CRC on the way.
///
/// The reader stops silently at a torn tail — the caller bounds
/// `limit` by the store's *committed* record count, so a torn suffix
/// is always beyond everything requested; hitting it early (fewer than
/// `limit` intact records after `skip`) therefore means real
/// corruption and is reported by the caller, not here. Reading races
/// appends safely: records are appended with a single `write_all`
/// before the store's committed counter advances, and committed bytes
/// are never truncated, so every record the caller may request is
/// fully present in the file.
pub fn read_wal_payloads(
    path: &Path,
    seq: u64,
    skip: u64,
    limit: usize,
) -> Result<Vec<Vec<u8>>, StorageError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(StorageError::io(format!("reading {}", path.display())))?;
    let corrupt = |detail: String| StorageError::Corrupt {
        file: path.display().to_string(),
        detail,
    };
    let header = match parse_header(&bytes) {
        Ok(header) => header,
        Err(HeaderIssue::Short | HeaderIssue::BadMagic) => {
            return Err(corrupt("bad or short WAL header".into()))
        }
        Err(HeaderIssue::UnknownVersion(v)) => return Err(unsupported_version(path, v)),
    };
    if header.generation != seq {
        return Err(corrupt(format!(
            "header seq {} does not match generation {seq}",
            header.generation
        )));
    }
    let mut out = Vec::new();
    let mut index = 0u64;
    let mut pos = WAL_HEADER_LEN as usize;
    while out.len() < limit && pos < bytes.len() {
        if bytes.len() - pos < 8 {
            break; // torn frame prefix — beyond the committed range
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let want_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > bytes.len() - pos - 8 {
            break; // torn record body
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != want_crc {
            break; // torn record payload
        }
        if index >= skip {
            out.push(payload.to_vec());
        }
        index += 1;
        pos += 8 + len;
    }
    Ok(out)
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
            batch.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            batch.extend_from_slice(&crc32(payload).to_le_bytes());
            batch.extend_from_slice(payload);
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
