//! The catalog's **data layer**: collection names, per-tenant quota
//! configuration, and the durable manifest that lets a server recover
//! every named collection after `kill -9`.
//!
//! ## Names
//!
//! Collection names become directory names under the server's
//! `--data-dir`, so they are validated **before** any path is built:
//! `[a-z0-9_-]{1,64}`. The character set contains no `.` and no `/`,
//! which rejects `.`, `..`, and every path-traversal spelling with the
//! same rule that rejects uppercase or unicode — see
//! [`validate_name`].
//!
//! ## Manifest
//!
//! The on-disk registry: one file (`catalog.manifest`) of sealed bytes
//! in the storage layer's [envelope](silkmoth_storage::envelope)
//! (`SMCT`, version 2; version 1's one-byte version is refused by name)
//! listing every collection as a [`CollectionSpec`] — its name, shard
//! count and [`Quotas`] ([`encode`] gives the fields). [`save`] writes
//! it atomically — tempfile, fsync, rename, directory fsync — so a
//! crash mid-update leaves either the old registry or the new one,
//! never a torn file. The catalog keeps no
//! copy of it: it writes the file from its own registry, and only
//! opening the catalog reads it back ([`load`]).

use silkmoth_storage::envelope::{seal, EnvelopeError, Header};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// The longest valid collection name.
pub(crate) const NAME_MAX_LEN: usize = 64;

/// The most engine shards a created collection may have: each shard is
/// one thread per search, so the count a request may ask for is bounded.
pub(crate) const MAX_SHARDS: usize = 64;

/// The collection unscoped routes serve; created implicitly, cannot be
/// dropped.
pub(crate) const DEFAULT_COLLECTION: &str = "default";

/// The manifest's file name inside the server's data directory.
pub(crate) const MANIFEST_FILE: &str = "catalog.manifest";

const MANIFEST_HEADER: Header = Header::new(*b"SMCT", 2);

/// Why a collection name was rejected. Rendered into the server's
/// named `400` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NameError {
    /// The empty string.
    Empty,
    /// Longer than [`NAME_MAX_LEN`] bytes (the offending length).
    TooLong(usize),
    /// A character outside `[a-z0-9_-]` (the first offender). Dots and
    /// slashes land here, which is what makes `.`/`..`/`../../etc`
    /// unspellable as collection names.
    BadChar(char),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "collection name is empty"),
            Self::TooLong(n) => write!(
                f,
                "collection name is {n} bytes, longer than the {NAME_MAX_LEN}-byte limit"
            ),
            Self::BadChar(c) => write!(
                f,
                "collection name contains {c:?}; allowed characters are [a-z0-9_-]"
            ),
        }
    }
}

impl std::error::Error for NameError {}

/// Validates a collection name against `[a-z0-9_-]{1,64}`. Names
/// become directory names, so everything that could escape or alias a
/// path — separators, dots, empty, overlong — is rejected here, before
/// any path is built from the name.
pub(crate) fn validate_name(name: &str) -> Result<(), NameError> {
    if name.is_empty() {
        return Err(NameError::Empty);
    }
    if name.len() > NAME_MAX_LEN {
        return Err(NameError::TooLong(name.len()));
    }
    match name
        .chars()
        .find(|c| !matches!(c, 'a'..='z' | '0'..='9' | '_' | '-'))
    {
        Some(c) => Err(NameError::BadChar(c)),
        None => Ok(()),
    }
}

/// Per-collection resource bounds. Every field is optional; `None`
/// means "no bound beyond the server-wide defaults". The server wires
/// each bound into machinery that already exists for the whole
/// process, so a quota'd tenant sees the same failure modes a loaded
/// server does:
///
/// * `max_inflight_updates` → the `503 + Retry-After` backpressure
///   path, scoped to this collection's own in-flight counter;
/// * `max_sets` / `max_bytes` → a named `403` on `POST /sets` once the
///   collection would exceed the bound;
/// * `deadline_cap_ms` → the cooperative search deadline (`504` on
///   exhaustion), capped together with any server-wide
///   `--search-timeout-ms`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Quotas {
    /// At most this many update requests in flight at once.
    pub(crate) max_inflight_updates: Option<u64>,
    /// At most this many live sets.
    pub(crate) max_sets: Option<u64>,
    /// At most this many bytes of live element text.
    pub(crate) max_bytes: Option<u64>,
    /// Cap every search in this collection to this wall-clock budget.
    pub(crate) deadline_cap_ms: Option<u64>,
}

/// One registered collection: its name, how many engine shards it
/// partitions across, and its quota configuration. The engine
/// *configuration* (metric, thresholds, tokenization) is deliberately
/// not here — every collection in one process shares the server's
/// `EngineConfig`, exactly as the snapshot format leaves it to the
/// CLI's `ShardSpec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CollectionSpec {
    /// The collection's name (validated).
    pub(crate) name: String,
    /// Engine shards for this collection (clamped to ≥ 1 by the
    /// engine, at most [`MAX_SHARDS`] but for `default`).
    pub(crate) shards: u32,
    /// Per-tenant bounds.
    pub(crate) quotas: Quotas,
}

/// Why a manifest failed to decode or load.
#[derive(Debug)]
pub enum ManifestError {
    /// Filesystem failure reading or writing the manifest.
    Io(io::Error),
    /// The envelope refused the bytes (magic, version, CRC, length).
    Envelope(EnvelopeError),
    /// Structurally broken content (truncated field, duplicate or
    /// invalid name, a shard count above the bound a create enforces).
    Corrupt(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "catalog manifest io: {e}"),
            Self::Envelope(e) => write!(f, "catalog manifest refused: {e}"),
            Self::Corrupt(why) => write!(f, "catalog manifest corrupt: {why}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<io::Error> for ManifestError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Encodes the registry `specs` (in name order): header, entry count
/// u32, per entry `name_len u16 | name | shards u32 | quota mask u8`
/// and one u64 per quota whose mask bit is set, seal.
pub(crate) fn encode(specs: &[CollectionSpec]) -> Vec<u8> {
    let mut out = MANIFEST_HEADER.begin(64 + specs.len() * 48);
    out.extend_from_slice(&(specs.len() as u32).to_le_bytes());
    for spec in specs {
        out.extend_from_slice(&(spec.name.len() as u16).to_le_bytes());
        out.extend_from_slice(spec.name.as_bytes());
        out.extend_from_slice(&spec.shards.to_le_bytes());
        let q = &spec.quotas;
        let fields = [
            q.max_inflight_updates,
            q.max_sets,
            q.max_bytes,
            q.deadline_cap_ms,
        ];
        let mut mask = 0u8;
        for (bit, field) in fields.iter().enumerate() {
            if field.is_some() {
                mask |= 1 << bit;
            }
        }
        out.push(mask);
        for field in fields.into_iter().flatten() {
            out.extend_from_slice(&field.to_le_bytes());
        }
    }
    seal(&mut out);
    out
}

/// Decodes a registry, checking the envelope (magic, version, CRC),
/// then the structure. Every stored name is re-validated — a manifest
/// is the one thing that could smuggle a bad name past the HTTP-layer
/// check — and so is every shard count a collection is opened with
/// (`default`'s is never read: its store is opened with the server's
/// own count).
pub(crate) fn decode(bytes: &[u8]) -> Result<Vec<CollectionSpec>, ManifestError> {
    let corrupt = |why: &str| ManifestError::Corrupt(why.into());
    let mut cursor = MANIFEST_HEADER
        .open(bytes)
        .map_err(ManifestError::Envelope)?;
    let mut take = |n: usize, what: &str| -> Result<&[u8], ManifestError> {
        if cursor.len() < n {
            return Err(ManifestError::Corrupt(format!("truncated {what}")));
        }
        let (head, rest) = cursor.split_at(n);
        cursor = rest;
        Ok(head)
    };
    let count = u32::from_le_bytes(take(4, "entry count")?.try_into().expect("4 bytes"));
    let mut specs: Vec<CollectionSpec> = Vec::new();
    for i in 0..count {
        let name_len =
            u16::from_le_bytes(take(2, "name length")?.try_into().expect("2 bytes")) as usize;
        let name = std::str::from_utf8(take(name_len, "name")?)
            .map_err(|_| corrupt("name is not UTF-8"))?
            .to_owned();
        validate_name(&name).map_err(|e| ManifestError::Corrupt(format!("entry {i}: {e}")))?;
        let shards = u32::from_le_bytes(take(4, "shard count")?.try_into().expect("4 bytes"));
        if shards as usize > MAX_SHARDS && name != DEFAULT_COLLECTION {
            return Err(ManifestError::Corrupt(format!(
                "entry {i}: {shards} shards, more than the {MAX_SHARDS}-shard limit"
            )));
        }
        let mask = take(1, "quota mask")?[0];
        if mask & !0b1111 != 0 {
            return Err(corrupt("unknown quota field bits set"));
        }
        let mut field = |bit: u8| -> Result<Option<u64>, ManifestError> {
            if mask & (1 << bit) == 0 {
                return Ok(None);
            }
            Ok(Some(u64::from_le_bytes(
                take(8, "quota value")?.try_into().expect("8 bytes"),
            )))
        };
        let quotas = Quotas {
            max_inflight_updates: field(0)?,
            max_sets: field(1)?,
            max_bytes: field(2)?,
            deadline_cap_ms: field(3)?,
        };
        if specs.iter().any(|spec| spec.name == name) {
            return Err(ManifestError::Corrupt(format!(
                "duplicate collection {name:?}"
            )));
        }
        specs.push(CollectionSpec {
            name,
            shards,
            quotas,
        });
    }
    if !cursor.is_empty() {
        return Err(corrupt("trailing bytes after the last entry"));
    }
    Ok(specs)
}

/// Loads the manifest at `path`; `Ok(None)` when no file exists (a
/// legacy or fresh data directory).
pub(crate) fn load(path: &Path) -> Result<Option<Vec<CollectionSpec>>, ManifestError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    decode(&bytes).map(Some)
}

/// Writes the registry `specs` to `path` atomically: encode into a
/// tempfile next to it, fsync, rename over the target, fsync the
/// directory. A crash at any point leaves either the previous manifest
/// or this one.
pub(crate) fn save(path: &Path, specs: &[CollectionSpec]) -> Result<(), ManifestError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = path.with_extension("manifest.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&encode(specs))?;
        file.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Some(dir) = dir {
        // Make the rename itself durable; without this a crash can
        // lose the directory entry even though the data is synced.
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, shards: u32, quotas: Quotas) -> CollectionSpec {
        CollectionSpec {
            name: name.into(),
            shards,
            quotas,
        }
    }

    #[test]
    fn names_accept_the_documented_alphabet() {
        for good in ["a", "default", "tenant-7", "a_b-c9", &"x".repeat(64)] {
            assert_eq!(validate_name(good), Ok(()), "{good:?}");
        }
    }

    #[test]
    fn names_reject_traversal_dots_and_overlong() {
        assert_eq!(validate_name(""), Err(NameError::Empty));
        assert_eq!(validate_name("."), Err(NameError::BadChar('.')));
        assert_eq!(validate_name(".."), Err(NameError::BadChar('.')));
        assert_eq!(validate_name("../../etc"), Err(NameError::BadChar('.')));
        assert_eq!(validate_name("a/b"), Err(NameError::BadChar('/')));
        assert_eq!(validate_name("a\\b"), Err(NameError::BadChar('\\')));
        assert_eq!(validate_name("Tenant"), Err(NameError::BadChar('T')));
        assert_eq!(validate_name("a b"), Err(NameError::BadChar(' ')));
        assert_eq!(validate_name("naïve"), Err(NameError::BadChar('ï')));
        assert_eq!(validate_name(&"x".repeat(65)), Err(NameError::TooLong(65)));
    }

    #[test]
    fn manifest_round_trips_specs_and_quotas() {
        let specs = [
            spec("default", 4, Quotas::default()),
            spec(
                "tenant-a",
                7,
                Quotas {
                    max_inflight_updates: Some(2),
                    max_sets: Some(10_000),
                    max_bytes: None,
                    deadline_cap_ms: Some(250),
                },
            ),
            spec(
                "zz",
                1,
                Quotas {
                    max_bytes: Some(u64::MAX),
                    ..Quotas::default()
                },
            ),
        ];
        let back = decode(&encode(&specs)).unwrap();
        assert_eq!(back, specs);
        let named = |name: &str| back.iter().find(|s| s.name == name);
        assert_eq!(named("tenant-a").unwrap().quotas.deadline_cap_ms, Some(250));
        assert!(named("nope").is_none());
    }

    /// What `decode` refuses beyond a broken layout: a stored name the
    /// route would reject, a name stored twice, and a collection opened
    /// with more than [`MAX_SHARDS`] shards (`default`'s count is never
    /// opened, so any count decodes there).
    #[test]
    fn decode_rejects_bad_names_duplicates_and_too_many_shards() {
        let q = Quotas::default();
        let corrupt = |specs: &[CollectionSpec]| match decode(&encode(specs)) {
            Err(ManifestError::Corrupt(why)) => why,
            other => panic!("{specs:?}: expected Corrupt, got {other:?}"),
        };
        assert!(corrupt(&[spec("../etc", 1, q)]).contains("'.'"));
        assert!(corrupt(&[spec("a", 1, q), spec("a", 2, q)]).contains("duplicate"));
        let over = MAX_SHARDS as u32 + 1;
        assert!(corrupt(&[spec("a", over, q)]).contains(&format!("{over} shards")));
        let bounded = [spec("a", MAX_SHARDS as u32, q), spec("default", over, q)];
        assert_eq!(decode(&encode(&bounded)).unwrap(), bounded);
    }

    #[test]
    fn save_load_round_trips_and_missing_file_is_none() {
        let dir = std::env::temp_dir().join(format!(
            "silkmoth-catalog-test-{}-{:p}",
            std::process::id(),
            &MANIFEST_HEADER
        ));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        assert!(load(&path).unwrap().is_none());
        let mut specs = vec![spec("default", 4, Quotas::default())];
        save(&path, &specs).unwrap();
        assert_eq!(load(&path).unwrap(), Some(specs.clone()));
        // A second save replaces atomically (no tempfile left behind).
        specs.push(spec("extra", 2, Quotas::default()));
        save(&path, &specs).unwrap();
        assert_eq!(load(&path).unwrap().unwrap().len(), 2);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != MANIFEST_FILE)
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `encode`'s bytes for a fixed spec list: an empty registry, and
    /// three entries whose quota masks set no bit, one bit and the two
    /// outer bits.
    #[test]
    fn encode_bytes_are_pinned_for_a_fixed_spec_list() {
        #[rustfmt::skip]
        const EMPTY: [u8; 16] = [b'S', b'M', b'C', b'T', 2, 0, 0, 0, 0, 0, 0, 0, 0xDF, 0xB1, 0xFA, 0x35];
        #[rustfmt::skip]
        const THREE: [u8; 73] = [
            b'S', b'M', b'C', b'T', 2, 0, 0, 0, 3, 0, 0, 0,
            1, 0, b'a', 1, 0, 0, 0, 0b0010,
            3, 0, 0, 0, 0, 0, 0, 0,
            7, 0, b'd', b'e', b'f', b'a', b'u', b'l', b't', 4, 0, 0, 0, 0,
            4, 0, b'z', b'-', b'9', b'_', 64, 0, 0, 0, 0b1001,
            0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
            1, 0, 0, 0, 0, 0, 0, 0,
            0x33, 0xDE, 0x6A, 0xEE,
        ];
        assert_eq!(encode(&[]), EMPTY);
        let specs = [
            spec(
                "a",
                1,
                Quotas {
                    max_sets: Some(3),
                    ..Quotas::default()
                },
            ),
            spec("default", 4, Quotas::default()),
            spec(
                "z-9_",
                64,
                Quotas {
                    max_inflight_updates: Some(u64::MAX),
                    deadline_cap_ms: Some(1),
                    ..Quotas::default()
                },
            ),
        ];
        assert_eq!(encode(&specs), THREE);
    }

    /// Version-2 bytes are pinned: a manifest on disk must decode
    /// unchanged, and encoding its contents must give its bytes back.
    /// The same registry in the version-1 layout (a one-byte version)
    /// is refused by its version number, before its CRC is read.
    #[test]
    fn version_2_bytes_are_pinned_and_version_1_is_refused() {
        #[rustfmt::skip]
        const GOLDEN: [u8; 77] = [
            b'S', b'M', b'C', b'T', 2, 0, 0, 0, 2, 0, 0, 0,
            7, 0, b'd', b'e', b'f', b'a', b'u', b'l', b't', 4, 0, 0, 0, 0,
            8, 0, b't', b'e', b'n', b'a', b'n', b't', b'-', b'a', 7, 0, 0, 0, 0b1111,
            2, 0, 0, 0, 0, 0, 0, 0,
            0x10, 0x27, 0, 0, 0, 0, 0, 0,
            0, 0, 0x10, 0, 0, 0, 0, 0,
            250, 0, 0, 0, 0, 0, 0, 0,
            0x7D, 0xFA, 0x3A, 0x7B,
        ];
        let specs = [
            spec("default", 4, Quotas::default()),
            spec(
                "tenant-a",
                7,
                Quotas {
                    max_inflight_updates: Some(2),
                    max_sets: Some(10_000),
                    max_bytes: Some(1 << 20),
                    deadline_cap_ms: Some(250),
                },
            ),
        ];
        assert_eq!(encode(&specs), GOLDEN);
        assert_eq!(decode(&GOLDEN).unwrap(), specs);

        // The version-1 file: the one-byte version, then the same
        // fields under their own seal.
        let mut v1 = GOLDEN[..4].to_vec();
        v1.push(1);
        v1.extend_from_slice(&GOLDEN[8..GOLDEN.len() - 4]);
        seal(&mut v1);
        assert_eq!(v1[v1.len() - 4..], [0xCA, 0x80, 0x76, 0x19]);
        match decode(&v1) {
            Err(ManifestError::Envelope(EnvelopeError::UnknownVersion(1, 2))) => {}
            other => panic!("expected version 1 refused by name, got {other:?}"),
        }
    }
}
