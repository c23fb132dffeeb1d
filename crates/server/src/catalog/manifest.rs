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
//! [`Manifest`] is the on-disk registry: one versioned binary file
//! (`catalog.manifest`) listing every collection with its shard count
//! and [`Quotas`]. Following the workspace's format-versioning rule it
//! carries a magic + version byte (readers reject unknown versions by
//! name) and a CRC-32 trailer (the storage layer's [`crc32`]), and
//! [`Manifest::save`] writes it atomically — tempfile, fsync, rename,
//! directory fsync — so a crash mid-update leaves either the old
//! registry or the new one, never a torn file.

use silkmoth_storage::crc32;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// The longest valid collection name.
pub(crate) const NAME_MAX_LEN: usize = 64;

/// The collection unscoped routes serve; created implicitly, cannot be
/// dropped.
pub(crate) const DEFAULT_COLLECTION: &str = "default";

/// The manifest's file name inside the server's data directory.
pub(crate) const MANIFEST_FILE: &str = "catalog.manifest";

/// The current manifest encoding version (the byte after the magic).
pub(crate) const MANIFEST_VERSION: u8 = 1;

const MAGIC: &[u8; 4] = b"SMCT";

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
    /// engine).
    pub(crate) shards: u32,
    /// Per-tenant bounds.
    pub(crate) quotas: Quotas,
}

/// Why a manifest failed to decode or load.
#[derive(Debug)]
pub enum ManifestError {
    /// Filesystem failure reading or writing the manifest.
    Io(io::Error),
    /// The file does not start with the `SMCT` magic.
    BadMagic,
    /// A version this reader does not understand — rejected by name,
    /// never guessed at.
    UnknownVersion(u8),
    /// The CRC-32 trailer does not match the content.
    BadChecksum {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the content.
        computed: u32,
    },
    /// Structurally broken content (truncated field, duplicate or
    /// invalid name).
    Corrupt(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "catalog manifest io: {e}"),
            Self::BadMagic => write!(f, "not a catalog manifest (bad magic)"),
            Self::UnknownVersion(v) => write!(
                f,
                "catalog manifest version {v} is not supported (this reader understands \
                 version {MANIFEST_VERSION}); refusing to guess at the layout"
            ),
            Self::BadChecksum { stored, computed } => write!(
                f,
                "catalog manifest checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
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

/// The durable collection registry: every collection the server must
/// recover on restart, in name order. The `default` collection is
/// listed like any other so the manifest is self-contained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    collections: Vec<CollectionSpec>,
}

impl Manifest {
    /// The registered collections, in name order.
    pub(crate) fn collections(&self) -> &[CollectionSpec] {
        &self.collections
    }

    /// The spec registered under `name`, if any.
    pub(crate) fn get(&self, name: &str) -> Option<&CollectionSpec> {
        self.collections
            .binary_search_by(|c| c.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.collections[i])
    }

    /// Registers (or replaces) a collection. The name must already be
    /// validated; storing an invalid name would poison every future
    /// load.
    pub(crate) fn upsert(&mut self, spec: CollectionSpec) -> Result<(), NameError> {
        validate_name(&spec.name)?;
        match self
            .collections
            .binary_search_by(|c| c.name.as_str().cmp(&spec.name))
        {
            Ok(i) => self.collections[i] = spec,
            Err(i) => self.collections.insert(i, spec),
        }
        Ok(())
    }

    /// Unregisters `name`; true when it was present.
    pub(crate) fn remove(&mut self, name: &str) -> bool {
        match self
            .collections
            .binary_search_by(|c| c.name.as_str().cmp(name))
        {
            Ok(i) => {
                self.collections.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Encodes the registry: magic, version byte, entry count, the
    /// entries, CRC-32 trailer over everything before it.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.collections.len() * 48);
        out.extend_from_slice(MAGIC);
        out.push(MANIFEST_VERSION);
        out.extend_from_slice(&(self.collections.len() as u32).to_le_bytes());
        for spec in &self.collections {
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
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        out
    }

    /// Decodes a registry, checking magic, version, structure, and the
    /// CRC trailer. Every stored name is re-validated — a manifest is
    /// the one thing that could smuggle a bad name past the HTTP-layer
    /// check.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, ManifestError> {
        let corrupt = |why: &str| ManifestError::Corrupt(why.into());
        if bytes.len() < MAGIC.len() + 1 {
            return Err(ManifestError::BadMagic);
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(ManifestError::BadMagic);
        }
        let version = bytes[MAGIC.len()];
        if version != MANIFEST_VERSION {
            return Err(ManifestError::UnknownVersion(version));
        }
        if bytes.len() < MAGIC.len() + 1 + 4 + 4 {
            return Err(corrupt("truncated before the entry count"));
        }
        let (content, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte split"));
        let computed = crc32(content);
        if stored != computed {
            return Err(ManifestError::BadChecksum { stored, computed });
        }
        let mut cursor = &content[MAGIC.len() + 1..];
        let mut take = |n: usize, what: &str| -> Result<&[u8], ManifestError> {
            if cursor.len() < n {
                return Err(ManifestError::Corrupt(format!("truncated {what}")));
            }
            let (head, rest) = cursor.split_at(n);
            cursor = rest;
            Ok(head)
        };
        let count = u32::from_le_bytes(take(4, "entry count")?.try_into().expect("4 bytes"));
        let mut manifest = Self::default();
        for i in 0..count {
            let name_len =
                u16::from_le_bytes(take(2, "name length")?.try_into().expect("2 bytes")) as usize;
            let name = std::str::from_utf8(take(name_len, "name")?)
                .map_err(|_| corrupt("name is not UTF-8"))?
                .to_owned();
            validate_name(&name).map_err(|e| ManifestError::Corrupt(format!("entry {i}: {e}")))?;
            let shards = u32::from_le_bytes(take(4, "shard count")?.try_into().expect("4 bytes"));
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
            if manifest.get(&name).is_some() {
                return Err(ManifestError::Corrupt(format!(
                    "duplicate collection {name:?}"
                )));
            }
            manifest
                .upsert(CollectionSpec {
                    name,
                    shards,
                    quotas,
                })
                .expect("name validated above");
        }
        if !cursor.is_empty() {
            return Err(corrupt("trailing bytes after the last entry"));
        }
        Ok(manifest)
    }

    /// Loads the manifest at `path`; `Ok(None)` when no file exists
    /// (a legacy or fresh data directory).
    pub(crate) fn load(path: &Path) -> Result<Option<Self>, ManifestError> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Self::decode(&bytes).map(Some)
    }

    /// Writes the manifest to `path` atomically: encode into a
    /// tempfile next to it, fsync, rename over the target, fsync the
    /// directory. A crash at any point leaves either the previous
    /// manifest or this one.
    pub(crate) fn save(&self, path: &Path) -> Result<(), ManifestError> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let tmp = path.with_extension("manifest.tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&self.encode())?;
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
        let mut m = Manifest::default();
        m.upsert(spec("default", 4, Quotas::default())).unwrap();
        m.upsert(spec(
            "tenant-a",
            7,
            Quotas {
                max_inflight_updates: Some(2),
                max_sets: Some(10_000),
                max_bytes: None,
                deadline_cap_ms: Some(250),
            },
        ))
        .unwrap();
        m.upsert(spec(
            "zz",
            1,
            Quotas {
                max_bytes: Some(u64::MAX),
                ..Quotas::default()
            },
        ))
        .unwrap();
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(
            back.get("tenant-a").unwrap().quotas.deadline_cap_ms,
            Some(250)
        );
        assert!(back.get("nope").is_none());
    }

    #[test]
    fn upsert_keeps_name_order_and_replaces_in_place() {
        let mut m = Manifest::default();
        m.upsert(spec("b", 1, Quotas::default())).unwrap();
        m.upsert(spec("a", 2, Quotas::default())).unwrap();
        m.upsert(spec("c", 3, Quotas::default())).unwrap();
        let names: Vec<&str> = m.collections().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        m.upsert(spec("b", 9, Quotas::default())).unwrap();
        assert_eq!(m.collections().len(), 3);
        assert_eq!(m.get("b").unwrap().shards, 9);
        assert!(m.remove("b"));
        assert!(!m.remove("b"));
        assert!(m.upsert(spec("../etc", 1, Quotas::default())).is_err());
    }

    #[test]
    fn unknown_versions_are_rejected_by_name() {
        let mut bytes = Manifest::default().encode();
        bytes[4] = 2; // bump the version byte
        let fixed = {
            // Re-seal the trailer so only the version is wrong.
            let n = bytes.len() - 4;
            let crc = crc32(&bytes[..n]).to_le_bytes();
            bytes[n..].copy_from_slice(&crc);
            bytes
        };
        match Manifest::decode(&fixed) {
            Err(ManifestError::UnknownVersion(2)) => {}
            other => panic!("expected UnknownVersion(2), got {other:?}"),
        }
        assert!(matches!(
            Manifest::decode(b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00"),
            Err(ManifestError::BadMagic)
        ));
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        let mut m = Manifest::default();
        m.upsert(spec(
            "tenant",
            3,
            Quotas {
                max_sets: Some(5),
                ..Quotas::default()
            },
        ))
        .unwrap();
        let good = m.encode();
        assert!(Manifest::decode(&good).is_ok());
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                Manifest::decode(&bad).is_err(),
                "flipping byte {i} went unnoticed"
            );
        }
        // Truncations too: no prefix may decode.
        for n in 0..good.len() {
            assert!(Manifest::decode(&good[..n]).is_err(), "prefix {n} decoded");
        }
    }

    #[test]
    fn save_load_round_trips_and_missing_file_is_none() {
        let dir = std::env::temp_dir().join(format!(
            "silkmoth-catalog-test-{}-{:p}",
            std::process::id(),
            &MAGIC
        ));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        assert!(Manifest::load(&path).unwrap().is_none());
        let mut m = Manifest::default();
        m.upsert(spec("default", 4, Quotas::default())).unwrap();
        m.save(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), Some(m.clone()));
        // A second save replaces atomically (no tempfile left behind).
        m.upsert(spec("extra", 2, Quotas::default())).unwrap();
        m.save(&path).unwrap();
        assert_eq!(
            Manifest::load(&path).unwrap().unwrap().collections().len(),
            2
        );
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != MANIFEST_FILE)
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The classic IEEE check value: the trailer's polynomial and
        // presentation (all-ones in, all-ones out).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Version-1 bytes as the first manifest encoder (a bitwise CRC-32
    /// of its own) wrote them: a manifest already on disk must decode
    /// unchanged, and encoding its contents must give its bytes back.
    #[test]
    fn version_1_bytes_are_pinned() {
        #[rustfmt::skip]
        const GOLDEN: [u8; 74] = [
            b'S', b'M', b'C', b'T', 1, 2, 0, 0, 0,
            7, 0, b'd', b'e', b'f', b'a', b'u', b'l', b't', 4, 0, 0, 0, 0,
            8, 0, b't', b'e', b'n', b'a', b'n', b't', b'-', b'a', 7, 0, 0, 0, 0b1111,
            2, 0, 0, 0, 0, 0, 0, 0,
            0x10, 0x27, 0, 0, 0, 0, 0, 0,
            0, 0, 0x10, 0, 0, 0, 0, 0,
            250, 0, 0, 0, 0, 0, 0, 0,
            0xCA, 0x80, 0x76, 0x19,
        ];
        let mut m = Manifest::default();
        m.upsert(spec("default", 4, Quotas::default())).unwrap();
        m.upsert(spec(
            "tenant-a",
            7,
            Quotas {
                max_inflight_updates: Some(2),
                max_sets: Some(10_000),
                max_bytes: Some(1 << 20),
                deadline_cap_ms: Some(250),
            },
        ))
        .unwrap();
        assert_eq!(m.encode(), GOLDEN);
        assert_eq!(Manifest::decode(&GOLDEN).unwrap(), m);
    }
}
