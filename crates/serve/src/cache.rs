//! Digest-addressed on-disk result cache.
//!
//! Completed runs are memoized under their
//! [`RunSpec::request_key`](crate::RunSpec::request_key) in one file per
//! entry, `<dir>/<key:016x>.run`, wrapped in the same versioned, checksummed
//! frame as world snapshots ([`simcore::snapshot::seal`]) — so every
//! read re-verifies the FNV-1a trailer and a torn, truncated or
//! bit-flipped entry is *refused fail-closed* and treated as absent
//! (recompute, overwrite), never served. Writes go through
//! [`simcore::snapshot::write_atomic`] (temp sibling, fsync, rename), so
//! a crash mid-store leaves either the old entry or none.
//!
//! A hit is verifiable twice over: the sealed frame's checksum covers
//! the whole payload, and the payload additionally records the run
//! digest and a separate FNV digest of the JSONL body, which
//! [`CachedRun::verify`] re-folds — the `op:"replay"` path then goes
//! further and re-executes the scenario to re-prove the digest itself.

use std::io;
use std::path::{Path, PathBuf};

use simcore::snapshot::{self, ByteReader, ByteWriter, SnapshotError};

use crate::scenario::RunArtifact;

/// Version byte of the cache entry payload. Bump on a layout change, or
/// when a simulator change moves the digests of runs the request key
/// cannot tell apart; old entries then read as damaged and are
/// recomputed, never served. Version 2: cohort-mode replacements draw
/// their lifetimes from the arm's tabulated law, so a v1 `scaled` entry
/// holds a result the current simulator no longer produces.
pub const CACHE_ENTRY_VERSION: u8 = 2;

/// What a lookup found.
pub enum Lookup {
    /// A verified entry.
    Hit(CachedRun),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed verification (torn write, truncation,
    /// bit flip, foreign key, stale version). The caller recomputes; the
    /// damaged file is left to be atomically overwritten by the store.
    Damaged {
        /// Why verification refused the entry.
        reason: String,
    },
}

/// A verified cache entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRun {
    /// The request key the entry was stored under.
    pub key: u64,
    /// The run digest recorded at store time.
    pub digest: u64,
    /// Events processed by the original run.
    pub events: u64,
    /// The rendered JSONL body (diary, spans, metrics).
    pub body: String,
}

impl CachedRun {
    /// Re-folds the body and cross-checks the recorded FNV digest. Held
    /// as a separate step so callers can re-verify an entry they have
    /// carried around in memory.
    pub fn verify(&self, expected_body_fnv: u64) -> bool {
        snapshot::fnv1a(self.body.as_bytes()) == expected_body_fnv
    }
}

/// The on-disk cache: a directory of sealed entries.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the directory cannot be created.
    pub fn open(dir: &Path) -> Result<ResultCache, SnapshotError> {
        std::fs::create_dir_all(dir).map_err(SnapshotError::Io)?;
        Ok(ResultCache { dir: dir.to_path_buf() })
    }

    /// The entry path for a key (exposed so tests can damage entries).
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.run"))
    }

    /// Looks up `key`, verifying the sealed frame and the body digest.
    /// Never errors: every defect downgrades to [`Lookup::Damaged`] (or
    /// [`Lookup::Miss`] for a simply-absent file) so the serving path
    /// always has the recompute fallback.
    pub fn lookup(&self, key: u64) -> Lookup {
        let path = self.entry_path(key);
        let payload = match snapshot::read_verified(&path, CACHE_ENTRY_VERSION) {
            Ok((_version, payload)) => payload,
            Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                return Lookup::Miss
            }
            Err(e) => return Lookup::Damaged { reason: e.to_string() },
        };
        match Self::decode(&payload) {
            Ok(entry) if entry.key != key => Lookup::Damaged {
                reason: format!(
                    "entry records key {:016x} but was filed under {key:016x}",
                    entry.key
                ),
            },
            Ok(entry) => Lookup::Hit(entry),
            Err(e) => Lookup::Damaged { reason: e.to_string() },
        }
    }

    /// Stores a completed run under `key`, atomically.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure — the caller serves
    /// the fresh result regardless; only memoization is lost.
    pub fn store(&self, key: u64, artifact: &RunArtifact) -> Result<(), SnapshotError> {
        let sealed = snapshot::seal(CACHE_ENTRY_VERSION, &Self::encode(key, artifact));
        snapshot::write_atomic(&self.entry_path(key), &sealed)
    }

    fn encode(key: u64, artifact: &RunArtifact) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64 + artifact.body.len());
        w.put_u64(key);
        w.put_u64(artifact.digest);
        w.put_u64(artifact.events);
        w.put_u64(snapshot::fnv1a(artifact.body.as_bytes()));
        w.put_str(&artifact.body);
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<CachedRun, SnapshotError> {
        let mut r = ByteReader::new(payload);
        let key = r.take_u64()?;
        let digest = r.take_u64()?;
        let events = r.take_u64()?;
        let body_fnv = r.take_u64()?;
        let body = r.take_str()?;
        r.finish()?;
        if snapshot::fnv1a(body.as_bytes()) != body_fnv {
            return Err(SnapshotError::Corrupt { what: "cache entry body digest mismatch" });
        }
        Ok(CachedRun { key, digest, events, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> RunArtifact {
        RunArtifact {
            digest: 0xabad_cafe_dead_beef,
            events: 2848,
            body: "{\"type\":\"event\",\"t\":0,\"msg\":\"x\"}\n".to_string(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("century-serve-cache-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let cache = ResultCache::open(&tmp("roundtrip")).unwrap();
        let art = artifact();
        assert!(matches!(cache.lookup(42), Lookup::Miss));
        cache.store(42, &art).unwrap();
        match cache.lookup(42) {
            Lookup::Hit(hit) => {
                assert_eq!(hit.key, 42);
                assert_eq!(hit.digest, art.digest);
                assert_eq!(hit.events, art.events);
                assert_eq!(hit.body, art.body);
                assert!(hit.verify(snapshot::fnv1a(art.body.as_bytes())));
            }
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn torn_truncated_and_flipped_entries_are_damaged_not_served() {
        let cache = ResultCache::open(&tmp("damage")).unwrap();
        cache.store(7, &artifact()).unwrap();
        let path = cache.entry_path(7);
        let good = std::fs::read(&path).unwrap();

        // Truncation (torn write survivor).
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(cache.lookup(7), Lookup::Damaged { .. }));

        // Single bit flip in the payload.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(cache.lookup(7), Lookup::Damaged { .. }));

        // Recompute path: an atomic store over the damage restores service.
        cache.store(7, &artifact()).unwrap();
        assert!(matches!(cache.lookup(7), Lookup::Hit(_)));
    }

    /// An entry sealed under an earlier version may hold a result the
    /// current simulator no longer produces: it is refused, recomputed
    /// and overwritten, never served.
    #[test]
    fn entries_of_an_earlier_version_are_refused_then_overwritten() {
        let cache = ResultCache::open(&tmp("stale-version")).unwrap();
        let stale = RunArtifact { digest: 0x0bad, ..artifact() };
        let v1 = snapshot::seal(1, &ResultCache::encode(5, &stale));
        std::fs::write(cache.entry_path(5), v1).unwrap();
        match cache.lookup(5) {
            Lookup::Damaged { reason } => assert!(reason.contains("version"), "{reason}"),
            _ => panic!("a version-1 entry must not be served"),
        }
        cache.store(5, &artifact()).unwrap();
        match cache.lookup(5) {
            Lookup::Hit(hit) => assert_eq!(hit.digest, artifact().digest),
            _ => panic!("the recomputed entry must be served"),
        }
    }

    #[test]
    fn entry_filed_under_wrong_key_is_refused() {
        let cache = ResultCache::open(&tmp("wrongkey")).unwrap();
        cache.store(1, &artifact()).unwrap();
        std::fs::rename(cache.entry_path(1), cache.entry_path(2)).unwrap();
        assert!(matches!(cache.lookup(2), Lookup::Damaged { .. }));
    }
}
