//! The on-disk contract: one atomic writer and one sealed envelope.
//!
//! Every file the pipeline persists — sweep cells (failed ones
//! included), registry artifacts, shard spills, and pv-serve's telemetry
//! documents — is written by [`write_atomic`], and every one of them
//! that is read back (all but the telemetry, which only scrapers read)
//! is a sealed envelope checked by `open` before a byte of it is
//! trusted.
//!
//! ## The envelope
//!
//! `magic[8] | key u64 LE | payload | lane_digest(payload) u64 LE`
//!
//! * the **magic** names the format and carries its version: bumping a
//!   format means changing its magic, which orphans every old file (a
//!   format's key function hashes the magic too, so old entries are not
//!   even looked up);
//! * the **key** binds the file to the identity it was stored under, so
//!   a file moved or copied to another entry's name does not verify;
//! * the **trailer** is the [`lane_digest`] of the payload.
//!
//! `open` maps a missing or unreadable file to [`PvError::CacheIo`]
//! and any failed check to [`PvError::Invalid`]; each format decides
//! what that means (DESIGN.md "On-disk formats": the caches count a miss
//! and heal, the registry returns the typed error).
//!
//! ## Durability
//!
//! Writes are atomic but not durable. [`write_atomic`] writes a sibling
//! `<name>.tmp.<pid>` and renames it over the target, so a reader sees
//! the old file or the new one, never a torn one, and a failed write
//! removes its temp. There is no fsync: a crash or power loss can lose
//! the latest writes, or leave a file whose contents never reached the
//! disk. Such a file fails `open` and heals like any other corrupt
//! entry. A writer that dies between write and rename leaks its temp;
//! `sweep_stale_temps` reclaims those when a directory is opened.
//!
//! ## Older formats
//!
//! A magic's trailing ASCII digits are its version. A file an older
//! version wrote can never verify again, so `prune_older_formats`
//! deletes it when its directory is next opened for writing.

use std::fs;
use std::io::Read;
use std::path::Path;

use serde::{Deserialize, Serialize};

use pv_stats::fingerprint::lane_digest;

use crate::resilience::{pid_is_dead, PvError};

/// Magic plus key.
const HEADER: usize = 16;
/// The payload digest.
const TRAILER: usize = 8;
/// What [`write_atomic`] appends to a file name (then the writer's pid).
const TEMP_INFIX: &str = ".tmp.";

fn io_error(what: &str, path: &Path, e: std::io::Error) -> PvError {
    PvError::CacheIo {
        what: what.to_string(),
        detail: format!("{}: {e}", path.display()),
    }
}

/// Writes `bytes` to `path` through a sibling temp file and a rename,
/// creating the parent directory if needed.
///
/// # Errors
/// [`PvError::CacheIo`] when the directory, the temp file or the rename
/// fails; the temp file is removed on every failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PvError> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| io_error("store::write_atomic", dir, e))?;
    }
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!("{TEMP_INFIX}{}", std::process::id()));
    let tmp = path.with_file_name(name);
    fs::write(&tmp, bytes)
        .and_then(|()| fs::rename(&tmp, path))
        .map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_error("store::write_atomic", path, e)
        })
}

/// Removes the temp files crashed writers left in `dir`: every
/// `*.tmp.<pid>` whose pid is provably dead (or whose suffix is not a pid
/// at all). Temps owned by this or any other live process are left alone.
/// Returns the number of files removed; a missing or unreadable directory
/// sweeps nothing.
pub(crate) fn sweep_stale_temps(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some((_, suffix)) = name.rsplit_once(TEMP_INFIX) else {
            continue;
        };
        let stale = match suffix.parse::<u32>() {
            Ok(pid) => pid != std::process::id() && pid_is_dead(pid),
            // A mangled suffix cannot belong to a live writer.
            Err(_) => true,
        };
        if stale && fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// A magic split into its name and its version, the trailing ASCII
/// digits read as a number (so `PVCELL10` is newer than `PVCELL09`).
/// `None` when the magic ends in no digit.
fn magic_version(magic: &[u8; 8]) -> Option<(&[u8], u64)> {
    let name_len = magic
        .iter()
        .rposition(|b| !b.is_ascii_digit())
        .map_or(0, |i| i + 1);
    let digits = &magic[name_len..];
    if digits.is_empty() {
        return None;
    }
    let version = digits.iter().fold(0, |v, &d| v * 10 + u64::from(d - b'0'));
    Some((&magic[..name_len], version))
}

/// Deletes every `<prefix>*<suffix>` file in `dir` that an older
/// version of `magic` wrote: its first eight bytes are the same name
/// followed by a smaller version. Current and newer files, files
/// shorter than eight bytes and any other leading bytes are left alone
/// — a damaged current file is a counted miss that heals, not litter.
/// Returns the number of files deleted; a missing or unreadable
/// directory deletes nothing.
pub(crate) fn prune_older_formats(
    dir: &Path,
    prefix: &str,
    suffix: &str,
    magic: &[u8; 8],
) -> usize {
    let Some((name, version)) = magic_version(magic) else {
        return 0;
    };
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let file_name = file_name.to_string_lossy();
        if !(file_name.starts_with(prefix) && file_name.ends_with(suffix)) {
            continue;
        }
        let path = entry.path();
        let mut head = [0u8; 8];
        let read = fs::File::open(&path).and_then(|mut f| f.read_exact(&mut head));
        let older =
            read.is_ok() && magic_version(&head).is_some_and(|(n, v)| n == name && v < version);
        if older && fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// A payload serialized in place, after room for the envelope header,
/// and digested once: [`Unsealed::seal`] writes the header and trailer
/// around it without copying or digesting it again.
pub(crate) struct Unsealed {
    bytes: Vec<u8>,
    digest: u64,
}

impl Unsealed {
    /// Serializes a payload with `write` (which appends it to the buffer
    /// it is given) and takes the payload's digest.
    pub fn new(write: impl FnOnce(&mut Vec<u8>)) -> Self {
        let mut bytes = vec![0; HEADER];
        write(&mut bytes);
        let digest = lane_digest(&bytes[HEADER..]);
        Unsealed { bytes, digest }
    }

    /// The payload's [`lane_digest`], as the trailer will carry it.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The envelope bytes of the payload under `magic` and `key`.
    pub fn seal(mut self, magic: &[u8; 8], key: u64) -> Vec<u8> {
        self.bytes[..8].copy_from_slice(magic);
        self.bytes[8..HEADER].copy_from_slice(&key.to_le_bytes());
        self.bytes.extend_from_slice(&self.digest.to_le_bytes());
        self.bytes
    }
}

/// The envelope bytes of `payload` under `magic` and `key`.
pub(crate) fn seal(magic: &[u8; 8], key: u64, payload: &[u8]) -> Vec<u8> {
    Unsealed::new(|buf| buf.extend_from_slice(payload)).seal(magic, key)
}

/// Seals the compact JSON of `value` and writes it atomically to `path`.
///
/// # Errors
/// [`PvError::Invalid`] when `value` cannot be serialized; otherwise as
/// [`write_atomic`].
pub(crate) fn write_json<T: Serialize + ?Sized>(
    path: &Path,
    magic: &[u8; 8],
    key: u64,
    value: &T,
) -> Result<(), PvError> {
    let json = serde_json::to_string(value).map_err(|e| PvError::Invalid {
        what: "store::write_json".into(),
        detail: format!("serialize: {e}"),
    })?;
    write_atomic(path, &seal(magic, key, json.as_bytes()))
}

/// A file whose envelope verified: the bytes read, one buffer, no copy.
#[derive(Debug)]
pub(crate) struct Sealed {
    bytes: Vec<u8>,
}

impl Sealed {
    /// The verified payload.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[HEADER..self.bytes.len() - TRAILER]
    }

    /// The payload's [`lane_digest`], as verified.
    pub fn digest(&self) -> u64 {
        le_u64(&self.bytes[self.bytes.len() - TRAILER..])
    }

    /// The payload parsed as JSON.
    ///
    /// # Errors
    /// [`PvError::Invalid`] when the payload is not valid UTF-8 JSON of
    /// type `T`.
    pub fn json<T: for<'de> Deserialize<'de>>(&self) -> Result<T, PvError> {
        let invalid = |detail: String| PvError::Invalid {
            what: "store::open".into(),
            detail,
        };
        let text = std::str::from_utf8(self.payload())
            .map_err(|e| invalid(format!("payload is not UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| invalid(format!("unparsable payload: {e}")))
    }
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut arr = [0u8; 8];
    arr.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(arr)
}

/// Reads `path` and verifies its envelope: magic, key, then the payload
/// digest.
///
/// # Errors
/// [`PvError::CacheIo`] when the file is missing or unreadable;
/// [`PvError::Invalid`] when it is shorter than an envelope or fails any
/// check.
pub(crate) fn open(path: &Path, magic: &[u8; 8], key: u64) -> Result<Sealed, PvError> {
    let bytes = fs::read(path).map_err(|e| io_error("store::open", path, e))?;
    let failed = if bytes.len() < HEADER + TRAILER {
        Some("shorter than an envelope")
    } else if bytes[..8] != magic[..] {
        Some("bad magic")
    } else if le_u64(&bytes[8..]) != key {
        Some("key mismatch")
    } else if lane_digest(&bytes[HEADER..bytes.len() - TRAILER])
        != le_u64(&bytes[bytes.len() - TRAILER..])
    {
        Some("payload digest mismatch")
    } else {
        None
    };
    match failed {
        None => Ok(Sealed { bytes }),
        Some(check) => Err(PvError::Invalid {
            what: "store::open".into(),
            detail: format!("{}: {check}", path.display()),
        }),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    use crate::eval::{BenchScore, EvalSummary};
    use crate::registry::{Artifact, ModelRegistry};
    use crate::sweep::{CellCache, CellConfig};
    use crate::usecase1::{FewRunsConfig, FewRunsPredictor};

    const MAGIC: &[u8; 8] = b"PVTEST01";

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pv-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn temps_in(dir: &Path) -> Vec<String> {
        fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(TEMP_INFIX))
            .collect()
    }

    #[test]
    fn sealed_round_trip_and_every_check_is_typed() {
        let dir = tmp_dir("round-trip");
        let path = dir.join("entry.bin");
        write_atomic(&path, &seal(MAGIC, 7, b"payload bytes")).unwrap();
        let sealed = open(&path, MAGIC, 7).unwrap();
        assert_eq!(sealed.payload(), b"payload bytes");
        assert_eq!(sealed.digest(), lane_digest(b"payload bytes"));

        let kind = |magic: &[u8; 8], key: u64| open(&path, magic, key).unwrap_err().kind();
        assert_eq!(kind(b"PVTEST02", 7), "invalid");
        assert_eq!(kind(MAGIC, 8), "invalid");
        fs::write(&path, &seal(MAGIC, 7, b"payload bytes")[..20]).unwrap();
        assert_eq!(kind(MAGIC, 7), "invalid");
        fs::remove_file(&path).unwrap();
        assert_eq!(kind(MAGIC, 7), "cache-io");

        // An empty payload is a valid envelope; its JSON is not.
        write_atomic(&path, &seal(MAGIC, 7, b"")).unwrap();
        let empty = open(&path, MAGIC, 7).unwrap();
        assert!(empty.payload().is_empty());
        assert_eq!(empty.json::<u64>().unwrap_err().kind(), "invalid");
        write_json(&path, MAGIC, 7, &(3u64, "x")).unwrap();
        let pair: (u64, String) = open(&path, MAGIC, 7).unwrap().json().unwrap();
        assert_eq!(pair, (3, "x".to_string()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_the_whole_file() {
        let dir = tmp_dir("replace");
        let path = dir.join("stats.json");
        write_atomic(&path, b"{\"v\":1}").unwrap();
        write_atomic(&path, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        assert!(temps_in(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every writer of the codebase — registry, cell cache, telemetry —
    /// reports a failed write as `cache-io` and leaves no temp file
    /// behind, whether the rename fails (a directory squats on the
    /// target) or the write itself does (the temp is a link to a full
    /// device).
    #[test]
    fn failed_store_leaves_no_temp_files_behind() {
        let corpus = pv_sysmodel::Corpus::collect(&pv_sysmodel::SystemModel::intel(), 40, 5);
        let cfg = FewRunsConfig {
            n_profile_runs: 5,
            profiles_per_benchmark: 2,
            ..FewRunsConfig::default()
        };
        let include: Vec<usize> = (0..corpus.len()).collect();
        let artifact = Artifact::FewRuns(
            FewRunsPredictor::train(&corpus, &include, cfg)
                .unwrap()
                .to_artifact(),
        );
        let roster = pv_sysmodel::roster();
        let summary = EvalSummary::from_scores(vec![BenchScore {
            id: roster[0],
            ks: 0.25,
        }])
        .unwrap();
        let cell = CellConfig::FewRuns(cfg);

        type Writer<'a> = (
            &'a str,
            Box<dyn Fn(&Path) -> (PathBuf, Result<(), PvError>) + 'a>,
        );
        let writers: [Writer; 3] = [
            (
                "registry",
                Box::new(|dir: &Path| {
                    let reg = ModelRegistry::new(dir);
                    (
                        reg.entry_path(42, &cell).unwrap(),
                        reg.store(42, &artifact).map(|_| ()),
                    )
                }),
            ),
            (
                "cell cache",
                Box::new(|dir: &Path| {
                    let cache = CellCache::new(dir);
                    (
                        cache.entry_path(42, &cell).unwrap(),
                        cache.store(42, &cell, &summary, None, &[]),
                    )
                }),
            ),
            (
                "telemetry",
                Box::new(|dir: &Path| {
                    let path = dir.join("stats.json");
                    let result = write_atomic(&path, b"{}\n");
                    (path, result)
                }),
            ),
        ];
        let full_device = Path::new("/dev/full");
        for (name, write) in &writers {
            let dir = tmp_dir(&format!("no-temp-leak-{}", name.replace(' ', "-")));
            fs::create_dir_all(&dir).unwrap();
            // Learn the target path, then squat a directory on it.
            let (target, first) = write(&dir);
            first.unwrap();
            fs::remove_file(&target).unwrap();
            fs::create_dir_all(target.join("squatter")).unwrap();
            let err = write(&dir).1.expect_err("rename must fail");
            assert_eq!(err.kind(), "cache-io", "{name}");
            assert!(temps_in(&dir).is_empty(), "{name}: leaked temps");
            fs::remove_dir_all(&target).unwrap();

            #[cfg(unix)]
            if full_device.exists() {
                let mut tmp = target.file_name().unwrap().to_os_string();
                tmp.push(format!("{TEMP_INFIX}{}", std::process::id()));
                std::os::unix::fs::symlink(full_device, target.with_file_name(tmp)).unwrap();
                let err = write(&dir).1.expect_err("write must fail");
                assert_eq!(err.kind(), "cache-io", "{name}");
                assert!(temps_in(&dir).is_empty(), "{name}: leaked a partial temp");
                assert!(!target.exists(), "{name}: a failed write published");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn pruning_deletes_only_older_versions_of_the_same_format() {
        let dir = tmp_dir("prune");
        fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, head: &[u8]| {
            let path = dir.join(name);
            fs::write(&path, head).unwrap();
            path
        };
        let older = file("entry-1.bin", b"PVTEST04 and a payload");
        let oldest = file("entry-2.bin", b"PVTEST00");
        let current = file("entry-3.bin", b"PVTEST05 and a payload");
        let newer = file("entry-4.bin", b"PVTEST10 and a payload");
        let short = file("entry-5.bin", b"PVTEST0");
        let foreign = file("entry-6.bin", b"PVCELL01 and a payload");
        let renamed = file("entry-7.bin", b"PVTESTX4 and a payload");
        let other_name = file("other-8.bin", b"PVTEST04 and a payload");
        let other_suffix = file("entry-9.json", b"PVTEST04 and a payload");
        assert_eq!(prune_older_formats(&dir, "entry-", ".bin", b"PVTEST05"), 2);
        assert!(!older.exists() && !oldest.exists());
        for kept in [
            &current,
            &newer,
            &short,
            &foreign,
            &renamed,
            &other_name,
            &other_suffix,
        ] {
            assert!(kept.exists(), "{} was deleted", kept.display());
        }
        // Idempotent; a missing directory deletes nothing.
        assert_eq!(prune_older_formats(&dir, "entry-", ".bin", b"PVTEST05"), 0);
        assert_eq!(
            prune_older_formats(&dir.join("nope"), "", "", b"PVTEST05"),
            0
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_temp_sweep_removes_dead_writers_only() {
        let dir = tmp_dir("temp-sweep");
        fs::create_dir_all(&dir).unwrap();
        let dead = dir.join("cell-1.json.tmp.999999999");
        let mangled = dir.join("cell-2.json.tmp.notapid");
        let live = dir.join(format!("cell-3.json.tmp.{}", std::process::id()));
        let innocent = dir.join("cell-4.json");
        for p in [&dead, &mangled, &live, &innocent] {
            fs::write(p, "x").unwrap();
        }
        assert_eq!(sweep_stale_temps(&dir), 2);
        assert!(!dead.exists());
        assert!(!mangled.exists());
        assert!(live.exists(), "a live writer's temp must survive");
        assert!(innocent.exists(), "non-temp files must survive");
        // Idempotent; missing directory sweeps nothing.
        assert_eq!(sweep_stale_temps(&dir), 0);
        assert_eq!(sweep_stale_temps(&dir.join("nope")), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
