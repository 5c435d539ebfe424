//! Store-level operations: durable ingestion and total, recovering opens.
//!
//! A store is a directory of `shard-NNNNN.gss` files plus `MANIFEST.gsm`.
//! Ingestion writes every file to a `.tmp` sibling, fsyncs it, atomically
//! renames it into place, and only then replaces the manifest the same way
//! (shards first, manifest last). A crash at any point leaves the previous
//! manifest intact: half-written temps are swept on the next open, and
//! shards that were renamed into place but never committed show up as
//! orphans, reported and harmlessly renamed-over by the next ingest.
//!
//! Opening comes in two strengths. [`open_strict`] fails on the first
//! damaged shard. [`open_lenient`] quarantines damaged shards — renames
//! them aside with a `.quarantined` suffix, records the reason in the
//! [`StoreReport`] — and returns the surviving graphs so a server can keep
//! answering queries in an explicitly degraded state. [`verify`] is the
//! read-only version of the same sweep: it touches nothing and reports the
//! status of every shard.

use std::fs;
use std::path::Path;

use graphsig_graph::GraphDb;

use crate::error::StoreError;
use crate::faults::Io;
use crate::manifest::{Manifest, ShardMeta, MANIFEST_NAME};
use crate::shard::{decode_shard, encode_shard, SHARD_HEADER_LEN};

/// Suffix for in-flight files; anything wearing it on open is a torn write.
pub const TMP_SUFFIX: &str = ".tmp";
/// Suffix quarantined shards are renamed to by [`open_lenient`].
pub const QUARANTINE_SUFFIX: &str = ".quarantined";
/// Extension of shard files.
pub const SHARD_EXT: &str = "gss";
/// Default graphs per shard for pack/append.
pub const DEFAULT_SHARD_SIZE: usize = 1024;

/// What an open or ingest found beyond the happy path.
#[derive(Debug, Default)]
pub struct StoreReport {
    /// Shards that failed validation and were moved aside (lenient open
    /// only; strict open fails instead).
    pub quarantined: Vec<QuarantinedShard>,
    /// `.tmp` leftovers from torn writes, deleted on open.
    pub temps_swept: Vec<String>,
    /// `.gss` files present but not referenced by the manifest — the
    /// footprint of a crash between shard rename and manifest commit.
    pub orphans: Vec<String>,
    /// Transient I/O failures recovered by backoff during this open.
    pub retries: u64,
}

impl StoreReport {
    /// True when nothing abnormal was found.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.temps_swept.is_empty() && self.orphans.is_empty()
    }
}

/// One shard moved aside by a lenient open, with why.
#[derive(Debug)]
pub struct QuarantinedShard {
    /// Shard file name as the manifest listed it.
    pub name: String,
    /// The validation failure.
    pub error: StoreError,
}

/// A shard surviving in an opened store, with its slice of the loaded db.
#[derive(Debug, Clone)]
pub struct LoadedShard {
    /// Shard file name.
    pub name: String,
    /// First graph index *within the returned db* (after quarantine these
    /// are renumbered contiguously; the manifest keeps the durable gids).
    pub db_start: usize,
    /// Graphs contributed by this shard.
    pub graph_count: usize,
    /// On-disk size in bytes.
    pub file_len: u64,
}

/// A store loaded into memory: the graphs, how they map back to shards,
/// and everything abnormal the open encountered.
#[derive(Debug)]
pub struct OpenedStore {
    /// Surviving graphs in shard order, labels from the manifest's global
    /// table.
    pub db: GraphDb,
    /// The committed manifest (including shards that were quarantined).
    pub manifest: Manifest,
    /// Surviving shards in order, with their db index ranges.
    pub shards: Vec<LoadedShard>,
    /// Temps swept, orphans seen, shards quarantined.
    pub report: StoreReport,
}

impl OpenedStore {
    /// True when at least one manifest shard did not survive the open.
    pub fn degraded(&self) -> bool {
        !self.report.quarantined.is_empty()
    }

    /// Bytes on disk across the manifest and surviving shards.
    pub fn disk_bytes(&self) -> u64 {
        let manifest_len = self.manifest.encode().len() as u64;
        manifest_len + self.shards.iter().map(|s| s.file_len).sum::<u64>()
    }
}

/// Summary of a committed pack or append.
#[derive(Debug)]
pub struct PackSummary {
    /// Store version the commit produced.
    pub store_version: u64,
    /// Shards written by this call (not the store total).
    pub shards_written: usize,
    /// Graphs in the store after the commit.
    pub total_graphs: u64,
    /// Bytes written by this call (shards + manifest).
    pub bytes_written: u64,
    /// Transient I/O failures recovered by backoff during this call.
    pub retries: u64,
}

/// Per-shard outcome of a read-only [`verify`].
#[derive(Debug)]
pub struct ShardStatus {
    /// Shard file name.
    pub name: String,
    /// Graph count the manifest promises.
    pub graph_count: u32,
    /// `None` when the shard checks out; the failure otherwise.
    pub error: Option<StoreError>,
}

/// Result of a read-only [`verify`] sweep.
#[derive(Debug)]
pub struct VerifyReport {
    /// Store version from the manifest.
    pub store_version: u64,
    /// Every manifest shard with its status, in gid order.
    pub shards: Vec<ShardStatus>,
    /// Unreferenced `.gss` files (left untouched).
    pub orphans: Vec<String>,
    /// `.tmp` leftovers (left untouched — verify is read-only).
    pub temps: Vec<String>,
    /// Bytes on disk across manifest and referenced shards that exist.
    pub disk_bytes: u64,
}

impl VerifyReport {
    /// True when every shard validated.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(|s| s.error.is_none())
    }

    /// The failures, in shard order.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &StoreError)> {
        self.shards
            .iter()
            .filter_map(|s| s.error.as_ref().map(|e| (s.name.as_str(), e)))
    }
}

fn shard_name(index: usize) -> String {
    format!("shard-{index:05}.{SHARD_EXT}")
}

fn read_file(io: &Io, path: &Path) -> Result<Vec<u8>, StoreError> {
    io.read(path).map_err(|e| StoreError::io(path, "read", e))
}

/// Write `bytes` durably at `dir/name`: temp sibling, fsync, atomic rename,
/// directory fsync. Readers never observe a partial file under the final
/// name. Every step runs through the `Io` seam, so a fault plan can fail
/// any of create/write/fsync/rename/dir-fsync individually.
fn write_atomic(io: &Io, dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!("{name}{TMP_SUFFIX}"));
    let mut f = io
        .create(&tmp_path)
        .map_err(|e| StoreError::io(&tmp_path, "create", e))?;
    io.write_all(&mut f, bytes)
        .map_err(|e| StoreError::io(&tmp_path, "write", e))?;
    io.sync(&f)
        .map_err(|e| StoreError::io(&tmp_path, "fsync", e))?;
    drop(f);
    io.rename(&tmp_path, &final_path)
        .map_err(|e| StoreError::io(&final_path, "rename into", e))?;
    // Persist the rename itself. Directory fsync is a unix-ism; treat a
    // failure to open the dir handle as fatal but a failed sync as fatal
    // too — durability is the whole point of this path.
    io.sync_dir(dir)
        .map_err(|e| StoreError::io(dir, "fsync directory", e))?;
    Ok(())
}

/// Read just the committed manifest (no shard I/O).
pub fn read_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    read_manifest_with(dir, &Io::real())
}

/// [`read_manifest`] through an explicit I/O seam.
pub fn read_manifest_with(dir: &Path, io: &Io) -> Result<Manifest, StoreError> {
    let path = dir.join(MANIFEST_NAME);
    let bytes = match io.read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::NoManifest {
                dir: dir.to_path_buf(),
            })
        }
        Err(e) => return Err(StoreError::io(&path, "read", e)),
    };
    Manifest::decode(&bytes, &path)
}

/// Scan the directory for temps and unreferenced shard files.
fn scan_dir(
    io: &Io,
    dir: &Path,
    manifest: &Manifest,
) -> Result<(Vec<String>, Vec<String>), StoreError> {
    let referenced: std::collections::HashSet<&str> =
        manifest.shards.iter().map(|s| s.name.as_str()).collect();
    let mut temps = Vec::new();
    let mut orphans = Vec::new();
    let names = io.list(dir).map_err(|e| StoreError::io(dir, "list", e))?;
    for name in names {
        if name.ends_with(TMP_SUFFIX) {
            temps.push(name);
        } else if name.ends_with(&format!(".{SHARD_EXT}")) && !referenced.contains(name.as_str()) {
            orphans.push(name);
        }
    }
    temps.sort();
    orphans.sort();
    Ok((temps, orphans))
}

/// Validate one shard's bytes against its manifest entry and decode it.
fn check_shard(
    io: &Io,
    dir: &Path,
    manifest: &Manifest,
    meta: &ShardMeta,
) -> Result<Vec<graphsig_graph::Graph>, StoreError> {
    let path = dir.join(&meta.name);
    let bytes = read_file(io, &path)?;
    if bytes.len() as u64 != meta.file_len {
        return Err(StoreError::ManifestMismatch {
            path,
            detail: format!(
                "file is {} bytes, manifest says {}",
                bytes.len(),
                meta.file_len
            ),
        });
    }
    // Cross-check the header's payload checksum against the manifest copy
    // before decoding: this catches a *valid* shard file swapped in from
    // elsewhere, which internal validation alone cannot.
    if bytes.len() >= SHARD_HEADER_LEN {
        let crc = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        if crc != meta.shard_crc {
            return Err(StoreError::ManifestMismatch {
                path,
                detail: format!(
                    "payload checksum {:016x} does not match manifest {:016x}",
                    crc, meta.shard_crc
                ),
            });
        }
    }
    let decoded = decode_shard(&bytes, &path, manifest.label_limits())?;
    if decoded.gid_start != meta.gid_start {
        return Err(StoreError::ManifestMismatch {
            path,
            detail: format!(
                "gid start {} does not match manifest {}",
                decoded.gid_start, meta.gid_start
            ),
        });
    }
    if decoded.graphs.len() != meta.graph_count as usize {
        return Err(StoreError::ManifestMismatch {
            path,
            detail: format!(
                "{} graphs on disk, manifest says {}",
                decoded.graphs.len(),
                meta.graph_count
            ),
        });
    }
    Ok(decoded.graphs)
}

fn sweep_temps(io: &Io, dir: &Path, temps: &[String]) {
    for name in temps {
        // Best effort: a temp that cannot be removed is re-reported next
        // open rather than failing this one.
        let _ = io.remove_file(&dir.join(name));
    }
}

fn open_inner(io: &Io, dir: &Path, lenient: bool) -> Result<OpenedStore, StoreError> {
    let retries_before = io.retries();
    let manifest = read_manifest_with(dir, io)?;
    let (temps, orphans) = scan_dir(io, dir, &manifest)?;
    sweep_temps(io, dir, &temps);
    let mut report = StoreReport {
        quarantined: Vec::new(),
        temps_swept: temps,
        orphans,
        retries: 0,
    };
    let mut db = GraphDb::from_parts(Vec::new(), manifest.label_table());
    let mut shards = Vec::new();
    for meta in &manifest.shards {
        match check_shard(io, dir, &manifest, meta) {
            Ok(graphs) => {
                let db_start = db.len();
                for g in graphs {
                    db.push(g);
                }
                shards.push(LoadedShard {
                    name: meta.name.clone(),
                    db_start,
                    graph_count: meta.graph_count as usize,
                    file_len: meta.file_len,
                });
            }
            Err(error) if lenient => {
                // Move the damaged file aside so the next ingest cannot
                // trip over it; keep serving the survivors.
                let from = dir.join(&meta.name);
                let to = dir.join(format!("{}{QUARANTINE_SUFFIX}", meta.name));
                if from.exists() {
                    let _ = io.rename(&from, &to);
                }
                report.quarantined.push(QuarantinedShard {
                    name: meta.name.clone(),
                    error,
                });
            }
            Err(error) => return Err(error),
        }
    }
    report.retries = io.retries().saturating_sub(retries_before);
    Ok(OpenedStore {
        db,
        manifest,
        shards,
        report,
    })
}

/// Open a store, failing on the first damaged shard.
pub fn open_strict(dir: &Path) -> Result<OpenedStore, StoreError> {
    open_inner(&Io::real(), dir, false)
}

/// [`open_strict`] through an explicit I/O seam.
pub fn open_strict_with(dir: &Path, io: &Io) -> Result<OpenedStore, StoreError> {
    open_inner(io, dir, false)
}

/// Open a store, quarantining damaged shards and serving the rest. Only
/// manifest-level damage (or I/O on the directory itself) is fatal.
pub fn open_lenient(dir: &Path) -> Result<OpenedStore, StoreError> {
    open_inner(&Io::real(), dir, true)
}

/// [`open_lenient`] through an explicit I/O seam.
pub fn open_lenient_with(dir: &Path, io: &Io) -> Result<OpenedStore, StoreError> {
    open_inner(io, dir, true)
}

/// Read-only integrity sweep: every shard checked against the manifest,
/// nothing modified. Fails only if the manifest itself is unreadable.
pub fn verify(dir: &Path) -> Result<VerifyReport, StoreError> {
    verify_with(dir, &Io::real())
}

/// [`verify`] through an explicit I/O seam.
pub fn verify_with(dir: &Path, io: &Io) -> Result<VerifyReport, StoreError> {
    let manifest = read_manifest_with(dir, io)?;
    let (temps, orphans) = scan_dir(io, dir, &manifest)?;
    let manifest_len = fs::metadata(dir.join(MANIFEST_NAME))
        .map(|m| m.len())
        .unwrap_or(0);
    let mut disk_bytes = manifest_len;
    let mut shards = Vec::with_capacity(manifest.shards.len());
    for meta in &manifest.shards {
        if let Ok(m) = fs::metadata(dir.join(&meta.name)) {
            disk_bytes += m.len();
        }
        shards.push(ShardStatus {
            name: meta.name.clone(),
            graph_count: meta.graph_count,
            error: check_shard(io, dir, &manifest, meta).err(),
        });
    }
    Ok(VerifyReport {
        store_version: manifest.store_version,
        shards,
        orphans,
        temps,
        disk_bytes,
    })
}

fn label_names(db: &GraphDb) -> (Vec<String>, Vec<String>) {
    let t = db.labels();
    let nodes = t.node_labels().map(|(_, name)| name.to_string()).collect();
    let edges = t.edge_labels().map(|(_, name)| name.to_string()).collect();
    (nodes, edges)
}

/// Require that `base`'s label table is a prefix of `db`'s — the invariant
/// that lets appended shards keep using the store's numeric label ids.
fn check_label_prefix(dir: &Path, base: &Manifest, db: &GraphDb) -> Result<(), StoreError> {
    let (nodes, edges) = label_names(db);
    let prefix_ok =
        |old: &[String], new: &[String]| new.len() >= old.len() && new[..old.len()] == *old;
    if !prefix_ok(&base.node_labels, &nodes) || !prefix_ok(&base.edge_labels, &edges) {
        return Err(StoreError::ManifestMismatch {
            path: dir.join(MANIFEST_NAME),
            detail: "append database's label table does not extend the store's".to_string(),
        });
    }
    Ok(())
}

fn write_shards(
    io: &Io,
    dir: &Path,
    db: &GraphDb,
    from: usize,
    gid_base: u64,
    shard_index_base: usize,
    shard_size: usize,
) -> Result<(Vec<ShardMeta>, u64), StoreError> {
    let shard_size = shard_size.max(1);
    let mut metas = Vec::new();
    let mut bytes_written = 0u64;
    let graphs = &db.graphs()[from..];
    for (i, chunk) in graphs.chunks(shard_size).enumerate() {
        let gid_start = gid_base + (i * shard_size) as u64;
        let bytes = encode_shard(chunk, gid_start);
        let shard_crc = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        let name = shard_name(shard_index_base + i);
        write_atomic(io, dir, &name, &bytes)?;
        bytes_written += bytes.len() as u64;
        metas.push(ShardMeta {
            name,
            gid_start,
            graph_count: chunk.len() as u32,
            file_len: bytes.len() as u64,
            shard_crc,
        });
    }
    Ok((metas, bytes_written))
}

/// Pack `db` into `dir` as a fresh store, replacing whatever was there.
/// Shards land first (temp + fsync + rename each), the manifest last, so a
/// crash anywhere leaves the previous committed state readable. Old shard
/// files no longer referenced are removed after the commit.
pub fn pack(dir: &Path, db: &GraphDb, shard_size: usize) -> Result<PackSummary, StoreError> {
    pack_with(dir, db, shard_size, &Io::real())
}

/// [`pack`] through an explicit I/O seam.
pub fn pack_with(
    dir: &Path,
    db: &GraphDb,
    shard_size: usize,
    io: &Io,
) -> Result<PackSummary, StoreError> {
    let retries_before = io.retries();
    io.create_dir_all(dir)
        .map_err(|e| StoreError::io(dir, "create", e))?;
    let old = match read_manifest_with(dir, io) {
        Ok(m) => Some(m),
        Err(StoreError::NoManifest { .. }) => None,
        // A torn or corrupt manifest should not block re-packing the
        // directory: start the version counter over.
        Err(_) => None,
    };
    let store_version = old.as_ref().map_or(1, |m| m.store_version + 1);
    let (shards, mut bytes_written) = write_shards(io, dir, db, 0, 0, 0, shard_size)?;
    let (node_labels, edge_labels) = label_names(db);
    let manifest = Manifest {
        store_version,
        node_labels,
        edge_labels,
        shards,
    };
    let encoded = manifest.encode();
    write_atomic(io, dir, MANIFEST_NAME, &encoded)?;
    bytes_written += encoded.len() as u64;
    if let Some(old) = old {
        let keep: std::collections::HashSet<&str> =
            manifest.shards.iter().map(|s| s.name.as_str()).collect();
        for s in &old.shards {
            if !keep.contains(s.name.as_str()) {
                let _ = io.remove_file(&dir.join(&s.name));
            }
        }
    }
    Ok(PackSummary {
        store_version,
        shards_written: manifest.shards.len(),
        total_graphs: manifest.total_graphs(),
        bytes_written,
        retries: io.retries().saturating_sub(retries_before),
    })
}

/// Append the graphs of `db` from index `from` onward to an existing
/// store. `db` must contain the store's graphs count at `from`
/// (`from == manifest.total_graphs()`) and its label table must extend the
/// store's. New shards are written durably, then the manifest is replaced
/// with `store_version + 1`; existing shards are untouched, so readers of
/// the old manifest stay consistent throughout.
pub fn append(
    dir: &Path,
    db: &GraphDb,
    from: usize,
    shard_size: usize,
) -> Result<PackSummary, StoreError> {
    append_with(dir, db, from, shard_size, &Io::real())
}

/// [`append`] through an explicit I/O seam.
pub fn append_with(
    dir: &Path,
    db: &GraphDb,
    from: usize,
    shard_size: usize,
    io: &Io,
) -> Result<PackSummary, StoreError> {
    let retries_before = io.retries();
    let base = read_manifest_with(dir, io)?;
    if from as u64 != base.total_graphs() {
        return Err(StoreError::ManifestMismatch {
            path: dir.join(MANIFEST_NAME),
            detail: format!(
                "append starts at graph {from} but the store holds {}",
                base.total_graphs()
            ),
        });
    }
    if from > db.len() {
        return Err(StoreError::ManifestMismatch {
            path: dir.join(MANIFEST_NAME),
            detail: format!(
                "append starts at graph {from} but the database holds {}",
                db.len()
            ),
        });
    }
    check_label_prefix(dir, &base, db)?;
    let (new_shards, mut bytes_written) = write_shards(
        io,
        dir,
        db,
        from,
        base.total_graphs(),
        base.shards.len(),
        shard_size,
    )?;
    let shards_written = new_shards.len();
    let (node_labels, edge_labels) = label_names(db);
    let mut shards = base.shards;
    shards.extend(new_shards);
    let manifest = Manifest {
        store_version: base.store_version + 1,
        node_labels,
        edge_labels,
        shards,
    };
    let encoded = manifest.encode();
    write_atomic(io, dir, MANIFEST_NAME, &encoded)?;
    bytes_written += encoded.len() as u64;
    Ok(PackSummary {
        store_version: manifest.store_version,
        shards_written,
        total_graphs: manifest.total_graphs(),
        bytes_written,
        retries: io.retries().saturating_sub(retries_before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsig_graph::{parse_transactions, write_transactions};
    use std::path::PathBuf;

    fn sample_db() -> GraphDb {
        parse_transactions(
            "t # 0\nv 0 C\nv 1 O\ne 0 1 s\n\
             t # 1\nv 0 C\nv 1 C\nv 2 N\ne 0 1 s\ne 1 2 d\n\
             t # 2\nv 0 O\nv 1 O\ne 0 1 d\n\
             t # 3\nv 0 N\n",
        )
        .unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graphsig-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn pack_then_open_roundtrips_exactly() {
        let db = sample_db();
        let dir = tmpdir("roundtrip");
        let summary = pack(&dir, &db, 2).unwrap();
        assert_eq!(summary.store_version, 1);
        assert_eq!(summary.shards_written, 2);
        assert_eq!(summary.total_graphs, 4);
        let opened = open_strict(&dir).unwrap();
        assert!(opened.report.is_clean());
        assert!(!opened.degraded());
        assert_eq!(write_transactions(&opened.db), write_transactions(&db));
        assert_eq!(opened.shards.len(), 2);
        assert_eq!(opened.shards[1].db_start, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_is_clean_on_fresh_store_and_names_damaged_shard() {
        let db = sample_db();
        let dir = tmpdir("verify");
        pack(&dir, &db, 2).unwrap();
        let report = verify(&dir).unwrap();
        assert!(report.is_clean());
        assert!(report.disk_bytes > 0);
        // Flip one payload bit in the second shard.
        let victim = dir.join("shard-00001.gss");
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();
        let report = verify(&dir).unwrap();
        assert!(!report.is_clean());
        let fails: Vec<_> = report.failures().collect();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].0, "shard-00001.gss");
        // verify is read-only: strict open still fails the same way after.
        assert!(open_strict(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lenient_open_quarantines_and_serves_survivors() {
        // A torn shard and a shard with one flipped payload bit.
        let damages: [fn(&mut Vec<u8>); 2] = [
            |bytes| bytes.truncate(bytes.len() / 2),
            |bytes| {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x08;
            },
        ];
        for damage in damages {
            let db = sample_db();
            let dir = tmpdir("quarantine");
            pack(&dir, &db, 2).unwrap();
            let victim = dir.join("shard-00000.gss");
            let mut bytes = fs::read(&victim).unwrap();
            damage(&mut bytes);
            fs::write(&victim, &bytes).unwrap();
            let opened = open_lenient(&dir).unwrap();
            assert!(opened.degraded());
            assert_eq!(opened.report.quarantined.len(), 1);
            assert_eq!(opened.report.quarantined[0].name, "shard-00000.gss");
            // Survivors are graphs 2..4, renumbered from 0.
            assert_eq!(opened.db.len(), 2);
            assert_eq!(opened.shards.len(), 1);
            assert_eq!(opened.shards[0].db_start, 0);
            // The damaged file was moved aside.
            assert!(!victim.exists());
            assert!(dir.join("shard-00000.gss.quarantined").exists());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_manifest_write_recovers_to_previous_commit() {
        let db = sample_db();
        let dir = tmpdir("torn-manifest");
        pack(&dir, &db, 2).unwrap();
        // Simulate a crash mid-manifest-replace: a half-written temp next
        // to the committed manifest.
        fs::write(dir.join("MANIFEST.gsm.tmp"), b"GSIGMANI\x01half").unwrap();
        let opened = open_strict(&dir).unwrap();
        assert_eq!(opened.manifest.store_version, 1);
        assert_eq!(opened.db.len(), 4);
        assert_eq!(opened.report.temps_swept, vec!["MANIFEST.gsm.tmp"]);
        assert!(!dir.join("MANIFEST.gsm.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_between_shard_rename_and_manifest_commit_reports_orphan() {
        let db = sample_db();
        let dir = tmpdir("orphan");
        pack(&dir, &db, 4).unwrap(); // one shard committed
                                     // Simulate: an append wrote and renamed shard-00001.gss, then died
                                     // before replacing the manifest.
        fs::write(dir.join("shard-00001.gss"), encode_shard(&[], 4)).unwrap();
        let opened = open_strict(&dir).unwrap();
        assert_eq!(opened.db.len(), 4, "orphan must not leak into the db");
        assert_eq!(opened.report.orphans, vec!["shard-00001.gss"]);
        // A retried append renames over the orphan and commits cleanly.
        let mut bigger = sample_db();
        bigger.absorb(&sample_db());
        let summary = append(&dir, &bigger, 4, 4).unwrap();
        assert_eq!(summary.store_version, 2);
        let opened = open_strict(&dir).unwrap();
        assert!(opened.report.is_clean());
        assert_eq!(opened.db.len(), 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_equals_one_shot_pack() {
        let part1 = sample_db();
        let mut full = sample_db();
        full.absorb(&sample_db());
        let dir_a = tmpdir("append-a");
        let dir_b = tmpdir("append-b");
        pack(&dir_a, &part1, 3).unwrap();
        append(&dir_a, &full, part1.len(), 3).unwrap();
        pack(&dir_b, &full, 3).unwrap();
        let a = open_strict(&dir_a).unwrap();
        let b = open_strict(&dir_b).unwrap();
        assert_eq!(write_transactions(&a.db), write_transactions(&b.db));
        assert_eq!(a.manifest.total_graphs(), 8);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn append_rejects_wrong_base_count_and_foreign_labels() {
        let db = sample_db();
        let dir = tmpdir("append-bad");
        pack(&dir, &db, 2).unwrap();
        let e = append(&dir, &db, 2, 2).unwrap_err();
        assert!(matches!(e, StoreError::ManifestMismatch { .. }), "{e}");
        // A db whose labels were interned in a different order cannot append.
        let mut foreign = parse_transactions(
            "t # 0\nv 0 N\nv 1 C\ne 0 1 d\n\
             t # 1\nv 0 C\n",
        )
        .unwrap();
        for _ in foreign.len()..db.len() {
            foreign.push(graphsig_graph::GraphBuilder::new().build());
        }
        let e = append(&dir, &foreign, db.len(), 2).unwrap_err();
        assert!(e.to_string().contains("label table"), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repack_replaces_and_cleans_stale_shards() {
        let db = sample_db();
        let dir = tmpdir("repack");
        pack(&dir, &db, 1).unwrap(); // 4 shards
        assert!(dir.join("shard-00003.gss").exists());
        let summary = pack(&dir, &db, 4).unwrap(); // 1 shard
        assert_eq!(summary.store_version, 2);
        assert!(!dir.join("shard-00003.gss").exists(), "stale shard removed");
        let opened = open_strict(&dir).unwrap();
        assert!(opened.report.is_clean());
        assert_eq!(opened.db.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_structured() {
        let dir = tmpdir("no-manifest");
        assert!(matches!(
            open_strict(&dir).unwrap_err(),
            StoreError::NoManifest { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saturated_transient_faults_still_pack_and_open_with_retries_reported() {
        use crate::faults::FaultPlan;
        let db = sample_db();
        let dir = tmpdir("faults-transient");
        // Every I/O event fails transiently twice before succeeding: the
        // pack and the open must both complete purely via backoff.
        let io = Io::with_plan(FaultPlan::new(99).transient(1000).transient_burst(2));
        let summary = pack_with(&dir, &db, 2, &io).unwrap();
        assert!(summary.retries > 0, "pack must report recovered retries");
        let opened = open_strict_with(&dir, &io).unwrap();
        assert!(opened.report.retries > 0, "open must report retries");
        assert_eq!(write_transactions(&opened.db), write_transactions(&db));
        // Unfaulted reopen sees an ordinary clean store.
        let clean = open_strict(&dir).unwrap();
        assert!(clean.report.is_clean());
        assert_eq!(clean.report.retries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn permanent_fault_during_pack_surfaces_structured_io_error() {
        use crate::faults::FaultPlan;
        let db = sample_db();
        let dir = tmpdir("faults-permanent");
        let io = Io::with_plan(FaultPlan::new(3).permanent_at(2));
        let e = pack_with(&dir, &db, 2, &io).unwrap_err();
        assert!(matches!(e, StoreError::Io { .. }), "{e}");
        assert!(e.to_string().contains("injected permanent fault"), "{e}");
        assert_eq!(io.stats().retries, 0, "permanent faults must not retry");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_mid_append_recovers_to_previous_commit() {
        use crate::faults::FaultPlan;
        let part1 = sample_db();
        let mut full = sample_db();
        full.absorb(&sample_db());
        let dir = tmpdir("faults-kill");
        pack(&dir, &part1, 2).unwrap();
        let before = read_manifest(&dir).unwrap();
        // Kill store I/O a few events into the append, at every possible
        // offset: whatever the offset, reopening with real I/O must land on
        // either the old commit or (if the manifest made it) the new one.
        for kill_at in 0..14 {
            let io = Io::with_plan(FaultPlan::new(5).kill_after(kill_at));
            let res = append_with(&dir, &full, part1.len(), 2, &io);
            let opened = open_lenient(&dir).unwrap();
            match res {
                // Append died: the committed state must still be v1 intact.
                Err(_) => {
                    assert_eq!(opened.manifest.store_version, before.store_version);
                    assert_eq!(
                        write_transactions(&opened.db),
                        write_transactions(&part1),
                        "kill at event {kill_at} corrupted the committed store"
                    );
                }
                // Append survived (kill landed after the commit, on cleanup).
                Ok(s) => {
                    assert_eq!(opened.manifest.store_version, s.store_version);
                    assert_eq!(write_transactions(&opened.db), write_transactions(&full));
                    // Reset for the next iteration.
                    let _ = fs::remove_dir_all(&dir);
                    fs::create_dir_all(&dir).unwrap();
                    pack(&dir, &part1, 2).unwrap();
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_read_faults_resolve_to_structured_errors_not_panics() {
        use crate::faults::FaultPlan;
        let db = sample_db();
        let dir = tmpdir("faults-short");
        pack(&dir, &db, 2).unwrap();
        // Hammer opens with frequent short reads: every outcome must be a
        // structured error or a valid (possibly degraded) open.
        for seed in 0..20u64 {
            let io = Io::with_plan(FaultPlan::new(seed).short_reads(600));
            match open_lenient_with(&dir, &io) {
                Ok(opened) => assert!(opened.db.len() <= db.len()),
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
        // The store itself was never modified beyond quarantine renames;
        // restore any quarantined shards and verify cleanliness is checked
        // by other tests — here just ensure no temps were fabricated.
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn swapped_valid_shard_is_caught_by_manifest_crosscheck() {
        let db = sample_db();
        let dir = tmpdir("swap");
        pack(&dir, &db, 2).unwrap();
        // Replace shard 1 with a different but internally valid shard of
        // the same gid_start and graph count.
        let fake = encode_shard(&db.graphs()[0..2], 2);
        fs::write(dir.join("shard-00001.gss"), &fake).unwrap();
        let e = open_strict(&dir).unwrap_err();
        assert!(matches!(e, StoreError::ManifestMismatch { .. }), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }
}
