//! The versioned manifest: the single source of truth for what a store
//! contains.
//!
//! ```text
//! manifest := magic version payload_len crc payload
//! magic    := "GSIGMANI"                  ; 8 bytes
//! version  := u32                         ; format version, currently 1
//! payload_len := u64
//! crc      := u64                         ; CRC-64/XZ of the 20 header
//!                                         ; bytes before it + the payload
//! payload  := store_version:u64
//!             node_label_count:u16 str*   ; global node label table, id order
//!             edge_label_count:u16 str*   ; global edge label table, id order
//!             shard_count:u32 shard_meta*
//! shard_meta := name:str gid_start:u64 graph_count:u32
//!               file_len:u64 shard_crc:u64
//! str      := len:u16 utf8_byte*
//! ```
//!
//! The manifest owns the *global* label table; shard payloads carry only
//! numeric ids into it. Interning the table back in id order reproduces the
//! exact `LabelTable` of the original text parse, which is what makes
//! mining over a packed store byte-identical to mining the source text.
//!
//! `store_version` is a monotonically increasing ingest counter: every
//! successful `pack`/append commits a new manifest with `store_version + 1`,
//! so observers can tell "nothing changed" from "replaced with identical
//! content". A decoded manifest is always internally consistent: shard gid
//! ranges must be contiguous ascending from 0 and label names unique, or
//! decoding fails with a structured error.

use std::path::Path;

use graphsig_graph::LabelTable;

use crate::error::StoreError;
use crate::format::{crc64_parts, put_str, put_u16, put_u32, put_u64, Cursor};
use crate::shard::LabelLimits;

/// The 8 magic bytes opening the manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"GSIGMANI";
/// Highest manifest format version this build reads and the one it writes.
pub const MANIFEST_VERSION: u32 = 1;
/// File name of the committed manifest inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST.gsm";

/// One shard as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// File name within the store directory (no path separators).
    pub name: String,
    /// Database gid of the shard's first graph.
    pub gid_start: u64,
    /// Graphs in the shard.
    pub graph_count: u32,
    /// Expected total file length in bytes (header + payload).
    pub file_len: u64,
    /// Expected shard checksum — the CRC stamped in the shard's own
    /// header, covering its header fields and payload.
    pub shard_crc: u64,
}

impl ShardMeta {
    /// Gid one past the last graph in this shard.
    pub fn gid_end(&self) -> u64 {
        self.gid_start + self.graph_count as u64
    }
}

/// The decoded manifest: label tables plus the shard list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Ingest counter, bumped on every committed pack/append.
    pub store_version: u64,
    /// Global node label names, in interned-id order.
    pub node_labels: Vec<String>,
    /// Global edge label names, in interned-id order.
    pub edge_labels: Vec<String>,
    /// Shards in gid order.
    pub shards: Vec<ShardMeta>,
}

impl Manifest {
    /// Total graphs across all shards.
    pub fn total_graphs(&self) -> u64 {
        self.shards.last().map_or(0, ShardMeta::gid_end)
    }

    /// Label-id ceilings for validating shard payloads.
    pub fn label_limits(&self) -> LabelLimits {
        LabelLimits {
            node: self.node_labels.len() as u16,
            edge: self.edge_labels.len() as u16,
        }
    }

    /// Rebuild the global `LabelTable`, preserving interned-id order.
    pub fn label_table(&self) -> LabelTable {
        let mut t = LabelTable::new();
        for name in &self.node_labels {
            t.intern_node(name);
        }
        for name in &self.edge_labels {
            t.intern_edge(name);
        }
        t
    }

    /// Serialize as a complete manifest file (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.store_version);
        put_u16(&mut payload, self.node_labels.len() as u16);
        for name in &self.node_labels {
            put_str(&mut payload, name);
        }
        put_u16(&mut payload, self.edge_labels.len() as u16);
        for name in &self.edge_labels {
            put_str(&mut payload, name);
        }
        put_u32(&mut payload, self.shards.len() as u32);
        for s in &self.shards {
            put_str(&mut payload, &s.name);
            put_u64(&mut payload, s.gid_start);
            put_u32(&mut payload, s.graph_count);
            put_u64(&mut payload, s.file_len);
            put_u64(&mut payload, s.shard_crc);
        }
        let mut out = Vec::with_capacity(8 + 4 + 8 + 8 + payload.len());
        out.extend_from_slice(MANIFEST_MAGIC);
        put_u32(&mut out, MANIFEST_VERSION);
        put_u64(&mut out, payload.len() as u64);
        let crc = crc64_parts(&[&out, &payload]);
        put_u64(&mut out, crc);
        out.extend_from_slice(&payload);
        out
    }

    /// Decode and validate a manifest file. Total over arbitrary bytes.
    pub fn decode(bytes: &[u8], path: &Path) -> Result<Manifest, StoreError> {
        let mut c = Cursor::new(bytes, path);
        let magic = c.take(8, "magic")?;
        if magic != MANIFEST_MAGIC {
            return Err(StoreError::BadMagic {
                path: path.to_path_buf(),
                found: magic.to_vec(),
            });
        }
        let version = c.u32("format version")?;
        if version > MANIFEST_VERSION {
            return Err(StoreError::UnsupportedVersion {
                path: path.to_path_buf(),
                version,
                supported: MANIFEST_VERSION,
            });
        }
        let payload_len = c.u64("payload length")?;
        let manifest_crc = c.u64("checksum")?;
        if payload_len != c.remaining() as u64 {
            return Err(StoreError::Truncated {
                path: path.to_path_buf(),
                what: "payload",
                needed: payload_len as usize,
                available: c.remaining(),
            });
        }
        let payload = c.take(payload_len as usize, "payload")?;
        let actual = crc64_parts(&[&bytes[..20], payload]);
        if actual != manifest_crc {
            return Err(StoreError::ChecksumMismatch {
                path: path.to_path_buf(),
                expected: manifest_crc,
                actual,
            });
        }
        let mut p = Cursor::new(payload, path);
        let store_version = p.u64("store version")?;
        let node_labels = read_label_table(&mut p, path, "node label")?;
        let edge_labels = read_label_table(&mut p, path, "edge label")?;
        let shard_count = p.u32("shard count")? as usize;
        // Each shard record is at least 30 bytes (empty name).
        if shard_count > p.remaining() / 30 + 1 {
            return Err(StoreError::corrupt(
                path,
                format!(
                    "shard count {shard_count} cannot fit in {} remaining bytes",
                    p.remaining()
                ),
            ));
        }
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let name = p.str("shard name")?.to_string();
            if name.is_empty() || name.contains(['/', '\\']) || name == ".." {
                return Err(StoreError::corrupt(
                    path,
                    format!("shard {i}: invalid shard name {name:?}"),
                ));
            }
            let gid_start = p.u64("shard gid start")?;
            let graph_count = p.u32("shard graph count")?;
            let file_len = p.u64("shard file length")?;
            let shard_crc = p.u64("shard payload checksum")?;
            shards.push(ShardMeta {
                name,
                gid_start,
                graph_count,
                file_len,
                shard_crc,
            });
        }
        p.finish("shard list")?;
        // Gid ranges must tile [0, total) in order: any duplicate,
        // overlapping, or gapped range shows up as a start that is not the
        // previous end.
        let mut expected_start = 0u64;
        for s in &shards {
            if s.gid_start != expected_start {
                return Err(StoreError::GidRangeConflict {
                    path: path.to_path_buf(),
                    detail: format!(
                        "shard {} covers gids {}..{} but {} is next",
                        s.name,
                        s.gid_start,
                        s.gid_end(),
                        expected_start
                    ),
                });
            }
            expected_start = expected_start
                .checked_add(s.graph_count as u64)
                .ok_or_else(|| {
                    StoreError::corrupt(path, format!("shard {}: gid range overflows u64", s.name))
                })?;
        }
        let mut seen = std::collections::HashSet::new();
        for s in &shards {
            if !seen.insert(s.name.as_str()) {
                return Err(StoreError::corrupt(
                    path,
                    format!("duplicate shard name {}", s.name),
                ));
            }
        }
        Ok(Manifest {
            store_version,
            node_labels,
            edge_labels,
            shards,
        })
    }
}

fn read_label_table(
    p: &mut Cursor<'_>,
    path: &Path,
    what: &'static str,
) -> Result<Vec<String>, StoreError> {
    let count = p.u16(what)? as usize;
    let mut names = Vec::with_capacity(count.min(p.remaining() / 2 + 1));
    let mut seen = std::collections::HashSet::new();
    for _ in 0..count {
        let name = p.str(what)?;
        if !seen.insert(name) {
            return Err(StoreError::corrupt(
                path,
                format!("duplicate {what} name {name:?}"),
            ));
        }
        names.push(name.to_string());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            store_version: 4,
            node_labels: vec!["C".into(), "O".into(), "N".into()],
            edge_labels: vec!["s".into(), "d".into()],
            shards: vec![
                ShardMeta {
                    name: "shard-00000.gss".into(),
                    gid_start: 0,
                    graph_count: 128,
                    file_len: 4096,
                    shard_crc: 0xDEAD,
                },
                ShardMeta {
                    name: "shard-00001.gss".into(),
                    gid_start: 128,
                    graph_count: 7,
                    file_len: 300,
                    shard_crc: 0xBEEF,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = m.encode();
        let back = Manifest::decode(&bytes, Path::new("m")).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_graphs(), 135);
    }

    #[test]
    fn label_table_preserves_id_order() {
        let t = sample().label_table();
        assert_eq!(t.node_name(0), Some("C"));
        assert_eq!(t.node_name(1), Some("O"));
        assert_eq!(t.node_name(2), Some("N"));
        assert_eq!(t.edge_name(1), Some("d"));
    }

    #[test]
    fn truncation_at_every_length_is_structured() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let e = Manifest::decode(&bytes[..len], Path::new("m"))
                .expect_err("truncated manifest must not decode");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let bytes = sample().encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                let e = Manifest::decode(&bad, Path::new("m"))
                    .expect_err(&format!("undetected flip at {byte}.{bit}"));
                assert!(!e.to_string().is_empty());
            }
        }
    }

    #[test]
    fn overlapping_gid_ranges_rejected() {
        let mut m = sample();
        m.shards[1].gid_start = 100; // overlaps shard 0's 0..128
        let e = Manifest::decode(&m.encode(), Path::new("m")).unwrap_err();
        assert!(matches!(e, StoreError::GidRangeConflict { .. }), "{e}");
        m.shards[1].gid_start = 200; // gap after 128
        let e = Manifest::decode(&m.encode(), Path::new("m")).unwrap_err();
        assert!(matches!(e, StoreError::GidRangeConflict { .. }), "{e}");
        m.shards[1] = m.shards[0].clone(); // one shard listed twice
        let e = Manifest::decode(&m.encode(), Path::new("m")).unwrap_err();
        assert!(
            matches!(
                e,
                StoreError::GidRangeConflict { .. } | StoreError::Corrupt { .. }
            ),
            "{e}"
        );
    }

    #[test]
    fn duplicate_shard_names_rejected() {
        let mut m = sample();
        m.shards[1].name = m.shards[0].name.clone();
        let e = Manifest::decode(&m.encode(), Path::new("m")).unwrap_err();
        assert!(e.to_string().contains("duplicate shard name"), "{e}");
    }

    #[test]
    fn traversal_shard_names_rejected() {
        let mut m = sample();
        m.shards[0].name = "../evil.gss".into();
        let e = Manifest::decode(&m.encode(), Path::new("m")).unwrap_err();
        assert!(e.to_string().contains("invalid shard name"), "{e}");
    }

    #[test]
    fn duplicate_label_names_rejected() {
        let mut m = sample();
        m.node_labels.push("C".into());
        let e = Manifest::decode(&m.encode(), Path::new("m")).unwrap_err();
        assert!(e.to_string().contains("duplicate node label"), "{e}");
    }
}
