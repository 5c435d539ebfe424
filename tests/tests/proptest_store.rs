//! Totality of the durable-store readers: whatever bytes land on disk —
//! pure noise, near-valid grammar soup, or surgically damaged real files —
//! decoding must return a structured [`StoreError`], never panic, and a
//! clean roundtrip must reproduce the database exactly.

use std::path::Path;

use graphsig_datagen::aids_like;
use graphsig_graph::write_transactions;
use graphsig_store::{
    decode_shard, encode_shard, open_lenient, open_strict, pack, verify, LabelLimits, Manifest,
    StoreError, MANIFEST_NAME, QUARANTINE_SUFFIX, SHARD_HEADER_LEN,
};
use proptest::{collection::vec, proptest, ProptestConfig};

fn scratch(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "graphsig_proptest_store_{tag}_{}_{case}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte soup: completely arbitrary bytes fed to both readers must
    /// produce a structured error (or, vanishingly unlikely, a valid
    /// decode) — never a panic, never an abort.
    #[test]
    fn arbitrary_bytes_never_panic_the_readers(
        bytes in vec(proptest::any::<u8>(), 0..512),
    ) {
        let path = Path::new("soup.bin");
        let _ = decode_shard(&bytes, path, LabelLimits::unchecked());
        let _ = Manifest::decode(&bytes, path);
    }

    /// Grammar soup: start from *valid* encodings and splice arbitrary
    /// damage (overwrite at an arbitrary offset, then truncate). Any
    /// outcome is fine except a panic; a changed byte inside the sealed
    /// region must not decode to a different database silently.
    #[test]
    fn damaged_valid_files_never_panic(
        n in 1usize..6,
        seed in proptest::any::<u64>(),
        patch in vec(proptest::any::<u8>(), 1..16),
        offset in proptest::any::<usize>(),
        keep in proptest::any::<usize>(),
    ) {
        let db = aids_like(n, seed).db;
        let shard = encode_shard(db.graphs(), 0);
        let manifest = Manifest {
            store_version: 1,
            node_labels: db.labels().node_labels().map(|(_, s)| s.to_string()).collect(),
            edge_labels: db.labels().edge_labels().map(|(_, s)| s.to_string()).collect(),
            shards: Vec::new(),
        }
        .encode();
        let path = Path::new("damaged.bin");
        for original in [&shard, &manifest] {
            let mut bytes = original.clone();
            let at = offset % bytes.len();
            for (i, b) in patch.iter().enumerate() {
                if at + i < bytes.len() {
                    bytes[at + i] = *b;
                }
            }
            bytes.truncate(keep % (bytes.len() + 1));
            let _ = decode_shard(&bytes, path, LabelLimits::unchecked());
            let _ = Manifest::decode(&bytes, path);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Roundtrip: pack any generated database at any shard size, reopen,
    /// and the served database must be graph-for-graph identical — and a
    /// read-only verify must come back clean.
    #[test]
    fn pack_open_roundtrips_at_any_shard_size(
        n in 1usize..40,
        seed in proptest::any::<u64>(),
        shard_size in 1usize..17,
    ) {
        let db = aids_like(n, seed).db;
        let dir = scratch("roundtrip", seed ^ n as u64 ^ (shard_size as u64) << 32);
        pack(&dir, &db, shard_size).expect("pack");
        let opened = open_strict(&dir).expect("open");
        assert!(!opened.degraded());
        assert_eq!(
            write_transactions(&opened.db),
            write_transactions(&db),
            "packed roundtrip changed the database"
        );
        let report = verify(&dir).expect("verify");
        assert!(report.is_clean());
        let expected_shards = db.len().div_ceil(shard_size);
        assert_eq!(report.shards.len(), expected_shards, "shard tiling");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store directory containing arbitrary extra junk files must still
    /// open (junk with foreign extensions ignored; `.gss`-named junk is at
    /// worst an orphan) and a strict open of a *damaged referenced shard*
    /// must fail with an error naming a real path.
    #[test]
    fn junk_in_the_store_directory_never_panics(
        n in 1usize..10,
        seed in proptest::any::<u64>(),
        junk in vec(proptest::any::<u8>(), 0..64),
    ) {
        let db = aids_like(n, seed).db;
        let dir = scratch("junk", seed ^ (n as u64) << 8);
        pack(&dir, &db, 4).expect("pack");
        std::fs::write(dir.join("leftover.gss"), &junk).expect("drop junk shard");
        std::fs::write(dir.join("notes.txt"), &junk).expect("drop junk file");
        std::fs::write(dir.join(format!("{MANIFEST_NAME}.tmp")), &junk).expect("drop torn temp");
        let opened = open_lenient(&dir).expect("junk must not block the open");
        assert_eq!(opened.db.len(), db.len(), "junk displaced real graphs");
        assert_eq!(opened.report.orphans, vec!["leftover.gss".to_string()]);
        assert_eq!(opened.report.temps_swept.len(), 1);

        // Now damage a referenced shard: strict open must fail structurally
        // and name a path inside the store.
        let victim = dir.join(&opened.shards[0].name);
        let mut bytes = std::fs::read(&victim).expect("read shard");
        let at = junk.first().copied().unwrap_or(7) as usize % bytes.len();
        bytes[at] ^= 0x20;
        std::fs::write(&victim, &bytes).expect("damage shard");
        match open_strict(&dir) {
            Ok(_) => panic!("damaged shard must not open strictly"),
            Err(e) => {
                let p = e.path();
                assert!(p.starts_with(&dir), "error path outside store: {}", p.display());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Exhaustive (non-random) single-bit sweep over a small real shard and
/// manifest: every flip must be *detected* — the checksum seals the whole
/// file, header included.
#[test]
fn every_single_bit_flip_is_detected() {
    let db = aids_like(3, 11).db;
    let shard = encode_shard(db.graphs(), 0);
    let path = Path::new("flip.bin");
    for byte in 0..shard.len() {
        for bit in 0..8 {
            let mut bytes = shard.clone();
            bytes[byte] ^= 1 << bit;
            assert!(
                decode_shard(&bytes, path, LabelLimits::unchecked()).is_err(),
                "undetected shard flip at {byte}.{bit}"
            );
        }
    }
    let manifest = Manifest {
        store_version: 3,
        node_labels: vec!["C".into(), "N".into()],
        edge_labels: vec!["s".into()],
        shards: Vec::new(),
    }
    .encode();
    for byte in 0..manifest.len() {
        for bit in 0..8 {
            let mut bytes = manifest.clone();
            bytes[byte] ^= 1 << bit;
            assert!(
                Manifest::decode(&bytes, path).is_err(),
                "undetected manifest flip at {byte}.{bit}"
            );
        }
    }
}

/// The same damage through a packed store's own readers: a shard cut at
/// every header boundary (and in its payload), one bit flipped in every
/// shard byte, and a bit flipped in every third manifest byte. Each must
/// fail the strict open with a structured error (a cut shard with one of
/// the truncation family), while the lenient open and `verify` stay
/// total on the same damage.
#[test]
fn damaged_store_files_fail_every_reader_structurally() {
    let db = aids_like(48, 42).db;
    let dir = scratch("matrix", 0);
    pack(&dir, &db, 8).expect("pack");
    let damage = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).expect("damage file");
        let err = match open_strict(&dir) {
            Ok(_) => panic!("undetected damage to {name}"),
            Err(e) => e,
        };
        let _ = verify(&dir);
        // A lenient open may quarantine the file: it is renamed aside, and
        // the next case writes the name afresh.
        let _ = open_lenient(&dir);
        std::fs::remove_file(dir.join(format!("{name}{QUARANTINE_SUFFIX}"))).ok();
        err
    };

    let shard = "shard-00000.gss";
    let shard_bytes = std::fs::read(dir.join(shard)).expect("read shard");
    let cuts = (0..=SHARD_HEADER_LEN).chain([SHARD_HEADER_LEN + 1, shard_bytes.len() - 1]);
    for cut in cuts {
        let err = damage(shard, &shard_bytes[..cut]);
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::ManifestMismatch { .. }
            ),
            "cut at {cut} gave the wrong class: {err}"
        );
    }
    for byte in 0..shard_bytes.len() {
        let mut bytes = shard_bytes.clone();
        bytes[byte] ^= 1 << (byte % 8);
        damage(shard, &bytes);
    }
    std::fs::write(dir.join(shard), &shard_bytes).expect("restore shard");
    let manifest_bytes = std::fs::read(dir.join(MANIFEST_NAME)).expect("read manifest");
    for byte in (0..manifest_bytes.len()).step_by(3) {
        let mut bytes = manifest_bytes.clone();
        bytes[byte] ^= 1 << (byte % 8);
        damage(MANIFEST_NAME, &bytes);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The error type keeps enough structure to dispatch on: a missing store
/// is `NoManifest`, not a stringly-typed IO failure.
#[test]
fn missing_store_is_structured() {
    let dir = Path::new("/nonexistent/graphsig/proptest/store");
    match open_strict(dir) {
        Err(StoreError::NoManifest { dir: d }) => assert_eq!(d, dir),
        other => panic!("wrong error for missing store: {other:?}"),
    }
}
