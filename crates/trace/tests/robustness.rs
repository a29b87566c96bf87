//! Satellite 2: a damaged on-disk trace entry must surface as a typed
//! [`TraceError`] from `load_from_dir` — never a panic, never a
//! silently wrong replay. These tests serialize a real captured trace,
//! then truncate it at every interesting boundary and flip bits in
//! every header field and throughout the payload.

use std::path::{Path, PathBuf};
use umi_ir::{AccessKind, BlockId, MemAccess, Pc};
use umi_trace::{store, ExecTrace, TraceError, TraceKey, TraceWriter, MAGIC};

/// A unique scratch directory under the system temp dir (no tempfile
/// dependency; each test uses its own subdirectory so they can run in
/// parallel).
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("umi-trace-robustness-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A small but non-trivial trace: two blocks, strided accesses, an RLE
/// run, published to `dir`.
fn make_entry(dir: &Path, context: &str) -> (TraceKey, PathBuf) {
    let key = store::context_key(context);
    let mut writer = TraceWriter::new();
    for i in 0..200u64 {
        writer.record_block(
            BlockId(0),
            &[
                MemAccess {
                    pc: Pc(0x10),
                    addr: 0x1000 + i * 8,
                    width: 8,
                    kind: AccessKind::Load,
                },
                MemAccess {
                    pc: Pc(0x14),
                    addr: 0x9000 - i * 16,
                    width: 4,
                    kind: AccessKind::Store,
                },
            ],
        );
        if i % 7 == 0 {
            writer.record_block(BlockId(1), &[]);
        }
    }
    let trace = writer.finish_raw(key);
    store::store_to_dir(dir, &trace).expect("store entry");
    let path = dir.join(format!("{}.{}", key.to_hex(), store::TRACE_EXT));
    assert!(path.is_file(), "entry written where expected");
    (key, path)
}

#[test]
fn pristine_entry_round_trips() {
    let dir = scratch("pristine");
    let (key, _) = make_entry(&dir, "robustness:pristine");
    let loaded = store::load_from_dir(&dir, key)
        .expect("valid entry loads")
        .expect("entry exists");
    assert_eq!(loaded.key(), key);
    assert_eq!(loaded.summary().accesses, 400);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_entry_is_a_clean_miss() {
    let dir = scratch("missing");
    let key = store::context_key("robustness:never-written");
    assert!(matches!(store::load_from_dir(&dir, key), Ok(None)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let dir = scratch("truncate");
    let (key, path) = make_entry(&dir, "robustness:truncate");
    let full = std::fs::read(&path).expect("read entry");
    assert!(
        full.len() > 64,
        "trace large enough to truncate meaningfully"
    );

    // Empty file, mid-magic, header-only, mid-dictionary, one byte shy.
    let cuts = [0, 4, 24, 48, full.len() / 2, full.len() - 1];
    for &cut in &cuts {
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = store::load_from_dir(&dir, key)
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut} must error"));
        match err {
            // Short of the header: Truncated. Past the header but short
            // of the payload: Truncated. A cut payload that still
            // checksums is impossible; the checksum is over the full
            // declared length, so a short buffer is caught first.
            TraceError::Truncated { .. } => {}
            other => panic!("truncation at {cut}: expected Truncated, got {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flips_anywhere_are_typed_errors() {
    let dir = scratch("bitflip");
    let (key, path) = make_entry(&dir, "robustness:bitflip");
    let full = std::fs::read(&path).expect("read entry");

    // One flip in each header field, plus a spread through the payload.
    // (Offsets 12..16 are the reserved field, which is deliberately
    // not validated — a flip there must *load fine*, not error.)
    let mut offsets: Vec<usize> = vec![
        0,  // magic
        9,  // version
        17, // key low half
        25, // key high half
        33, // payload length
        41, // checksum
    ];
    offsets.extend((48..full.len()).step_by((full.len() - 48) / 16 + 1));
    for &off in &offsets {
        let mut bytes = full.clone();
        bytes[off] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match store::load_from_dir(&dir, key) {
            Err(
                TraceError::BadMagic
                | TraceError::VersionSkew { .. }
                | TraceError::KeyMismatch
                | TraceError::ChecksumMismatch { .. }
                | TraceError::Truncated { .. }
                | TraceError::Malformed(_),
            ) => {}
            Err(other) => panic!("flip at {off}: unexpected error {other}"),
            Ok(_) => panic!("flip at {off}: corruption went undetected"),
        }
    }

    // Specific fields produce their specific errors.
    let field = |off: usize| {
        let mut bytes = full.clone();
        bytes[off] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        store::load_from_dir(&dir, key).expect_err("must error")
    };
    assert!(matches!(field(0), TraceError::BadMagic), "magic flip");
    assert!(
        matches!(field(9), TraceError::VersionSkew { .. }),
        "version flip"
    );
    assert!(
        matches!(field(60), TraceError::ChecksumMismatch { .. }),
        "payload flip"
    );

    // And the reserved field really is ignored.
    let mut bytes = full.clone();
    bytes[13] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        store::load_from_dir(&dir, key).is_ok(),
        "reserved-field flip must not invalidate the entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skew_is_rejected_with_both_versions() {
    let dir = scratch("skew");
    let (key, path) = make_entry(&dir, "robustness:skew");
    let original = std::fs::read(&path).unwrap();
    // Header layout: magic (8) then version (u32 LE).
    assert_eq!(&original[..8], MAGIC);
    // An unknown version, and the previous one: a disk entry written
    // before the last format bump.
    for version in [0x7f, umi_trace::FORMAT_VERSION - 1] {
        let mut bytes = original.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match store::load_from_dir(&dir, key) {
            Err(TraceError::VersionSkew { found, expected }) => {
                assert_eq!(found, version);
                assert_eq!(expected, umi_trace::FORMAT_VERSION);
            }
            other => panic!("expected VersionSkew for version {version}, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_key_in_filename_is_rejected() {
    // An entry renamed over another key's filename (or a key collision
    // in a shared cache dir) must not replay under the wrong identity.
    let dir = scratch("wrongkey");
    let (_, path) = make_entry(&dir, "robustness:wrongkey-a");
    let other = store::context_key("robustness:wrongkey-b");
    let stolen = dir.join(format!("{}.{}", other.to_hex(), store::TRACE_EXT));
    std::fs::rename(&path, &stolen).unwrap();
    match store::load_from_dir(&dir, other) {
        Err(TraceError::KeyMismatch) => {}
        other => panic!("expected KeyMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_payload_with_valid_checksum_is_malformed_not_panic() {
    // Rebuild a file whose header and checksum are internally
    // consistent but whose payload is noise: from_bytes must walk the
    // event stream and report Malformed, because replay itself assumes
    // a validated stream.
    let dir = scratch("garbage");
    let key = store::context_key("robustness:garbage");
    let trace = {
        let mut w = TraceWriter::new();
        w.record_block(
            BlockId(0),
            &[MemAccess {
                pc: Pc(1),
                addr: 64,
                width: 8,
                kind: AccessKind::Load,
            }],
        );
        w.finish_raw(key)
    };
    let good = trace.to_bytes();
    // Corrupt the payload, then rewrite length + checksum to match it.
    let payload: Vec<u8> = good[48..].iter().map(|b| b.wrapping_add(13)).collect();
    let mut forged = good[..48].to_vec();
    forged[32..40].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = umi_trace::codec::fnv64(&payload);
    forged[40..48].copy_from_slice(&sum.to_le_bytes());
    forged.extend_from_slice(&payload);
    match ExecTrace::from_bytes(&forged, Some(key)) {
        Err(TraceError::Malformed(_) | TraceError::Truncated { .. }) => {}
        other => panic!("expected Malformed/Truncated, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
