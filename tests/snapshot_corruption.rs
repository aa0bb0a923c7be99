//! Corruption-matrix negative tests for the snapshot format (ISSUE 4):
//! truncated files, flipped bytes in header / page body / checksum table,
//! wrong magic, and future format versions must each surface as a typed
//! [`SnapshotError`] with the failing offset — never a panic. Every case
//! runs through *both* reopen backends (pread and mmap), which must fail
//! identically: the mmap path reuses the pread path's validate-once open,
//! so corruption is always an open-time error, never a read-time fault.
//! Empty-device and single-page snapshots are pinned as working edge
//! cases, and the structure-metadata envelope gets the same treatment
//! (including loading one structure's metadata as another kind). The
//! catalog manifest is pinned too: an old unversioned layout and a
//! tampered path-escaping stem fail typed, and one bad page in a pages
//! file shared by several entries fails every one of them alike.

use lcrs::baselines::ExternalScan;
use lcrs::engine::{load_index, RangeIndex, SnapshotCatalog};
use lcrs::extmem::{
    Device, DeviceConfig, MetaReader, MetaWriter, PageId, ReopenBackend, SnapshotError, TempDir,
};
use lcrs::halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
use lcrs::workloads::{points2, Dist2};
use std::path::Path;

/// Byte offsets of the page-snapshot header (DESIGN.md §9).
const OFF_VERSION: usize = 8;
const OFF_PAGE_BYTES: usize = 12;
const OFF_TABLE: usize = 40;

fn write_reference_snapshot(dir: &TempDir, pages: usize) -> std::path::PathBuf {
    let dev = Device::new(DeviceConfig::new(128, 0));
    if pages > 0 {
        let p = dev.alloc_pages(pages);
        for i in 0..pages {
            dev.write_page(PageId(p.0 + i as u64), |b| {
                b[0] = i as u8;
                b[127] = !(i as u8);
            });
        }
    }
    let path = dir.file(&format!("ref-{pages}.pages"));
    dev.freeze_to_path(&path).unwrap();
    path
}

fn mutate(path: &Path, out: &Path, f: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::fs::read(path).unwrap();
    f(&mut bytes);
    std::fs::write(out, bytes).unwrap();
}

/// Open a snapshot through both reopen backends and demand they agree:
/// same success, or the same typed [`SnapshotError`] (compared by its
/// Debug rendering — variant and every offset field). Returns the pread
/// result so each test keeps matching one error as before.
fn open_snapshot_both(path: &Path, cache: usize) -> Result<Device, SnapshotError> {
    let pread = Device::open_snapshot_as(path, cache, ReopenBackend::Pread);
    let mmap = Device::open_snapshot_as(path, cache, ReopenBackend::Mmap);
    match (&pread, &mmap) {
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "pread and mmap must fail with the same typed error"
        ),
        (Ok(_), Ok(_)) => {}
        (a, b) => panic!(
            "pread and mmap disagree on whether the snapshot opens: \
             pread ok={}, mmap ok={}",
            a.is_ok(),
            b.is_ok()
        ),
    }
    pread
}

#[test]
fn wrong_magic_is_typed_with_offset() {
    let dir = TempDir::new("lcrs-corrupt-magic");
    let good = write_reference_snapshot(&dir, 3);
    let bad = dir.file("bad.pages");
    mutate(&good, &bad, |b| b[0] = b'X');
    match open_snapshot_both(&bad, 0) {
        Err(SnapshotError::BadMagic { offset: 0, found, .. }) => assert_eq!(found[0], b'X'),
        other => panic!("expected BadMagic, got {other:?}", other = other.err()),
    }
}

#[test]
fn future_format_version_is_rejected() {
    let dir = TempDir::new("lcrs-corrupt-version");
    let good = write_reference_snapshot(&dir, 3);
    let bad = dir.file("bad.pages");
    mutate(&good, &bad, |b| b[OFF_VERSION] = 99);
    match open_snapshot_both(&bad, 0) {
        Err(SnapshotError::UnsupportedVersion { offset, found, supported }) => {
            assert_eq!(offset, OFF_VERSION as u64);
            assert_eq!(found, 99);
            assert!(supported < 99);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}", other = other.err()),
    }
}

#[test]
fn flipped_header_byte_fails_the_header_checksum() {
    let dir = TempDir::new("lcrs-corrupt-header");
    let good = write_reference_snapshot(&dir, 3);
    // Flip a bit in the page-size field: caught by the header checksum
    // before the bogus geometry is ever trusted.
    let bad = dir.file("bad.pages");
    mutate(&good, &bad, |b| b[OFF_PAGE_BYTES] ^= 0x01);
    match open_snapshot_both(&bad, 0) {
        Err(SnapshotError::ChecksumMismatch { what: "header", offset, .. }) => {
            assert_eq!(offset, 32);
        }
        other => panic!("expected a header ChecksumMismatch, got {other:?}", other = other.err()),
    }
}

#[test]
fn flipped_checksum_table_byte_is_detected() {
    let dir = TempDir::new("lcrs-corrupt-table");
    let good = write_reference_snapshot(&dir, 3);
    let bad = dir.file("bad.pages");
    mutate(&good, &bad, |b| b[OFF_TABLE + 5] ^= 0x80);
    match open_snapshot_both(&bad, 0) {
        Err(SnapshotError::ChecksumMismatch { what: "page-checksum table", offset, .. }) => {
            assert_eq!(offset, 24, "reported at the table-checksum header field");
        }
        other => panic!("expected a table ChecksumMismatch, got {other:?}", other = other.err()),
    }
}

#[test]
fn flipped_page_body_byte_reports_page_and_offset() {
    let dir = TempDir::new("lcrs-corrupt-page");
    let good = write_reference_snapshot(&dir, 3);
    let bad = dir.file("bad.pages");
    // 3 pages ⇒ data starts at 40 + 3·8 = 64; corrupt a byte inside page 1.
    let data_offset = 64u64;
    mutate(&good, &bad, |b| b[data_offset as usize + 128 + 17] ^= 0x20);
    match open_snapshot_both(&bad, 0) {
        Err(SnapshotError::PageChecksum { page, offset, expected, actual }) => {
            assert_eq!(page, 1);
            assert_eq!(offset, data_offset + 128, "offset of the corrupt page's start");
            assert_ne!(expected, actual);
        }
        other => panic!("expected PageChecksum, got {other:?}", other = other.err()),
    }
}

#[test]
fn truncations_at_every_region_are_typed() {
    let dir = TempDir::new("lcrs-corrupt-trunc");
    let good = write_reference_snapshot(&dir, 3);
    let full = std::fs::read(&good).unwrap().len();
    // Cut inside the header, inside the checksum table, inside the pages,
    // and one byte short of complete.
    for (i, keep) in [10usize, 45, 200, full - 1].into_iter().enumerate() {
        let bad = dir.file(&format!("trunc-{i}.pages"));
        mutate(&good, &bad, |b| b.truncate(keep));
        match open_snapshot_both(&bad, 0) {
            Err(SnapshotError::Truncated { offset, expected, actual }) => {
                assert_eq!(actual, keep as u64, "cut at {keep}");
                assert!(expected > actual, "cut at {keep}");
                assert!(offset <= actual, "cut at {keep}: offset points into the file");
            }
            other => {
                panic!("cut at {keep}: expected Truncated, got {other:?}", other = other.err())
            }
        }
    }
    // Trailing garbage is a length mismatch too (the header is explicit
    // about the exact size).
    let bad = dir.file("overlong.pages");
    mutate(&good, &bad, |b| b.extend_from_slice(&[0u8; 7]));
    assert!(matches!(open_snapshot_both(&bad, 0), Err(SnapshotError::Truncated { .. })));
}

#[test]
fn empty_and_single_page_snapshots_roundtrip() {
    let dir = TempDir::new("lcrs-corrupt-edges");
    // Empty device: header-only file, reopens with zero pages.
    let empty = write_reference_snapshot(&dir, 0);
    let re = open_snapshot_both(&empty, 0).unwrap();
    assert_eq!(re.pages_allocated(), 0);
    assert_eq!(re.page_bytes(), 128);
    // One page: the smallest data-carrying snapshot.
    let one = write_reference_snapshot(&dir, 1);
    let re = open_snapshot_both(&one, 4).unwrap();
    assert_eq!(re.pages_allocated(), 1);
    assert_eq!(re.read_page(PageId(0), |b| (b[0], b[127])), (0, 0xFF));
    // Corruption in a 1-page file still lands on page 0.
    let bad = dir.file("one-bad.pages");
    mutate(&one, &bad, |b| {
        let n = b.len();
        b[n - 1] ^= 0x01;
    });
    assert!(matches!(
        open_snapshot_both(&bad, 0),
        Err(SnapshotError::PageChecksum { page: 0, .. })
    ));
}

#[test]
fn missing_file_is_an_io_error() {
    let dir = TempDir::new("lcrs-corrupt-missing");
    assert!(matches!(
        open_snapshot_both(&dir.file("does-not-exist.pages"), 0),
        Err(SnapshotError::Io(_))
    ));
}

#[test]
fn metadata_corruption_matrix() {
    let dir = TempDir::new("lcrs-corrupt-meta");
    let dev = Device::new(DeviceConfig::new(1024, 0));
    let pts = points2(Dist2::Uniform, 300, 1 << 18, 3);
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    dev.freeze_to_path(dir.file("hs.pages")).unwrap();
    let mut w = MetaWriter::new();
    hs.save_meta(&mut w);
    let good = w.into_bytes();
    let re_dev = Device::open_snapshot(dir.file("hs.pages"), 0).unwrap();

    // The pristine metadata loads.
    let mut r = MetaReader::from_bytes(good.clone()).unwrap();
    assert!(load_index("hs2d", &re_dev, &mut r).is_ok());

    // Flipped payload byte: envelope checksum.
    let mut flipped = good.clone();
    let mid = 20 + (good.len() - 28) / 2;
    flipped[mid] ^= 0x10;
    assert!(matches!(
        MetaReader::from_bytes(flipped),
        Err(SnapshotError::ChecksumMismatch { what: "metadata envelope", .. })
    ));

    // Truncated metadata.
    assert!(matches!(
        MetaReader::from_bytes(good[..good.len() / 2].to_vec()),
        Err(SnapshotError::Truncated { .. })
    ));

    // Unknown index kind.
    let mut r = MetaReader::from_bytes(good.clone()).unwrap();
    assert!(matches!(
        load_index("no-such-structure", &re_dev, &mut r),
        Err(SnapshotError::Meta { .. })
    ));

    // Kind confusion: hs2d metadata decoded as a kdtree must fail typed
    // (tag mismatch), not panic or mis-load.
    let mut r = MetaReader::from_bytes(good.clone()).unwrap();
    assert!(matches!(load_index("kdtree", &re_dev, &mut r), Err(SnapshotError::Meta { .. })));

    // Cross-wired pages: metadata pointing past a too-small device must be
    // rejected by the page-range validation, not panic later.
    let tiny = Device::new(DeviceConfig::new(1024, 0));
    tiny.alloc_pages(1);
    tiny.freeze_to_path(dir.file("tiny.pages")).unwrap();
    let tiny_re = Device::open_snapshot(dir.file("tiny.pages"), 0).unwrap();
    let mut r = MetaReader::from_bytes(good).unwrap();
    assert!(matches!(load_index("hs2d", &tiny_re, &mut r), Err(SnapshotError::Meta { .. })));
}

#[test]
fn every_snapshot_error_displays_its_offsets() {
    // The Display impls are part of the operator surface: each corruption
    // error must mention where it happened.
    let dir = TempDir::new("lcrs-corrupt-display");
    let good = write_reference_snapshot(&dir, 2);
    let bad = dir.file("bad.pages");
    mutate(&good, &bad, |b| {
        let n = b.len();
        b[n - 3] ^= 0x04;
    });
    let err = match open_snapshot_both(&bad, 0) {
        Err(e) => e,
        Ok(_) => panic!("corrupt snapshot must not open"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("page 1"), "message {msg:?} must name the page");
    assert!(msg.contains("offset"), "message {msg:?} must name the offset");
    let source: &dyn std::error::Error = &err;
    assert!(source.source().is_none());
}

/// Hand-write a catalog manifest (`__catalog.meta`) into `dir`.
fn write_manifest(dir: &Path, fill: impl FnOnce(&mut MetaWriter)) {
    let mut w = MetaWriter::new();
    fill(&mut w);
    w.write_to_path(&dir.join("__catalog.meta")).unwrap();
}

/// The current manifest layout: magic, version, then (label, kind, pages).
fn write_v2_manifest(dir: &Path, entries: &[(&str, &str, &str)]) {
    write_manifest(dir, |w| {
        w.str("lcrs-catalog");
        w.u64(2);
        w.seq(entries.len());
        for (label, kind, pages) in entries {
            w.str(label);
            w.str(kind);
            w.str(pages);
        }
    });
}

#[test]
fn old_and_unknown_catalog_manifests_are_typed_errors() {
    let dir = TempDir::new("lcrs-corrupt-manifest");
    // The unversioned layout: a bare sequence of (label, kind) pairs.
    for entries in [vec![], vec![("hs", "hs2d"), ("sc", "scan")]] {
        write_manifest(dir.path(), |w| {
            w.seq(entries.len());
            for (label, kind) in &entries {
                w.str(label);
                w.str(kind);
            }
        });
        match SnapshotCatalog::open(dir.path()) {
            Err(SnapshotError::Meta { offset, .. }) => assert_eq!(offset, 20, "fails at the magic"),
            other => panic!("old layout must fail typed, got ok={}", other.is_ok()),
        }
    }
    // Right magic, a version this reader does not know.
    for version in [1, 3] {
        write_manifest(dir.path(), |w| {
            w.str("lcrs-catalog");
            w.u64(version);
            w.seq(0);
        });
        match SnapshotCatalog::open(dir.path()) {
            Err(SnapshotError::Meta { detail, .. }) => {
                assert!(detail.contains("version"), "{detail:?}")
            }
            other => panic!("version {version} must fail typed, got ok={}", other.is_ok()),
        }
    }
    // Another engine file's magic.
    write_manifest(dir.path(), |w| {
        w.str("lcrs-shards");
        w.u64(2);
    });
    assert!(matches!(SnapshotCatalog::open(dir.path()), Err(SnapshotError::Meta { .. })));
}

#[test]
fn tampered_manifest_paths_cannot_leave_the_catalog() {
    let dir = TempDir::new("lcrs-corrupt-traversal");
    let cat_dir = dir.file("cat");
    let dev = Device::new(DeviceConfig::new(1024, 0));
    let pts = points2(Dist2::Uniform, 200, 1 << 18, 4);
    let sc = ExternalScan::build(&dev, &pts);
    dev.freeze();
    SnapshotCatalog::create(&cat_dir).unwrap().add("sc", &sc).unwrap();
    // A victim one level up that a `../x` stem would name.
    let victim = dir.file("x.pages");
    std::fs::copy(cat_dir.join("sc.pages"), &victim).unwrap();

    for (label, pages) in [("sc", "../x"), ("../x", "sc"), ("sc", ""), ("sc", "__catalog")] {
        write_v2_manifest(&cat_dir, &[(label, "scan", pages)]);
        assert!(
            matches!(
                SnapshotCatalog::open(&cat_dir),
                Err(SnapshotError::InvalidLabel { .. } | SnapshotError::ReservedLabel { .. })
            ),
            "label {label:?} / pages {pages:?} must be refused on open"
        );
    }
    assert!(victim.exists(), "nothing outside the catalog was touched");

    // The untampered manifest still opens and loads.
    write_v2_manifest(&cat_dir, &[("sc", "scan", "sc")]);
    let cat = SnapshotCatalog::open(&cat_dir).unwrap();
    assert_eq!(cat.load("sc", 0).unwrap().name(), "scan");
}

#[test]
fn a_bad_page_in_a_shared_file_fails_every_referencing_entry_alike() {
    let dir = TempDir::new("lcrs-corrupt-shared");
    let cat_dir = dir.file("cat");
    let dev = Device::new(DeviceConfig::new(1024, 0));
    let pts = points2(Dist2::Uniform, 300, 1 << 18, 5);
    let hs = HalfspaceRS2::build(&dev, &pts, Hs2dConfig::default());
    let sc = ExternalScan::build(&dev, &pts);
    dev.freeze();
    let mut cat = SnapshotCatalog::create(&cat_dir).unwrap();
    cat.add("hs", &hs).unwrap();
    cat.add("sc", &sc).unwrap();
    let shared = cat_dir.join("hs.pages");
    mutate(&shared, &shared, |b| {
        let n = b.len();
        b[n - 3] ^= 0x04;
    });

    let cat = SnapshotCatalog::open(&cat_dir).unwrap();
    let mut seen = Vec::new();
    for backend in [ReopenBackend::Pread, ReopenBackend::Mmap] {
        let all = cat.load_all_as(0, backend).err().expect("load_all must fail");
        seen.push(format!("{all:?}"));
        for label in ["hs", "sc"] {
            let one = cat.load_as(label, 0, backend).err().expect("load must fail");
            seen.push(format!("{one:?}"));
        }
        assert!(matches!(all, SnapshotError::PageChecksum { .. }), "{all:?}");
    }
    assert!(seen.iter().all(|e| *e == seen[0]), "one typed error everywhere: {seen:?}");
}
