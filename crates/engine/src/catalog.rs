//! The snapshot catalog: persist and reload a whole batch-executor's worth
//! of indexes from one directory (DESIGN.md §9).
//!
//! Directory layout — one manifest, one metadata envelope per entry, and
//! one page snapshot per distinct device:
//!
//! ```text
//! catalog-dir/
//!   __catalog.meta    manifest: magic, version, (label, kind, pages) per entry
//!   <label>.meta      structure metadata (RangeIndex::save_meta envelope)
//!   <pages>.pages     page snapshot (Device::freeze_to_path format), shared
//!                     by every entry whose index lives on that device
//! ```
//!
//! Every engine-internal file in a catalog directory (this manifest, the
//! sharded manifest, planner calibration, live-level manifests) is named
//! with the [`RESERVED_PREFIX`]; entry labels may not use it, so internal
//! files and entry files can never collide no matter what internal files
//! future engine versions add.
//!
//! [`SnapshotCatalog::add`] serializes one frozen index. The first entry
//! added on a given device writes that device's pages, under its own
//! label; later entries on the same device (this catalog session has seen
//! its [`DeviceHandle::store_id`]) write only their metadata, and the
//! manifest's `pages` field names the file they read. Each distinct
//! device is therefore stored once. [`SnapshotCatalog::load`] reopens an
//! entry as a fresh file-backed device plus the index over it;
//! [`SnapshotCatalog::load_all`] opens and validates each pages file once
//! and gives every further entry on it a forked scope, so each reopened
//! index still has its own cold cache and its own `IoStats`. Either way
//! the result is ready for the [`crate::BatchExecutor`] or
//! [`crate::ParallelExecutor`] — the build-once/serve-many workflow in
//! one call. [`SnapshotCatalog::remove`] deletes a pages file only once
//! no remaining entry references it.
//!
//! Every file is checksummed and every failure is a typed
//! [`SnapshotError`]; the manifest is versioned, its labels and pages
//! stems are validated on open, and it is rewritten atomically after each
//! `add`, so a crash mid-build leaves a catalog that simply lacks the
//! unfinished entry.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use lcrs_extmem::{Device, DeviceHandle, MetaReader, MetaWriter, ReopenBackend, SnapshotError};

use crate::query::{load_index, RangeIndex};

/// Prefix reserved for engine-internal files living inside catalog
/// directories. Catalog entry labels may not start with it
/// ([`SnapshotError::ReservedLabel`]), which replaces the per-name
/// blocklist that used to grow with every new internal file.
pub const RESERVED_PREFIX: &str = "__";

const MANIFEST: &str = "__catalog.meta";
const MANIFEST_MAGIC: &str = "lcrs-catalog";
/// Version 2 added the magic, the version and each entry's `pages` stem;
/// the unversioned layout before it (label/kind pairs only) counts as 1
/// and is rejected with a typed error.
const MANIFEST_VERSION: u64 = 2;

/// One persisted index in a [`SnapshotCatalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Caller-chosen name; doubles as the stem of the entry's metadata
    /// file.
    pub label: String,
    /// The index's [`RangeIndex::name`], used to dispatch the load.
    pub kind: String,
    /// Stem of the page snapshot the entry reads (`<pages>.pages`),
    /// shared by every entry on the same device: the label of the first
    /// of them, or `<label>-<k>` when that name was still taken.
    pub pages: String,
}

fn check_label(label: &str) -> Result<(), SnapshotError> {
    let well_formed = !label.is_empty()
        && label.len() <= 64
        && label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if !well_formed {
        return Err(SnapshotError::InvalidLabel { label: label.to_string() });
    }
    // A label starting with the reserved prefix would collide with an
    // engine-internal file sharing the directory (the `__catalog.meta`
    // manifest, `__shards.meta`, `__planner.calib`, `__live.meta`, or any
    // internal file added later) and silently overwrite it.
    if label.starts_with(RESERVED_PREFIX) {
        return Err(SnapshotError::ReservedLabel {
            label: label.to_string(),
            prefix: RESERVED_PREFIX,
        });
    }
    Ok(())
}

/// A directory of persisted indexes — see the module docs for the layout.
pub struct SnapshotCatalog {
    dir: PathBuf,
    entries: Vec<CatalogEntry>,
    /// Pages stem written by this session for each device, keyed by
    /// [`DeviceHandle::store_id`]. Ids rather than handles, so the catalog
    /// never keeps a caller's build-phase pages alive.
    written: HashMap<u64, String>,
}

impl SnapshotCatalog {
    /// Start an empty catalog at `dir` (created if absent; an existing
    /// manifest there is overwritten).
    pub fn create(dir: impl AsRef<Path>) -> Result<SnapshotCatalog, SnapshotError> {
        std::fs::create_dir_all(dir.as_ref())?;
        let cat = SnapshotCatalog {
            dir: dir.as_ref().to_path_buf(),
            entries: Vec::new(),
            written: HashMap::new(),
        };
        cat.write_manifest()?;
        Ok(cat)
    }

    /// Open an existing catalog's manifest. Every label and pages stem is
    /// validated like a label passed to [`Self::add`], so a tampered
    /// manifest cannot point a load or a removal outside the directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<SnapshotCatalog, SnapshotError> {
        let dir = dir.as_ref().to_path_buf();
        let mut r = MetaReader::open(&dir.join(MANIFEST))?;
        let magic = r.str()?;
        if magic != MANIFEST_MAGIC {
            return Err(r.error(format!("not a catalog manifest (magic {magic:?})")));
        }
        let version = r.u64()?;
        if version != MANIFEST_VERSION {
            return Err(r.error(format!("unsupported catalog manifest version {version}")));
        }
        let n = r.seq()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let entry = CatalogEntry { label: r.str()?, kind: r.str()?, pages: r.str()? };
            check_label(&entry.label)?;
            check_label(&entry.pages)?;
            entries.push(entry);
        }
        r.finish()?;
        Ok(SnapshotCatalog { dir, entries, written: HashMap::new() })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The persisted entries, in `add` order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    fn entry(&self, label: &str) -> Result<&CatalogEntry, SnapshotError> {
        self.entries
            .iter()
            .find(|e| e.label == label)
            .ok_or_else(|| SnapshotError::NoSuchEntry { label: label.to_string() })
    }

    fn pages_path(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.pages"))
    }

    fn meta_path(&self, label: &str) -> PathBuf {
        self.dir.join(format!("{label}.meta"))
    }

    /// A pages stem no entry references: `label` itself unless a shared
    /// file still goes by that name (its first entry was removed, later
    /// ones were not), else the first free `<label>-<k>`.
    fn free_stem(&self, label: &str) -> String {
        let taken = |stem: &str| self.entries.iter().any(|e| e.pages == stem);
        if !taken(label) {
            return label.to_string();
        }
        (1u64..)
            .map(|k| {
                let suffix = format!("-{k}");
                format!("{}{suffix}", &label[..label.len().min(64 - suffix.len())])
            })
            .find(|stem| !taken(stem))
            .expect("some suffix is free")
    }

    /// Persist one index under `label`: its metadata to `<label>.meta`,
    /// the manifest, and — the first time this catalog sees the index's
    /// device — the device's frozen pages to `<label>.pages` (see
    /// [`CatalogEntry::pages`] for when that name is taken). Later
    /// entries on the same device reference that file instead of writing
    /// another copy. The index's device must already be frozen
    /// ([`SnapshotError::NotFrozen`] otherwise — freezing is the owner's
    /// lifecycle decision, not the catalog's).
    pub fn add(&mut self, label: &str, index: &dyn RangeIndex) -> Result<(), SnapshotError> {
        check_label(label)?;
        if self.entries.iter().any(|e| e.label == label) {
            return Err(SnapshotError::DuplicateEntry { label: label.to_string() });
        }
        let store = index.device().store_id();
        let pages = match self.written.get(&store) {
            Some(stem) => stem.clone(),
            None => {
                let stem = self.free_stem(label);
                index.device().snapshot_to_path(self.pages_path(&stem))?;
                stem
            }
        };
        let mut w = MetaWriter::new();
        w.str(index.name());
        index.save_meta(&mut w);
        w.write_to_path(&self.meta_path(label))?;
        self.entries.push(CatalogEntry {
            label: label.to_string(),
            kind: index.name().to_string(),
            pages: pages.clone(),
        });
        self.written.insert(store, pages);
        self.write_manifest()
    }

    /// Open the page snapshot `label` reads as a fresh file-backed device
    /// (validated, cold — zeroed stats, empty cache of `cache_pages`
    /// pages). The one place an entry's pages file is resolved: composite
    /// structures (the live index's leveled sub-entries) reopen their
    /// devices through it and re-scope them.
    pub fn open_device(
        &self,
        label: &str,
        cache_pages: usize,
        backend: ReopenBackend,
    ) -> Result<Device, SnapshotError> {
        self.open_pages(self.entry(label)?, cache_pages, backend)
    }

    fn open_pages(
        &self,
        entry: &CatalogEntry,
        cache_pages: usize,
        backend: ReopenBackend,
    ) -> Result<Device, SnapshotError> {
        Device::open_snapshot_as(self.pages_path(&entry.pages), cache_pages, backend)
    }

    /// Open `label`'s metadata envelope and check the kind it declares
    /// against the manifest; the reader is left just past the kind.
    pub fn open_meta(&self, label: &str) -> Result<MetaReader, SnapshotError> {
        let entry = self.entry(label)?;
        let mut r = MetaReader::open(&self.meta_path(label))?;
        let kind = r.str()?;
        if kind != entry.kind {
            return Err(r.error(format!(
                "kind mismatch for {label:?}: manifest says {:?}, metadata says {kind:?}",
                entry.kind
            )));
        }
        Ok(r)
    }

    fn load_on(
        &self,
        entry: &CatalogEntry,
        h: &DeviceHandle,
    ) -> Result<Box<dyn RangeIndex>, SnapshotError> {
        let mut r = self.open_meta(&entry.label)?;
        let index = load_index(&entry.kind, h, &mut r)?;
        r.finish()?;
        Ok(index)
    }

    /// Reopen one entry: a fresh file-backed device over its pages file
    /// (see [`Self::open_device`]) and the index reloaded on its primary
    /// handle scope.
    pub fn load(
        &self,
        label: &str,
        cache_pages: usize,
    ) -> Result<Box<dyn RangeIndex>, SnapshotError> {
        self.load_as(label, cache_pages, ReopenBackend::Pread)
    }

    /// [`Self::load`] with an explicit storage backend
    /// ([`ReopenBackend::Mmap`] for the zero-copy mapping, DESIGN.md §13).
    /// Answers and model read-IO counts are bit-identical across backends.
    pub fn load_as(
        &self,
        label: &str,
        cache_pages: usize,
        backend: ReopenBackend,
    ) -> Result<Box<dyn RangeIndex>, SnapshotError> {
        let entry = self.entry(label)?;
        let device = self.open_pages(entry, cache_pages, backend)?;
        self.load_on(entry, &device)
    }

    /// Reopen every entry, in `add` order.
    pub fn load_all(&self, cache_pages: usize) -> Result<Vec<Box<dyn RangeIndex>>, SnapshotError> {
        self.load_all_as(cache_pages, ReopenBackend::Pread)
    }

    /// [`Self::load_all`] with an explicit storage backend. Each distinct
    /// pages file is opened and validated once; the first entry on it
    /// reads through the device's primary scope and every later one
    /// through a fork, so each index gets a cold cache and `IoStats` of
    /// its own — the same answers and read counts as [`Self::load`] per
    /// entry.
    pub fn load_all_as(
        &self,
        cache_pages: usize,
        backend: ReopenBackend,
    ) -> Result<Vec<Box<dyn RangeIndex>>, SnapshotError> {
        let mut opened: HashMap<&str, Device> = HashMap::new();
        let mut out = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let h = match opened.get(e.pages.as_str()) {
                Some(device) => device.handle(),
                None => {
                    let device = self.open_pages(e, cache_pages, backend)?;
                    let h = (*device).clone();
                    opened.insert(&e.pages, device);
                    h
                }
            };
            out.push(self.load_on(e, &h)?);
        }
        Ok(out)
    }

    /// Drop one entry: it leaves the manifest first (the commit point —
    /// rewritten atomically), then its metadata file is deleted, and its
    /// pages file too once no remaining entry references it; deletions
    /// are best-effort. A crash between the two leaves orphaned files no
    /// manifest references, which a later `add` is free to overwrite —
    /// never a manifest pointing at missing files.
    pub fn remove(&mut self, label: &str) -> Result<(), SnapshotError> {
        let i = self
            .entries
            .iter()
            .position(|e| e.label == label)
            .ok_or_else(|| SnapshotError::NoSuchEntry { label: label.to_string() })?;
        let gone = self.entries.remove(i);
        self.write_manifest()?;
        let _ = std::fs::remove_file(self.meta_path(&gone.label));
        if !self.entries.iter().any(|e| e.pages == gone.pages) {
            let _ = std::fs::remove_file(self.pages_path(&gone.pages));
            self.written.retain(|_, stem| *stem != gone.pages);
        }
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), SnapshotError> {
        let mut w = MetaWriter::new();
        w.str(MANIFEST_MAGIC);
        w.u64(MANIFEST_VERSION);
        w.seq(self.entries.len());
        for e in &self.entries {
            w.str(&e.label);
            w.str(&e.kind);
            w.str(&e.pages);
        }
        w.write_to_path(&self.dir.join(MANIFEST))
    }
}
