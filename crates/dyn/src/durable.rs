//! Crash-consistent dynamic schemes: [`DurableScheme`] pairs a
//! [`DynamicScheme`] with a [`Journal`] and an atomic archive
//! checkpoint, in the classic write-ahead discipline scoped to our
//! single-writer archive model:
//!
//! 1. **append** — every op is framed into the `.ftcj` journal (and
//!    fsynced per [`FsyncPolicy`]) *before* it mutates the scheme;
//! 2. **checkpoint** — [`DurableScheme::commit`] syncs the journal,
//!    atomically replaces the archive (tempfile → fsync → rename →
//!    directory fsync), stamps an adjacent manifest with the journal
//!    watermark, then atomically rotates in a fresh journal.
//!
//! Recovery ([`DurableScheme::recover`] /
//! [`DynamicScheme::recover`]) opens whatever archive generation
//! survived, reads the manifest watermark, and replays exactly the
//! un-snapshotted journal suffix. The replay is *tolerant*: an insert
//! of a present edge or a delete of an absent one is counted and
//! skipped, not fatal. That tolerance is what makes every crash
//! window safe — each op's record fixes the edge's membership to its
//! postcondition, so replaying a suffix onto an archive that already
//! absorbed part of it converges to the same edge set regardless of
//! where the crash fell between the journal append, the archive
//! rename, and the manifest write.

use crate::journal::{scan_journal, FsyncPolicy, Journal, JournalError, JournalMeta, JournalOp};
use crate::{DynError, DynStats, DynamicScheme};
use ftc_compress::checksum64;
use ftc_core::compressed::AnyArchive;
use ftc_core::io::{write_atomic, StdVfs, Vfs};
use ftc_core::serial::SerialError;
use ftc_core::store::LabelStore;
use ftc_serve::ConnectivityService;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening a commit manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"FTCM";
/// Current manifest format version.
pub const MANIFEST_VERSION: u16 = 1;
const MANIFEST_LEN: usize = 40;

/// The watermark stamp a checkpoint leaves next to the archive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Highest journal sequence number included in the archive.
    pub watermark: u64,
    /// `tag` of the archive generation this stamp describes.
    pub archive_tag: u64,
    /// Lineage fingerprint of the owning scheme.
    pub lineage: u64,
}

fn encode_manifest(m: &Manifest) -> [u8; MANIFEST_LEN] {
    let mut b = [0u8; MANIFEST_LEN];
    b[0..4].copy_from_slice(&MANIFEST_MAGIC);
    b[4..6].copy_from_slice(&MANIFEST_VERSION.to_le_bytes());
    b[8..16].copy_from_slice(&m.watermark.to_le_bytes());
    b[16..24].copy_from_slice(&m.archive_tag.to_le_bytes());
    b[24..32].copy_from_slice(&m.lineage.to_le_bytes());
    let sum = checksum64(&b[..32]);
    b[32..40].copy_from_slice(&sum.to_le_bytes());
    b
}

fn decode_manifest(bytes: &[u8]) -> Option<Manifest> {
    if bytes.len() != MANIFEST_LEN
        || bytes[0..4] != MANIFEST_MAGIC
        || u16::from_le_bytes(bytes[4..6].try_into().ok()?) != MANIFEST_VERSION
    {
        return None;
    }
    let stored = u64::from_le_bytes(bytes[32..40].try_into().ok()?);
    if checksum64(&bytes[..32]) != stored {
        return None;
    }
    Some(Manifest {
        watermark: u64::from_le_bytes(bytes[8..16].try_into().ok()?),
        archive_tag: u64::from_le_bytes(bytes[16..24].try_into().ok()?),
        lineage: u64::from_le_bytes(bytes[24..32].try_into().ok()?),
    })
}

fn sibling_path(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// The manifest path adjacent to `archive`: `<archive>.manifest`.
pub fn manifest_path(archive: &Path) -> PathBuf {
    sibling_path(archive, ".manifest")
}

/// The default journal path adjacent to `archive`: `<archive>.ftcj`.
pub fn default_journal_path(archive: &Path) -> PathBuf {
    sibling_path(archive, ".ftcj")
}

/// Typed failure of a durable-scheme operation.
#[derive(Debug)]
pub enum DurableError {
    /// The underlying I/O failed.
    Io(io::Error),
    /// The in-memory scheme rejected an op (range, self-loop,
    /// duplicate, unknown edge — the journal never records these).
    Dyn(DynError),
    /// The journal failed validation (interior corruption carries the
    /// offending offset).
    Journal(JournalError),
    /// The archive failed validation.
    Archive(SerialError),
    /// The journal belongs to a different scheme lineage than the
    /// archive (different construction seed or a foreign file).
    LineageMismatch {
        /// Lineage recorded in the journal header.
        journal: u64,
        /// Lineage derived from the archive.
        archive: u64,
    },
    /// The journal header's scheme shape disagrees with the archive.
    ShapeMismatch(&'static str),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable i/o failed: {e}"),
            DurableError::Dyn(e) => write!(f, "dynamic op rejected: {e}"),
            DurableError::Journal(e) => write!(f, "journal invalid: {e}"),
            DurableError::Archive(e) => write!(f, "archive invalid: {e}"),
            DurableError::LineageMismatch { journal, archive } => write!(
                f,
                "journal lineage {journal:#018x} does not match archive lineage {archive:#018x}"
            ),
            DurableError::ShapeMismatch(what) => {
                write!(f, "journal {what} does not match the archive")
            }
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Dyn(e) => Some(e),
            DurableError::Journal(e) => Some(e),
            DurableError::Archive(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> DurableError {
        DurableError::Io(e)
    }
}

impl From<DynError> for DurableError {
    fn from(e: DynError) -> DurableError {
        DurableError::Dyn(e)
    }
}

impl From<JournalError> for DurableError {
    fn from(e: JournalError) -> DurableError {
        DurableError::Journal(e)
    }
}

/// What a recovery replayed, for logs and differential tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverStats {
    /// Watermark the replay started after (manifest, or the journal's
    /// `base_seq` when no usable manifest survived).
    pub watermark: u64,
    /// Total validated records in the journal.
    pub records: usize,
    /// Ops replayed onto the archive.
    pub replayed: u64,
    /// Records at or below the watermark (already in the archive).
    pub skipped: u64,
    /// Suffix ops whose effect was already present (the crash fell
    /// between the archive rename and the manifest write).
    pub tolerated: u64,
    /// Structural-rebuild markers observed in the suffix.
    pub rebuild_markers: u64,
    /// Highest sequence number absorbed (the new journal's base).
    pub end_seq: u64,
    /// Whether a usable manifest bounded the replay.
    pub manifest_used: bool,
    /// Whether the journal ended in a torn (truncated) final record.
    pub torn_tail: bool,
}

/// Replays `journal_path` onto `archive_path` without writing anything.
fn replay(
    vfs: &dyn Vfs,
    archive_path: &Path,
    journal_path: &Path,
    seed: u64,
) -> Result<(DynamicScheme, RecoverStats), DurableError> {
    let archive_bytes = vfs.read(archive_path)?;
    let store = LabelStore::open(archive_bytes).map_err(DurableError::Archive)?;
    let archive = AnyArchive::V1(store);
    let mut scheme = DynamicScheme::from_archive(&archive, seed)?;
    let archive_tag = archive.header().tag;

    let journal_bytes = vfs.read(journal_path)?;
    let scan = scan_journal(&journal_bytes)?;
    if scan.meta.lineage != scheme.lineage() {
        return Err(DurableError::LineageMismatch {
            journal: scan.meta.lineage,
            archive: scheme.lineage(),
        });
    }
    if scan.meta.n as usize != scheme.n() {
        return Err(DurableError::ShapeMismatch("vertex count"));
    }
    if scan.meta.f as usize != scheme.f() {
        return Err(DurableError::ShapeMismatch("fault budget"));
    }
    if scan.meta.k as usize != scheme.k() {
        return Err(DurableError::ShapeMismatch("outdetect threshold"));
    }
    if scan.meta.encoding != scheme.encoding() {
        return Err(DurableError::ShapeMismatch("encoding"));
    }

    // The manifest is a replay optimization, not a correctness
    // requirement: its watermark is always ≤ the archive's true state
    // (checkpoints write the archive before the manifest), and the
    // tolerant replay below is correct from any such starting point.
    // A missing, corrupt, or foreign manifest just means replaying the
    // whole journal.
    let manifest = vfs
        .read(&manifest_path(archive_path))
        .ok()
        .and_then(|b| decode_manifest(&b))
        .filter(|m| m.lineage == scheme.lineage());
    let _ = archive_tag; // advisory: a stale tag is a legal crash window
    let (watermark, manifest_used) = match &manifest {
        Some(m) => (m.watermark, true),
        None => (scan.meta.base_seq, false),
    };

    let mut stats = RecoverStats {
        watermark,
        records: scan.records.len(),
        end_seq: scan.records.last().map(|r| r.seq).unwrap_or(watermark),
        manifest_used,
        torn_tail: scan.torn_at.is_some(),
        ..RecoverStats::default()
    };
    for rec in &scan.records {
        if rec.seq <= watermark {
            stats.skipped += 1;
            continue;
        }
        match rec.op {
            JournalOp::Insert(u, v) => match scheme.insert_edge(u as usize, v as usize) {
                Ok(()) => stats.replayed += 1,
                Err(DynError::DuplicateEdge(..)) => stats.tolerated += 1,
                Err(e) => return Err(DurableError::Dyn(e)),
            },
            JournalOp::Delete(u, v) => match scheme.delete_edge(u as usize, v as usize) {
                Ok(()) => stats.replayed += 1,
                Err(DynError::UnknownEdge(..)) => stats.tolerated += 1,
                Err(e) => return Err(DurableError::Dyn(e)),
            },
            JournalOp::Rebuild => stats.rebuild_markers += 1,
        }
    }
    stats.end_seq = stats.end_seq.max(watermark);
    Ok((scheme, stats))
}

impl DynamicScheme {
    /// Rebuilds the scheme a crash left behind: opens the archive at
    /// `archive_path`, then replays the journal suffix past the
    /// manifest watermark (tolerantly — see the [module docs](self)).
    /// Nothing is written; [`DurableScheme::recover`] additionally
    /// seals the recovered state back to disk.
    ///
    /// `seed` must be the per-edge level seed the scheme was built
    /// with; a different seed shows up as a lineage mismatch.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] when either file is unreadable,
    /// [`DurableError::Archive`] / [`DurableError::Journal`] when one
    /// fails validation, [`DurableError::LineageMismatch`] /
    /// [`DurableError::ShapeMismatch`] when they do not belong
    /// together.
    pub fn recover(
        archive_path: &Path,
        journal_path: &Path,
        seed: u64,
    ) -> Result<(DynamicScheme, RecoverStats), DurableError> {
        replay(&StdVfs, archive_path, journal_path, seed)
    }
}

/// A [`DynamicScheme`] whose ops are write-ahead journaled and whose
/// commits are crash-consistent archive checkpoints.
pub struct DurableScheme {
    scheme: DynamicScheme,
    journal: Journal,
    vfs: Arc<dyn Vfs>,
    archive_path: PathBuf,
    journal_path: PathBuf,
    policy: FsyncPolicy,
}

impl fmt::Debug for DurableScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableScheme")
            .field("archive_path", &self.archive_path)
            .field("journal_path", &self.journal_path)
            .field("policy", &self.policy)
            .field("journal", &self.journal)
            .finish_non_exhaustive()
    }
}

/// Checkpoints `scheme` at `archive_path` and rotates in a fresh
/// journal based at `base_seq`. The write order is the crash-safety
/// contract: archive (atomic) → manifest (atomic) → journal (atomic).
fn checkpoint(
    vfs: &dyn Vfs,
    archive_path: &Path,
    journal_path: &Path,
    scheme: &mut DynamicScheme,
    policy: FsyncPolicy,
    base_seq: u64,
) -> Result<Journal, DurableError> {
    let store = scheme.commit();
    write_atomic(vfs, archive_path, store.as_bytes())?;
    let manifest = Manifest {
        watermark: base_seq,
        archive_tag: store.header().tag,
        lineage: scheme.lineage(),
    };
    scheme.recycle(store);
    write_atomic(
        vfs,
        &manifest_path(archive_path),
        &encode_manifest(&manifest),
    )?;
    let meta = JournalMeta {
        n: scheme.n() as u32,
        f: scheme.f() as u32,
        k: scheme.k() as u32,
        encoding: scheme.encoding(),
        base_seq,
        lineage: scheme.lineage(),
    };
    Ok(Journal::create(vfs, journal_path, meta, policy)?)
}

impl DurableScheme {
    /// Adopts `scheme` into durable operation: writes its current state
    /// as the base checkpoint at `archive_path` (plus manifest) and
    /// opens a fresh journal at `journal_path`.
    pub fn create(
        vfs: Arc<dyn Vfs>,
        archive_path: &Path,
        journal_path: &Path,
        mut scheme: DynamicScheme,
        policy: FsyncPolicy,
    ) -> Result<DurableScheme, DurableError> {
        let journal = checkpoint(&*vfs, archive_path, journal_path, &mut scheme, policy, 0)?;
        Ok(DurableScheme {
            scheme,
            journal,
            vfs,
            archive_path: archive_path.to_path_buf(),
            journal_path: journal_path.to_path_buf(),
            policy,
        })
    }

    /// Recovers the crash-left state at `archive_path` +
    /// `journal_path`, then seals it: the recovered labeling is
    /// checkpointed back (atomic archive + manifest) and a fresh
    /// journal rotated in, so the on-disk state is clean again. See
    /// [`DynamicScheme::recover`] for the read-only variant and the
    /// error conditions.
    pub fn recover(
        vfs: Arc<dyn Vfs>,
        archive_path: &Path,
        journal_path: &Path,
        seed: u64,
        policy: FsyncPolicy,
    ) -> Result<(DurableScheme, RecoverStats), DurableError> {
        let (mut scheme, stats) = replay(&*vfs, archive_path, journal_path, seed)?;
        let journal = checkpoint(
            &*vfs,
            archive_path,
            journal_path,
            &mut scheme,
            policy,
            stats.end_seq,
        )?;
        Ok((
            DurableScheme {
                scheme,
                journal,
                vfs,
                archive_path: archive_path.to_path_buf(),
                journal_path: journal_path.to_path_buf(),
                policy,
            },
            stats,
        ))
    }

    /// Journals, then applies, an edge insertion. Returns the journal
    /// sequence number; under `every_op` fsync the op is durable when
    /// this returns.
    ///
    /// # Errors
    ///
    /// [`DurableError::Dyn`] for ops the scheme rejects (checked
    /// *before* journaling — the journal never records a rejected op)
    /// and [`DurableError::Io`] when the append fails, in which case
    /// the op is **not** applied.
    pub fn insert_edge(&mut self, u: usize, v: usize) -> Result<u64, DurableError> {
        self.check_pair(u, v)?;
        if self.scheme.has_edge(u, v) {
            return Err(DurableError::Dyn(DynError::DuplicateEdge(u, v)));
        }
        let before = rebuilds(&self.scheme.stats());
        let seq = self.journal.append(JournalOp::Insert(u as u32, v as u32))?;
        self.scheme.insert_edge(u, v)?;
        if rebuilds(&self.scheme.stats()) > before {
            self.journal.append(JournalOp::Rebuild)?;
        }
        Ok(seq)
    }

    /// Journals, then applies, an edge deletion. Mirrors
    /// [`DurableScheme::insert_edge`].
    ///
    /// # Errors
    ///
    /// As [`DurableScheme::insert_edge`], with
    /// [`DynError::UnknownEdge`] for an absent pair.
    pub fn delete_edge(&mut self, u: usize, v: usize) -> Result<u64, DurableError> {
        self.check_pair(u, v)?;
        if !self.scheme.has_edge(u, v) {
            return Err(DurableError::Dyn(DynError::UnknownEdge(u, v)));
        }
        let before = rebuilds(&self.scheme.stats());
        let seq = self.journal.append(JournalOp::Delete(u as u32, v as u32))?;
        self.scheme.delete_edge(u, v)?;
        if rebuilds(&self.scheme.stats()) > before {
            self.journal.append(JournalOp::Rebuild)?;
        }
        Ok(seq)
    }

    fn check_pair(&self, u: usize, v: usize) -> Result<(), DurableError> {
        let n = self.scheme.n();
        if u >= n {
            return Err(DurableError::Dyn(DynError::VertexOutOfRange(u)));
        }
        if v >= n {
            return Err(DurableError::Dyn(DynError::VertexOutOfRange(v)));
        }
        if u == v {
            return Err(DurableError::Dyn(DynError::SelfLoop(u)));
        }
        Ok(())
    }

    /// Forces all journaled ops to stable storage without writing the
    /// archive — the group-commit durability point of the `on_commit`
    /// policy. After this returns, a crash loses nothing: recovery
    /// replays the synced suffix onto the last checkpoint.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        Ok(self.journal.sync()?)
    }

    /// Checkpoints: journal sync → atomic archive replace → manifest
    /// stamp → journal rotation. Returns the watermark (highest
    /// sequence number the archive now includes).
    pub fn commit(&mut self) -> Result<u64, DurableError> {
        self.journal.sync()?;
        let watermark = self.journal.last_seq();
        self.journal = checkpoint(
            &*self.vfs,
            &self.archive_path,
            &self.journal_path,
            &mut self.scheme,
            self.policy,
            watermark,
        )?;
        Ok(watermark)
    }

    /// In-memory commit for serving (no disk checkpoint): syncs the
    /// journal so the served state is recoverable, then builds a
    /// [`ConnectivityService`] from the current labeling.
    pub fn commit_service(&mut self) -> Result<ConnectivityService, DurableError> {
        self.journal.sync()?;
        Ok(self.scheme.commit_service())
    }

    /// In-memory commit as a raw [`LabelStore`] (no disk checkpoint):
    /// syncs the journal — the group-commit durability point under
    /// `on_commit` — then emits the next servable generation. The
    /// manifest watermark does not advance; a crash replays the synced
    /// journal suffix onto the last checkpoint. Feed the retired
    /// generation back through [`DurableScheme::recycle`] to keep the
    /// steady-state double-buffered commit path.
    pub fn commit_store(&mut self) -> Result<LabelStore, DurableError> {
        self.journal.sync()?;
        Ok(self.scheme.commit())
    }

    /// Returns a retired commit buffer for reuse; see
    /// [`DynamicScheme::recycle`].
    pub fn recycle(&mut self, retired: LabelStore) {
        self.scheme.recycle(retired);
    }

    /// The wrapped scheme (read-only; mutations must go through the
    /// journaled ops).
    pub fn scheme(&self) -> &DynamicScheme {
        &self.scheme
    }

    /// Update counters of the wrapped scheme.
    pub fn stats(&self) -> DynStats {
        self.scheme.stats()
    }

    /// Sequence number of the last journaled op.
    pub fn last_seq(&self) -> u64 {
        self.journal.last_seq()
    }

    /// The archive checkpoint path.
    pub fn archive_path(&self) -> &Path {
        &self.archive_path
    }

    /// The journal path.
    pub fn journal_path(&self) -> &Path {
        &self.journal_path
    }
}

fn rebuilds(stats: &DynStats) -> u64 {
    stats.structural_rebuilds + stats.slot_rebuilds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynConfig;
    use ftc_core::io::SimVfs;
    use ftc_graph::generators;
    use std::collections::BTreeSet;

    fn paths() -> (PathBuf, PathBuf) {
        (PathBuf::from("g.ftc"), PathBuf::from("g.ftc.ftcj"))
    }

    fn new_scheme(n: usize, m: usize, seed: u64) -> DynamicScheme {
        let g = generators::random_connected(n, m, seed);
        let mut cfg = DynConfig::new(2, 12);
        cfg.seed = seed;
        DynamicScheme::new(&g, cfg).unwrap()
    }

    fn edge_set(scheme: &DynamicScheme) -> BTreeSet<(usize, usize)> {
        scheme.edge_pairs().collect()
    }

    #[test]
    fn recover_replays_exactly_the_unsnapshotted_suffix() {
        let vfs = Arc::new(SimVfs::new());
        let (archive, journal) = paths();
        let scheme = new_scheme(40, 60, 11);
        let mut d = DurableScheme::create(
            Arc::clone(&vfs) as Arc<dyn Vfs>,
            &archive,
            &journal,
            scheme,
            FsyncPolicy::EveryOp,
        )
        .unwrap();
        d.insert_edge(0, 20).unwrap();
        d.commit().unwrap();
        // Ops past the checkpoint live only in the journal.
        d.insert_edge(1, 21).unwrap();
        d.delete_edge(0, 20).unwrap();
        let want = edge_set(d.scheme());
        let last = d.last_seq();
        drop(d);

        let (recovered, stats) = DurableScheme::recover(
            Arc::clone(&vfs) as Arc<dyn Vfs>,
            &archive,
            &journal,
            11,
            FsyncPolicy::EveryOp,
        )
        .unwrap();
        assert_eq!(edge_set(recovered.scheme()), want);
        assert!(stats.manifest_used);
        assert_eq!(stats.replayed, 2);
        assert_eq!(stats.skipped, 0, "checkpointed ops must be rotated away");
        assert_eq!(stats.end_seq, last);
        assert!(!stats.torn_tail);
    }

    #[test]
    fn recover_rejects_foreign_journal() {
        let vfs = Arc::new(SimVfs::new());
        let (archive, journal) = paths();
        let d = DurableScheme::create(
            Arc::clone(&vfs) as Arc<dyn Vfs>,
            &archive,
            &journal,
            new_scheme(40, 60, 11),
            FsyncPolicy::OnCommit,
        )
        .unwrap();
        drop(d);
        // Recover with the wrong seed: the lineage no longer matches.
        let err = replay(&*vfs, &archive, &journal, 12).unwrap_err();
        assert!(matches!(err, DurableError::LineageMismatch { .. }), "{err}");
    }

    #[test]
    fn rejected_ops_never_reach_the_journal() {
        let vfs = Arc::new(SimVfs::new());
        let (archive, journal) = paths();
        let mut d = DurableScheme::create(
            Arc::clone(&vfs) as Arc<dyn Vfs>,
            &archive,
            &journal,
            new_scheme(40, 60, 11),
            FsyncPolicy::EveryOp,
        )
        .unwrap();
        let before = d.last_seq();
        assert!(matches!(
            d.insert_edge(0, 0),
            Err(DurableError::Dyn(DynError::SelfLoop(0)))
        ));
        assert!(matches!(
            d.delete_edge(0, 39),
            Err(DurableError::Dyn(DynError::UnknownEdge(0, 39)))
        ));
        assert!(matches!(
            d.insert_edge(0, 4000),
            Err(DurableError::Dyn(DynError::VertexOutOfRange(4000)))
        ));
        assert_eq!(d.last_seq(), before);
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let m = Manifest {
            watermark: 42,
            archive_tag: 0xDEAD_BEEF,
            lineage: 7,
        };
        let mut bytes = encode_manifest(&m);
        assert_eq!(decode_manifest(&bytes), Some(m));
        bytes[9] ^= 1;
        assert_eq!(decode_manifest(&bytes), None);
    }
}
