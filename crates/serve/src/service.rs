//! The shareable connectivity service: one handle, many threads, any
//! number of fault-set queries.

use crate::pool::ScratchPool;
use ftc_core::ancestry::AncestryLabel;
use ftc_core::compressed::AnyArchive;
use ftc_core::serial::{VertexLabelView, VertexRecords};
use ftc_core::store::{EdgeEncoding, LabelStore, StoreError, StoreOpenError};
use ftc_core::{
    Certificate, LabelHeader, LabelSet, QueryError, QuerySession, RsVector, SerialError,
    SessionScratch,
};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Errors raised while serving a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A fault was named by an endpoint pair the labeling does not
    /// contain.
    UnknownEdge {
        /// First requested endpoint.
        u: usize,
        /// Second requested endpoint.
        v: usize,
    },
    /// A fault was named by an edge ID outside the labeling's `0..m`.
    UnknownEdgeId {
        /// The requested edge ID.
        id: usize,
    },
    /// A vertex argument is outside the labeling's `0..n` range.
    VertexOutOfRange {
        /// The requested vertex.
        v: usize,
    },
    /// The underlying session construction or query failed.
    Query(QueryError),
    /// A lazily-validated archive section failed its checksum or decode
    /// on first touch (v2 archives only).
    Corrupt(SerialError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownEdge { u, v } => {
                write!(f, "no edge {u}–{v} in the served labeling")
            }
            ServeError::UnknownEdgeId { id } => {
                write!(f, "no edge with ID {id} in the served labeling")
            }
            ServeError::VertexOutOfRange { v } => write!(f, "vertex {v} out of range"),
            ServeError::Query(q) => write!(f, "query failed: {q}"),
            ServeError::Corrupt(e) => write!(f, "served archive section corrupt: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueryError> for ServeError {
    fn from(q: QueryError) -> ServeError {
        ServeError::Query(q)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        match e {
            StoreError::UnknownEdge { u, v } => ServeError::UnknownEdge { u, v },
            StoreError::UnknownEdgeId { id } => ServeError::UnknownEdgeId { id },
            StoreError::Query(q) => ServeError::Query(q),
            StoreError::Corrupt(e) => ServeError::Corrupt(e),
        }
    }
}

#[derive(Debug)]
struct Inner {
    archive: AnyArchive,
    pool: ScratchPool,
}

/// The answers of one [`ConnectivityService::query`] call: one `bool`
/// per requested pair, in request order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Answers {
    answers: Vec<bool>,
}

impl Answers {
    /// The answers as a slice, in request order.
    pub fn as_slice(&self) -> &[bool] {
        &self.answers
    }

    /// The answer for pair `i` (request order).
    pub fn get(&self, i: usize) -> Option<bool> {
        self.answers.get(i).copied()
    }

    /// Number of answered pairs.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// `true` when no pairs were requested.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// `true` iff every requested pair is connected.
    pub fn all_connected(&self) -> bool {
        self.answers.iter().all(|&a| a)
    }

    /// Consumes the answers into the underlying vector.
    pub fn into_vec(self) -> Vec<bool> {
        self.answers
    }
}

impl<'a> IntoIterator for &'a Answers {
    type Item = bool;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, bool>>;

    fn into_iter(self) -> Self::IntoIter {
        self.answers.iter().copied()
    }
}

/// The vertex records of `archive`, for a request whose first vertex is
/// `first`. A vertex-by-vertex resolver touched the vertex section at the
/// first vertex in range, so only a first vertex out of range is
/// reported before a corrupt section.
fn vertex_records(archive: &AnyArchive, first: usize) -> Result<VertexRecords<'_>, ServeError> {
    if first >= archive.n() {
        return Err(ServeError::VertexOutOfRange { v: first });
    }
    archive.vertex_records().map_err(ServeError::Corrupt)
}

/// The ancestry labels of the pair `(s, t)`, with a vertex-by-vertex
/// resolver's error order: `s` out of range, then a corrupt vertex
/// section, then `t` out of range.
fn pair_anc(
    archive: &AnyArchive,
    s: usize,
    t: usize,
) -> Result<(AncestryLabel, AncestryLabel), ServeError> {
    let records = vertex_records(archive, s)?;
    let anc = |v| records.anc(v).ok_or(ServeError::VertexOutOfRange { v });
    Ok((anc(s)?, anc(t)?))
}

/// The one header check of a request. Every vertex record reads under
/// the archive's one header, so checking the session against the
/// archive once stands for the per-pair header compares of
/// [`QuerySession::certified`].
fn check_header(archive: &AnyArchive, session: &QuerySession) -> Result<(), ServeError> {
    if session.header().is_some_and(|h| h != archive.header()) {
        return Err(QueryError::MismatchedLabels.into());
    }
    Ok(())
}

/// A shareable, thread-safe connectivity serving handle.
///
/// The service holds exactly one [`AnyArchive`] — the artifact the
/// paper's scheme assigns once and queries forever after — whichever
/// way it was built: from archive bytes of either format, an archive
/// file, a [`LabelStore`], or an owned [`LabelSet`] archived on the way
/// in. Bytes and stores are taken over as they are: the service shares
/// their blob and never copies it. It is
/// `Send + Sync + Clone`: clone the handle into as many threads as
/// needed, and every [`ConnectivityService::query`] call internally
/// checks a [`ftc_core::SessionScratch`] out of a lock-free pool —
/// concurrent callers keep the zero-allocation warm session-build path
/// without managing scratches themselves.
///
/// # Example
///
/// ```
/// use ftc_core::store::{EdgeEncoding, LabelStore};
/// use ftc_core::{FtcScheme, Params};
/// use ftc_graph::Graph;
/// use ftc_serve::ConnectivityService;
///
/// let g = Graph::torus(4, 4);
/// let scheme = FtcScheme::build(&g, &Params::deterministic(3)).unwrap();
/// let blob = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Compact);
///
/// let service = ConnectivityService::from_archive_bytes(blob).unwrap();
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let service = service.clone();
///         s.spawn(move || {
///             let answers = service
///                 .query(&[(0, 1), (0, 4)], &[(0, 10), (3, 12)])
///                 .unwrap();
///             assert!(answers.all_connected());
///         });
///     }
/// });
/// ```
#[derive(Clone, Debug)]
pub struct ConnectivityService {
    inner: Arc<Inner>,
}

impl ConnectivityService {
    /// A service over an opened archive of either format.
    pub fn from_archive(archive: AnyArchive) -> ConnectivityService {
        let slots = std::thread::available_parallelism()
            .map(|p| p.get() * 2)
            .unwrap_or(8)
            .clamp(4, 64);
        ConnectivityService {
            inner: Arc::new(Inner {
                archive,
                pool: ScratchPool::new(slots),
            }),
        }
    }

    /// A service over an owned label set, archived once with
    /// [`EdgeEncoding::Full`].
    pub fn from_labels(labels: LabelSet<RsVector>) -> ConnectivityService {
        Self::from_store(LabelStore::archive(&labels, EdgeEncoding::Full))
    }

    /// A service over raw archive bytes of either format, taken over
    /// without copying: a v1 blob is validated once, a v2 container in
    /// O(header) with sections validated lazily. Every later lookup is
    /// zero-copy.
    ///
    /// # Errors
    ///
    /// [`SerialError`] if the bytes are not a well-formed archive.
    pub fn from_archive_bytes(bytes: Vec<u8>) -> Result<ConnectivityService, SerialError> {
        Ok(Self::from_archive(AnyArchive::open(bytes)?))
    }

    /// A service over an already-validated [`LabelStore`] (no
    /// re-validation; the blob is shared, not copied).
    pub fn from_store(store: LabelStore) -> ConnectivityService {
        Self::from_archive(AnyArchive::V1(store))
    }

    /// Opens an archive file of either format (memory-mapped where the
    /// platform allows) and wraps it in a service.
    ///
    /// # Errors
    ///
    /// [`StoreOpenError`] on I/O failure or malformed archives.
    pub fn open_path(
        path: impl AsRef<std::path::Path>,
    ) -> Result<ConnectivityService, StoreOpenError> {
        Ok(Self::from_archive(ftc_core::compressed::open_path(path)?))
    }

    /// The served archive.
    pub fn archive(&self) -> &AnyArchive {
        &self.inner.archive
    }

    /// Number of served vertex labels.
    pub fn n(&self) -> usize {
        self.inner.archive.n()
    }

    /// Number of served edge labels.
    pub fn m(&self) -> usize {
        self.inner.archive.m()
    }

    /// The shared labeling header (fault budget `f` in `header().f`).
    pub fn header(&self) -> LabelHeader {
        self.inner.archive.header()
    }

    /// Answers a pair without preparing a fault set at all:
    /// `Some(connected)` for same-vertex or cross-component pairs,
    /// `None` when the full decoder is required. Trivially-decidable
    /// pairs answer before fault validation (the decoder's historical
    /// check order).
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] on bad vertex IDs.
    pub fn trivial_answer(&self, s: usize, t: usize) -> Result<Option<bool>, ServeError> {
        let (sa, ta) = pair_anc(&self.inner.archive, s, t)?;
        Ok(QuerySession::trivial_anc(sa, ta))
    }

    /// Answers a batch of s–t `pairs` under the fault set named by
    /// endpoint-pair `faults`: one session build (scratch from the
    /// pool), any number of answers. Faults are validated eagerly —
    /// an unknown fault edge errors even when every pair would answer
    /// trivially — and trivially-decidable pairs answer before the
    /// fault-budget check, preserving the historical decoder order.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownEdge`] / [`ServeError::VertexOutOfRange`] on
    /// unresolvable arguments, [`ServeError::Query`] from the decoder,
    /// [`ServeError::Corrupt`] when a v2 section the request reads fails
    /// lazy validation. Faults are checked first, then vertices in pair
    /// order (`s` before `t`, a corrupt vertex section at the first
    /// vertex in range), then the decoder.
    pub fn query(
        &self,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<Answers, ServeError> {
        let mut answers = Vec::with_capacity(pairs.len());
        self.answer(
            faults.iter().copied(),
            pairs.iter().copied(),
            || self.session(faults.iter().copied()),
            |cert| answers.push(cert.is_some()),
        )?;
        Ok(Answers { answers })
    }

    /// Like [`ConnectivityService::query`], but returning the merge
    /// certificate per connected pair (`None` = disconnected, empty =
    /// trivially/same-fragment connected).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConnectivityService::query`].
    pub fn query_certified(
        &self,
        faults: &[(usize, usize)],
        pairs: &[(usize, usize)],
    ) -> Result<Vec<Option<Certificate>>, ServeError> {
        let mut certs = Vec::with_capacity(pairs.len());
        self.answer(
            faults.iter().copied(),
            pairs.iter().copied(),
            || self.session(faults.iter().copied()),
            |cert| certs.push(cert.map(<[(u32, u32)]>::to_vec)),
        )?;
        Ok(certs)
    }

    /// The one answer pass behind every query: eager validation of
    /// `faults`, one range pass over the borrowed `pairs`, then one pass
    /// that answers trivial pairs on their own and calls `session` (a
    /// session of this service for `faults`) at the first pair that
    /// needs the decoder. Each answer's certificate (`None` =
    /// disconnected) goes to `extract` in pair order; on an error,
    /// `extract` may have seen the trivial pairs before it.
    ///
    /// # Errors
    ///
    /// Those of [`ConnectivityService::query`], in its order, plus
    /// whatever `session` returns.
    ///
    /// # Panics
    ///
    /// If `session` returns a session of another service.
    pub fn answer<S, E>(
        &self,
        faults: impl IntoIterator<Item = (usize, usize)>,
        pairs: impl Iterator<Item = (usize, usize)> + Clone,
        session: impl FnOnce() -> Result<S, E>,
        mut extract: impl FnMut(Option<&[(u32, u32)]>),
    ) -> Result<(), E>
    where
        S: Borrow<PooledSession>,
        E: From<ServeError>,
    {
        let archive = &self.inner.archive;
        // The session build would report unknown faults too, but it is
        // skipped when every pair is trivial.
        for (u, v) in faults {
            if archive
                .edge_id(u, v)
                .map_err(ServeError::Corrupt)?
                .is_none()
            {
                return Err(ServeError::UnknownEdge { u, v }.into());
            }
        }
        let Some((first, _)) = pairs.clone().next() else {
            return Ok(());
        };
        let records = vertex_records(archive, first)?;
        // Range pass, in pair order with `s` before `t`: every range
        // error comes before any session error.
        let n = records.len();
        if let Some(v) = pairs.clone().flat_map(|(s, t)| [s, t]).find(|&v| v >= n) {
            return Err(ServeError::VertexOutOfRange { v }.into());
        }
        let anc = |v: usize| records.anc(v).expect("range-checked above");
        // Trivial pairs answer on their own up to the first pair that
        // needs the decoder.
        let mut pairs = pairs;
        let (sa, ta) = loop {
            let Some((s, t)) = pairs.next() else {
                return Ok(());
            };
            let (sa, ta) = (anc(s), anc(t));
            match QuerySession::trivial_anc(sa, ta) {
                Some(trivial) => extract(trivial.then_some(&[])),
                None => break (sa, ta),
            }
        };
        let pooled = session()?;
        let pooled = pooled.borrow();
        assert!(
            pooled.service.is_same(self),
            "a session answers only for the service that built it"
        );
        check_header(archive, pooled.session())?;
        let session = pooled.session();
        extract(session.certified_anc(sa, ta));
        for (s, t) in pairs {
            extract(session.certified_anc(anc(s), anc(t)));
        }
        Ok(())
    }

    /// Whether `other` is a handle on this very service, not merely one
    /// over equal bytes.
    pub fn is_same(&self, other: &ConnectivityService) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Checks a session for endpoint-pair `faults` out of the pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownEdge`] on unresolvable faults,
    /// [`ServeError::Query`] on session-construction failures.
    pub fn session(
        &self,
        faults: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<PooledSession, ServeError> {
        self.checkout(|archive, scratch| archive.session_in(faults, scratch))
    }

    /// Prepares a session for endpoint-pair `faults` out of the pool and
    /// hands it to `f` — the lower-level entry point for
    /// consumers that need the session itself (certificates, fragment
    /// decomposition) while keeping pooled scratch reuse.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownEdge`] on unresolvable faults,
    /// [`ServeError::Query`] on session-construction failures.
    pub fn with_session<R>(
        &self,
        faults: &[(usize, usize)],
        f: impl FnOnce(&PooledSession) -> R,
    ) -> Result<R, ServeError> {
        Ok(f(&self.session(faults.iter().copied())?))
    }

    /// Like [`ConnectivityService::with_session`], naming faults by
    /// original edge ID (the routing layer's native fault vocabulary —
    /// unlike endpoint pairs, IDs distinguish parallel edges).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownEdgeId`] on out-of-range IDs,
    /// [`ServeError::Query`] on session-construction failures.
    pub fn with_session_ids<R>(
        &self,
        faults: &[usize],
        f: impl FnOnce(&PooledSession) -> R,
    ) -> Result<R, ServeError> {
        let pooled = self.checkout(|archive, scratch| {
            archive.session_in_by_ids(faults.iter().copied(), scratch)
        })?;
        Ok(f(&pooled))
    }

    /// The one session checkout: `build` prepares a session in a pooled
    /// scratch.
    fn checkout(
        &self,
        build: impl FnOnce(
            &AnyArchive,
            &mut SessionScratch<RsVector>,
        ) -> Result<QuerySession, StoreError>,
    ) -> Result<PooledSession, ServeError> {
        let mut scratch = self.inner.pool.checkout();
        match build(&self.inner.archive, &mut scratch) {
            Ok(session) => Ok(PooledSession {
                service: self.clone(),
                parts: Some((session, scratch)),
            }),
            Err(e) => {
                self.inner.pool.put_back(scratch);
                Err(e.into())
            }
        }
    }
}

/// A session checked out of a [`ConnectivityService`]'s pool with its
/// scratch. It keeps its service alive, several threads may answer from
/// it at once, and it goes back to the pool when it drops.
#[derive(Debug)]
pub struct PooledSession {
    service: ConnectivityService,
    /// `None` only inside `drop`.
    parts: Option<(QuerySession, Box<SessionScratch<RsVector>>)>,
}

impl PooledSession {
    /// The service whose archive the session was built from.
    pub fn service(&self) -> &ConnectivityService {
        &self.service
    }

    /// The prepared [`QuerySession`] (for consumers — like the routing
    /// layer — that need certificates and the fragment decomposition).
    pub fn session(&self) -> &QuerySession {
        &self.parts.as_ref().expect("taken only on drop").0
    }

    /// The label of vertex `v`, resolved from the service's archive;
    /// `Ok(None)` when `v` is out of range.
    ///
    /// # Errors
    ///
    /// [`ServeError::Corrupt`] if a v2 archive's vertex section fails
    /// lazy validation.
    pub fn vertex(&self, v: usize) -> Result<Option<VertexLabelView<'_>>, ServeError> {
        self.service
            .archive()
            .vertex(v)
            .map_err(ServeError::Corrupt)
    }

    /// Answers one s–t query by vertex ID.
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] on bad IDs, [`ServeError::Query`]
    /// from the session.
    pub fn connected(&self, s: usize, t: usize) -> Result<bool, ServeError> {
        Ok(self.certified(s, t)?.is_some())
    }

    /// Like [`PooledSession::connected`], but returns the borrowed merge
    /// certificate when connected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PooledSession::connected`].
    pub fn certified(&self, s: usize, t: usize) -> Result<Option<&[(u32, u32)]>, ServeError> {
        let archive = self.service.archive();
        let (sa, ta) = pair_anc(archive, s, t)?;
        check_header(archive, self.session())?;
        Ok(self.session().certified_anc(sa, ta))
    }
}

impl Drop for PooledSession {
    fn drop(&mut self) {
        if let Some((session, mut scratch)) = self.parts.take() {
            scratch.recycle(session);
            self.service.inner.pool.put_back(scratch);
        }
    }
}

// Compile-time guarantees, not vibes: the service contract is
// `Send + Sync + Clone`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_clone<T: Clone>() {}
    assert_send_sync::<ConnectivityService>();
    assert_send_sync::<PooledSession>();
    assert_send_sync::<Answers>();
    assert_send_sync::<ServeError>();
    assert_clone::<ConnectivityService>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_core::compressed::compress_archive;
    use ftc_core::{FtcScheme, Params};
    use ftc_graph::connectivity::ConnectivityOracle;
    use ftc_graph::Graph;

    fn torus_service(encoding: Option<EdgeEncoding>) -> ConnectivityService {
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        match encoding {
            None => ConnectivityService::from_labels(scheme.into_labels()),
            Some(enc) => {
                let blob = LabelStore::to_vec(scheme.labels(), enc);
                ConnectivityService::from_archive_bytes(blob).unwrap()
            }
        }
    }

    /// The torus labeling as every archive source: {v1, v2} ×
    /// {Full, Compact}, each opened through `from_archive_bytes`.
    fn torus_sources() -> (Graph, Vec<(String, ConnectivityService)>) {
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let mut sources = Vec::new();
        for enc in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let v1 = LabelStore::to_vec(scheme.labels(), enc);
            let v2 = compress_archive(&LabelStore::open(v1.clone()).unwrap()).into_vec();
            for (format, bytes) in [("v1", v1), ("v2", v2)] {
                let svc = ConnectivityService::from_archive_bytes(bytes).unwrap();
                assert_eq!(svc.archive().encoding(), enc);
                sources.push((format!("{format}/{enc:?}"), svc));
            }
        }
        (g, sources)
    }

    #[test]
    fn every_archive_source_answers_like_the_oracle() {
        let (g, sources) = torus_sources();
        let pairs: Vec<(usize, usize)> = (0..g.n())
            .flat_map(|s| (0..g.n()).map(move |t| (s, t)))
            .collect();
        let mut oracle = ConnectivityOracle::new(&g);
        for faults in [vec![], vec![(0usize, 1usize)], vec![(0, 1), (0, 4)]] {
            oracle.prepare_pairs(&faults);
            let want: Vec<bool> = pairs.iter().map(|&(s, t)| oracle.connected(s, t)).collect();
            for (name, svc) in &sources {
                let got = svc.query(&faults, &pairs).unwrap();
                assert_eq!(got.as_slice(), &want[..], "{name} {faults:?}");
                // The certified variant agrees on existence.
                let certs = svc.query_certified(&faults, &pairs).unwrap();
                assert!(
                    certs.iter().zip(&want).all(|(c, &w)| c.is_some() == w),
                    "{name} {faults:?}"
                );
            }
        }
        // The same bad inputs give the same typed errors from every source.
        let m = g.m();
        let want = vec![
            ServeError::UnknownEdge { u: 0, v: 99 },
            ServeError::UnknownEdge { u: 0, v: 99 },
            ServeError::VertexOutOfRange { v: 99 },
            ServeError::Query(QueryError::TooManyFaults {
                supplied: 3,
                budget: 2,
            }),
            ServeError::UnknownEdge { u: 0, v: 99 },
            ServeError::UnknownEdgeId { id: m },
        ];
        for (name, svc) in &sources {
            let got = vec![
                svc.query(&[(0, 99)], &[(0, 1)]).unwrap_err(),
                // Unknown faults error even when every pair is trivial.
                svc.query(&[(0, 99)], &[(3, 3)]).unwrap_err(),
                svc.query(&[], &[(0, 99)]).unwrap_err(),
                svc.query(&[(0, 1), (1, 2), (2, 3)], &[(0, 5)]).unwrap_err(),
                svc.with_session(&[(0, 1), (0, 99)], |_| ()).unwrap_err(),
                svc.with_session_ids(&[0, m], |_| ()).unwrap_err(),
            ];
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn compressed_backing_answers_like_the_others() {
        let owned = torus_service(None);
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        let v1 = LabelStore::to_vec(scheme.labels(), EdgeEncoding::Full);
        let store = compress_archive(&LabelStore::open(v1).unwrap());
        let compressed = ConnectivityService::from_archive(AnyArchive::V2(store));
        assert!(matches!(compressed.archive(), AnyArchive::V2(_)));
        assert!(matches!(owned.archive(), AnyArchive::V1(_)));
        assert_eq!(compressed.archive().encoding(), EdgeEncoding::Full);
        let faults = [(0usize, 1usize), (0, 4)];
        let pairs: Vec<(usize, usize)> =
            (0..12).flat_map(|s| (0..12).map(move |t| (s, t))).collect();
        assert_eq!(
            owned.query(&faults, &pairs).unwrap(),
            compressed.query(&faults, &pairs).unwrap()
        );
        // Error vocabulary matches too.
        assert_eq!(
            compressed.query(&[(0, 99)], &[(0, 1)]).unwrap_err(),
            ServeError::UnknownEdge { u: 0, v: 99 }
        );
        assert!(matches!(
            compressed.with_session_ids(&[999], |_| ()),
            Err(ServeError::UnknownEdgeId { id: 999 })
        ));
    }

    #[test]
    fn all_backings_answer_identically() {
        let owned = torus_service(None);
        let full = torus_service(Some(EdgeEncoding::Full));
        let compact = torus_service(Some(EdgeEncoding::Compact));
        // Owned labels are archived once with the full encoding.
        assert_eq!(owned.archive().encoding(), EdgeEncoding::Full);
        assert_eq!(full.archive().encoding(), EdgeEncoding::Full);
        assert_eq!(compact.archive().encoding(), EdgeEncoding::Compact);
        let faults = [(0usize, 1usize), (0, 4)];
        let pairs: Vec<(usize, usize)> =
            (0..12).flat_map(|s| (0..12).map(move |t| (s, t))).collect();
        let a = owned.query(&faults, &pairs).unwrap();
        let b = full.query(&faults, &pairs).unwrap();
        let c = compact.query(&faults, &pairs).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.len(), pairs.len());
        // Certified variant agrees on existence.
        let certs = owned.query_certified(&faults, &pairs).unwrap();
        for (cert, ans) in certs.iter().zip(&a) {
            assert_eq!(cert.is_some(), ans);
        }
    }

    #[test]
    fn v2_bytes_serve_like_v1_bytes() {
        let g = Graph::torus(3, 4);
        let builder = || FtcScheme::builder(&g).params(&Params::deterministic(2));
        let (v1, _) = builder().build_store(EdgeEncoding::Full).unwrap();
        let (v2, _) = builder()
            .build_store_compressed(EdgeEncoding::Full)
            .unwrap();
        let v1 = ConnectivityService::from_archive_bytes(v1.into_vec()).unwrap();
        let v2 = ConnectivityService::from_archive_bytes(v2.into_vec()).unwrap();
        let pairs: Vec<(usize, usize)> = (0..g.n())
            .flat_map(|s| (0..g.n()).map(move |t| (s, t)))
            .collect();
        for faults in [vec![], vec![(0usize, 1usize), (0, 4)], vec![(1, 2)]] {
            assert_eq!(
                v1.query(&faults, &pairs).unwrap(),
                v2.query(&faults, &pairs).unwrap(),
                "{faults:?}"
            );
        }
    }

    #[test]
    fn hand_offs_share_the_blob() {
        let g = Graph::torus(3, 4);
        let builder = || FtcScheme::builder(&g).params(&Params::deterministic(2));
        let (store, _) = builder().build_store(EdgeEncoding::Full).unwrap();
        let ptr = store.as_bytes().as_ptr();
        let svc = ConnectivityService::from_store(store);
        let AnyArchive::V1(served) = svc.archive() else {
            panic!("a v1 store served as v2");
        };
        assert_eq!(served.as_bytes().as_ptr(), ptr);

        let v1 = builder().build_store(EdgeEncoding::Full).unwrap().0;
        let v2 = builder()
            .build_store_compressed(EdgeEncoding::Full)
            .unwrap()
            .0;
        for bytes in [v1.into_vec(), v2.into_vec()] {
            let ptr = bytes.as_ptr();
            let svc = ConnectivityService::from_archive_bytes(bytes).unwrap();
            let served = match svc.archive() {
                AnyArchive::V1(s) => s.as_bytes().as_ptr(),
                AnyArchive::V2(s) => s.as_bytes().as_ptr(),
            };
            assert_eq!(served, ptr);
        }
    }

    /// A fault endpoint beyond `u32::MAX` names no edge: it must not wrap
    /// onto the edge its low 32 bits name (here 0–1).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn wide_fault_endpoints_are_unknown_edges() {
        let (_, sources) = torus_sources();
        let wide = (1usize << 32) + 1;
        for (name, svc) in &sources {
            assert_eq!(
                svc.query(&[(0, wide)], &[(0, 5)]).unwrap_err(),
                ServeError::UnknownEdge { u: 0, v: wide },
                "{name}"
            );
        }
    }

    #[test]
    fn errors_name_the_offending_argument() {
        for svc in [torus_service(None), torus_service(Some(EdgeEncoding::Full))] {
            assert_eq!(
                svc.query(&[(0, 99)], &[(0, 1)]).unwrap_err(),
                ServeError::UnknownEdge { u: 0, v: 99 }
            );
            // Unknown faults error even when every pair is trivial.
            assert_eq!(
                svc.query(&[(0, 99)], &[(3, 3)]).unwrap_err(),
                ServeError::UnknownEdge { u: 0, v: 99 }
            );
            assert_eq!(
                svc.query(&[], &[(0, 99)]).unwrap_err(),
                ServeError::VertexOutOfRange { v: 99 }
            );
            // Trivial pairs answer before the budget check…
            assert_eq!(
                svc.query(&[(0, 1), (1, 2), (2, 3)], &[(5, 5)])
                    .unwrap()
                    .as_slice(),
                &[true]
            );
            // …but non-trivial pairs surface it.
            assert!(matches!(
                svc.query(&[(0, 1), (1, 2), (2, 3)], &[(0, 5)]),
                Err(ServeError::Query(QueryError::TooManyFaults { .. }))
            ));
            assert!(matches!(
                svc.with_session_ids(&[999], |_| ()),
                Err(ServeError::UnknownEdgeId { id: 999 })
            ));
        }
    }

    #[test]
    fn with_session_exposes_certificates_and_faults_by_id() {
        let svc = torus_service(Some(EdgeEncoding::Compact));
        // (0,1) has some edge ID; with_session_ids([0, 1]) prepares the
        // first two edges as faults.
        let connected = svc
            .with_session_ids(&[0, 1], |served| {
                assert!(served.vertex(0).unwrap().is_some());
                assert!(served.vertex(99).unwrap().is_none());
                served.certified(0, 7).unwrap().map(<[(u32, u32)]>::to_vec)
            })
            .unwrap();
        assert!(connected.is_some());
        let by_pairs = svc
            .with_session(&[(0, 1), (0, 4)], |served| served.connected(0, 7).unwrap())
            .unwrap();
        assert!(by_pairs);
    }

    #[test]
    fn trivial_answer_agrees_with_query_and_orders_before_validation() {
        for svc in [torus_service(None), torus_service(Some(EdgeEncoding::Full))] {
            // Same vertex / same component / out of range.
            assert_eq!(svc.trivial_answer(3, 3), Ok(Some(true)));
            assert_eq!(svc.trivial_answer(0, 7), Ok(None));
            assert_eq!(
                svc.trivial_answer(0, 99),
                Err(ServeError::VertexOutOfRange { v: 99 })
            );
            // Whenever it answers, the full query path must agree — and
            // it answers without any fault set at all, which is exactly
            // the trivial-before-validation ordering answer() uses.
            for s in 0..svc.n() {
                for t in 0..svc.n() {
                    if let Some(a) = svc.trivial_answer(s, t).unwrap() {
                        assert_eq!(svc.query(&[], &[(s, t)]).unwrap().get(0), Some(a));
                    }
                }
            }
        }
        // A disconnected graph exercises the Some(false) arm.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let scheme = FtcScheme::build(&g, &Params::deterministic(1)).unwrap();
        let svc = ConnectivityService::from_labels(scheme.into_labels());
        assert_eq!(svc.trivial_answer(0, 3), Ok(Some(false)));
    }

    #[test]
    fn empty_faults_and_empty_pairs_are_valid() {
        let svc = torus_service(None);
        let answers = svc.query(&[], &[(0, 7), (3, 3)]).unwrap();
        assert_eq!(answers.as_slice(), &[true, true]);
        assert!(answers.all_connected());
        let none = svc.query(&[(0, 1)], &[]).unwrap();
        assert!(none.is_empty());
    }
}
