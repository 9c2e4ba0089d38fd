//! A multi-graph registry: string IDs to [`ConnectivityService`]s.
//!
//! One serving process usually fronts more than one graph (tenants,
//! regions, topology snapshots). [`ServiceRegistry`] maps string IDs to
//! services behind one `RwLock`: lookups clone the service *handle*
//! (`Arc` bump — the labels themselves are never copied) and drop the
//! lock before any query runs, so a long-running query never blocks
//! registration, and eviction never invalidates in-flight queries —
//! holders of the evicted handle keep answering until they drop it.

use crate::service::ConnectivityService;
use ftc_core::SerialError;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Process-wide monotonic generation counter. Generations are unique
/// across all registries and all IDs, so a generation observed before a
/// swap can never compare equal to one observed after it.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug, Clone)]
struct Entry {
    service: ConnectivityService,
    generation: u64,
}

/// Errors raised while opening an archive into a registry.
#[derive(Debug)]
pub enum RegistryError {
    /// The archive file could not be read.
    Io {
        /// The offending path.
        path: String,
        /// The underlying I/O error.
        err: std::io::Error,
    },
    /// The file's bytes are not a well-formed label archive.
    Archive(SerialError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, err } => write!(f, "cannot read archive {path}: {err}"),
            RegistryError::Archive(e) => write!(f, "malformed archive: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<SerialError> for RegistryError {
    fn from(e: SerialError) -> RegistryError {
        RegistryError::Archive(e)
    }
}

/// A thread-safe map from graph IDs to [`ConnectivityService`]s.
///
/// # Example
///
/// ```
/// use ftc_core::{FtcScheme, Params};
/// use ftc_graph::Graph;
/// use ftc_serve::{ConnectivityService, ServiceRegistry};
///
/// let registry = ServiceRegistry::new();
/// let scheme = FtcScheme::build(&Graph::cycle(6), &Params::deterministic(2)).unwrap();
/// registry.insert("prod/eu", ConnectivityService::from_labels(scheme.into_labels()));
///
/// let svc = registry.get("prod/eu").unwrap();
/// assert!(svc.query(&[(0, 1)], &[(0, 3)]).unwrap().all_connected());
/// assert!(registry.evict("prod/eu").is_some());
/// assert!(registry.get("prod/eu").is_none());
/// // The evicted handle keeps serving for whoever still holds it.
/// assert_eq!(svc.n(), 6);
/// ```
#[derive(Debug, Default)]
pub struct ServiceRegistry {
    services: RwLock<HashMap<String, Entry>>,
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new() -> ServiceRegistry {
        ServiceRegistry::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Entry>> {
        // Queries never run under the lock, so a poisoned lock only means
        // a panic between guard acquisition and drop in this module —
        // the map itself is always in a consistent state.
        self.services.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Entry>> {
        self.services.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a service under `id`, returning the service previously
    /// registered there (whose existing handles keep working).
    pub fn insert(
        &self,
        id: impl Into<String>,
        service: ConnectivityService,
    ) -> Option<ConnectivityService> {
        let entry = Entry {
            service,
            generation: next_generation(),
        };
        self.write().insert(id.into(), entry).map(|e| e.service)
    }

    /// Atomically replaces (or first-registers) the service under `id`
    /// and returns the new entry's generation — the blue/green swap
    /// primitive. Lookups racing the swap observe either the old or the
    /// new service, never an absent entry, and handles cloned out before
    /// the swap keep serving until dropped, so a live graph is replaced
    /// with zero query downtime.
    pub fn swap(&self, id: impl Into<String>, service: ConnectivityService) -> u64 {
        let entry = Entry {
            service,
            generation: next_generation(),
        };
        let generation = entry.generation;
        self.write().insert(id.into(), entry);
        generation
    }

    /// The generation of the entry currently registered under `id`.
    /// Generations are process-wide monotonic: a successful [`swap`]
    /// strictly increases the value observed here.
    ///
    /// [`swap`]: ServiceRegistry::swap
    pub fn generation(&self, id: &str) -> Option<u64> {
        self.read().get(id).map(|e| e.generation)
    }

    /// Opens a label archive of either format from `path` — v1 blobs
    /// and v2 compressed containers alike, memory-mapped where the
    /// platform allows — wraps it in a service, and registers it under
    /// `id` (replacing any previous registration). Returns a handle to
    /// the new service.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] on read failures, [`RegistryError::Archive`]
    /// if the bytes fit neither archive format. The registry is
    /// unchanged on error.
    pub fn open_path(
        &self,
        id: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<ConnectivityService, RegistryError> {
        let path = path.as_ref();
        let service = ConnectivityService::open_path(path).map_err(|e| match e {
            ftc_core::StoreOpenError::Io(err) => RegistryError::Io {
                path: path.display().to_string(),
                err,
            },
            ftc_core::StoreOpenError::Malformed(e) => RegistryError::Archive(e),
        })?;
        self.insert(id, service.clone());
        Ok(service)
    }

    /// The service registered under `id`, as a cloned handle (an `Arc`
    /// bump; the lock is released before the handle is used).
    pub fn get(&self, id: &str) -> Option<ConnectivityService> {
        self.read().get(id).map(|e| e.service.clone())
    }

    /// Unregisters `id`, returning its service. In-flight queries on
    /// existing handles are unaffected.
    pub fn evict(&self, id: &str) -> Option<ConnectivityService> {
        self.write().remove(id).map(|e| e.service)
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: &str) -> bool {
        self.read().contains_key(id)
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// The registered IDs, sorted.
    pub fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.read().keys().cloned().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftc_core::compressed::AnyArchive;
    use ftc_core::store::{EdgeEncoding, LabelStore};
    use ftc_core::{FtcScheme, Params};
    use ftc_graph::Graph;

    fn service(n: usize) -> ConnectivityService {
        let scheme = FtcScheme::build(&Graph::cycle(n), &Params::deterministic(1)).unwrap();
        ConnectivityService::from_labels(scheme.into_labels())
    }

    #[test]
    fn insert_get_evict_round_trip() {
        let reg = ServiceRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.insert("a", service(5)).is_none());
        assert!(reg.insert("b", service(6)).is_none());
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.ids(), vec!["a".to_string(), "b".to_string()]);
        assert!(reg.contains("a"));
        assert_eq!(reg.get("a").unwrap().n(), 5);
        assert!(reg.get("zzz").is_none());
        // Replacement returns the old service.
        let old = reg.insert("a", service(7)).unwrap();
        assert_eq!(old.n(), 5);
        assert_eq!(reg.get("a").unwrap().n(), 7);
        // Eviction removes the entry but not in-flight handles.
        let handle = reg.get("b").unwrap();
        assert!(reg.evict("b").is_some());
        assert!(reg.evict("b").is_none());
        assert!(handle.query(&[], &[(0, 3)]).unwrap().all_connected());
    }

    #[test]
    fn swap_is_atomic_and_generations_are_monotonic() {
        let reg = ServiceRegistry::new();
        assert!(reg.generation("g").is_none());

        let g1 = reg.swap("g", service(5));
        assert_eq!(reg.generation("g"), Some(g1));
        assert_eq!(reg.get("g").unwrap().n(), 5);

        // A handle taken before the swap keeps serving the old graph;
        // the registry serves the new one under a strictly newer
        // generation.
        let old = reg.get("g").unwrap();
        let g2 = reg.swap("g", service(9));
        assert!(g2 > g1);
        assert_eq!(reg.generation("g"), Some(g2));
        assert_eq!(old.n(), 5);
        assert_eq!(reg.get("g").unwrap().n(), 9);
        assert!(old.query(&[], &[(0, 3)]).unwrap().all_connected());

        // insert() also advances the generation.
        reg.insert("g", service(6));
        let g3 = reg.generation("g").unwrap();
        assert!(g3 > g2);

        // Generations are unique across IDs too.
        let other = reg.swap("h", service(4));
        assert!(other > g3);
    }

    #[test]
    fn open_path_builds_archive_backed_services() {
        let scheme = FtcScheme::build(&Graph::cycle(8), &Params::deterministic(2)).unwrap();
        let dir = std::env::temp_dir().join(format!("ftc_registry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle8.ftc");
        std::fs::write(
            &path,
            LabelStore::to_vec(scheme.labels(), EdgeEncoding::Compact),
        )
        .unwrap();

        let reg = ServiceRegistry::new();
        let svc = reg.open_path("cycle8", &path).unwrap();
        assert_eq!(svc.archive().encoding(), EdgeEncoding::Compact);
        assert!(matches!(svc.archive(), AnyArchive::V1(_)));
        assert!(reg.contains("cycle8"));
        assert!(svc.query(&[(0, 1)], &[(0, 4)]).unwrap().all_connected());

        // A v2 compressed archive opens transparently too.
        let v2_path = dir.join("cycle8.ftcz");
        let blob = std::fs::read(&path).unwrap();
        let v1 = ftc_core::store::LabelStore::open(blob).unwrap();
        std::fs::write(
            &v2_path,
            ftc_core::compressed::compress_archive(&v1).as_bytes(),
        )
        .unwrap();
        let zsvc = reg.open_path("cycle8z", &v2_path).unwrap();
        assert!(matches!(zsvc.archive(), AnyArchive::V2(_)));
        assert_eq!(
            zsvc.query(&[(0, 1)], &[(0, 4)]).unwrap(),
            svc.query(&[(0, 1)], &[(0, 4)]).unwrap()
        );

        // Errors leave the registry unchanged.
        assert!(matches!(
            reg.open_path("missing", dir.join("nope.ftc")),
            Err(RegistryError::Io { .. })
        ));
        assert!(!reg.contains("missing"));
        std::fs::write(dir.join("bad.ftc"), b"not an archive").unwrap();
        assert!(matches!(
            reg.open_path("bad", dir.join("bad.ftc")),
            Err(RegistryError::Archive(_))
        ));
        assert!(!reg.contains("bad"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
