//! # ftc-serve — the concurrent serving layer
//!
//! The paper's labeling scheme is a *serving* artifact: labels are built
//! once and then answer arbitrary fault-set connectivity queries forever
//! after. `ftc-core` provides the fast single-threaded machinery
//! ([`ftc_core::QuerySession`], [`ftc_core::store::LabelStore`],
//! [`ftc_core::SessionScratch`]); this crate packages it for a process
//! that serves **many threads and many graphs through a single handle**:
//!
//! * [`ConnectivityService`] — `Send + Sync + Clone`; serves exactly one
//!   [`ftc_core::compressed::AnyArchive`] (v1 or v2), opened from raw
//!   archive bytes or a label store (both taken over without copying
//!   the blob), or from an archive file — an owned label set is archived
//!   on the way in.
//!   [`ConnectivityService::query`] answers a batch of pairs under a
//!   fault set, internally checking a [`ftc_core::SessionScratch`] out
//!   of a lock-free pool so concurrent callers keep the zero-allocation
//!   warm session-build path without managing scratches themselves.
//!   Every query runs one answer pass, [`ConnectivityService::answer`],
//!   over borrowed pairs, and every session is checked out as a
//!   [`PooledSession`] lease that several threads may answer from at
//!   once;
//! * [`ServiceRegistry`] — string graph IDs to services
//!   (insert / open-from-path / evict), the multi-tenant surface of one
//!   serving process.
//!
//! ```
//! use ftc_core::{FtcScheme, Params};
//! use ftc_graph::Graph;
//! use ftc_serve::{ConnectivityService, ServiceRegistry};
//!
//! let g = Graph::torus(4, 4);
//! let scheme = FtcScheme::build(&g, &Params::deterministic(3)).unwrap();
//! let registry = ServiceRegistry::new();
//! registry.insert("fabric", ConnectivityService::from_labels(scheme.into_labels()));
//!
//! // Any number of threads, one shared handle per graph.
//! let service = registry.get("fabric").unwrap();
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         let service = service.clone();
//!         s.spawn(move || {
//!             let answers = service.query(&[(0, 1), (0, 4)], &[(0, 10)]).unwrap();
//!             assert!(answers.all_connected());
//!         });
//!     }
//! });
//! ```

mod pool;
pub mod registry;
pub mod service;

pub use registry::{RegistryError, ServiceRegistry};
pub use service::{Answers, ConnectivityService, PooledSession, ServeError};
