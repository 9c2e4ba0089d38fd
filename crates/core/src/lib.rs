//! # ftc-core — deterministic fault-tolerant connectivity labeling
//!
//! A from-scratch implementation of *“Deterministic Fault-Tolerant
//! Connectivity Labeling Scheme”* (Izumi, Emek, Wadayama, Masuzawa,
//! PODC 2023): assign every vertex and edge of a graph a short label such
//! that s–t connectivity under any `≤ f` edge faults is decided **from the
//! labels of s, t, and the faulty edges alone**.
//!
//! The construction follows the paper's modular framework:
//!
//! * [`ancestry`] — Kannan–Naor–Rudich interval labels on the spanning
//!   forest (Lemma 7);
//! * [`auxgraph`] — the non-tree-edge subdivision reducing general faults
//!   to tree-edge faults (Section 3.2);
//! * [`hierarchy`] — (S_{f,T}, k)-good sparsification hierarchies: the
//!   deterministic ε-net constructions of Lemma 5 and the randomized
//!   halving of Appendix A;
//! * [`labels`] — Reed–Solomon syndrome outdetect vectors (Section 4.2)
//!   behind the XOR-mergeable [`OutdetectVector`] abstraction;
//! * [`fragments`] + [`session`] — the universal decoder with the refined
//!   heap-ordered fragment merging of Section 7.6 and the adaptive
//!   decoding of Appendix B, packaged as the reusable [`QuerySession`]
//!   oracle;
//! * [`scheme`] — the [`FtcScheme`] builder tying it all together;
//! * [`baseline`] — the Dory–Parter-style whp sketch scheme the paper
//!   compares against (Table 1, rows 1–2);
//! * [`serial`] — byte-level label serialization plus the zero-copy
//!   [`serial::VertexLabelView`] and [`serial::EdgeLabelView`]: the one
//!   edge reader of loose labels of either encoding and of both archive
//!   formats (loose labels demonstrate the decoder is genuinely
//!   graph-free);
//! * [`store`] — the single-blob label archive: [`store::write_v1`] is
//!   the one writer of the blob (owned labels, streaming builds,
//!   `ftc-dyn` commits and decompression all go through it), and
//!   [`store::LabelStore`] is the one owned handle that opens it
//!   without copying, serving O(1)/O(log m)
//!   zero-copy label views and archive-native [`QuerySession`]s;
//! * [`io`] — durable archive I/O: the [`io::AtomicFile`] writer
//!   (tempfile → fsync → rename → directory fsync) behind the
//!   [`io::Vfs`] trait, with a production filesystem and a seeded
//!   fault-injecting / power-cut simulation;
//! * [`compressed`] — the v2 sectioned container: entropy-coded archive
//!   sections ([`ftc_compress`] transforms + rANS), O(header) opening
//!   with per-section lazy checksum validation behind the
//!   [`compressed::CompressedStore`] handle, and the
//!   [`compressed::AnyArchive`] read surface (memory-mapped by
//!   [`compressed::open_path`]) written once over both formats.
//!
//! ## Quickstart
//!
//! ```
//! use ftc_core::{FtcScheme, Params};
//! use ftc_graph::Graph;
//!
//! let g = Graph::torus(4, 4);
//! let scheme = FtcScheme::builder(&g)
//!     .params(&Params::deterministic(3))
//!     .build()
//!     .unwrap();
//! let l = scheme.labels();
//!
//! // One session per fault set: validation, dedup, and fragment merging
//! // happen once, then every query is allocation-free.
//! let session = l.session([
//!     l.edge_label(0, 1).unwrap(),
//!     l.edge_label(0, 4).unwrap(),
//!     l.edge_label(0, 12).unwrap(),
//! ]).unwrap();
//! // A 4×4 torus is 4-edge-connected: three faults cannot disconnect it.
//! assert!(session.connected(l.vertex_label(0), l.vertex_label(10)).unwrap());
//! ```

pub mod ancestry;
pub mod auxgraph;
pub mod baseline;
pub mod compressed;
pub mod error;
pub mod fragments;
pub mod hierarchy;
pub mod io;
pub mod labels;
pub(crate) mod mmap;
pub(crate) mod par;
pub mod params;
pub mod scheme;
pub mod serial;
pub mod session;
pub mod store;

pub use compressed::{AnyArchive, CompressedStore, SectionInfo, SectionKind};
pub use error::{BuildError, QueryError};
pub use hierarchy::HierarchyBackend;
pub use io::{
    write_atomic, write_file_atomic, AtomicFile, DiskImage, FaultConfig, NoSyncVfs, SimVfs, StdVfs,
    Vfs, VfsFile,
};
pub use labels::{
    EdgeLabel, EdgeLabelRead, EndpointIndex, LabelHeader, LabelSet, OutdetectVector, RsDetector,
    RsVector, SizeReport, SlabDetect, VertexLabel, VertexLabelRead,
};
pub use params::{Params, ThresholdPolicy};
pub use scheme::{BuildDiagnostics, FtcScheme, SchemeBuilder};
pub use serial::{EdgeLabelView, SerialError, SerialErrorKind, VertexLabelView, VertexRecords};
pub use session::{Certificate, QuerySession, SessionScratch};
pub use store::{EdgeEncoding, LabelStore, StoreError, StoreOpenError};
