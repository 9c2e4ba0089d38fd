//! Finite-field algebra for the fault-tolerant connectivity labeling schemes.
//!
//! The deterministic outdetect labeling of the paper (Section 4.2) interprets
//! the XOR of vertex labels as a *syndrome* of a Reed–Solomon parity-check
//! matrix over a finite field of characteristic two. This crate provides that
//! field — [`Gf64`], the field GF(2⁶⁴) of order 2⁶⁴ — together with dense
//! polynomial algebra ([`poly::Poly`]) and deterministic root finding
//! ([`roots::find_roots_into`], which splits with the coordinate maps of a
//! bit-spanned [`Subspace`]) used by the syndrome decoder.
//!
//! Everything here is written from scratch on `std`; no external dependencies.
//!
//! # Example
//!
//! ```
//! use ftc_field::Gf64;
//!
//! let a = Gf64::new(0x1234_5678_9abc_def0);
//! let b = Gf64::new(0x0fed_cba9_8765_4321);
//! // Field axioms: (a * b) / b == a for non-zero b.
//! assert_eq!((a * b) * b.inverse().unwrap(), a);
//! // Characteristic two: x + x == 0.
//! assert_eq!(a + a, Gf64::ZERO);
//! ```

pub mod gf64;
pub mod poly;
pub mod roots;

pub use gf64::Gf64;
pub use poly::Poly;
pub use roots::{find_roots, find_roots_into, RootScratch, Subspace};
