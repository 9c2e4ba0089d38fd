//! Reed–Solomon syndrome machinery — the deterministic replacement for the
//! randomized graph-sketch of Ahn–Guha–McGregor (paper Section 4.2 / 7.4).
//!
//! The key observation of the paper: choose the edge-label function
//! `g : E → F^{2k}` to be the rows of the parity-check matrix
//! `C[e][j] = x_e^{j+1}` of a Reed–Solomon code over a characteristic-two
//! field `F`. Then for any vertex set `S`, the XOR of the labels of all
//! vertices in `S` equals the *syndrome* of the characteristic vector of the
//! outgoing-edge set `∂(S)` — and syndrome decoding recovers *all* outgoing
//! edges whenever `|∂(S)| ≤ k` (the code has minimum distance 2k). This
//! crate implements that pipeline:
//!
//! * [`ThresholdCodec`] — the k-threshold outdetect codec: per-edge parity
//!   rows, syndrome accumulation, and *verified* decoding;
//! * [`bm`] — Berlekamp–Massey over GF(2⁶⁴), producing the error-locator
//!   polynomial in O(k²);
//! * deterministic root finding is delegated to `ftc_field::find_roots_into`,
//!   which seeks the roots of the reversed (monic) locator inside the
//!   subspace the caller's edge IDs span;
//! * adaptive decoding (Appendix B): a `2k'`-prefix of a `2k`-syndrome *is*
//!   the RS(k′) syndrome (Proposition 6), so decode cost scales with the
//!   actual boundary size, not with the worst-case threshold.
//!
//! # Example
//!
//! ```
//! use ftc_codes::ThresholdCodec;
//! use ftc_field::Gf64;
//!
//! let codec = ThresholdCodec::new(4); // tolerates up to 4 outgoing edges
//! let ids = [Gf64::new(0xa1), Gf64::new(0xb2), Gf64::new(0xc3)];
//! let mut syndrome = codec.zero_syndrome();
//! for &id in &ids {
//!     codec.accumulate_edge(&mut syndrome, id);
//! }
//! let mut decoded = codec.decode(&syndrome).unwrap();
//! decoded.sort();
//! let mut want = ids.to_vec();
//! want.sort();
//! assert_eq!(decoded, want);
//! ```

pub mod bm;
pub mod codec;
pub mod compact;

pub use bm::{berlekamp_massey, berlekamp_massey_into, BmScratch};
pub use codec::{DecodeError, DecodeScratch, ThresholdCodec};
