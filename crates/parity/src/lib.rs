//! XOR parity computation and sparse parity encoding — the arithmetic
//! core of PRINS (Parity Replication in IP-Network Storages).
//!
//! PRINS replicates, for every block write, the parity
//!
//! ```text
//! P' = A_new ⊕ A_old          (forward parity, primary site)
//! ```
//!
//! instead of the block itself. The replica, which holds `A_old` after the
//! initial sync, recovers the data with
//!
//! ```text
//! A_new = P' ⊕ A_old          (backward parity, replica site)
//! ```
//!
//! Because real applications modify only 5–20 % of a block per write, `P'`
//! is mostly zero bytes; [`SparseCodec`] run-length-encodes the zeros so
//! that only the changed extents (plus tiny metadata) travel over the
//! network.
//!
//! This crate provides:
//!
//! * [`xor_into`] / [`xor_in_place`] / [`xor_bytes`] — word-at-a-time XOR
//!   kernels,
//! * [`forward_parity`] / [`apply_parity`] — the two PRINS computations,
//! * [`SparseCodec`] and [`SparseParity`] — the zero-suppressing encoding,
//! * [`DeltaStats`] — change-ratio measurement used throughout the
//!   evaluation.
//!
//! # Example
//!
//! ```
//! use prins_parity::{forward_parity, apply_parity, SparseCodec};
//!
//! # fn main() -> Result<(), prins_parity::CodecError> {
//! let old = vec![0u8; 4096];
//! let mut new = old.clone();
//! new[100..200].fill(0xaa); // application changes 100 bytes of the block
//!
//! let parity = forward_parity(&old, &new);
//! let encoded = SparseCodec::default().encode(&parity);
//! assert!(encoded.wire_size() < 200); // ~100 bytes payload + metadata
//!
//! // At the replica:
//! let decoded = SparseCodec::default().decode(&encoded.to_bytes(), old.len())?;
//! let recovered = apply_parity(&old, &decoded.to_dense(old.len()));
//! assert_eq!(recovered, new);
//! # Ok(())
//! # }
//! ```

mod codec;
mod delta;
mod erasure;
mod varint;
mod xor;

pub use codec::{CodecError, DeltaPlan, Segment, SparseCodec, SparseParity};
pub use delta::{apply_parity, apply_parity_in_place, forward_parity, DeltaStats};
pub use erasure::{EcError, ErasureCodec, XorCodec};
pub use varint::{decode_varint, encode_varint, varint_len};
pub use xor::{scan_mismatch, scan_nonzero, xor_bytes, xor_in_place, xor_into};
