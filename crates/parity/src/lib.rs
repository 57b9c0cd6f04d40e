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
//! * [`xor_in_place`] / [`xor_bytes`] — wide XOR kernels,
//! * [`forward_parity`] — the primary's half of the PRINS computation
//!   (the replica's half is [`SparseParity::apply_to`]),
//! * [`SparseCodec`] and [`SparseParity`] — the zero-suppressing encoding;
//!   a `SparseParity` *is* its validated wire stream, whether it was
//!   planned from two images ([`DeltaPlan::to_parity`]), encoded from a
//!   dense block or checked in place in a received frame,
//! * [`DeltaStats`] — change-ratio measurement used throughout the
//!   evaluation; it and the codec scan a parity a word at a time, the
//!   codec through one extent finder whether the parity is dense or
//!   `old ⊕ new` read off the two images,
//! * [`gf`] and [`ReedSolomon`] — GF(256) arithmetic and the systematic
//!   Cauchy Reed–Solomon code of erasure-coded groups. A small write's
//!   delta `Δd` updates parity strip `i` by `Δp_i = c_i · Δd`
//!   ([`gf::mul_xor_slice`]); PRINS mirroring is the coefficient-1 case.
//!
//! # Example
//!
//! ```
//! use prins_parity::SparseCodec;
//!
//! # fn main() -> Result<(), prins_parity::CodecError> {
//! let old = vec![0u8; 4096];
//! let mut new = old.clone();
//! new[100..200].fill(0xaa); // application changes 100 bytes of the block
//!
//! // One scan of the two images, straight to the sparse stream.
//! let parity = SparseCodec::default().plan_delta(&old, &new).to_parity();
//! let wire = parity.as_bytes(); // what is sent, and what a log keeps
//! assert!(wire.len() < 200); // ~100 bytes payload + metadata
//!
//! // At the replica: check the stream where it arrived, then walk it.
//! let received = SparseCodec::default().decode(wire, old.len())?;
//! let mut block = old.clone();
//! received.apply_to(&mut block);
//! assert_eq!(block, new);
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod codec;
mod delta;
pub mod gf;
mod rs;
mod varint;
mod xor;

pub use codec::{CodecError, DeltaPlan, SparseCodec, SparseParity};
pub use delta::{forward_parity, DeltaStats};
pub use gf::MulTable;
pub use rs::{EcError, ReedSolomon};
pub use varint::{decode_varint, encode_varint, varint_len};
pub use xor::{xor_bytes, xor_in_place};
