//! GF(256) arithmetic and systematic Reed–Solomon erasure coding.
//!
//! This crate generalizes PRINS's XOR delta algebra to k-of-n striped
//! redundancy: a group of `k + m` nodes stores `n/k` × the logical
//! bytes (instead of `n` × for mirrors) and still survives any `m`
//! node losses. The pieces:
//!
//! * [`gf`] — the field: compile-time log/exp tables, [`gf::mul`], and
//!   the [`MulTable`]-driven [`gf::mul_xor_slice`] strip kernel,
//! * [`ReedSolomon`] — a systematic Cauchy Reed–Solomon codec behind
//!   `prins_parity`'s [`ErasureCodec`](prins_parity::ErasureCodec)
//!   trait, whose repair plan rebuilds a lost strip from exactly `k`
//!   survivors.
//!
//! The PRINS trick carries over unchanged because the code is linear:
//! a small write's delta `Δd = new ⊕ old` updates parity strip `i` by
//! `Δp_i = c_i · Δd`, and `c · 0 = 0` keeps sparse deltas sparse on
//! the wire.
//!
//! # Example
//!
//! ```
//! use prins_ec::ReedSolomon;
//! use prins_parity::ErasureCodec;
//!
//! let rs = ReedSolomon::k4m2();
//! let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 64]).collect();
//! let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
//! let parity = rs.encode(&refs).unwrap();
//!
//! // Lose any two strips; the other four reconstruct them.
//! let mut strips: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
//! strips.extend(parity.into_iter().map(Some));
//! strips[1] = None;
//! strips[5] = None;
//! rs.reconstruct(&mut strips).unwrap();
//! assert_eq!(strips[1].as_deref(), Some(&data[1][..]));
//! ```

#![warn(unreachable_pub)]

pub mod gf;
mod rs;

pub use gf::MulTable;
pub use rs::ReedSolomon;
