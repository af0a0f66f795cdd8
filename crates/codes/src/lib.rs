#![warn(missing_docs)]

//! The binary codes of "Optimal Message-Passing with Noisy Beeps"
//! (Davies, PODC 2023), Section 2.
//!
//! Three constructions from the paper, plus the classical baseline it
//! improves on:
//!
//! * [`BeepCode`] — the paper's novel `(a, k, δ)`-beep code (Definition 3,
//!   Theorem 4): a constant-weight code of length `b = c²·k·a` in which the
//!   superimposition (bitwise OR) of `k` *randomly chosen* codewords is, with
//!   probability `≥ 1 − 2⁻²ᵃ`, far (in intersection count) from every other
//!   codeword. This relaxation of classical superimposed codes is what cuts
//!   the length from `Θ(k²a)` to `Θ(ka)` and hence the simulation overhead
//!   from `Θ(Δ² log n)` to `Θ(Δ log n)`.
//! * [`DistanceCode`] — an `(a, δ)`-distance code (Definition 5, Lemma 6):
//!   a random binary code with pairwise Hamming distance `≥ δb` at length
//!   `b = c_δ·a`.
//! * [`CombinedCode`] — the combined code `CD(r, m)` (Notation 7, Figure 1):
//!   the distance codeword `D(m)` written into the 1-positions of the beep
//!   codeword `C(r)`.
//! * [`KautzSingleton`] — the classical Reed–Solomon-based `(a, k)`-
//!   superimposed code (Kautz & Singleton 1964), the paper's Section 1.4
//!   baseline, with length `Θ(q²)` for a field size `q = Θ(k·a/log a)`.
//!
//! # Determinism and the shared-code assumption
//!
//! The paper fixes one public code `C` (it exists by the probabilistic
//! method) that every node knows. We realize this by making each code a
//! *deterministic function* of `(parameters, seed)`: codewords are derived
//! lazily from the input string through a splittable PRF, so two nodes
//! constructing a code with the same seed agree on every codeword without
//! ever materializing the (exponentially large) codebook.
//!
//! # Example
//!
//! ```
//! use beep_bits::BitVec;
//! use beep_codes::{BeepCode, BeepCodeParams};
//!
//! let params = BeepCodeParams::new(8, 4, 3).unwrap(); // a=8, k=4, c=3
//! let code = BeepCode::with_seed(params, 42);
//! let r = BitVec::from_u64_lsb(0b1011_0010, 8);
//! let cw = code.encode(&r);
//! assert_eq!(cw.len(), params.length());        // b = c²ka = 288
//! assert_eq!(cw.count_ones(), params.weight()); // δb/k = ca = 24
//! ```

mod beep_code;
mod combined;
mod decode;
mod distance_code;
mod error;
mod gf;
mod prf;
mod superimposed;
pub mod verify;

pub use beep_code::{BeepCode, BeepCodeParams};
pub use combined::CombinedCode;
pub use decode::{DecodedMessage, MessageCodebook, MessageDecoder, SetDecoder};
pub use distance_code::{DistanceCode, DistanceCodeParams};
pub use error::CodeError;
pub use gf::PrimeField;
pub use superimposed::{KautzSingleton, KautzSingletonParams};
