//! Lepton's adaptive probability model (paper §3.2–§3.3, App. A.2).
//!
//! The core insight of the paper: PackJPG's global sort can be replaced
//! by *more model structure* — hundreds of thousands of statistic bins
//! indexed by local context — so that coding needs only the current
//! block and its already-coded neighbors, preserving streamability and
//! multithreading.
//!
//! Per 8x8 block the model codes, in order:
//!
//! 1. the number of non-zero interior ("7x7") coefficients, binned by a
//!    `log₁.₅₉` bucket of the neighbors' counts (App. A.2.1);
//! 2. the 49 interior coefficients in zigzag order, Exp-Golomb binarized,
//!    binned by coefficient index, the weighted neighbor average
//!    `(13·|A| + 13·|L| + 6·|AL|)/32`, and the remaining-nonzeros bucket;
//! 3. the 14 edge ("7x1"/"1x7") coefficients, predicted by the Lakhani
//!    DCT-domain continuity transform from the fully-known neighbor
//!    column/row plus the current interior (App. A.2.2);
//! 4. the DC coefficient last, as a delta from a gradient-continuation
//!    prediction computed from the block's own AC-only inverse DCT and
//!    the neighbors' border pixels, binned by prediction confidence
//!    (App. A.2.3).
//!
//! Every bin grid is a nested fixed-size array whose type is its shape
//! ([`bins`]): each index is checked against its own axis, as the paper
//! required after the reversed-index incident (§6.1).
//!
//! The decoder must repeat every bin choice of the encoder. Each model
//! here is therefore written once, generic over [`lepton_arith::Coder`]:
//! [`ComponentModel`]'s one block walk and [`coef_coder`]'s two value
//! coders take the value to encode (ignored when decoding) and return
//! the value coded, and the block walk patches each coefficient into
//! the ring slot as it codes it, so both directions read the same
//! contexts by construction.
//!
//! There is exactly one model. The container does not record which
//! model wrote it, so a model change is a format-version bump (§6.7);
//! the committed golden vectors pin this one.

pub mod bins;
pub mod coef_coder;
pub mod component;
pub mod context;

pub use component::ComponentModel;
pub use context::{BlockNeighbors, CodedBlock};
