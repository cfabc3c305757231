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
//! All bin lookups go through bounds-checked [`bins::BinGrid`] indices —
//! the paper adopted exactly this abstraction after the reversed-index
//! incident (§6.1).
//!
//! [`config::ModelConfig`] exposes the paper's ablations (averaged-vs-
//! Lakhani edges, PackJPG-style vs gradient DC, raster-vs-zigzag order)
//! for the §4.3 experiments.

pub mod bins;
pub mod coef_coder;
pub mod component;
pub mod config;
pub mod context;

pub use component::ComponentModel;
pub use config::{DcMode, EdgeMode, ModelConfig};
pub use context::{BlockNeighbors, CodedBlock};
