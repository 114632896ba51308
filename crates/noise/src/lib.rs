//! Crosstalk characterization for YOUTIAO (§4.1 of the paper).
//!
//! The paper fits a crosstalk model from measurements on self-developed
//! Xmon chips: for every qubit pair it records XY crosstalk (spurious
//! excitation probability of a spectator while driving a target) and ZZ
//! crosstalk (frequency shift of a spectator), then fits crosstalk as a
//! function of the *equivalent distance* `d_equiv = w_phy·d_phy +
//! w_top·d_top` using a random-forest regressor and 5-fold cross-validation
//! over `(w_phy, w_top)`.
//!
//! We do not have the proprietary chip data, so [`data`] synthesizes
//! measurements with the same structure (exponential decay over a hidden
//! ground-truth distance blend, multiplicative measurement noise, and a
//! detection floor), and the rest of the pipeline is implemented exactly as
//! described: a from-scratch CART random forest ([`forest`]), k-fold
//! cross-validated weight search ([`fit`]), and the Jensen–Shannon
//! divergence used by Figure 12 to argue model generality ([`stats`]).
//!
//! # Example
//!
//! ```
//! use youtiao_chip::topology;
//! use youtiao_noise::data::{synthesize, CrosstalkKind, SynthConfig};
//! use youtiao_noise::fit::{fit_crosstalk_model, FitConfig};
//!
//! let chip = topology::square_grid(4, 4);
//! let samples = synthesize(&chip, CrosstalkKind::Xy, &SynthConfig::default(), 7);
//! let model = fit_crosstalk_model(&samples, &FitConfig::fast())?;
//! // Nearby pairs predict more crosstalk than distant ones.
//! assert!(model.predict(1.0, 1.0) > model.predict(4.0, 24.0));
//! # Ok::<(), youtiao_noise::fit::FitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod fit;
pub mod forest;
pub mod model;
#[cfg(test)]
mod oracle;
pub mod stats;
pub mod tree;
mod units;

pub use crate::data::{synthesize, CrosstalkKind, CrosstalkSample, SynthConfig};
pub use crate::fit::{characterize_xy, fit_crosstalk_model, FitConfig, FitError};
pub use crate::forest::{RandomForest, RandomForestConfig};
pub use crate::model::CrosstalkModel;
