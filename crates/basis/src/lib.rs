//! # bemcap-basis — instantiable basis functions (§2.2)
//!
//! The paper's compact solution representation. Instead of thousands of
//! piecewise-constant panels, the charge distribution is expanded in a
//! small set of basis functions built from two template shapes extracted
//! from elementary problems (Fig. 2):
//!
//! * **flat templates** — constant 1 over a rectangle;
//! * **arch templates** — a 1-D bump profile A_p(u) whose parameters
//!   (width, extension length) depend on the wire separation h.
//!
//! The full set is *face basis functions* (one flat template per conductor
//! face segment) plus *induced basis functions* placed automatically in the
//! neighborhood of wire crossings ([`instantiate`]). A basis function may
//! own several templates; the assembly works on the template-level matrix
//! P̃ ∈ R^{M×M} and condenses it into the basis-level P ∈ R^{N×N}
//! ([`condense`], Fig. 3).
//!
//! [`calibrate`] extracts the arch parameters from fine piecewise-constant
//! solutions of the elementary crossing problem — the Fig. 2 machinery.
//!
//! ```
//! use bemcap_geom::structures::{self, CrossingParams};
//! use bemcap_basis::instantiate::{instantiate, InstantiateConfig};
//!
//! let geo = structures::crossing_wires(CrossingParams::default());
//! let set = instantiate(&geo, &InstantiateConfig::default())?;
//! // Face basis functions plus induced ones around the single crossing.
//! assert!(set.basis_count() > 12);
//! assert!(set.template_count() >= set.basis_count());
//! # Ok::<(), bemcap_basis::BasisError>(())
//! ```

pub mod arch;
pub mod basisfn;
pub mod calibrate;
pub mod condense;
pub mod error;
pub mod instantiate;
/// Templates and [`PairKey`], kept in `bemcap-quad` below the FMM and pFFT
/// near fields, which share them.
pub use bemcap_quad::template;

pub use arch::{ArchLaws, ArchShape};
pub use basisfn::{BasisFunction, BasisSet};
pub use condense::{accumulate_entry, pair_integrals_metric, PairPlan, TemplateIndex};
pub use error::BasisError;
pub use template::{
    pair_integral, template_moment, PairKey, Template, TemplateKey, TemplateKind, PAIR_KEY_WORDS,
};
