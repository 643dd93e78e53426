//! **FAdeML** — a full reproduction of *"FAdeML: Understanding the
//! Impact of Pre-Processing Noise Filtering on Adversarial Machine
//! Learning"* (Khalid et al., DATE 2019) in pure Rust.
//!
//! The paper studies a camera → pre-processing-noise-filter → buffer →
//! DNN inference pipeline and shows (1) that classical gradient attacks
//! (L-BFGS, FGSM, BIM) are neutralized by LAP/LAR smoothing filters
//! under realistic threat models, and (2) that an attacker who models
//! the filter inside the optimization loop — the FAdeML attack —
//! defeats that defense.
//!
//! This crate ties the substrate crates together:
//!
//! | Piece | Where |
//! |-------|-------|
//! | Threat models I/II/III (paper Fig. 2) | [`ThreatModel`] |
//! | The deployed pipeline (filter ∘ DNN) | [`InferencePipeline`] |
//! | The five misclassification scenarios | [`Scenario`] |
//! | The Eq. 2 top-5 cost function | [`cost`] |
//! | Victim training & caching | [`setup`] |
//! | The §III analysis methodology | [`analysis`] |
//! | Figure-by-figure experiment runners | [`experiments`] |
//!
//! # Quickstart
//!
//! ```no_run
//! use fademl::setup::{ExperimentSetup, SetupProfile};
//! use fademl::{InferencePipeline, Scenario, ThreatModel};
//! use fademl_attacks::{Attack, AttackGoal, AttackSurface, Fgsm};
//! use fademl_filters::FilterSpec;
//!
//! # fn main() -> Result<(), fademl::FademlError> {
//! // Train (or load) a victim model on SynSign-43.
//! let prepared = ExperimentSetup::profile(SetupProfile::Smoke).prepare()?;
//!
//! // Build the deployed pipeline with a LAP(32) pre-processing filter.
//! let pipeline = InferencePipeline::new(
//!     prepared.model.clone(),
//!     FilterSpec::Lap { np: 32 },
//! )?;
//!
//! // Craft a stop-sign → 60 km/h attack against the bare DNN…
//! let scenario = &Scenario::paper_scenarios()[0];
//! let stop = prepared.test.first_of_class(scenario.source)?;
//! let mut surface = AttackSurface::new(prepared.model.clone());
//! let adv = Fgsm::new(0.06)?.run(&mut surface, &stop, scenario.goal())?;
//!
//! // …and observe that the filter neutralizes it under Threat Model II.
//! let verdict = pipeline.classify(&adv.adversarial, ThreatModel::II)?;
//! println!("through the filter the sign reads as class {}", verdict.class);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod analysis;
pub mod cost;
pub mod defense;
mod error;
pub mod experiments;
pub mod insights;
mod pipeline;
pub mod report;
mod scenario;
pub mod setup;
mod threat;

pub use error::FademlError;
/// Training checkpoint/resume subsystem (re-exported from
/// [`fademl_nn`]): versioned on-disk snapshots with CRC integrity
/// trailers, retained generations and newest-intact recovery.
pub use fademl_nn::checkpoint;
/// Weight artifact codec (re-exported from [`fademl_nn`]): the
/// `FADEMLW2` CRC-trailed binary format used for victim caching and
/// zero-downtime weight swaps in the serving layer.
pub use fademl_nn::serialize;
pub use pipeline::{Detection, InferencePipeline, Verdict};
pub use scenario::Scenario;
pub use threat::ThreatModel;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, FademlError>;
