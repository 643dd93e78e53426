//! SynSign-43: a procedural 43-class traffic-sign dataset.
//!
//! The paper evaluates on the German Traffic Sign Recognition Benchmark
//! (GTSRB, 43 classes, 39,209 training samples). GTSRB itself cannot be
//! fetched in this offline environment, so this crate generates a
//! synthetic stand-in that preserves the three properties the FAdeML
//! experiments actually exercise (see `DESIGN.md` §4):
//!
//! 1. **43 discriminable classes** following GTSRB's label semantics —
//!    class 14 *is* the stop sign, class 3 *is* the 60 km/h limit, etc.,
//!    so the paper's misclassification scenarios transfer verbatim.
//! 2. **Spatial, mid-frequency class features** (sign shape, ring colour,
//!    digit/arrow/pictogram glyphs) that heavy smoothing degrades —
//!    producing the paper's accuracy-vs-filter-strength hump.
//! 3. **High-frequency sensor noise** (Gaussian + salt-and-pepper) on
//!    every acquired image, which mild smoothing removes — producing the
//!    rising flank of the same hump.
//!
//! Everything is deterministic from a `u64` seed.
//!
//! # Example
//!
//! ```
//! use fademl_data::{ClassId, DatasetConfig, SignDataset};
//!
//! # fn main() -> Result<(), fademl_data::DataError> {
//! let config = DatasetConfig { samples_per_class: 2, image_size: 32, ..DatasetConfig::default() };
//! let dataset = SignDataset::generate(&config)?;
//! assert_eq!(dataset.len(), 2 * 43);
//! assert_eq!(dataset.images().dims(), &[86, 3, 32, 32]);
//! let stop = ClassId::STOP;
//! assert_eq!(stop.info().name, "stop");
//! # Ok(())
//! # }
//! ```

mod canvas;
mod classes;
mod error;
mod generator;
mod glyphs;
mod noise;
mod persist;
mod ppm;
mod stream;
mod templates;

pub use canvas::{Canvas, Rgb};
pub use classes::{ClassId, ClassInfo, Glyph, SignShape, CLASSES, CLASS_COUNT};
pub use error::DataError;
pub use generator::{DatasetConfig, SignDataset, TrainTestSplit};
pub use noise::{box_blur3, NoiseModel};
pub use persist::{load_dataset, load_dataset_from_path, save_dataset, save_dataset_to_path};
pub use ppm::{from_ppm, save_ppm, to_ppm};
pub use stream::{DriftSpec, FrameStream, StreamConfig};
pub use templates::{render_sign, RenderJitter};

/// Convenient result alias for fallible dataset operations.
pub type Result<T> = std::result::Result<T, DataError>;
