//! Shared plumbing for the FAdeML benchmark harness and the
//! figure-regeneration binaries.
//!
//! Every binary accepts the same environment knobs so runs can be
//! scaled without recompiling:
//!
//! | Variable | Meaning | Default |
//! |----------|---------|---------|
//! | `FADEML_PROFILE` | `smoke` / `standard` / `full` victim size | `standard` |
//! | `FADEML_EVAL_N` | test images per accuracy measurement | experiment-specific |
//! | `FADEML_CSV` | `1` = sweep binaries emit CSV instead of text | off |

use fademl::experiments::AttackParams;
use fademl::setup::{ExperimentSetup, PreparedSetup, SetupProfile};

/// Reads the victim profile from `FADEML_PROFILE`.
pub fn profile_from_env() -> SetupProfile {
    match std::env::var("FADEML_PROFILE").as_deref() {
        Ok("smoke") => SetupProfile::Smoke,
        Ok("full") => SetupProfile::Full,
        _ => SetupProfile::Standard,
    }
}

/// `true` when `FADEML_CSV=1` — sweep binaries then print CSV (via
/// [`Table::to_csv`](fademl::report::Table::to_csv)) instead of aligned
/// text, for downstream plotting.
pub fn csv_from_env() -> bool {
    std::env::var("FADEML_CSV").as_deref() == Ok("1")
}

/// Prints a table as aligned text, or CSV when `FADEML_CSV=1`.
pub fn print_table(table: &fademl::report::Table) {
    if csv_from_env() {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
}

/// Reads an evaluation-subset size from `FADEML_EVAL_N`, with a default.
pub fn eval_n_from_env(default: usize) -> usize {
    std::env::var("FADEML_EVAL_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Announces the compute-thread pool the tensor kernels will use and
/// returns the count. Figure binaries call this first so every run's
/// log records how the kernels executed; the results themselves never
/// depend on it (the pool is bit-exact across thread counts).
pub fn announce_compute_pool() -> usize {
    let threads = fademl_tensor::par::threads();
    eprintln!(
        "[fademl] compute pool: {threads} thread(s) \
         (override with FADEML_THREADS; kernels are bit-exact across counts)"
    );
    threads
}

/// Prepares (or loads from cache) the victim for the selected profile,
/// printing a short banner.
///
/// # Panics
///
/// Panics with a readable message if setup fails — these are top-level
/// experiment binaries, not library code.
pub fn prepare_victim() -> PreparedSetup {
    let profile = profile_from_env();
    eprintln!("[fademl] preparing victim (profile {profile:?})…");
    let prepared = ExperimentSetup::profile(profile)
        .prepare()
        .expect("victim setup failed");
    eprintln!(
        "[fademl] victim ready: train accuracy {:.1}%, {} params{}",
        prepared.train_accuracy * 100.0,
        prepared.model.param_count(),
        if prepared.from_cache { " (cached)" } else { "" },
    );
    prepared
}

/// The attack hyper-parameters used by all figure binaries.
pub fn default_params() -> AttackParams {
    AttackParams::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        // Without env vars set, the defaults apply.
        std::env::remove_var("FADEML_PROFILE");
        std::env::remove_var("FADEML_EVAL_N");
        assert_eq!(profile_from_env(), SetupProfile::Standard);
        assert_eq!(eval_n_from_env(42), 42);
    }
}
