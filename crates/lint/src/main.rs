//! CLI for fademl-lint.
//!
//! ```text
//! cargo run -p fademl-lint --release [-- --root DIR] [--json FILE] [--update-baseline]
//! ```
//!
//! Exit codes: `0` clean, `1` new findings beyond `lint.allow`,
//! `2` usage / IO / malformed-baseline error.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fademl_lint::baseline::Baseline;
use fademl_lint::{collect_findings_with_stats, render_stats, source};

const BASELINE_FILE: &str = "lint.allow";
const DEFAULT_JSON: &str = "results/lint.json";
const STATS_FILE: &str = "results/lint_stats.txt";

const BASELINE_HEADER: &str = "\
# fademl-lint allowlist — the panic/lock/invariant ratchet.
#
# One budget per line: <rule> <path> <count>   # justification
# Missing entries allow nothing. Counts may only go DOWN: lower them
# when sites are fixed (`--update-baseline` regenerates this file,
# keeping justifications). Never raise a budget without a justification
# reviewed in the same PR.
";

struct Options {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    update_baseline: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: None,
        update_baseline: false,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--json" => {
                let v = args.next().ok_or("--json needs a file path")?;
                opts.json = Some(PathBuf::from(v));
            }
            "--update-baseline" => opts.update_baseline = true,
            "--help" | "-h" => {
                return Err(
                    "usage: fademl-lint [--root DIR] [--json FILE] [--update-baseline]".to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`, so the tool runs correctly from any subdirectory.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn real_main() -> Result<bool, String> {
    let opts = parse_args()?;
    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory (try --root)")?
        }
    };

    let baseline_path = root.join(BASELINE_FILE);
    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("{}: {e}", baseline_path.display())),
    };

    let files = source::load_workspace(&root).map_err(|e| format!("workspace walk: {e}"))?;
    let started = std::time::Instant::now();
    let (findings, stats) = collect_findings_with_stats(&files);
    let total_micros = started.elapsed().as_micros();

    if opts.update_baseline {
        let text = baseline.regenerate(&findings, BASELINE_HEADER);
        fs::write(&baseline_path, text).map_err(|e| format!("write lint.allow: {e}"))?;
        println!(
            "fademl-lint: regenerated {} covering {} finding(s)",
            baseline_path.display(),
            findings.len()
        );
        return Ok(true);
    }

    let report = baseline.apply(findings, files.len());

    let json_path = root.join(opts.json.unwrap_or_else(|| PathBuf::from(DEFAULT_JSON)));
    if let Some(parent) = json_path.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
    }
    fs::write(&json_path, report.to_json()).map_err(|e| format!("write report: {e}"))?;

    // Per-pass wall-clock + finding volume. Timings are inherently
    // non-deterministic, so this file is emitted next to lint.json but
    // never freshness-checked.
    let stats_path = root.join(STATS_FILE);
    fs::write(&stats_path, render_stats(&stats, files.len(), total_micros))
        .map_err(|e| format!("write stats: {e}"))?;

    print!("{}", report.render());
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("fademl-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
