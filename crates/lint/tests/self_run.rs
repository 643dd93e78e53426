//! The tool eating its own dog food: the live workspace must be clean
//! against the checked-in `lint.allow`, and the committed
//! `results/lint.json` must match what the current sources produce.

use std::fs;
use std::path::PathBuf;

use fademl_lint::baseline::Baseline;
use fademl_lint::{collect_findings, source};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn live_workspace_is_clean_against_baseline() {
    let root = workspace_root();
    let baseline_text = fs::read_to_string(root.join("lint.allow")).expect("lint.allow exists");
    let baseline = Baseline::parse(&baseline_text).expect("lint.allow parses");
    let report = fademl_lint::run(&root, &baseline).expect("workspace scan succeeds");
    assert!(
        report.is_clean(),
        "lint gate broken — new findings beyond lint.allow:\n{}",
        report.render()
    );
    assert!(report.files_scanned > 50, "workspace walk looks truncated");
}

#[test]
fn baseline_has_no_slack() {
    // The ratchet stays tight: every budgeted count matches reality, so
    // fixing a site forces the budget down in the same change.
    let root = workspace_root();
    let baseline_text = fs::read_to_string(root.join("lint.allow")).expect("lint.allow exists");
    let baseline = Baseline::parse(&baseline_text).expect("lint.allow parses");
    let report = fademl_lint::run(&root, &baseline).expect("workspace scan succeeds");
    assert!(
        report.ratchet_slack.is_empty(),
        "lint.allow budgets exceed current findings — tighten them:\n{}",
        report.render()
    );
}

#[test]
fn committed_report_matches_current_sources() {
    let root = workspace_root();
    let baseline_text = fs::read_to_string(root.join("lint.allow")).expect("lint.allow exists");
    let baseline = Baseline::parse(&baseline_text).expect("lint.allow parses");
    let report = fademl_lint::run(&root, &baseline).expect("workspace scan succeeds");
    let committed =
        fs::read_to_string(root.join("results/lint.json")).expect("results/lint.json committed");
    assert_eq!(
        committed.trim(),
        report.to_json().trim(),
        "results/lint.json is stale — rerun `cargo run -p fademl-lint`"
    );
}

#[test]
fn seeded_std_mutex_in_serve_fails_the_gate() {
    // End-to-end proof of the acceptance criterion: a deliberate
    // `std::sync::Mutex` added to crates/serve makes the gate fail.
    let root = workspace_root();
    let baseline_text = fs::read_to_string(root.join("lint.allow")).expect("lint.allow exists");
    let baseline = Baseline::parse(&baseline_text).expect("lint.allow parses");
    let mut files = source::load_workspace(&root).expect("workspace scan succeeds");
    files.push(source::SourceFile::from_source(
        "crates/serve/src/injected.rs",
        "use std::sync::Mutex;\npub fn sneaky(m: &Mutex<u32>) -> u32 {\n    *m.lock().unwrap()\n}\n",
    ));
    let count = files.len();
    let report = baseline.apply(collect_findings(&files), count);
    assert!(!report.is_clean());
    assert!(report
        .new_finding_details
        .iter()
        .any(|f| f.rule == "std-sync-lock" && f.path == "crates/serve/src/injected.rs"));
    // The hidden unwrap in the injected file is caught too.
    assert!(report
        .new_finding_details
        .iter()
        .any(|f| f.rule == "unwrap" && f.path == "crates/serve/src/injected.rs"));
}

/// Injects one extra source file into the real workspace scan and
/// returns the post-baseline report — the seeded-violation harness for
/// the dataflow passes. Each seeded file must break the gate with a
/// new finding for the expected rule at the expected path.
fn report_with_injected(path: &str, src: &str) -> fademl_lint::report::LintReport {
    let root = workspace_root();
    let baseline_text = fs::read_to_string(root.join("lint.allow")).expect("lint.allow exists");
    let baseline = Baseline::parse(&baseline_text).expect("lint.allow parses");
    let mut files = source::load_workspace(&root).expect("workspace scan succeeds");
    files.push(source::SourceFile::from_source(path, src));
    let count = files.len();
    baseline.apply(collect_findings(&files), count)
}

fn assert_gate_breaks(report: &fademl_lint::report::LintReport, rule: &str, path: &str) {
    assert!(
        !report.is_clean(),
        "seeded `{rule}` violation did not break the gate"
    );
    assert!(
        report
            .new_finding_details
            .iter()
            .any(|f| f.rule == rule && f.path == path),
        "expected a new `{rule}` finding at {path}; got:\n{}",
        report.render()
    );
}

/// The body of the `[header]` table in a Cargo manifest: the lines up
/// to the next table header, trimmed, comments and blanks dropped.
fn manifest_table<'a>(manifest: &'a str, header: &str) -> Option<Vec<&'a str>> {
    let mut lines = manifest.lines().map(str::trim);
    lines.find(|l| *l == header)?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect(),
    )
}

#[test]
fn every_crate_inherits_the_workspace_unsafe_code_forbid() {
    // `unsafe` is a compile error, not a lint finding: the root manifest
    // forbids it and every crate inherits the table, so tests, benches,
    // examples and bins are covered too. A crate without `[lints]
    // workspace = true` would silently opt out.
    let root = workspace_root();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml exists");
    let lints = manifest_table(&manifest, "[workspace.lints.rust]")
        .expect("root Cargo.toml has a [workspace.lints.rust] table");
    assert!(
        lints.contains(&r#"unsafe_code = "forbid""#),
        "root Cargo.toml must set unsafe_code = \"forbid\"; got {lints:?}"
    );

    let mut crates = 0;
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let path = entry
            .expect("crates/ entry readable")
            .path()
            .join("Cargo.toml");
        let Ok(manifest) = fs::read_to_string(&path) else {
            continue;
        };
        crates += 1;
        let lints = manifest_table(&manifest, "[lints]")
            .unwrap_or_else(|| panic!("{} has no [lints] table", path.display()));
        assert!(
            lints.contains(&"workspace = true"),
            "{} must inherit the workspace lints with `workspace = true`; got {lints:?}",
            path.display()
        );
    }
    assert!(
        crates >= 11,
        "crates/ walk looks truncated: {crates} manifests"
    );
}

#[test]
fn seeded_hot_path_alloc_fails_the_gate() {
    // `process_batch` is the reachability root, so an allocation in a
    // fn it calls (by name, anywhere in scope) is hot-path debt.
    let report = report_with_injected(
        "crates/nn/src/injected.rs",
        "pub fn process_batch(n: usize) -> Vec<f32> {\n    helper_injected(n)\n}\nfn helper_injected(n: usize) -> Vec<f32> {\n    Vec::with_capacity(n)\n}\n",
    );
    assert_gate_breaks(&report, "hot-path-alloc", "crates/nn/src/injected.rs");
}

#[test]
fn seeded_lock_across_io_fails_the_gate() {
    let report = report_with_injected(
        "crates/serve/src/injected.rs",
        "pub fn sneaky(&self) {\n    let g = self.state.lock();\n    std::fs::write(\"dump\", g.render());\n}\n",
    );
    assert_gate_breaks(&report, "lock-across-io", "crates/serve/src/injected.rs");
}

#[test]
fn seeded_swallowed_error_fails_the_gate() {
    let report = report_with_injected(
        "crates/serve/src/injected.rs",
        "pub fn sneaky(&self) {\n    let _ = std::fs::remove_file(\"x\");\n}\n",
    );
    assert_gate_breaks(&report, "swallowed-error", "crates/serve/src/injected.rs");
}

#[test]
fn seeded_uncapped_wire_decode_fails_the_gate() {
    // Injected as extra content at a codec path — wire-cap-check scopes
    // by file path, and findings are keyed per (rule, path), so the
    // existing clean wire.rs budget (absent = zero) cannot absorb it.
    let report = report_with_injected(
        "crates/net/src/wire.rs",
        "fn decode_injected(r: &mut ByteReader) -> Vec<u8> {\n    let n = r.get_u32() as usize;\n    Vec::with_capacity(n)\n}\n",
    );
    assert_gate_breaks(&report, "wire-cap-check", "crates/net/src/wire.rs");
}

#[test]
fn update_baseline_is_idempotent_on_the_live_workspace() {
    // `--update-baseline` over an already-regenerated lint.allow must
    // reproduce it byte-for-byte: justifications survive, ordering is
    // stable, and no count drifts.
    let root = workspace_root();
    let committed = fs::read_to_string(root.join("lint.allow")).expect("lint.allow exists");
    let header_end = committed
        .find("\nas-int")
        .or_else(|| committed.find("\ndirect-overwrite"))
        .map_or(0, |i| i + 1);
    let header = &committed[..header_end];
    let baseline = Baseline::parse(&committed).expect("lint.allow parses");
    let files = source::load_workspace(&root).expect("workspace scan succeeds");
    let findings = collect_findings(&files);
    let once = baseline.regenerate(&findings, header);
    assert_eq!(
        committed, once,
        "regenerating lint.allow from the live workspace changed it — \
         rerun `cargo run -p fademl-lint -- --update-baseline` and commit"
    );
    let twice = Baseline::parse(&once)
        .expect("regenerated baseline parses")
        .regenerate(&findings, header);
    assert_eq!(once, twice, "--update-baseline is not idempotent");
}
