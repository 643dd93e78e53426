//! End-to-end benchmark of the FAdeML reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload net_paper --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! - `net_paper`: sign frames classified over loopback TCP by a
//!   2-replica `NetServer` with triage, driven by 2 closed-loop clients,
//!   on the paper's `Paper` VGG.
//! - `attack_fademl`: FAdeML-wrapped BIM crafted against a LAP(8)-aware
//!   attack surface on the `Compact` VGG, one attack after another.
//! - `net_compact`: `net_paper` on the `Compact` VGG, a diagnostic for
//!   net and serve changes that `BENCHMARK.json` does not list, because
//!   on a shared host its cost follows the neighbours' load (see the
//!   README).
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics, replays a sample of the
//! workload's requests layer by layer inside spans, and writes the spans
//! to `e2ebench/out/`. Every run checks the program's outputs first and
//! exits non-zero on any mismatch. The last line of standard output is
//! the result as one JSON object; the line before it records the host
//! and the sample counts.

mod attack;
mod cpu;
mod layers;
mod serving;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use fademl_data::{ClassId, DataError, FrameStream, StreamConfig, CLASS_COUNT};
use fademl_nn::vgg::VggProfile;
use fademl_tensor::{Tensor, TensorRng};

/// Chunks a timed run's operations are cut into; `cpu_ms_per_op` is the
/// median of their costs (see [`stats::chunk_costs`]).
pub const CHUNKS: usize = 10;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: checked requests or attacks plus timed ones.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Every correctness violation, described.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra facts for the record line: JSON-encoded values by key.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    pub fn mismatch(&mut self, what: String) {
        eprintln!("[e2ebench] MISMATCH: {what}");
        self.mismatches.push(what);
        self.failed += 1;
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    pub fn record(&mut self, key: &str, value: impl std::fmt::Display) {
        self.record.push((key.to_string(), value.to_string()));
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `count` 32×32 sign frames, `per_stream` consecutive frames from each
/// of several `FrameStream`s whose classes and walks derive from `seed`.
pub fn sign_frames(seed: u64, count: usize, per_stream: usize) -> Result<Vec<Tensor>, DataError> {
    let mut rng = TensorRng::seed_from_u64(seed);
    let mut frames = Vec::with_capacity(count);
    while frames.len() < count {
        let mut stream = FrameStream::new(StreamConfig {
            class: ClassId::new(rng.index(CLASS_COUNT))?,
            seed: rng.index(usize::MAX) as u64,
            ..StreamConfig::default()
        })?;
        frames.extend(stream.take_frames(per_stream.min(count - frames.len()))?);
    }
    Ok(frames)
}

/// Whether two tensors hold the same shape and bit-identical values.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` without spawning git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Turns the traced run's spans into the `trace.*` metrics, prints the
/// self time per layer, and writes the spans to
/// `e2ebench/out/trace-<workload>-seed<seed>.json`. `root` names the
/// replay's root span; `overhead_frac` is the traced over the untraced
/// median latency, minus one.
pub fn finish_trace(
    out: &mut Outcome,
    args: &Args,
    tracer: &trace::Tracer,
    root: &str,
    overhead_frac: f64,
) -> std::io::Result<()> {
    let times = tracer.self_times(root);
    let total = times.values().map(|t| t.self_ns).sum::<u64>().max(1) as f64;
    let share = |keep: &dyn Fn(&str) -> bool| {
        times
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(_, t)| t.self_ns)
            .sum::<u64>() as f64
            / total
    };
    let mut ranked: Vec<_> = times.iter().collect();
    ranked.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    eprintln!("[e2ebench] self time under `{root}` spans:");
    for (name, t) in &ranked {
        eprintln!(
            "[e2ebench]   {name:<26} {:>6} spans {:>10.3} ms {:>6.1} %",
            t.count,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / total * 100.0
        );
    }
    if let Some((name, _)) = ranked.first() {
        out.record("top_self_span", json_string(name));
    }
    out.metric(
        "trace.conv5_self_share",
        share(&|n| n == "nn.conv5"),
        "fraction",
    );
    out.metric(
        "trace.net_detect_self_share",
        share(&|n| n.starts_with("net.") || n.starts_with("detect.")),
        "fraction",
    );
    out.metric("trace.overhead_frac", overhead_frac, "fraction");

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let mut doc = format!(
        "{{\"workload\": {}, \"seed\": {}, \"root\": {}, \"self_times\": {{",
        json_string(&args.workload),
        args.seed,
        json_string(root)
    );
    for (i, (name, t)) in times.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            doc,
            "{sep}{}: {{\"count\": {}, \"self_ns\": {}}}",
            json_string(name),
            t.count,
            t.self_ns
        );
    }
    let _ = write!(doc, "}},\n\"spans\": {}}}\n", tracer.to_json());
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, doc)?;
    eprintln!("[e2ebench] wrote {}", path.display());
    Ok(())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    match args.workload.as_str() {
        "net_compact" => serving::run(VggProfile::Compact, args),
        "net_paper" => serving::run(VggProfile::Paper, args),
        "attack_fademl" => attack::run(args),
        other => {
            Err(format!("unknown workload {other} (net_compact, net_paper, attack_fademl)").into())
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("[e2ebench] {err}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("[e2ebench] {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        outcome.mismatch(format!("metric {} is not finite", bad.name));
    }
    let correct = outcome.mismatches.is_empty() && outcome.failed == 0;

    for m in &outcome.metrics {
        eprintln!("[e2ebench] {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let mut record = format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"kernel_threads\": {}, \"git_rev\": {}, \"profile\": \"{}\"",
        json_string(&args.workload),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        fademl_tensor::par::threads(),
        json_string(&git_rev()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    for (key, value) in &outcome.record {
        let _ = write!(record, ", {}: {value}", json_string(key));
    }
    record.push_str("}}");
    println!("{record}");

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(&m.name),
            json_string(m.unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
