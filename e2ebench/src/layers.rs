//! Per-layer probes and the traced in-process replay.
//!
//! Every probe times one public call of one layer in isolation on the
//! workload's own inputs and reports the median of repeated runs. The
//! replay functions re-run a request's path layer by layer inside
//! spans, so the trace shows where a request's time goes.

use std::error::Error;
use std::hint::black_box;
use std::time::{Duration, Instant};

use fademl::{InferencePipeline, ThreatModel};
use fademl_attacks::{AttackGoal, AttackSurface};
use fademl_detect::Detector;
use fademl_filters::{Filter, Lap};
use fademl_net::wire::{decode_frame, encode_frame};
use fademl_net::{Frame, WireRequest};
use fademl_nn::{CrossEntropyLoss, Layer, Loss, Sequential};
use fademl_tensor::{Tensor, TensorRng};

use crate::stats;
use crate::trace::Tracer;
use crate::Metric;

pub type BoxResult<T> = Result<T, Box<dyn Error>>;

/// Least time each probe spends repeating its call.
const PROBE_BUDGET: Duration = Duration::from_millis(200);
/// Least repetitions of each probe, however slow the call.
const PROBE_MIN_REPS: usize = 5;

/// Calls `f` at least [`PROBE_MIN_REPS`] times and for at least
/// [`PROBE_BUDGET`]; `f` returns the seconds it measured. Returns the
/// median.
fn repeat(mut f: impl FnMut() -> BoxResult<f64>) -> BoxResult<f64> {
    let started = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < PROBE_MIN_REPS || started.elapsed() < PROBE_BUDGET {
        runs.push(f()?);
    }
    Ok(stats::median(&runs).unwrap_or(0.0))
}

/// Median seconds per call of `f`, timed by [`repeat`].
pub fn probe(mut f: impl FnMut() -> BoxResult<()>) -> BoxResult<f64> {
    repeat(|| {
        let t = Instant::now();
        f()?;
        Ok(t.elapsed().as_secs_f64())
    })
}

/// `Tensor::matmul` on 128×256 · 256×1024, the host's reference rate
/// the conv layers are compared against.
pub fn matmul_gmac_s(seed: u64) -> BoxResult<f64> {
    let (m, k, n) = (128usize, 256usize, 1024usize);
    let mut rng = TensorRng::seed_from_u64(seed);
    let a = rng.uniform(&[m, k], -1.0, 1.0);
    let b = rng.uniform(&[k, n], -1.0, 1.0);
    let secs = probe(|| {
        black_box(black_box(&a).matmul(black_box(&b))?);
        Ok(())
    })?;
    Ok((m * k * n) as f64 / secs / 1e9)
}

/// Multiply-accumulates of one conv layer's forward, from its weight
/// shape `[F, C, kh, kw]` and its output shape `[N, F, OH, OW]`.
fn conv_macs(layer: &dyn Layer, output: &Tensor) -> f64 {
    let per_output: usize = layer
        .params()
        .first()
        .map_or(0, |w| w.value.dims().iter().skip(1).product());
    (output.numel() * per_output) as f64
}

/// One conv layer's batch-1 forward cost.
pub struct ConvCost {
    pub ms: f64,
    pub gmac_s: f64,
}

/// Times `Layer::forward` of every conv layer of `model` at batch 1,
/// feeding each layer the activation the previous layers produce from
/// `input` (`[1, C, H, W]`).
pub fn conv_layers(model: &Sequential, input: &Tensor) -> BoxResult<Vec<ConvCost>> {
    let mut x = input.clone();
    let mut out = Vec::new();
    for layer in model.layers() {
        let y = layer.forward(&x)?;
        if layer.name() == "conv2d" {
            let secs = probe(|| {
                black_box(layer.forward(black_box(&x))?);
                Ok(())
            })?;
            out.push(ConvCost {
                ms: secs * 1e3,
                gmac_s: conv_macs(layer.as_ref(), &y) / secs / 1e9,
            });
        }
        x = y;
    }
    Ok(out)
}

/// Batch-1 `Sequential::forward`, `forward_train` and `backward`, in ms.
pub fn model_passes(model: &Sequential, input: &Tensor) -> BoxResult<[f64; 3]> {
    let forward = probe(|| {
        black_box(model.forward(black_box(input))?);
        Ok(())
    })?;
    let mut train = model.clone();
    let logits = train.forward_train(input)?;
    let grad = Tensor::ones(logits.dims());
    let forward_train = probe(|| {
        black_box(train.forward_train(black_box(input))?);
        Ok(())
    })?;
    // The training forward refills the caches backward consumes; only
    // the backward pass is timed.
    let backward = repeat(|| {
        train.forward_train(input)?;
        let t = Instant::now();
        black_box(train.backward(black_box(&grad))?);
        Ok(t.elapsed().as_secs_f64())
    })?;
    Ok([forward * 1e3, forward_train * 1e3, backward * 1e3])
}

/// LAP(16) and LAP(32) `apply`, and the LAP(8) vector-Jacobian product,
/// on one `[C, H, W]` frame, in µs.
pub fn filters(frame: &Tensor) -> BoxResult<[f64; 3]> {
    let lap16 = Lap::new(16)?;
    let lap32 = Lap::new(32)?;
    let lap8 = Lap::new(8)?;
    let grad = Tensor::ones(frame.dims());
    let a16 = probe(|| {
        black_box(lap16.apply(black_box(frame))?);
        Ok(())
    })?;
    let a32 = probe(|| {
        black_box(lap32.apply(black_box(frame))?);
        Ok(())
    })?;
    let b8 = probe(|| {
        black_box(lap8.backward(black_box(frame), black_box(&grad))?);
        Ok(())
    })?;
    Ok([a16 * 1e6, a32 * 1e6, b8 * 1e6])
}

/// `InferencePipeline::stage_input` per threat model (µs) and a batch-1
/// `InferencePipeline::classify` (ms).
pub fn core(pipeline: &InferencePipeline, frame: &Tensor) -> BoxResult<([f64; 3], f64)> {
    let mut stage = [0.0; 3];
    for (slot, threat) in stage.iter_mut().zip(ThreatModel::ALL) {
        *slot = probe(|| {
            black_box(pipeline.stage_input(black_box(frame), threat)?);
            Ok(())
        })? * 1e6;
    }
    let classify = probe(|| {
        black_box(pipeline.classify(black_box(frame), ThreatModel::III)?);
        Ok(())
    })?;
    Ok((stage, classify * 1e3))
}

/// `encode_frame` and `decode_frame` of one request carrying `frame`
/// (µs), and the encoded size in bytes.
pub fn wire(frame: &Tensor) -> BoxResult<[f64; 3]> {
    let request = Frame::Request(WireRequest {
        id: 1,
        threat: ThreatModel::II,
        deadline_us: 0,
        tenant: String::new(),
        image: frame.clone(),
    });
    let bytes = encode_frame(&request)?;
    let encode = probe(|| {
        black_box(encode_frame(black_box(&request))?);
        Ok(())
    })?;
    let decode = probe(|| {
        black_box(decode_frame(black_box(&bytes))?);
        Ok(())
    })?;
    Ok([encode * 1e6, decode * 1e6, bytes.len() as f64])
}

/// `AttackSurface::loss_and_input_grad` and `AttackSurface::predict`
/// on one frame, in ms.
pub fn attack_surface(
    surface: &mut AttackSurface,
    frame: &Tensor,
    goal: AttackGoal,
) -> BoxResult<[f64; 2]> {
    let grad = probe(|| {
        black_box(surface.loss_and_input_grad(black_box(frame), goal)?);
        Ok(())
    })?;
    let predict = probe(|| {
        black_box(surface.predict(black_box(frame))?);
        Ok(())
    })?;
    Ok([grad * 1e3, predict * 1e3])
}

/// Median `Detector::score_image` over `frames`, in µs.
pub fn detect_score(detector: &Detector, frames: &[Tensor]) -> BoxResult<f64> {
    let mut i = 0;
    Ok(probe(|| {
        black_box(detector.score_image(black_box(&frames[i % frames.len()]))?);
        i += 1;
        Ok(())
    })? * 1e6)
}

/// Span name of the `index`-th layer of a model, numbering conv layers
/// from 1 as the paper's Fig. 4 does.
pub fn layer_span_names(model: &Sequential) -> Vec<String> {
    let mut convs = 0;
    model
        .layers()
        .iter()
        .map(|layer| match layer.name() {
            "conv2d" => {
                convs += 1;
                format!("nn.conv{convs}")
            }
            other => format!("nn.{other}"),
        })
        .collect()
}

/// Replays `Sequential::forward` one layer at a time, each inside a
/// span under `parent`, and returns the logits.
pub fn replay_forward(
    tracer: &mut Tracer,
    parent: usize,
    request: u64,
    model: &Sequential,
    names: &[String],
    input: &Tensor,
) -> BoxResult<Tensor> {
    let span = tracer.begin("nn.forward", Some(parent), request);
    let mut x = input.clone();
    for (layer, name) in model.layers().iter().zip(names) {
        x = tracer.leaf(name.as_str(), Some(span), request, || layer.forward(&x))?;
    }
    tracer.end(span);
    Ok(x)
}

/// Replays one `AttackSurface::loss_and_input_grad` step layer by
/// layer — filter, training forward, loss, backward, filter
/// vector-Jacobian product — and returns the input gradient. `layers`
/// is a private copy of the surface model's layers (training passes
/// mutate their caches).
pub fn replay_grad_step(
    tracer: &mut Tracer,
    request: u64,
    layers: &mut [Box<dyn Layer>],
    names: &[String],
    filter: &dyn Filter,
    x: &Tensor,
    target: usize,
) -> BoxResult<Tensor> {
    let root = tracer.begin("attack.step", None, request);
    let filtered = tracer.leaf("filters.apply", Some(root), request, || filter.apply(x))?;
    let fwd = tracer.begin("nn.forward_train", Some(root), request);
    let mut a = filtered.unsqueeze_batch();
    for (layer, name) in layers.iter_mut().zip(names) {
        a = tracer.leaf(name.as_str(), Some(fwd), request, || {
            layer.forward_train(&a)
        })?;
    }
    tracer.end(fwd);
    let loss = tracer.leaf("nn.loss", Some(root), request, || {
        CrossEntropyLoss::new().compute(&a, &[target])
    })?;
    let bwd = tracer.begin("nn.backward", Some(root), request);
    let mut g = loss.grad;
    for (layer, name) in layers.iter_mut().zip(names).rev() {
        layer.zero_grad();
        g = tracer.leaf(format!("{name}.bwd"), Some(bwd), request, || {
            layer.backward(&g)
        })?;
    }
    tracer.end(bwd);
    let grad = tracer.leaf("filters.backward", Some(root), request, || {
        filter.backward(x, &g.index_batch(0)?)
    });
    tracer.end(root);
    Ok(grad?)
}

/// The conv metrics, `nn.conv{i}.ms` and `nn.conv{i}.gmac_s`.
pub fn conv_metrics(convs: &[ConvCost]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (i, c) in convs.iter().enumerate() {
        out.push(Metric::new(format!("nn.conv{}.ms", i + 1), c.ms, "ms"));
        out.push(Metric::new(
            format!("nn.conv{}.gmac_s", i + 1),
            c.gmac_s,
            "GMAC/s",
        ));
    }
    out
}
