//! The `attack_fademl` workload: the paper's filter-aware attack.
//!
//! `Fademl` wraps `Bim(ε 0.08, α 0.015, 8 iterations)` with 2 rounds and
//! η 1.0 and crafts against a LAP(8)-aware `AttackSurface` on the
//! `Compact` VGG, so every step runs the kernels backward at batch 1:
//! `forward_train`, `backward`, `conv2d_backward` and the filter's
//! vector-Jacobian product. Targeted goals come from a seeded list of
//! (image, target class) pairs, cycled in order on one thread.

use std::time::Instant;

use fademl_attacks::{AdversarialExample, Attack, AttackGoal, AttackSurface, Bim, Fademl};
use fademl_data::CLASS_COUNT;
use fademl_filters::Lap;
use fademl_nn::vgg::{VggConfig, VggProfile};
use fademl_nn::{Layer, Sequential};
use fademl_tensor::plan::{alloc, selector};
use fademl_tensor::{Tensor, TensorRng};

use crate::layers::{self, BoxResult};
use crate::stats::{self, Op};
use crate::trace::Tracer;
use crate::{cpu, peak_rss_mb, same_bits, sign_frames, Args, Outcome};

/// Distinct (image, target) pairs. With random weights some goals are met
/// early, which shortens those attacks; 64 pairs keep that share close
/// to the same on every seed, so the work per attack barely depends on
/// the seed.
const PAIRS: usize = 64;
const EPSILON: f32 = 0.08;
const ALPHA: f32 = 0.015;
const ITERATIONS: usize = 8;
const ROUNDS: usize = 2;
const ETA: f32 = 1.0;
const SURFACE_LAP: usize = 8;
/// Set-ups per timed run; `setup_s` is the median of their CPU time. A
/// set-up costs about 20 ms of CPU, so a few more than the serving
/// workloads' keep the median steady at little cost.
const SETUPS: usize = 5;
/// Gradient steps the traced run replays layer by layer.
const REPLAY_STEPS: usize = 4;

struct Setup {
    model: Sequential,
    surface: AttackSurface,
    attack: Fademl,
    pairs: Vec<(Tensor, usize)>,
}

fn setup(seed: u64) -> BoxResult<Setup> {
    let mut rng = TensorRng::seed_from_u64(seed);
    let model = VggConfig::new(VggProfile::Compact, 3, 32, CLASS_COUNT).build(&mut rng)?;
    let pairs: Vec<(Tensor, usize)> = sign_frames(seed ^ 0xA77A_0003, PAIRS, 4)?
        .into_iter()
        .map(|frame| (frame, rng.index(CLASS_COUNT)))
        .collect();
    let mut surface = AttackSurface::with_filter(model.clone(), Box::new(Lap::new(SURFACE_LAP)?));
    let attack = Fademl::new(Box::new(Bim::new(EPSILON, ALPHA, ITERATIONS)?), ROUNDS, ETA)?;
    // Warm up with one gradient step and one prediction: a fixed amount
    // of work, where a whole attack would stop after a seed-dependent
    // number of steps.
    let (x, class) = &pairs[0];
    surface.loss_and_input_grad(x, AttackGoal::Targeted { class: *class })?;
    surface.predict(x)?;
    Ok(Setup {
        model,
        surface,
        attack,
        pairs,
    })
}

/// Why `adv` is not a valid adversarial example of `x`, if it is not:
/// it must be finite, inside `[0, 1]`, and inside the attack's ε-ball.
/// Each FAdeML round projects into the ε-ball around its own starting
/// point, so with η ≤ 1 the total L∞ noise is at most `ROUNDS · ε`.
fn invalid(x: &Tensor, adv: &AdversarialExample) -> Option<String> {
    let a = adv.adversarial.as_slice();
    if a.len() != x.numel() || a.iter().any(|v| !v.is_finite() || !(0.0..=1.0).contains(v)) {
        return Some("adversarial image is not finite or leaves [0, 1]".into());
    }
    let linf = adv
        .adversarial
        .sub(x)
        .map(|n| n.norm_linf())
        .unwrap_or(f32::INFINITY);
    let bound = ROUNDS as f32 * EPSILON * ETA;
    (linf > bound * (1.0 + 1e-5)).then(|| format!("L∞ noise {linf} exceeds {bound}"))
}

pub fn run(args: &Args) -> BoxResult<Outcome> {
    let mut out = Outcome::default();
    let (mut setup_wall_s, mut setup_cpu_s) = (Vec::new(), Vec::new());
    let mut ready = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(ready.take());
        let (t, c) = (Instant::now(), cpu::process_s());
        ready = Some(setup(args.seed)?);
        setup_wall_s.push(t.elapsed().as_secs_f64());
        setup_cpu_s.push(cpu::process_s() - c);
    }
    let mut s = ready.ok_or("no set-up")?;

    // Gate: the first attack is valid, and running it again reproduces
    // its bits.
    let (x0, class0) = &s.pairs[0];
    let goal0 = AttackGoal::Targeted { class: *class0 };
    let first = s.attack.run(&mut s.surface, x0, goal0)?;
    let again = s.attack.run(&mut s.surface, x0, goal0)?;
    out.attempted += 2;
    for adv in [&first, &again] {
        if let Some(why) = invalid(x0, adv) {
            out.mismatch(format!("first attack: {why}"));
        }
    }
    if !same_bits(&again.adversarial, &first.adversarial) || again.iterations != first.iterations {
        out.mismatch("re-running the first attack changed its output".into());
    }

    let arena0 = alloc::stats();
    let plans0 = selector::stats();
    let cpu0 = cpu::process_s();
    let origin = Instant::now();
    let end = origin + args.seconds;
    let trace_from = origin + args.seconds / 2;
    let mut tracer = Tracer::new(origin);
    let (mut ops, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut steps, mut successes) = (0usize, 0usize);
    let mut i = 0usize;
    while Instant::now() < end {
        let (x, class) = &s.pairs[i % PAIRS];
        let goal = AttackGoal::Targeted { class: *class };
        let traced = args.trace && Instant::now() >= trace_from;
        let span = traced.then(|| tracer.begin("attack.craft", None, i as u64));
        let t = Instant::now();
        let result = s.attack.run(&mut s.surface, x, goal);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(id) = span {
            tracer.end(id);
        }
        out.attempted += 1;
        match result {
            Ok(adv) => {
                if let Some(why) = invalid(x, &adv) {
                    out.mismatch(format!("attack {i}: {why}"));
                }
                steps += adv.iterations;
                successes += usize::from(adv.success_on_surface);
                if traced {
                    traced_ms.push(ms);
                } else {
                    ops.push(Op {
                        ms,
                        cpu_s: cpu::process_s(),
                        work: adv.iterations as f64,
                    });
                }
            }
            Err(err) => out.mismatch(format!("attack {i}: {err}")),
        }
        i += 1;
    }
    let elapsed = origin.elapsed().as_secs_f64();
    let arena1 = alloc::stats();
    let plans1 = selector::stats();
    let crafted = ops.len() + traced_ms.len();
    let craft_ms = stats::sorted(ops.iter().map(|o| o.ms).collect());
    let p = |p| stats::percentile(&craft_ms, p).unwrap_or(f64::NAN);

    out.record("samples", craft_ms.len());
    if let Some(q) = stats::quartiles(&craft_ms) {
        out.record("latency_quartiles_ms", format!("{q:?}"));
    }
    out.record("traced_samples", traced_ms.len());
    out.record("attack_steps_per_s", steps as f64 / elapsed);
    out.record("attack_p50_ms", p(50));
    out.record("attack_p90_ms", p(90));
    out.record(
        "attack_p90_samples_beyond",
        stats::beyond(craft_ms.len(), 90),
    );
    out.record(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.record("failed_frac_base", out.attempted);
    out.record("setup_runs", setup_wall_s.len());
    out.record(
        "setup_wall_s",
        stats::median(&setup_wall_s).unwrap_or(f64::NAN),
    );

    if !args.trace {
        let costs = stats::chunk_costs(&ops, cpu0, crate::CHUNKS)
            .ok_or("too few attacks crafted in the timed run")?;
        out.metric(
            "cpu_ms_per_op",
            stats::median(&costs).unwrap_or(f64::NAN) * 1e3,
            "ms",
        );
        out.metric(
            "setup_s",
            stats::median(&setup_cpu_s).unwrap_or(f64::NAN),
            "s",
        );
        out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");
        return Ok(out);
    }

    // Replay a few gradient steps layer by layer and check each against
    // the surface's own `loss_and_input_grad`.
    let names = layers::layer_span_names(&s.model);
    let mut replay_layers: Vec<Box<dyn Layer>> =
        s.model.layers().iter().map(|l| l.clone_box()).collect();
    let filter = Lap::new(SURFACE_LAP)?;
    for (k, (x, class)) in s.pairs.iter().take(REPLAY_STEPS).enumerate() {
        let replayed = layers::replay_grad_step(
            &mut tracer,
            k as u64,
            &mut replay_layers,
            &names,
            &filter,
            x,
            *class,
        )?;
        let (_, want) = s
            .surface
            .loss_and_input_grad(x, AttackGoal::Targeted { class: *class })?;
        if !same_bits(&replayed, &want) {
            out.mismatch(format!(
                "replayed gradient step {k} disagrees with the surface"
            ));
        }
    }

    let (frame, class) = &s.pairs[0];
    let staged = frame.unsqueeze_batch();
    out.metric(
        "tensor.matmul.gmac_s",
        layers::matmul_gmac_s(args.seed)?,
        "GMAC/s",
    );
    out.metric(
        "tensor.arena.scratch_grows_warm",
        (arena1.grows - arena0.grows) as f64,
        "count",
    );
    out.metric(
        "tensor.plan.misses",
        (plans1.misses - plans0.misses) as f64,
        "count",
    );
    let convs = layers::conv_layers(&s.model, &staged)?;
    out.metrics.extend(layers::conv_metrics(&convs));
    let [fwd, fwd_train, bwd] = layers::model_passes(&s.model, &staged)?;
    out.metric("nn.forward_ms", fwd, "ms");
    out.metric("nn.forward_train_ms", fwd_train, "ms");
    out.metric("nn.backward_ms", bwd, "ms");
    let [lap16, lap32, lap8_bwd] = layers::filters(frame)?;
    out.metric("filters.lap16.apply_us", lap16, "us");
    out.metric("filters.lap32.apply_us", lap32, "us");
    out.metric("filters.lap8.backward_us", lap8_bwd, "us");
    // The attack never reaches the detector, the deployed pipeline, the
    // serving engine or the wire: those layers report 0 here.
    for (name, unit) in [
        ("detect.score_image_us", "us"),
        ("detect.mean_score_time_us", "us"),
        ("detect.flagged_frac", "fraction"),
        ("detect.hardened_served", "count"),
        ("detect.fail_open", "count"),
        ("core.stage_input_us.tm1", "us"),
        ("core.stage_input_us.tm2", "us"),
        ("core.stage_input_us.tm3", "us"),
        ("core.classify_b1_ms", "ms"),
        ("serve.server_latency_p50_ms", "ms"),
        ("serve.server_latency_p99_ms", "ms"),
        ("serve.router_classify_p50_ms", "ms"),
        ("serve.mean_batch_size", "images"),
        ("serve.requests_rejected", "count"),
        ("serve.requests_failed", "count"),
        ("serve.single_image_fallbacks", "count"),
        ("net.wire.encode_us", "us"),
        ("net.wire.decode_us", "us"),
        ("net.wire.request_bytes", "bytes"),
        ("net.client_minus_server_p50_ms", "ms"),
        ("net.rerouted", "count"),
        ("net.frame_errors", "count"),
        ("net.timeouts", "count"),
    ] {
        out.metric(name, 0.0, unit);
    }
    let goal = AttackGoal::Targeted { class: *class };
    let [grad_ms, predict_ms] = layers::attack_surface(&mut s.surface, frame, goal)?;
    out.metric("attacks.grad_step_ms", grad_ms, "ms");
    out.metric("attacks.predict_ms", predict_ms, "ms");
    out.metric(
        "attacks.steps_per_attack",
        steps as f64 / crafted.max(1) as f64,
        "steps",
    );
    out.metric(
        "attacks.success_frac",
        successes as f64 / crafted.max(1) as f64,
        "fraction",
    );
    let traced_p50 = stats::percentile(&stats::sorted(traced_ms), 50).unwrap_or(f64::NAN);
    crate::finish_trace(
        &mut out,
        args,
        &tracer,
        "attack.step",
        traced_p50 / p(50) - 1.0,
    )?;
    Ok(out)
}
