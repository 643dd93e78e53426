//! Compute-kernel throughput: the cache-blocked GEMM, conv, and filter
//! kernels run serially and on the `fademl_tensor::par` worker pool at
//! 1/2/4/8 threads. Shapes mirror the paper's victims (VGG-ish CIFAR
//! layer, GTSRB-ish mid layer, the `Paper` VGG's 4×4 and 2×2 convs at
//! serving batch 1) plus the fully-connected head.
//!
//! It emits machine-readable artifacts — `BENCH_kernels.json` at the
//! repo root and `results/kernels.txt` — because it is the first
//! datapoint of the bench trajectory. It also asserts that every
//! workload's output is bit-identical across thread counts before
//! timing it, so the numbers can never come from a divergent kernel.
//!
//! `cargo bench -p fademl-bench --bench kernels` — full run.
//! `cargo bench -p fademl-bench --bench kernels -- --test` — CI smoke:
//! one iteration per cell, artifacts not written.

use std::hint::black_box;
use std::time::Instant;

use fademl_filters::FilterSpec;
use fademl_tensor::plan::alloc;
use fademl_tensor::{conv2d, conv2d_backward, par, ConvSpec, TensorRng};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// A named kernel workload returning its full output buffer (flattened)
/// so cross-thread bit-identity can be checked on everything computed.
struct Workload {
    name: &'static str,
    run: Box<dyn Fn() -> Vec<f32>>,
}

fn workloads() -> Vec<Workload> {
    let mut rng = TensorRng::seed_from_u64(42);

    // Fully-connected head: activations [128, 256] × weights [256, 1024].
    let a = rng.uniform(&[128, 256], -1.0, 1.0);
    let b = rng.uniform(&[256, 1024], -1.0, 1.0);

    // VGG-shaped CIFAR entry layer: [8, 3, 32, 32], C3→F32, k3 s1 p1.
    let vgg_spec = ConvSpec::new(3, 32, 3, 1, 1);
    let vgg_x = rng.uniform(&[8, 3, 32, 32], 0.0, 1.0);
    let vgg_w = rng.uniform(&[32, 3, 3, 3], -0.5, 0.5);
    let vgg_b = rng.uniform(&[32], -0.1, 0.1);
    let vgg_g = rng.uniform(&[8, 32, 32, 32], -1.0, 1.0);

    // GTSRB-shaped mid layer: [8, 32, 16, 16], C32→F64, k3 s1 p1.
    let gt_spec = ConvSpec::new(32, 64, 3, 1, 1);
    let gt_x = rng.uniform(&[8, 32, 16, 16], 0.0, 1.0);
    let gt_w = rng.uniform(&[64, 32, 3, 3], -0.5, 0.5);
    let gt_b = rng.uniform(&[64], -0.1, 0.1);

    // The `Paper` VGG's small-spatial convs at serving batch 1: each
    // per-sample GEMM output row is only 16 (conv4) or 4 (conv5) wide.
    let p4_spec = ConvSpec::new(256, 512, 3, 1, 1);
    let p4_x = rng.uniform(&[1, 256, 4, 4], 0.0, 1.0);
    let p4_w = rng.uniform(&[512, 256, 3, 3], -0.05, 0.05);
    let p4_b = rng.uniform(&[512], -0.1, 0.1);
    let p5_spec = ConvSpec::new(512, 512, 3, 1, 1);
    let p5_x = rng.uniform(&[1, 512, 2, 2], 0.0, 1.0);
    let p5_w = rng.uniform(&[512, 512, 3, 3], -0.05, 0.05);
    let p5_b = rng.uniform(&[512], -0.1, 0.1);

    // Pre-processing filters from the paper sweep on a serving batch.
    let batch = rng.uniform(&[8, 3, 32, 32], 0.0, 1.0);
    let grad = rng.uniform(&[8, 3, 32, 32], -1.0, 1.0);
    let lap = FilterSpec::Lap { np: 8 }.build().expect("LAP(8) builds");
    let lar = FilterSpec::Lar { r: 2 }.build().expect("LAR(2) builds");

    vec![
        Workload {
            name: "matmul_128x256x1024",
            run: Box::new(move || a.matmul(&b).expect("matmul").into_vec()),
        },
        Workload {
            name: "conv2d_vgg_8x3x32x32_f32",
            run: {
                let (x, w, bias) = (vgg_x.clone(), vgg_w.clone(), vgg_b.clone());
                Box::new(move || conv2d(&x, &w, &bias, &vgg_spec).expect("conv2d").into_vec())
            },
        },
        Workload {
            name: "conv2d_backward_vgg",
            run: {
                let (x, w, g) = (vgg_x, vgg_w, vgg_g);
                Box::new(move || {
                    let grads = conv2d_backward(&x, &w, &g, &vgg_spec).expect("conv2d_backward");
                    let mut out = grads.input.into_vec();
                    out.extend(grads.weight.into_vec());
                    out.extend(grads.bias.into_vec());
                    out
                })
            },
        },
        Workload {
            name: "conv2d_gtsrb_8x32x16x16_f64",
            run: Box::new(move || {
                conv2d(&gt_x, &gt_w, &gt_b, &gt_spec)
                    .expect("conv2d")
                    .into_vec()
            }),
        },
        Workload {
            name: "conv2d_paper_conv4_1x256x4x4_f512",
            run: Box::new(move || {
                conv2d(&p4_x, &p4_w, &p4_b, &p4_spec)
                    .expect("conv2d")
                    .into_vec()
            }),
        },
        Workload {
            name: "conv2d_paper_conv5_1x512x2x2_f512",
            run: Box::new(move || {
                conv2d(&p5_x, &p5_w, &p5_b, &p5_spec)
                    .expect("conv2d")
                    .into_vec()
            }),
        },
        Workload {
            name: "filter_lap8_8x3x32x32",
            run: {
                let x = batch.clone();
                Box::new(move || lap.apply(&x).expect("LAP apply").into_vec())
            },
        },
        Workload {
            name: "filter_lar2_backward_8x3x32x32",
            run: Box::new(move || {
                lar.backward(&batch, &grad)
                    .expect("LAR backward")
                    .into_vec()
            }),
        },
    ]
}

/// One timed cell: median over `samples` of (elapsed / iters).
fn time_ns(run: &dyn Fn() -> Vec<f32>, iters: usize, samples: usize) -> u128 {
    let mut per_iter: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(run());
            }
            start.elapsed().as_nanos() / iters as u128
        })
        .collect();
    per_iter.sort_unstable();
    per_iter[per_iter.len() / 2]
}

/// Picks an iteration count so one sample lasts roughly `target_ms`.
fn calibrate(run: &dyn Fn() -> Vec<f32>, target_ms: u128) -> usize {
    let start = Instant::now();
    black_box(run());
    let one = start.elapsed().as_nanos().max(1);
    ((target_ms * 1_000_000) / one).clamp(1, 1_000) as usize
}

struct Cell {
    workload: &'static str,
    threads: usize,
    ns_per_iter: u128,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "[kernels] host cores: {host_cores}, mode: {}",
        if quick { "smoke (--test)" } else { "full" }
    );

    let jobs = workloads();
    let mut cells: Vec<Cell> = Vec::new();

    // Scratch-arena gate: with the pool serial, one warm call per
    // workload must lease every scratch buffer from the arena without
    // growing it — the steady-state zero-allocation contract. Runs in
    // both modes so the CI smoke (`--test`) enforces it on every push.
    par::set_threads(1);
    for job in &jobs {
        black_box((job.run)());
        let before = alloc::stats();
        black_box((job.run)());
        let after = alloc::stats();
        assert_eq!(
            after.grows - before.grows,
            0,
            "{}: warm serial call grew a scratch buffer (arena disengaged?)",
            job.name
        );
    }
    let arena = alloc::stats();
    assert!(
        arena.hits > 0,
        "no arena hits across all workloads — scratch arena is not engaged"
    );
    eprintln!(
        "[kernels] arena: {} acquires, {} hits, {} grows, {} evictions (warm serial grows: 0)",
        arena.acquires, arena.hits, arena.grows, arena.evictions
    );

    for job in &jobs {
        // Bit-identity gate: the t=1 output is the reference; every other
        // thread count must reproduce it exactly before it gets timed.
        par::set_threads(1);
        let reference: Vec<u32> = (job.run)().iter().map(|v| v.to_bits()).collect();

        for &t in &THREAD_SWEEP {
            par::set_threads(t);
            let got: Vec<u32> = (job.run)().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got, reference,
                "{} diverged from the serial reference at {t} threads",
                job.name
            );
            let (iters, samples) = if quick {
                (1, 1)
            } else {
                (calibrate(&*job.run, 40), 5)
            };
            let ns = time_ns(&*job.run, iters, samples);
            eprintln!("[kernels] {:<34} t={t}  {ns:>12} ns/iter", job.name);
            cells.push(Cell {
                workload: job.name,
                threads: t,
                ns_per_iter: ns,
            });
        }
    }
    par::set_threads(1);

    if quick {
        eprintln!("[kernels] smoke mode: artifacts not written");
        return;
    }

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let json_path = format!("{root}/BENCH_kernels.json");
    let txt_path = format!("{root}/results/kernels.txt");

    let baseline = |name: &str| {
        cells
            .iter()
            .find(|c| c.workload == name && c.threads == 1)
            .map_or(0, |c| c.ns_per_iter)
    };

    let mut json = String::from("{\n  \"bench\": \"kernels\",\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(
        "  \"note\": \"pool is bit-exact across thread counts; speedups bounded by host_cores\",\n",
    );
    let final_arena = alloc::stats();
    json.push_str(&format!(
        "  \"arena\": {{\"acquires\": {}, \"hits\": {}, \"grows\": {}, \"evictions\": {}, \"warm_serial_grows\": 0}},\n",
        final_arena.acquires, final_arena.hits, final_arena.grows, final_arena.evictions
    ));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let speedup = baseline(c.workload) as f64 / c.ns_per_iter.max(1) as f64;
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"ns_per_iter\": {}, \"speedup_vs_serial\": {:.3}}}{}\n",
            c.workload,
            c.threads,
            c.ns_per_iter,
            speedup,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut txt = String::new();
    txt.push_str(&format!(
        "kernel throughput (ns/iter, median of 5) — host cores: {host_cores}\n"
    ));
    txt.push_str(&format!(
        "{:<34} {:>12} {:>12} {:>12} {:>12}\n",
        "workload", "t=1", "t=2", "t=4", "t=8"
    ));
    for job in &jobs {
        txt.push_str(&format!("{:<34}", job.name));
        for &t in &THREAD_SWEEP {
            let ns = cells
                .iter()
                .find(|c| c.workload == job.name && c.threads == t)
                .map_or(0, |c| c.ns_per_iter);
            txt.push_str(&format!(" {ns:>12}"));
        }
        txt.push('\n');
    }
    txt.push_str(&format!(
        "\nspeedup vs t=1 (bit-identical outputs asserted per cell)\n{:<34} {:>12} {:>12} {:>12} {:>12}\n",
        "workload", "t=1", "t=2", "t=4", "t=8"
    ));
    for job in &jobs {
        txt.push_str(&format!("{:<34}", job.name));
        let base = baseline(job.name);
        for &t in &THREAD_SWEEP {
            let ns = cells
                .iter()
                .find(|c| c.workload == job.name && c.threads == t)
                .map_or(1, |c| c.ns_per_iter);
            txt.push_str(&format!(" {:>11.2}x", base as f64 / ns.max(1) as f64));
        }
        txt.push('\n');
    }

    std::fs::write(&json_path, json).expect("write BENCH_kernels.json");
    std::fs::write(&txt_path, txt).expect("write results/kernels.txt");
    eprintln!("[kernels] wrote {json_path} and {txt_path}");
}
