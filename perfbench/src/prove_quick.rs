//! `prove-quick`: time to a verdict for `verify --quick` on 2 threads
//! over every sample loop. Many tiny trips × configurations run through
//! the same compile, bake, lower and oracle layers as the other
//! workloads, but per-call fixed costs dominate: a change that buys
//! long-trip speed with per-call set-up shows as a regression here.
//!
//! The traced run replays each proof as `parse` plus one `prove_loop`
//! call, timed as the `verify.prove_us` layer. The prover's compile,
//! bake, lower and oracle calls happen inside it and are not split out:
//! its domain of configurations and trips is not public, so the
//! benchmark cannot make those calls itself.

use crate::inputs::{self, shuffled, LOOPS};
use crate::metrics::{cpu_seconds, geomean, median, peak_rss_mb, percentile, Outcome};
use crate::{Layers, RunConfig};
use simdize::{prove_loop, prove_source, run_sweep_with, SweepJob, SweepOptions, VerifyOptions};
use simdize_prng::SplitMix64;
use std::time::Instant;

/// Prover worker threads, as `simdize verify --quick` uses on a 2-core
/// host.
const THREADS: usize = 2;

/// Trip count for the loop with a runtime `ub` when its `opd` is taken.
const OPD_UB: u64 = 1000;

/// The quick-proof options every proof uses.
fn options() -> VerifyOptions {
    let mut opts = VerifyOptions::quick();
    opts.threads = THREADS;
    opts
}

struct Loop {
    name: &'static str,
    source: String,
}

/// Parses, compiles and runs each loop once (its `opd`), charging the
/// layers; returns the loops and their `opd` values.
fn setup(
    cfg: &RunConfig,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(Vec<Loop>, Vec<f64>), String> {
    let mut loops = Vec::new();
    let mut opds = Vec::new();
    let mut rng = SplitMix64::new(cfg.seed).split(0x4F50_4421);
    for name in LOOPS {
        let source = inputs::read_loop(&cfg.root, name)?;
        let program = inputs::parse(&source, layers)?;
        let compiled = inputs::compile(&program, layers)?;
        let job = SweepJob::new(compiled, rng.next_u64() >> 16, OPD_UB);
        let outcome = run_sweep_with(&[job], SweepOptions::new(1)).pop();
        let ok = matches!(&outcome, Some(Ok(o)) if o.verified);
        out.check(ok);
        if let Some(Ok(o)) = outcome {
            opds.push(o.stats.opd(o.data_produced));
        }
        loops.push(Loop { name, source });
    }
    Ok((loops, opds))
}

/// Runs the workload.
///
/// # Errors
///
/// A loop that cannot be read, parsed or compiled.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let opts = options();
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..crate::SETUPS {
        let t0 = Instant::now();
        let mut layers = Layers::default();
        let (loops, opds) = setup(cfg, &mut layers, &mut out)?;
        // Warm-up: one full pass. Cold first passes ran 30-100% slow.
        for l in &loops {
            let report = prove_source(l.name, &l.source, &opts).map_err(|e| e.to_string())?;
            out.check(report.proved);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((loops, opds, layers));
    }
    let (loops, opds, mut layers) = built.expect("at least one set-up");

    let mut rng = SplitMix64::new(cfg.seed).split(0x5052_4F56);
    let mut latency = Vec::<f64>::new();
    let mut passes = Vec::<f64>::new();
    let mut verdict_ms = vec![Vec::<f64>::new(); loops.len()];
    // Units and runs of the first timed pass, which repeat exactly.
    let (mut first_units, mut first_runs) = (0u64, 0u64);
    let (mut runs, mut points) = (0u64, 0u64);
    let (mut untraced_us, mut layer_us, mut traced_us) = (0.0, 0.0, 0.0);
    let mut replay_runs = 0u64;
    let cpu0 = cpu_seconds(None)?;
    let start = Instant::now();
    let deadline = start + cfg.measure;
    // Whole passes only: a verdict covers every loop.
    while Instant::now() < deadline || passes.is_empty() {
        let pass_start = Instant::now();
        for i in shuffled(loops.len(), &mut rng) {
            let l = &loops[i];
            let t0 = Instant::now();
            let report = prove_source(l.name, &l.source, &opts).map_err(|e| e.to_string())?;
            let us = t0.elapsed().as_secs_f64() * 1e6;
            latency.push(us);
            out.check(report.proved);
            runs += report.runs;
            points += report.points;
            if passes.is_empty() {
                first_units += report.units_compiled;
                first_runs += report.runs;
            }
            if cfg.trace {
                let mut one = Layers::default();
                let t1 = Instant::now();
                let program = inputs::parse(&l.source, &mut one)?;
                let report = one.time("verify.prove_us", || prove_loop(l.name, &program, &opts));
                traced_us += t1.elapsed().as_secs_f64() * 1e6;
                out.check(report.proved);
                verdict_ms[i].push(one.total_us() / 1e3);
                replay_runs += report.runs;
                untraced_us += us;
                layer_us += one.total_us();
                layers.merge(one);
            }
        }
        passes.push(pass_start.elapsed().as_secs_f64());
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds(None)? - cpu0;
    let proofs = latency.len() as f64;

    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb(None)?);
    out.set("jobs_per_s", runs as f64 / wall);
    out.set("opd", geomean(&opds));
    out.set("req_per_s", proofs / wall);
    out.set("p50_us", median(&latency));
    out.set("p99_us", percentile(&latency, 99.0));
    out.set("cpu_us_per_req", cpu * 1e6 / proofs);
    out.set("ns_per_datum", wall * 1e9 / points as f64);
    out.set("verdict_s", median(&passes));

    if cfg.trace {
        layers.export(&mut out.values);
        out.set("verify.units", first_units as f64);
        out.set("verify.runs", first_runs as f64);
        out.set(
            "verify.runs_per_s",
            replay_runs as f64 / (out.values["verify.prove_us"] / 1e6),
        );
        for (l, ms) in loops.iter().zip(&verdict_ms) {
            out.set(&format!("verify.{}.verdict_ms", l.name), median(ms));
        }
        out.set_coverage(
            crate::MIN_COVERAGE,
            untraced_us,
            layer_us,
            traced_us,
            proofs as u64,
        );
    }
    Ok(out)
}
