//! `paper-sweep`: the paper's evaluation loop as a batch. Each of the
//! 108 synthesized short-trip loops is compiled once under the automatic
//! policy during set-up, then verified over 16 memory seeds per sweep
//! call through the public sweep entry point (default options, one
//! worker). Per-job fixed costs (seeding, oracle, bake, diff) dominate
//! here; the kernel itself barely registers.

use crate::inputs::{self, shuffled};
use crate::metrics::{best, geomean, median, peak_rss_mb, percentile, process_cpu_ns, Outcome};
use crate::{replay, Layers, RunConfig};
use simdize::{run_sweep_with, KernelCache, SimdProgram, SweepJob, SweepOptions};
use simdize_prng::SplitMix64;
use std::time::Instant;

/// Memory seeds each loop is verified over.
pub const SEEDS_PER_LOOP: u64 = 16;

struct Case {
    program: SimdProgram,
    jobs: Vec<SweepJob>,
}

/// The compiled batch, and the layers its compilation crossed.
struct Setup {
    cases: Vec<Case>,
    layers: Layers,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut layers = Layers::default();
    let mut cases = Vec::new();
    for l in inputs::paper_loops(seed) {
        let program = inputs::parse(&l.source, &mut layers)?;
        let program = inputs::compile(&program, &mut layers)?;
        let jobs = (0..SEEDS_PER_LOOP)
            .map(|k| SweepJob::new(program.clone(), l.first_seed + k, l.ub))
            .collect();
        cases.push(Case { program, jobs });
    }
    Ok(Setup { cases, layers })
}

/// Runs the workload.
///
/// # Errors
///
/// Inputs that do not parse or compile.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..crate::SETUPS {
        let t0 = Instant::now();
        let s = setup(cfg.seed)?;
        for case in &s.cases {
            for o in run_sweep_with(&case.jobs, SweepOptions::new(1)) {
                out.check(matches!(o, Ok(o) if o.verified));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(s);
    }
    let st = built.expect("at least one set-up");

    let mut rng = SplitMix64::new(cfg.seed).split(0x4F52_4445);
    let n = st.cases.len();
    let mut latency = vec![Vec::<f64>::new(); n];
    let mut cpu_us = vec![Vec::<f64>::new(); n];
    let (mut pass_data, mut opds) = (0u64, Vec::new());
    let mut replayed = Layers::default();
    let (mut untraced_us, mut layer_us, mut traced_us) = (0.0, 0.0, 0.0);
    let mut first_pass_counts = replay::Counts::default();
    let deadline = Instant::now() + cfg.measure;
    let mut first = true;
    // Whole passes only, so every run measures the same mix of loops.
    loop {
        let mut counts = replay::Counts::default();
        for i in shuffled(n, &mut rng) {
            let case = &st.cases[i];
            let c0 = process_cpu_ns();
            let t0 = Instant::now();
            let outcomes = run_sweep_with(&case.jobs, SweepOptions::new(1));
            let us = t0.elapsed().as_secs_f64() * 1e6;
            cpu_us[i].push((process_cpu_ns() - c0) as f64 / 1e3);
            latency[i].push(us);
            for o in &outcomes {
                out.check(matches!(o, Ok(o) if o.verified));
                if let (true, Ok(o)) = (first, o) {
                    pass_data += o.data_produced;
                    opds.push(o.stats.opd(o.data_produced));
                }
            }
            if cfg.trace {
                let mut layers = Layers::default();
                let t1 = Instant::now();
                // A fresh cache per call, as the sweep runner builds one.
                let verified = replay::sweep(
                    &case.program,
                    case.jobs.iter().map(|j| j.seed),
                    &case.jobs[0].input,
                    &KernelCache::new(1, 32),
                    &mut layers,
                    &mut counts,
                )?;
                traced_us += t1.elapsed().as_secs_f64() * 1e6;
                out.check(verified == case.jobs.len() as u64);
                untraced_us += us;
                layer_us += layers.total_us();
                replayed.merge(layers);
            }
        }
        if first {
            first_pass_counts = counts;
        }
        first = false;
        if Instant::now() >= deadline {
            break;
        }
    }
    let calls: Vec<f64> = latency.concat();

    // The rates, CPU and pass time are built from each loop's best call
    // over the passes, so a slow stretch inside the window, when other
    // tenants share the host's cores and caches, does not count. The
    // latency percentiles stay over every call: over the 108 best calls
    // p99 is the heaviest loop, which moves with the seed.
    let best_us: Vec<f64> = latency.iter().map(|v| best(v)).collect();
    let pass_us: f64 = best_us.iter().sum();
    let cases = n as f64;
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb(None)?);
    out.set("jobs_per_s", cases * SEEDS_PER_LOOP as f64 * 1e6 / pass_us);
    out.set("opd", geomean(&opds));
    out.set("req_per_s", cases * 1e6 / pass_us);
    out.set("p50_us", median(&calls));
    out.set("p99_us", percentile(&calls, 99.0));
    let cpu_us: f64 = cpu_us.iter().map(|v| best(v)).sum();
    out.set("cpu_us_per_req", cpu_us / cases);
    out.set("ns_per_datum", pass_us * 1e3 / pass_data as f64);
    out.set("verdict_s", pass_us / 1e6);

    if cfg.trace {
        let mut layers = st.layers;
        layers.merge(replayed);
        layers.export(&mut out.values);
        first_pass_counts.export(&mut out);
        out.set_coverage(
            crate::MIN_COVERAGE,
            untraced_us,
            layer_us,
            traced_us,
            calls.len() as u64,
        );
    }
    Ok(out)
}
