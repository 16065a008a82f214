//! Job-by-job replay of the sweep runner's public calls, shared by the
//! traced runs of `paper-sweep` and `serve-mixed` (whose `run` and
//! `sweep` verbs execute through the same runner).

use crate::{Layers, Outcome};
use simdize::{
    program_fingerprint, run_scalar, KernelCache, KernelOptions, MemoryImage, PredecodedKernel,
    RunInput, SimdProgram, VectorShape,
};

/// Kernel-cache lookups and seeded bytes of a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    hits: u64,
    misses: u64,
    evictions: u64,
    seed_bytes: u64,
}

impl Counts {
    /// Sets the engine-cache and seeding metrics.
    pub fn export(&self, out: &mut Outcome) {
        let lookups = (self.hits + self.misses).max(1);
        out.set("engine.cache_hit_rate", self.hits as f64 / lookups as f64);
        out.set("engine.cache_misses", self.misses as f64);
        out.set("engine.cache_evictions", self.evictions as f64);
        out.set("vm.seed_bytes", self.seed_bytes as f64);
    }
}

/// Replays one sweep of `program` over `seeds` at `input` as the sweep
/// runner executes it on one worker: pre-decode once, then per job
/// seed (or reseed) the engine image, copy it to the oracle image,
/// bake through `cache`, run, run the scalar oracle and diff, each
/// charged to its layer. Returns how many jobs verified.
///
/// # Errors
///
/// A pre-decode, bake or execution failure.
pub fn sweep(
    program: &SimdProgram,
    seeds: impl IntoIterator<Item = u64>,
    input: &RunInput,
    cache: &KernelCache,
    layers: &mut Layers,
    counts: &mut Counts,
) -> Result<u64, String> {
    let shape = VectorShape::V16;
    let (pre, fingerprint) = layers.time("engine.predecode_us", || {
        (PredecodedKernel::new(program), program_fingerprint(program))
    });
    let pre = pre.map_err(|e| e.to_string())?;
    let opts = KernelOptions::new().disassembly(false);
    let source = program.source();
    let ub = source.trip().known().unwrap_or(input.ub);
    let (mut engine, mut oracle): (Option<MemoryImage>, Option<MemoryImage>) = (None, None);
    let mut verified = 0;
    for seed in seeds {
        let mut img = layers.time("vm.seed_us", || match engine.take() {
            Some(mut img) => {
                img.reseed(source, shape, seed);
                img
            }
            None => MemoryImage::with_seed(source, shape, seed),
        });
        let mut orc = layers.time("vm.seed_us", || match oracle.take() {
            Some(mut orc) => {
                orc.copy_from(&img);
                orc
            }
            None => img.clone(),
        });
        counts.seed_bytes += img.bytes().len() as u64;
        let (kernel, lookup) = layers
            .time("engine.bake_us", || {
                cache.get_or_bake(fingerprint, &pre, &img, input, &opts)
            })
            .map_err(|e| e.to_string())?;
        counts.hits += u64::from(lookup.hit);
        counts.misses += u64::from(!lookup.hit);
        counts.evictions += u64::from(lookup.evicted);
        layers
            .time("engine.run_us", || kernel.run(&mut img))
            .map_err(|e| e.to_string())?;
        layers
            .time("vm.oracle_us", || {
                run_scalar(source, &mut orc, ub, &input.params)
            })
            .map_err(|e| e.to_string())?;
        verified += u64::from(layers.time("vm.diff_us", || img.first_difference(&orc).is_none()));
        engine = Some(img);
        oracle = Some(orc);
    }
    Ok(verified)
}
