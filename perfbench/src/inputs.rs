//! Seeded inputs for every workload, and the compile step replayed
//! layer by layer.
//!
//! Only generated inputs reach the program: loops are synthesized, then
//! rendered to loop text, and the workloads parse that text.

use crate::Layers;
use simdize::{
    generate, generate_strided, lower_bound_parts, parse_program, synthesize, CodegenOptions,
    LoopProgram, ReorgGraph, ReuseMode, ScalarType, SimdProgram, Simdizer, TripSpec, VectorShape,
    WorkloadSpec,
};
use simdize_prng::SplitMix64;
use std::path::Path;

/// The `kernel-steady` kernels, in report order.
pub const KERNELS: [&str; 5] = ["fig1", "chain6", "fir4", "copy3", "halfword"];

/// The sample loops under `loops/` that `prove-quick` proves.
pub const LOOPS: [&str; 5] = [
    "deinterleave",
    "dot_product",
    "figure1",
    "halfword",
    "runtime",
];

/// Reads `loops/<name>.loop` under the repository root `root`.
pub fn read_loop(root: &Path, name: &str) -> Result<String, String> {
    let path = root.join("loops").join(format!("{name}.loop"));
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loop text of a `kernel-steady` kernel. Trip counts keep each image
/// near 512 KiB, so the image and its oracle both stay in a 2 MiB L2
/// while a pass runs and is compared: at a 1M trip (12 MiB) the fig1
/// time swung by a third between runs.
pub fn kernel_source(root: &Path, name: &str) -> Result<String, String> {
    let arrays = |n: u64, decls: &[(&str, u32)]| -> String {
        decls
            .iter()
            .map(|(a, align)| format!("{a}: i32[{}] @ {align};", n + 16))
            .collect::<Vec<_>>()
            .join(" ")
    };
    Ok(match name {
        "fig1" => {
            let n = 40_960;
            format!(
                "arrays {{ {} }} for i in 0..{n} {{ a[i+3] = b[i+1] + c[i+2]; }}",
                arrays(n, &[("a", 0), ("b", 4), ("c", 8)])
            )
        }
        "chain6" => {
            let n = 16_384;
            format!(
                "arrays {{ {} }} for i in 0..{n} {{ a[i] = b[i+1] + c[i+2] + d[i+3] + e[i+3] + f[i+1] + g[i+2]; }}",
                arrays(n, &[("a", 0), ("b", 4), ("c", 8), ("d", 12), ("e", 4), ("f", 8), ("g", 12)])
            )
        }
        "fir4" => {
            let n = 65_536;
            format!(
                "arrays {{ {} }} for i in 0..{n} {{ a[i] = b[i] + b[i+1] + b[i+2] + b[i+3]; }}",
                arrays(n, &[("a", 0), ("b", 0)])
            )
        }
        "copy3" => {
            let n = 65_536;
            format!(
                "arrays {{ {} }} for i in 0..{n} {{ a[i] = b[i+3]; }}",
                arrays(n, &[("a", 0), ("b", 12)])
            )
        }
        "halfword" => read_loop(root, "halfword")?,
        other => return Err(format!("unknown kernel `{other}`")),
    })
}

/// One `paper-sweep` loop: its text and the trip count it runs at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaperLoop {
    /// Loop text.
    pub source: String,
    /// Trip count (the compile-time one when the loop has it).
    pub ub: u64,
    /// First of the loop's 16 consecutive memory-image seeds.
    pub first_seed: u64,
}

/// Short trips, so per-job fixed costs dominate as in a verification
/// sweep.
const SHORT_TRIP: (u64, u64) = (190, 210);

/// The `paper-sweep` batch: §5.3 synthesized loops for every
/// statements `s` ∈ {1,2,4} × loads `l` ∈ {2,4,6} × element {i32,i16}
/// × alignment {compile-time, runtime}: two with a runtime trip and one
/// with a compile-time trip each, 108 in all. Runtime-trip loops carry
/// 4096-element arrays and cost far more to sweep than compile-time
/// ones; an even split put the median sweep on the edge between the
/// two modes.
pub fn paper_loops(seed: u64) -> Vec<PaperLoop> {
    let mut rng = SplitMix64::new(seed).split(0x5045_5250);
    let mut out = Vec::new();
    for s in [1, 2, 4] {
        for l in [2, 4, 6] {
            for elem in [ScalarType::I32, ScalarType::I16] {
                for runtime_align in [false, true] {
                    for runtime_trip in [false, true, true] {
                        let trip = if runtime_trip {
                            TripSpec::Runtime
                        } else {
                            TripSpec::KnownInRange(SHORT_TRIP.0, SHORT_TRIP.1)
                        };
                        let spec = WorkloadSpec::new(s, l)
                            .elem(elem)
                            .runtime_align(runtime_align)
                            .trip(trip);
                        let program = synthesize(&spec, &mut rng);
                        let ub = program
                            .trip()
                            .known()
                            .unwrap_or_else(|| rng.range_inclusive(SHORT_TRIP.0, SHORT_TRIP.1));
                        out.push(PaperLoop {
                            source: program.to_source(),
                            ub,
                            first_seed: rng.next_u64() >> 16,
                        });
                    }
                }
            }
        }
    }
    out
}

/// One synthesized `serve-mixed` loop of `statements` × `loads` with
/// array reuse `reuse`, with everything known at compile time (short
/// trip) or nothing (runtime alignments and `ub`). Runtime loops get
/// arrays sized for the short trip, not the generator's 4096: a server
/// request then pays for parsing and compiling rather than for seeding
/// 4096-element images, and runtime and compile-time requests cost
/// alike, which keeps the latency medians off the edge between two
/// modes.
pub fn serve_loop(
    rng: &mut SplitMix64,
    statements: usize,
    loads: usize,
    reuse: f64,
    elem: ScalarType,
    runtime: bool,
) -> String {
    let trip = if runtime {
        TripSpec::Runtime
    } else {
        TripSpec::KnownInRange(SHORT_TRIP.0, SHORT_TRIP.1)
    };
    let spec = WorkloadSpec::new(statements, loads)
        .reuse(reuse)
        .elem(elem)
        .runtime_align(runtime)
        .trip(trip);
    let source = synthesize(&spec, rng).to_source();
    if !runtime {
        return source;
    }
    let slack = 2 * (16 / elem.size() as u64) + 8;
    source.replace(
        &format!("[{}]", RUNTIME_ARRAY + slack),
        &format!("[{}]", SHORT_TRIP.1 + slack),
    )
}

/// Elements the loop generator gives a runtime-trip loop's arrays,
/// before slack for offsets.
const RUNTIME_ARRAY: u64 = 4096;

/// A random permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.index(i + 1));
    }
    v
}

/// Parses `source`, charging `ir.parse_us`.
pub fn parse(source: &str, layers: &mut Layers) -> Result<LoopProgram, String> {
    layers
        .time("ir.parse_us", || parse_program(source))
        .map_err(|e| e.to_string())
}

/// Compiles `program` under the automatic policy through the same
/// public calls as `Simdizer::new().compile`, charging shift placement
/// to `reorg.place_us` and generation to `codegen.generate_us`, and
/// counting shifts placed (`reorg.shifts`), their §5.3 lower bound
/// (`reorg.bound`) and instructions generated (`codegen.insts`).
/// Strided loops bypass shift placement and count no shifts.
pub fn compile(program: &LoopProgram, layers: &mut Layers) -> Result<SimdProgram, String> {
    let shape = VectorShape::V16;
    let strided = program.all_refs().iter().any(|r| !r.is_unit_stride());
    let (compiled, shifts, bound) = if strided {
        let p = layers.time("codegen.generate_us", || generate_strided(program, shape));
        (p.map_err(|e| e.to_string())?, 0, 0)
    } else {
        let policy = Simdizer::new().policy_for(program);
        let graph = layers.time("reorg.place_us", || {
            ReorgGraph::build(program, shape)
                .map_err(|e| e.to_string())?
                .with_policy(policy)
                .map_err(|e| e.to_string())
        })?;
        let options = CodegenOptions::default().reuse(ReuseMode::SoftwarePipeline);
        let p = layers
            .time("codegen.generate_us", || generate(&graph, &options))
            .map_err(|e| e.to_string())?;
        let bound = lower_bound_parts(program, shape, policy).shifts;
        (p, graph.shift_count(), bound)
    };
    let insts = compiled.prologue().len() + compiled.body().len() + compiled.epilogue().len();
    layers.count("reorg.shifts", shifts as f64);
    layers.count("reorg.bound", bound as f64);
    layers.count("codegen.insts", insts as f64);
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_loops() {
        let a = paper_loops(7);
        assert_eq!(a, paper_loops(7));
        assert_eq!(a.len(), 108);
        let b = paper_loops(8);
        assert!(a.iter().zip(&b).all(|(x, y)| x.source != y.source));
        let serve = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..16)
                .map(|i| serve_loop(&mut rng, 1 + i % 2, 2, 0.3, ScalarType::I16, i % 3 == 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(serve(3), serve(3));
        assert_ne!(serve(3), serve(4));
    }

    #[test]
    fn runtime_serve_loops_have_short_arrays() {
        let mut rng = SplitMix64::new(5);
        for elem in [ScalarType::I32, ScalarType::I16] {
            let src = serve_loop(&mut rng, 2, 3, 0.0, elem, true);
            let p = parse_program(&src).unwrap();
            assert!(p.arrays().iter().all(|a| a.len() < 300), "{src}");
        }
    }

    #[test]
    fn layered_compile_matches_simdizer() {
        let mut sources: Vec<String> = paper_loops(1).into_iter().map(|p| p.source).collect();
        for k in KERNELS {
            sources.push(kernel_source(root(), k).unwrap());
        }
        for l in LOOPS {
            sources.push(read_loop(root(), l).unwrap());
        }
        for src in sources {
            let p = parse_program(&src).unwrap();
            let mut layers = Layers::default();
            let ours = compile(&p, &mut layers).unwrap();
            assert_eq!(ours, Simdizer::new().compile(&p).unwrap(), "{src}");
        }
    }

    #[test]
    fn prove_list_is_every_sample_loop() {
        let mut names: Vec<String> = std::fs::read_dir(root().join("loops"))
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                name.strip_suffix(".loop").map(str::to_string)
            })
            .collect();
        names.sort();
        assert_eq!(names, LOOPS);
    }
}
