//! The scalar reference executor (correctness oracle and `ub ≤ 3B`
//! fallback path) and the idealistic scalar instruction count.
//!
//! [`run_scalar`] does not walk the [`Expr`] tree per element. Each call
//! resolves every statement once into a flat postfix op list over byte
//! offsets (a reference `array[stride·i + k]` becomes the byte address
//! `base + k·D`, stepping `stride·D` per iteration), proves every
//! reference in bounds for the whole trip up front, and then evaluates
//! the ops on native integers of the loop's element type. The recursive
//! tree walker survives only in this module's tests, as the reference
//! the flat oracle is checked against.

use crate::error::ExecError;
use crate::memory::MemoryImage;
use simdize_ir::{ArrayRef, BinOp, Expr, Invariant, LoopProgram, ScalarType, UnOp};

/// Executes `program` element by element, exactly as the original
/// scalar loop would, for `ub` iterations.
///
/// Returns the number of *ideal* scalar instructions executed: one per
/// load, lane operation and store — the paper's "idealistic scalar
/// instruction count" used as the speedup baseline (loop overhead and
/// address computation excluded).
///
/// # Errors
///
/// Returns [`ExecError::ElementOutOfBounds`] when `ub` drives a
/// reference outside its array — the access an iteration-by-iteration
/// run would fault on first — or [`ExecError::MissingParam`] when
/// `params` is shorter than the loop's parameter table.
///
/// Every reference is checked for the whole trip before anything is
/// written, so after an `Err` the image is exactly as it was passed in.
/// No caller reads it then: the sweep runner, the drivers and the
/// engine's scalar fallback propagate the error, and the prover skips
/// the point.
pub fn run_scalar(
    program: &LoopProgram,
    image: &mut MemoryImage,
    ub: u64,
    params: &[i64],
) -> Result<u64, ExecError> {
    if params.len() < program.params().len() {
        return Err(ExecError::MissingParam {
            index: params.len(),
        });
    }
    if ub == 0 {
        return Ok(0);
    }
    if let Some(fault) = first_fault(program, image, ub) {
        return Err(fault);
    }
    let plan = Plan::resolve(program, image, params);
    let bytes = image.bytes_mut();
    match program.elem() {
        ScalarType::I8 => plan.run::<i8>(bytes, ub),
        ScalarType::U8 => plan.run::<u8>(bytes, ub),
        ScalarType::I16 => plan.run::<i16>(bytes, ub),
        ScalarType::U16 => plan.run::<u16>(bytes, ub),
        ScalarType::I32 => plan.run::<i32>(bytes, ub),
        ScalarType::U32 => plan.run::<u32>(bytes, ub),
        ScalarType::I64 => plan.run::<i64>(bytes, ub),
        ScalarType::U64 => plan.run::<u64>(bytes, ub),
    }
    Ok(scalar_ideal_ops(program, ub))
}

/// The fault an iteration-by-iteration run of `ub > 0` trips raises
/// first, if any: the earliest iteration at which some reference leaves
/// its array. References are visited in execution order — statement by
/// statement, loads left to right, then the store (a reduction reads
/// and writes its accumulator after its loads) — so on a tied iteration
/// the first one visited wins.
fn first_fault(program: &LoopProgram, image: &MemoryImage, ub: u64) -> Option<ExecError> {
    let mut first: Option<(u64, ExecError)> = None;
    for stmt in program.stmts() {
        let mut refs = stmt.rhs.loads();
        let loads = refs.len();
        refs.push(stmt.target);
        for (pos, r) in refs.into_iter().enumerate() {
            let len = image.len_of(r.array);
            let fault = if pos == loads && stmt.is_reduction() {
                // The accumulator is one fixed element, every iteration.
                (!(0..len as i64).contains(&r.offset)).then_some((0, r.offset as u64))
            } else {
                first_fault_iter(r, len, ub).map(|i| (i, r.index_at(i)))
            };
            let Some((iter, index)) = fault else { continue };
            if first.as_ref().is_none_or(|(earliest, _)| iter < *earliest) {
                let err = ExecError::ElementOutOfBounds {
                    array: r.array,
                    index,
                    len,
                };
                first = Some((iter, err));
            }
        }
    }
    first.map(|(_, e)| e)
}

/// The first iteration below `ub` at which `r` indexes outside an
/// array of `len` elements.
fn first_fault_iter(r: ArrayRef, len: u64, ub: u64) -> Option<u64> {
    let iter = match u64::try_from(r.offset) {
        Ok(k) if k < len => (len - k).div_ceil(u64::from(r.stride)),
        _ => 0,
    };
    (iter < ub).then_some(iter)
}

/// One step of a statement's postfix op list.
#[derive(Clone, Copy)]
enum Op {
    /// Push the element at byte `at + i·step`.
    Load { at: usize, step: usize },
    /// Push a loop invariant's bits (truncated to the element width on
    /// use, as `Value::from_i64` does).
    Const(u64),
    /// Pop two operands, push `lhs op rhs`.
    Bin(BinOp),
    /// Pop one operand, push `op x`.
    Un(UnOp),
}

/// A statement resolved against one image: its ops and its store.
struct FlatStmt {
    /// The statement's range in [`Plan::ops`].
    ops: std::ops::Range<usize>,
    /// Byte address of the store (or the accumulator) at `i = 0`.
    at: usize,
    /// Store stride in bytes (0 for a reduction's accumulator).
    step: usize,
    /// `Some(op)` folds the value into the accumulator.
    reduction: Option<BinOp>,
}

/// Every statement of a loop resolved to flat ops over byte offsets.
struct Plan {
    ops: Vec<Op>,
    stmts: Vec<FlatStmt>,
}

impl Plan {
    fn resolve(program: &LoopProgram, image: &MemoryImage, params: &[i64]) -> Plan {
        let d = program.elem().size();
        let addr = |r: ArrayRef| {
            let at = image.base_of(r.array) as usize + r.offset as usize * d;
            (at, r.stride as usize * d)
        };
        let mut plan = Plan {
            ops: Vec::new(),
            stmts: Vec::with_capacity(program.stmts().len()),
        };
        for stmt in program.stmts() {
            let start = plan.ops.len();
            flatten(&stmt.rhs, &addr, params, &mut plan.ops);
            let (at, step) = addr(stmt.target);
            plan.stmts.push(FlatStmt {
                ops: start..plan.ops.len(),
                at,
                step: if stmt.is_reduction() { 0 } else { step },
                reduction: stmt.reduction,
            });
        }
        plan
    }

    fn run<T: Lane>(&self, bytes: &mut [u8], ub: u64) {
        let mut stack: Vec<T> = Vec::new();
        for i in 0..ub {
            // Lossless: `first_fault` proved every strided byte address
            // below the image length (a reduction's accumulator and
            // loop invariants have step 0).
            let i = i as usize;
            for stmt in &self.stmts {
                for op in &self.ops[stmt.ops.clone()] {
                    match *op {
                        Op::Load { at, step } => stack.push(T::read(bytes, at + i * step)),
                        Op::Const(bits) => stack.push(T::from_bits(bits)),
                        Op::Bin(op) => {
                            let rhs = stack.pop().expect("postfix operand");
                            let lhs = stack.pop().expect("postfix operand");
                            stack.push(lhs.bin(op, rhs));
                        }
                        Op::Un(op) => {
                            let x = stack.pop().expect("postfix operand");
                            stack.push(x.un(op));
                        }
                    }
                }
                let value = stack.pop().expect("statement value");
                let at = stmt.at + i * stmt.step;
                let value = match stmt.reduction {
                    Some(op) => T::read(bytes, at).bin(op, value),
                    None => value,
                };
                value.write(bytes, at);
            }
        }
    }
}

/// Appends `e`'s postfix ops to `out`, operands left to right as the
/// tree walker evaluates them.
fn flatten(
    e: &Expr,
    addr: &impl Fn(ArrayRef) -> (usize, usize),
    params: &[i64],
    out: &mut Vec<Op>,
) {
    match e {
        Expr::Load(r) => {
            let (at, step) = addr(*r);
            out.push(Op::Load { at, step });
        }
        Expr::Splat(Invariant::Const(c)) => out.push(Op::Const(*c as u64)),
        Expr::Splat(Invariant::Param(p)) => out.push(Op::Const(params[p.index()] as u64)),
        Expr::Binary(op, a, b) => {
            flatten(a, addr, params, out);
            flatten(b, addr, params, out);
            out.push(Op::Bin(*op));
        }
        Expr::Unary(op, a) => {
            flatten(a, addr, params, out);
            out.push(Op::Un(*op));
        }
    }
}

/// A native integer standing in for one lane of the loop's element
/// type, with [`simdize_ir::Value`]'s semantics: wrapping arithmetic,
/// signedness-aware `Min`/`Max`/`Abs` (`abs(MIN) == MIN`).
trait Lane: Copy {
    fn read(bytes: &[u8], at: usize) -> Self;
    fn write(self, bytes: &mut [u8], at: usize);
    fn from_bits(bits: u64) -> Self;
    fn bin(self, op: BinOp, rhs: Self) -> Self;
    fn un(self, op: UnOp) -> Self;
}

macro_rules! lane {
    ($($t:ty => $abs:expr),* $(,)?) => {$(
        impl Lane for $t {
            #[inline(always)]
            fn read(bytes: &[u8], at: usize) -> $t {
                const N: usize = std::mem::size_of::<$t>();
                let le: &[u8; N] = bytes[at..].first_chunk().expect("element in image");
                <$t>::from_le_bytes(*le)
            }

            #[inline(always)]
            fn write(self, bytes: &mut [u8], at: usize) {
                const N: usize = std::mem::size_of::<$t>();
                bytes[at..at + N].copy_from_slice(&self.to_le_bytes());
            }

            #[inline(always)]
            fn from_bits(bits: u64) -> $t {
                bits as $t
            }

            #[inline(always)]
            fn bin(self, op: BinOp, rhs: $t) -> $t {
                match op {
                    BinOp::Add => self.wrapping_add(rhs),
                    BinOp::Sub => self.wrapping_sub(rhs),
                    BinOp::Mul => self.wrapping_mul(rhs),
                    BinOp::Min => self.min(rhs),
                    BinOp::Max => self.max(rhs),
                    BinOp::And => self & rhs,
                    BinOp::Or => self | rhs,
                    BinOp::Xor => self ^ rhs,
                }
            }

            #[inline(always)]
            fn un(self, op: UnOp) -> $t {
                match op {
                    UnOp::Neg => self.wrapping_neg(),
                    UnOp::Not => !self,
                    UnOp::Abs => $abs(self),
                }
            }
        }
    )*};
}

lane! {
    i8 => i8::wrapping_abs,
    u8 => std::convert::identity,
    i16 => i16::wrapping_abs,
    u16 => std::convert::identity,
    i32 => i32::wrapping_abs,
    u32 => std::convert::identity,
    i64 => i64::wrapping_abs,
    u64 => std::convert::identity,
}

/// The paper's idealistic scalar instruction count for `ub` iterations:
/// per statement, one instruction per load, per lane operation and for
/// the store. For a statement with `l` loads combined by `l − 1` adds
/// this is `2l` per datum — e.g. 12 OPD for the 6-load single-statement
/// benchmark (the `SEQ` bar of Figure 11).
pub fn scalar_ideal_ops(program: &LoopProgram, ub: u64) -> u64 {
    let per_iter: u64 = program
        .stmts()
        .iter()
        .map(|s| (s.rhs.loads().len() + s.rhs.op_count() + 1) as u64)
        .sum();
    per_iter * ub
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdize_ir::{parse_program, ArrayId, Value, VectorShape};
    use simdize_prng::SplitMix64;
    use simdize_workloads::{synthesize, TripSpec, WorkloadSpec};

    /// The original oracle: walks the `Expr` tree per element and
    /// bounds-checks every `get`/`set`. Kept only as the reference the
    /// flat oracle is differentially tested against.
    fn run_scalar_tree(
        program: &LoopProgram,
        image: &mut MemoryImage,
        ub: u64,
        params: &[i64],
    ) -> Result<u64, ExecError> {
        if params.len() < program.params().len() {
            return Err(ExecError::MissingParam {
                index: params.len(),
            });
        }
        for i in 0..ub {
            for stmt in program.stmts() {
                let value = eval(&stmt.rhs, i, program, image, params)?;
                match stmt.reduction {
                    Some(op) => {
                        let idx = stmt.target.offset as u64;
                        let acc = image.get(stmt.target.array, idx)?;
                        image.set(stmt.target.array, idx, op.apply(acc, value))?;
                    }
                    None => {
                        image.set(stmt.target.array, stmt.target.index_at(i), value)?;
                    }
                }
            }
        }
        Ok(scalar_ideal_ops(program, ub))
    }

    fn eval(
        e: &Expr,
        i: u64,
        program: &LoopProgram,
        image: &MemoryImage,
        params: &[i64],
    ) -> Result<Value, ExecError> {
        Ok(match e {
            Expr::Load(r) => image.get(r.array, r.index_at(i))?,
            Expr::Splat(Invariant::Const(c)) => Value::from_i64(program.elem(), *c),
            Expr::Splat(Invariant::Param(p)) => Value::from_i64(program.elem(), params[p.index()]),
            Expr::Binary(op, a, b) => op.apply(
                eval(a, i, program, image, params)?,
                eval(b, i, program, image, params)?,
            ),
            Expr::Unary(op, a) => op.apply(eval(a, i, program, image, params)?),
        })
    }

    /// Runs both oracles on the seeded image and requires the same
    /// `Result` and, on success, the same bytes. Returns the result.
    fn agree(p: &LoopProgram, seed: u64, ub: u64, params: &[i64]) -> Result<u64, ExecError> {
        let start = MemoryImage::with_seed(p, VectorShape::V16, seed);
        let mut flat = start.clone();
        let mut tree = start.clone();
        let got = run_scalar(p, &mut flat, ub, params);
        let want = run_scalar_tree(p, &mut tree, ub, params);
        assert_eq!(got, want, "seed {seed} ub {ub}\n{}", p.to_source());
        if got.is_ok() {
            assert_eq!(
                flat.first_difference(&tree),
                None,
                "seed {seed} ub {ub}\n{}",
                p.to_source()
            );
        } else {
            assert_eq!(flat, start, "a faulting trip leaves the image untouched");
        }
        got
    }

    /// The largest trip every reference of `p` stays in bounds for.
    fn max_trip(p: &LoopProgram) -> u64 {
        p.all_refs()
            .iter()
            .map(|r| (p.array(r.array).len() - r.offset as u64).div_ceil(u64::from(r.stride)))
            .min()
            .unwrap()
    }

    #[test]
    fn flat_oracle_matches_tree_walker_on_synthesized_loops() {
        // The paper's (l, s, n, b, r) generator at every element width,
        // compile-time and runtime alignments and trips, strided loads
        // included; runtime trips also run at 0, 1 and past the arrays.
        let mut rng = SplitMix64::seed_from_u64(0x0AC1E);
        for elem in ScalarType::ALL {
            for (s, l) in [(1, 1), (1, 6), (2, 3), (4, 2)] {
                for runtime in [false, true] {
                    let trip = if runtime {
                        TripSpec::Runtime
                    } else {
                        TripSpec::KnownInRange(40, 90)
                    };
                    let mut spec = WorkloadSpec::new(s, l)
                        .elem(elem)
                        .bias(rng.range_u64(0, 3) as f64 / 2.0)
                        .reuse(rng.range_u64(0, 3) as f64 / 2.0)
                        .trip(trip)
                        .runtime_align(runtime);
                    if !runtime {
                        spec = spec.strides(vec![1, 2, 4]);
                    }
                    let p = synthesize(&spec, &mut rng);
                    let seed = rng.next_u64();
                    match p.trip().known() {
                        Some(n) => {
                            agree(&p, seed, n, &[]).unwrap();
                        }
                        None => {
                            let fits = max_trip(&p);
                            for ub in [0, 1, 37, fits] {
                                agree(&p, seed, ub, &[]).unwrap();
                            }
                            for ub in [fits + 1, fits + 9] {
                                agree(&p, seed, ub, &[]).unwrap_err();
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flat_oracle_matches_tree_walker_on_every_operator() {
        // Reductions, params, unary ops and signed vs unsigned min/max
        // at every element width; seeds give both signs of every lane.
        for elem in ScalarType::ALL {
            let src = format!(
                "arrays {{ a: {t}[80] @ 4; b: {t}[80] @ ?; c: {t}[80] @ 8;
                           m: {t}[80] @ 0; acc: {t}[4] @ 0; lo: {t}[2] @ ?; }}
                 params {{ k; g; }}
                 for i in 0..ub {{
                     a[i+1] = min(b[i], c[i+2]) * k - abs(b[i+1]) ^ ~(c[i]);
                     m[i] = max(-(b[i+3]), c[i] + 5) & (b[i] | g);
                     acc[i+2] += b[i] * c[i+1];
                     lo[i+1] min= c[i+3] - g;
                 }}",
                t = elem.name()
            );
            let p = parse_program(&src).unwrap();
            for seed in 0..4 {
                for ub in [0, 1, 17, 76, 77, 78] {
                    let r = agree(&p, seed, ub, &[3, -1]);
                    assert_eq!(r.is_ok(), ub <= 77, "{elem} ub {ub}");
                }
            }
            agree(&p, 0, 5, &[3]).unwrap_err();
        }
    }

    #[test]
    fn faults_match_tree_walker_in_execution_order() {
        // The first fault in (iteration, statement, load order, store)
        // order wins, with the walker's index and length.
        let oob = |array, index, len| {
            Err(ExecError::ElementOutOfBounds {
                array: ArrayId::from_index(array),
                index,
                len,
            })
        };
        let cases = [
            // A later statement's strided load faults first.
            (
                "arrays { a: i32[64] @ 0; b: i32[40] @ 4; c: i32[30] @ 8; x: i32[20] @ 0; s: i32[2] @ 0; }
                 for i in 0..ub { a[i] = b[i+10] + c[i]; x[i] = c[2*i+1]; s[i+1] max= b[i]; }",
                16,
                oob(2, 31, 30),
            ),
            // Two loads leave their arrays on the same iteration: the
            // left operand is evaluated first.
            (
                "arrays { a: i32[64] @ 0; b: i32[40] @ 4; c: i32[30] @ 8; }
                 for i in 0..ub { a[i] = c[i] + b[i+10]; }",
                31,
                oob(2, 30, 30),
            ),
            (
                "arrays { a: i32[64] @ 0; b: i32[40] @ 4; c: i32[30] @ 8; }
                 for i in 0..ub { a[i] = b[i+10] + c[i]; }",
                31,
                oob(1, 40, 40),
            ),
            // The store faults before its load does.
            (
                "arrays { x: i32[20] @ 0; c: i32[30] @ 8; }
                 for i in 0..ub { x[i] = c[i+9]; }",
                21,
                oob(0, 20, 20),
            ),
        ];
        for (src, ub, want) in cases {
            let p = parse_program(src).unwrap();
            assert_eq!(agree(&p, 3, ub, &[]), want, "{src}");
            for ub in [0, 1, ub - 1, ub + 1, ub + 40] {
                let _ = agree(&p, 3, ub, &[]);
            }
        }
    }

    #[test]
    fn executes_the_paper_example() {
        let p = parse_program(
            "arrays { a: i32[128] @ 0; b: i32[128] @ 0; c: i32[128] @ 0; }
             for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
        )
        .unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 11);
        let ops = run_scalar(&p, &mut img, 100, &[]).unwrap();
        assert_eq!(ops, 400); // (2 loads + 1 add + 1 store) × 100
    }

    #[test]
    fn results_match_hand_computation() {
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; c: i32[64] @ 0; }
             for i in 0..32 { a[i] = b[i+1] * 2 + c[i]; }",
        )
        .unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        let (a, b, c) = (
            ArrayId::from_index(0),
            ArrayId::from_index(1),
            ArrayId::from_index(2),
        );
        let expect: Vec<i64> = (0..32)
            .map(|i| {
                let bv = img.get(b, i + 1).unwrap().as_i64();
                let cv = img.get(c, i).unwrap().as_i64();
                (bv.wrapping_mul(2)).wrapping_add(cv) as i32 as i64
            })
            .collect();
        run_scalar(&p, &mut img, 32, &[]).unwrap();
        for i in 0..32u64 {
            assert_eq!(img.get(a, i).unwrap().as_i64(), expect[i as usize]);
        }
    }

    #[test]
    fn params_are_respected() {
        let p = parse_program(
            "arrays { a: i16[32] @ 0; b: i16[32] @ 0; }
             params { gain; }
             for i in 0..16 { a[i] = b[i] * gain; }",
        )
        .unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        let b0 = img.get(ArrayId::from_index(1), 0).unwrap().as_i64();
        run_scalar(&p, &mut img, 16, &[3]).unwrap();
        assert_eq!(
            img.get(ArrayId::from_index(0), 0).unwrap().as_i64(),
            (b0.wrapping_mul(3)) as i16 as i64
        );
        let mut img2 = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        assert!(matches!(
            run_scalar(&p, &mut img2, 16, &[]),
            Err(ExecError::MissingParam { .. })
        ));
    }

    #[test]
    fn trip_beyond_array_faults() {
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; }
             for i in 0..ub { a[i] = b[i+1]; }",
        )
        .unwrap();
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        assert!(run_scalar(&p, &mut img, 63, &[]).is_ok());
        let mut img = MemoryImage::with_seed(&p, VectorShape::V16, 5);
        assert!(run_scalar(&p, &mut img, 64, &[]).is_err());
    }

    #[test]
    fn ideal_count_matches_seq_bar() {
        // 1 statement × 6 loads: 6 + 5 + 1 = 12 per datum.
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; c: i32[64] @ 0; d: i32[64] @ 0;
                      e: i32[64] @ 0; f: i32[64] @ 0; g: i32[64] @ 0; }
             for i in 0..32 { a[i] = b[i] + c[i] + d[i] + e[i] + f[i] + g[i+1]; }",
        )
        .unwrap();
        assert_eq!(scalar_ideal_ops(&p, 32), 12 * 32);
    }
}
