//! JIT code generation for SpMM kernels (§IV of the paper).
//!
//! Every kernel has one call shape,
//! `extern "C" fn(args: *const LaunchArgs, row_start: u64, row_end: u64)`,
//! and depends only on the problem's *shape* — `d`, the element type, the
//! ISA tier and the workload-division strategy. The operands arrive in the
//! `LaunchArgs` block, so one compiled kernel serves any number of
//! concurrent launches, each with its own block. Two kinds exist:
//!
//! * a **static-range kernel**, used by the static row-split, nnz-split and
//!   merge-split strategies, computes rows `[row_start, row_end)` (the host
//!   computes each thread's range and every thread calls the same code);
//! * a **dynamic-dispatch kernel** ignores the range and claims batches of
//!   rows with `lock xadd` on the block's claim counter, exactly as in
//!   Listing 1 of the paper (the counter sits at offset 0, so the claim
//!   targets `[args]`).
//!
//! Both wrap the same per-row body: with coarse-grain column merging (CCM)
//! enabled the body keeps the whole output row in SIMD registers according
//! to a [`CcmPlan`] and unrolls the column dimension completely (Listing 2);
//! with CCM disabled (the ablation configuration) the body loops over column
//! blocks at run time like an AOT kernel would.
//!
//! ## Register assignment
//!
//! The prologue loads every operand from the block once, with one 4-byte
//! `mov r64, [r14 + disp8]` each; the row and non-zero loops then run on
//! registers only.
//!
//! | register | role |
//! |---|---|
//! | `rdi` | current row |
//! | `rsi` | row range end |
//! | `rbx` | `row_ptr` base (from `args`) |
//! | `rcx` | `col_indices` base (from `args`) |
//! | `rdx` | `values` base (from `args`) |
//! | `r8`  | dense input `X` base (from `args`) |
//! | `r9`  | dense output `Y` base (from `args`) |
//! | `r10` | current position in the non-zero arrays |
//! | `r11` | end position of the current row |
//! | `r12` | byte offset of the dense row selected by the current non-zero |
//! | `r13` | byte offset of the output row |
//! | `r14` | the `args` block; for dynamic dispatch also the claim counter |
//! | `r15` | dynamic dispatch: row count (from `args`) |
//! | `rax`, `rbp` | scratch for the non-CCM column loop |
//!
//! `zmm31` (AVX-512) or `ymm15`/`xmm15` (narrower tiers) holds the broadcast
//! non-zero value, mirroring §IV.D.1.

use crate::error::JitSpmmError;
use crate::tiling::{CcmPlan, Segment, SegmentWidth};
use jitspmm_asm::{Assembler, Cond, CpuFeatures, Gpr, IsaLevel, Mem, Scale, VecReg, VecWidth, Xmm};
use jitspmm_sparse::{CsrMatrix, Scalar, ScalarKind};
use std::sync::atomic::AtomicU64;

/// Options controlling kernel generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOptions {
    /// Target ISA tier.
    pub isa: IsaLevel,
    /// Whether coarse-grain column merging is applied (true in the paper;
    /// false only for the ablation study).
    pub ccm: bool,
    /// Host CPU features (used to pick `vxorps` vs `vpxord` and to validate
    /// FMA availability).
    pub features: CpuFeatures,
    /// Record a textual listing of the emitted instructions (debugging /
    /// profiling aid; slows code generation down).
    pub listing: bool,
}

impl KernelOptions {
    /// Options targeting the best ISA the host supports, with CCM enabled.
    pub fn native() -> KernelOptions {
        let features = CpuFeatures::detect();
        KernelOptions { isa: features.best_isa(), ccm: true, features, listing: false }
    }

    /// Same as [`KernelOptions::native`] but capped at `isa`.
    pub fn with_isa(isa: IsaLevel) -> KernelOptions {
        KernelOptions { isa, ..KernelOptions::native() }
    }
}

/// The argument block of one kernel launch: the operands and, for a
/// dynamic-dispatch kernel, the claim counter its lanes share. The layout is
/// the ABI the generated prologue reads (see the module docs), hence
/// `#[repr(C)]`. A launch owns its block, so launches of one kernel never
/// share state.
#[repr(C)]
pub(crate) struct LaunchArgs<T> {
    /// Next unclaimed row of a dynamic launch, starting at zero. At offset
    /// 0, so the claim loop's `lock xadd` targets the block's own address.
    counter: AtomicU64,
    row_ptr: *const u64,
    col_indices: *const u32,
    values: *const T,
    nrows: u64,
    x: *const T,
    y: *mut T,
}

impl<T: Scalar> LaunchArgs<T> {
    /// The block for computing `y = matrix * x`, with the claim counter at
    /// row zero. Only addresses are taken: the caller keeps `matrix`, `x`
    /// and `y` alive, at the shapes the kernel was compiled for, for as long
    /// as any kernel runs on the block.
    pub(crate) fn new(matrix: &CsrMatrix<T>, x: *const T, y: *mut T) -> LaunchArgs<T> {
        LaunchArgs {
            counter: AtomicU64::new(0),
            row_ptr: matrix.row_ptr().as_ptr(),
            col_indices: matrix.col_indices().as_ptr(),
            values: matrix.values().as_ptr(),
            nrows: matrix.nrows() as u64,
            x,
            y,
        }
    }
}

/// `[ARGS + offset of field]`: where the prologue loads one operand from.
macro_rules! arg {
    ($field:ident) => {
        Mem::base(ARGS).disp(std::mem::offset_of!(LaunchArgs<f32>, $field) as i32)
    };
}

/// The generated machine code plus the information the engine needs to wrap
/// it.
#[derive(Debug)]
pub(crate) struct GeneratedCode {
    /// Finalized machine code.
    pub code: Vec<u8>,
    /// Instruction listing, if requested.
    pub listing: Option<Vec<(usize, String)>>,
    /// The CCM plan used (also present for non-CCM kernels, where it only
    /// describes the vector width).
    pub plan: CcmPlan,
}

// Fixed register roles (see module docs).
const CUR: Gpr = Gpr::Rdi;
const END: Gpr = Gpr::Rsi;
const ROWPTR: Gpr = Gpr::Rbx;
const COLIDX: Gpr = Gpr::Rcx;
const VALS: Gpr = Gpr::Rdx;
const XBASE: Gpr = Gpr::R8;
const YBASE: Gpr = Gpr::R9;
const IDX: Gpr = Gpr::R10;
const IDX_END: Gpr = Gpr::R11;
const XOFF: Gpr = Gpr::R12;
const YOFF: Gpr = Gpr::R13;
const ARGS: Gpr = Gpr::R14;
const NROWS: Gpr = Gpr::R15;
const COL_CURSOR: Gpr = Gpr::Rbp;
const SCRATCH: Gpr = Gpr::Rax;

const CALLEE_SAVED: [Gpr; 6] = [Gpr::Rbx, Gpr::Rbp, Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15];

/// Validate that `options` can be executed and generate code on this host.
pub(crate) fn validate_options(options: &KernelOptions) -> Result<(), JitSpmmError> {
    if !options.features.supports(options.isa) {
        return Err(JitSpmmError::UnsupportedIsa {
            requested: options.isa,
            supported: options.features.best_isa(),
        });
    }
    // Every tier's generated code relies on VEX/EVEX scalar moves and FMA.
    if !options.features.avx {
        return Err(JitSpmmError::InvalidConfig(
            "the JIT kernels require at least AVX (VEX-encoded scalar arithmetic)".into(),
        ));
    }
    if !options.features.has_fma() {
        return Err(JitSpmmError::InvalidConfig(
            "the JIT kernels require FMA support (all paper testbeds provide it)".into(),
        ));
    }
    if options.isa == IsaLevel::Avx512 && !options.features.avx512vl {
        return Err(JitSpmmError::InvalidConfig(
            "the AVX-512 tier needs AVX-512VL for the YMM/XMM tail segments".into(),
        ));
    }
    Ok(())
}

/// Generate a static-range kernel computing rows `[row_start, row_end)`.
pub(crate) fn generate_static_kernel(
    d: usize,
    kind: ScalarKind,
    options: &KernelOptions,
) -> Result<GeneratedCode, JitSpmmError> {
    validate_options(options)?;
    let plan = CcmPlan::new(d, options.isa, kind);
    let mut asm = new_assembler(options);
    emit_prologue(&mut asm);
    // System V argument order: rdi = args, rsi = row_start, rdx = row_end;
    // `rdx` is read before `emit_load_operands` reuses it for `values`.
    asm.mov_rr64(ARGS, Gpr::Rdi);
    asm.mov_rr64(CUR, Gpr::Rsi);
    asm.mov_rr64(END, Gpr::Rdx);
    emit_load_operands(&mut asm);
    emit_row_range_loop(&mut asm, &plan, d, kind, options)?;
    emit_epilogue(&mut asm);
    finish(asm, plan)
}

/// Generate a dynamic-dispatch kernel claiming `batch` rows at a time from
/// the `args` block's counter (Listing 1); it ignores the row range.
pub(crate) fn generate_dynamic_kernel(
    d: usize,
    kind: ScalarKind,
    batch: usize,
    options: &KernelOptions,
) -> Result<GeneratedCode, JitSpmmError> {
    validate_options(options)?;
    if batch == 0 {
        return Err(JitSpmmError::InvalidConfig("dynamic batch size must be non-zero".into()));
    }
    let plan = CcmPlan::new(d, options.isa, kind);
    let mut asm = new_assembler(options);
    emit_prologue(&mut asm);
    asm.mov_rr64(ARGS, Gpr::Rdi);
    emit_load_operands(&mut asm);
    asm.mov_rm64(NROWS, arg!(nrows));

    let claim = asm.new_label();
    let done = asm.new_label();
    asm.bind(claim)?;
    // rsi <- batch; lock xadd [args.counter], rsi  => rsi = previously next row.
    asm.mov_ri64(END, batch as i64);
    asm.lock_xadd_mr64(Mem::base(ARGS), END);
    asm.cmp_rr64(END, NROWS);
    asm.jcc(Cond::Ge, done);
    asm.mov_rr64(CUR, END);
    asm.add_ri64(END, batch as i32);
    // Clamp the batch end to the row count.
    asm.cmp_rr64(END, NROWS);
    let clamped = asm.new_label();
    asm.jcc(Cond::Le, clamped);
    asm.mov_rr64(END, NROWS);
    asm.bind(clamped)?;
    emit_row_range_loop(&mut asm, &plan, d, kind, options)?;
    asm.jmp(claim);
    asm.bind(done)?;
    emit_epilogue(&mut asm);
    finish(asm, plan)
}

fn new_assembler(options: &KernelOptions) -> Assembler {
    if options.listing {
        Assembler::with_listing()
    } else {
        Assembler::new()
    }
}

fn finish(asm: Assembler, plan: CcmPlan) -> Result<GeneratedCode, JitSpmmError> {
    let listing = asm.listing().map(|l| l.to_vec());
    let code = asm.finalize()?;
    Ok(GeneratedCode { code, listing, plan })
}

fn emit_prologue(asm: &mut Assembler) {
    for reg in CALLEE_SAVED {
        asm.push_r64(reg);
    }
}

fn emit_epilogue(asm: &mut Assembler) {
    for reg in CALLEE_SAVED.iter().rev() {
        asm.pop_r64(*reg);
    }
    asm.ret();
}

/// Load the matrix and dense operand bases from the block at `ARGS`.
fn emit_load_operands(asm: &mut Assembler) {
    asm.mov_rm64(ROWPTR, arg!(row_ptr));
    asm.mov_rm64(COLIDX, arg!(col_indices));
    asm.mov_rm64(VALS, arg!(values));
    asm.mov_rm64(XBASE, arg!(x));
    asm.mov_rm64(YBASE, arg!(y));
}

/// Emit the loop over rows `[CUR, END)`, leaving `CUR == END` afterwards.
fn emit_row_range_loop(
    asm: &mut Assembler,
    plan: &CcmPlan,
    d: usize,
    kind: ScalarKind,
    options: &KernelOptions,
) -> Result<(), JitSpmmError> {
    let row_head = asm.new_label();
    let rows_done = asm.new_label();
    asm.bind(row_head)?;
    asm.cmp_rr64(CUR, END);
    asm.jcc(Cond::Ge, rows_done);

    // Row bookkeeping: non-zero range and output-row byte offset.
    asm.mov_rm64(IDX, Mem::base(ROWPTR).index(CUR, Scale::S8));
    asm.mov_rm64(IDX_END, Mem::base(ROWPTR).index(CUR, Scale::S8).disp(8));
    let row_bytes = (d * kind.bytes()) as i32;
    asm.imul_rri64(YOFF, CUR, row_bytes);

    if options.ccm {
        emit_ccm_row_body(asm, plan, d, kind, options)?;
    } else {
        emit_column_loop_row_body(asm, d, kind, options)?;
    }

    asm.inc_r64(CUR);
    asm.jmp(row_head);
    asm.bind(rows_done)?;
    Ok(())
}

/// CCM row body (Listing 2 generalised): one pass over the row's non-zeros
/// per column tile, with every column of the tile resident in registers.
fn emit_ccm_row_body(
    asm: &mut Assembler,
    plan: &CcmPlan,
    d: usize,
    kind: ScalarKind,
    options: &KernelOptions,
) -> Result<(), JitSpmmError> {
    let row_bytes = (d * kind.bytes()) as i32;
    for (tile_idx, tile) in plan.tiles.iter().enumerate() {
        // Re-read the row start when making another pass over the non-zeros.
        if tile_idx > 0 {
            asm.mov_rm64(IDX, Mem::base(ROWPTR).index(CUR, Scale::S8));
        }
        for seg in &tile.segments {
            emit_zero_accumulator(asm, seg, options);
        }

        let nnz_head = asm.new_label();
        let nnz_done = asm.new_label();
        asm.bind(nnz_head)?;
        asm.cmp_rr64(IDX, IDX_END);
        asm.jcc(Cond::Ge, nnz_done);

        // k = col_indices[idx]; XOFF = k * row_bytes.
        asm.mov_rm32(XOFF, Mem::base(COLIDX).index(IDX, Scale::S4));
        asm.imul_rri64(XOFF, XOFF, row_bytes);
        emit_broadcast(asm, plan, kind);
        for seg in &tile.segments {
            let src = Mem::base(XBASE).index(XOFF, Scale::S1).disp(seg.byte_offset(kind) as i32);
            emit_fmadd(asm, plan, seg, src, kind);
        }
        asm.inc_r64(IDX);
        asm.jmp(nnz_head);
        asm.bind(nnz_done)?;

        for seg in &tile.segments {
            let dst = Mem::base(YBASE).index(YOFF, Scale::S1).disp(seg.byte_offset(kind) as i32);
            emit_store(asm, seg, dst, kind);
        }
    }
    Ok(())
}

/// Non-CCM row body: a run-time loop over column blocks of the widest vector
/// width, followed by a scalar remainder loop. This is the structure an AOT
/// kernel is forced into when `d` is unknown at compile time, emitted here
/// only for the ablation experiment.
fn emit_column_loop_row_body(
    asm: &mut Assembler,
    d: usize,
    kind: ScalarKind,
    options: &KernelOptions,
) -> Result<(), JitSpmmError> {
    let row_bytes = (d * kind.bytes()) as i32;
    let vec_lanes = match kind {
        ScalarKind::F32 => options.isa.max_f32_lanes(),
        ScalarKind::F64 => options.isa.max_f64_lanes(),
    };
    let vec_bytes = (vec_lanes * kind.bytes()) as i32;
    let acc_width = match options.isa {
        IsaLevel::Avx512 => SegmentWidth::Zmm,
        IsaLevel::Avx2 => SegmentWidth::Ymm,
        IsaLevel::Sse128 => SegmentWidth::Xmm,
        IsaLevel::Scalar => SegmentWidth::Scalar,
    };
    let plan_like = CcmPlan::new(d.max(1), options.isa, kind);
    let acc = Segment { col_offset: 0, lanes: vec_lanes, width: acc_width, reg: 0 };
    let scalar_acc = Segment { col_offset: 0, lanes: 1, width: SegmentWidth::Scalar, reg: 0 };

    // COL_CURSOR (rbp) walks the row in byte units.
    asm.xor_rr64(COL_CURSOR, COL_CURSOR);

    // --- vector part ----------------------------------------------------
    if vec_lanes > 1 {
        let col_head = asm.new_label();
        let col_done = asm.new_label();
        asm.bind(col_head)?;
        asm.lea(SCRATCH, Mem::base(COL_CURSOR).disp(vec_bytes));
        asm.cmp_ri64(SCRATCH, row_bytes);
        asm.jcc(Cond::G, col_done);

        emit_zero_accumulator(asm, &acc, options);
        asm.mov_rm64(IDX, Mem::base(ROWPTR).index(CUR, Scale::S8));
        let nnz_head = asm.new_label();
        let nnz_done = asm.new_label();
        asm.bind(nnz_head)?;
        asm.cmp_rr64(IDX, IDX_END);
        asm.jcc(Cond::Ge, nnz_done);
        asm.mov_rm32(XOFF, Mem::base(COLIDX).index(IDX, Scale::S4));
        asm.imul_rri64(XOFF, XOFF, row_bytes);
        asm.add_rr64(XOFF, COL_CURSOR);
        emit_broadcast(asm, &plan_like, kind);
        emit_fmadd(asm, &plan_like, &acc, Mem::base(XBASE).index(XOFF, Scale::S1), kind);
        asm.inc_r64(IDX);
        asm.jmp(nnz_head);
        asm.bind(nnz_done)?;

        asm.lea(SCRATCH, Mem::base(YOFF).index(COL_CURSOR, Scale::S1));
        emit_store(asm, &acc, Mem::base(YBASE).index(SCRATCH, Scale::S1), kind);
        asm.add_ri64(COL_CURSOR, vec_bytes);
        asm.jmp(col_head);
        asm.bind(col_done)?;
    }

    // --- scalar remainder -------------------------------------------------
    let rem_head = asm.new_label();
    let rem_done = asm.new_label();
    asm.bind(rem_head)?;
    asm.cmp_ri64(COL_CURSOR, row_bytes);
    asm.jcc(Cond::Ge, rem_done);

    emit_zero_accumulator(asm, &scalar_acc, options);
    asm.mov_rm64(IDX, Mem::base(ROWPTR).index(CUR, Scale::S8));
    let nnz_head = asm.new_label();
    let nnz_done = asm.new_label();
    asm.bind(nnz_head)?;
    asm.cmp_rr64(IDX, IDX_END);
    asm.jcc(Cond::Ge, nnz_done);
    asm.mov_rm32(XOFF, Mem::base(COLIDX).index(IDX, Scale::S4));
    asm.imul_rri64(XOFF, XOFF, row_bytes);
    asm.add_rr64(XOFF, COL_CURSOR);
    emit_broadcast(asm, &plan_like, kind);
    emit_fmadd(asm, &plan_like, &scalar_acc, Mem::base(XBASE).index(XOFF, Scale::S1), kind);
    asm.inc_r64(IDX);
    asm.jmp(nnz_head);
    asm.bind(nnz_done)?;

    asm.lea(SCRATCH, Mem::base(YOFF).index(COL_CURSOR, Scale::S1));
    emit_store(asm, &scalar_acc, Mem::base(YBASE).index(SCRATCH, Scale::S1), kind);
    asm.add_ri64(COL_CURSOR, kind.bytes() as i32);
    asm.jmp(rem_head);
    asm.bind(rem_done)?;
    Ok(())
}

/// Zero one accumulator register with `vxorps`/`vpxord` (§IV.D.2 prefers the
/// XOR idiom over a move because it leaves MXCSR untouched).
fn emit_zero_accumulator(asm: &mut Assembler, seg: &Segment, options: &KernelOptions) {
    let reg = VecReg::with_width(seg.reg, seg.width.vec_width());
    if seg.width == SegmentWidth::Zmm && !options.features.avx512dq {
        asm.vpxord(reg, reg, reg);
    } else {
        asm.vxorps(reg, reg, reg);
    }
}

/// Broadcast the current non-zero `values[IDX]` into the reserved broadcast
/// register.
fn emit_broadcast(asm: &mut Assembler, plan: &CcmPlan, kind: ScalarKind) {
    let widest = widest_width(plan);
    let src = match kind {
        ScalarKind::F32 => Mem::base(VALS).index(IDX, Scale::S4),
        ScalarKind::F64 => Mem::base(VALS).index(IDX, Scale::S8),
    };
    match (widest, kind) {
        (SegmentWidth::Scalar, ScalarKind::F32) => {
            asm.vmovss_load(Xmm::new(plan.broadcast_reg), src)
        }
        (SegmentWidth::Scalar, ScalarKind::F64) => {
            asm.vmovsd_load(Xmm::new(plan.broadcast_reg), src)
        }
        (w, ScalarKind::F32) => {
            asm.vbroadcastss(VecReg::with_width(plan.broadcast_reg, w.vec_width()), src)
        }
        (SegmentWidth::Xmm, ScalarKind::F64) => {
            // A 128-bit f64 broadcast has no dedicated instruction at the
            // VEX level; loading the scalar and using the scalar FMA on both
            // lanes is not equivalent, so broadcast via the 256-bit form's
            // low half is avoided — instead use movddup semantics emulated
            // by a 256-bit broadcast into the same register id.
            asm.vbroadcastsd(VecReg::ymm(plan.broadcast_reg), src)
        }
        (w, ScalarKind::F64) => {
            asm.vbroadcastsd(VecReg::with_width(plan.broadcast_reg, w.vec_width()), src)
        }
    }
}

/// The widest segment width used anywhere in the plan (the broadcast register
/// must be at least that wide).
fn widest_width(plan: &CcmPlan) -> SegmentWidth {
    let mut widest = SegmentWidth::Scalar;
    for seg in plan.tiles.iter().flat_map(|t| &t.segments) {
        widest = match (widest, seg.width) {
            (SegmentWidth::Zmm, _) | (_, SegmentWidth::Zmm) => SegmentWidth::Zmm,
            (SegmentWidth::Ymm, _) | (_, SegmentWidth::Ymm) => SegmentWidth::Ymm,
            (SegmentWidth::Xmm, _) | (_, SegmentWidth::Xmm) => SegmentWidth::Xmm,
            _ => SegmentWidth::Scalar,
        };
    }
    widest
}

/// `acc += broadcast * X[k][segment columns]`.
fn emit_fmadd(asm: &mut Assembler, plan: &CcmPlan, seg: &Segment, src: Mem, kind: ScalarKind) {
    let bcast_width = match seg.width {
        SegmentWidth::Scalar => VecWidth::X128,
        w => w.vec_width(),
    };
    let bcast = VecReg::with_width(plan.broadcast_reg, bcast_width);
    match (seg.width, kind) {
        (SegmentWidth::Scalar, ScalarKind::F32) => {
            asm.vfmadd231ss_m(Xmm::new(seg.reg), Xmm::new(plan.broadcast_reg), src)
        }
        (SegmentWidth::Scalar, ScalarKind::F64) => {
            asm.vfmadd231sd_m(Xmm::new(seg.reg), Xmm::new(plan.broadcast_reg), src)
        }
        (w, ScalarKind::F32) => {
            asm.vfmadd231ps_m(VecReg::with_width(seg.reg, w.vec_width()), bcast, src)
        }
        (w, ScalarKind::F64) => {
            asm.vfmadd231pd_m(VecReg::with_width(seg.reg, w.vec_width()), bcast, src)
        }
    }
}

/// Store one accumulator segment back to the output row.
fn emit_store(asm: &mut Assembler, seg: &Segment, dst: Mem, kind: ScalarKind) {
    match (seg.width, kind) {
        (SegmentWidth::Scalar, ScalarKind::F32) => asm.vmovss_store(dst, Xmm::new(seg.reg)),
        (SegmentWidth::Scalar, ScalarKind::F64) => asm.vmovsd_store(dst, Xmm::new(seg.reg)),
        (w, ScalarKind::F32) => asm.vmovups_store(dst, VecReg::with_width(seg.reg, w.vec_width())),
        (w, ScalarKind::F64) => asm.vmovupd_store(dst, VecReg::with_width(seg.reg, w.vec_width())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitspmm_emu::{decode, Emulator, Inst};
    use std::collections::BTreeSet;

    fn native_or_skip() -> Option<KernelOptions> {
        let opts = KernelOptions::native();
        if validate_options(&opts).is_err() {
            eprintln!("skipping codegen test: host lacks AVX/FMA");
            return None;
        }
        Some(opts)
    }

    #[test]
    fn validate_rejects_unsupported_isa() {
        let mut opts = KernelOptions::native();
        opts.features = CpuFeatures::none();
        opts.isa = IsaLevel::Avx512;
        assert!(matches!(
            validate_options(&opts),
            Err(JitSpmmError::UnsupportedIsa { .. }) | Err(JitSpmmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn static_kernel_emits_code() {
        let Some(opts) = native_or_skip() else { return };
        let gen = generate_static_kernel(16, ScalarKind::F32, &opts).unwrap();
        assert!(!gen.code.is_empty());
        assert_eq!(gen.plan.d, 16);
    }

    #[test]
    fn listing_mentions_key_instructions() {
        let Some(mut opts) = native_or_skip() else { return };
        opts.listing = true;
        let gen = generate_static_kernel(45, ScalarKind::F32, &opts).unwrap();
        let listing = gen.listing.expect("listing requested");
        let text: String = listing.iter().map(|(_, s)| s.as_str()).collect::<Vec<_>>().join("\n");
        // The structure of Listing 2 must be visible in the emitted stream.
        assert!(text.contains("vbroadcastss"), "missing broadcast:\n{text}");
        assert!(text.contains("vfmadd231ps"), "missing packed FMA:\n{text}");
        if opts.isa == IsaLevel::Avx512 {
            assert!(text.contains("vfmadd231ss"), "d = 45 needs a scalar tail:\n{text}");
            assert!(text.contains("zmm31"), "broadcast register must be zmm31:\n{text}");
        }
        assert!(text.contains("vmovups"), "missing vector store:\n{text}");
    }

    #[test]
    fn dynamic_kernel_embeds_claim_loop() {
        let Some(mut opts) = native_or_skip() else { return };
        opts.listing = true;
        let gen = generate_dynamic_kernel(16, ScalarKind::F32, 128, &opts).unwrap();
        let text: String =
            gen.listing.unwrap().iter().map(|(_, s)| s.as_str()).collect::<Vec<_>>().join("\n");
        assert!(text.contains("lock xadd"), "Listing 1 requires lock xadd:\n{text}");
    }

    #[test]
    fn dynamic_kernel_rejects_zero_batch() {
        let Some(opts) = native_or_skip() else { return };
        let err = generate_dynamic_kernel(16, ScalarKind::F32, 0, &opts).unwrap_err();
        assert!(matches!(err, JitSpmmError::InvalidConfig(_)));
    }

    #[test]
    fn non_ccm_kernel_emits_code_for_ragged_d() {
        let Some(mut opts) = native_or_skip() else { return };
        opts.ccm = false;
        for d in [1usize, 7, 16, 45] {
            let gen = generate_static_kernel(d, ScalarKind::F32, &opts).unwrap();
            assert!(!gen.code.is_empty(), "d = {d}");
        }
    }

    #[test]
    fn ccm_kernel_is_larger_for_wider_d() {
        let Some(opts) = native_or_skip() else { return };
        let small = generate_static_kernel(8, ScalarKind::F32, &opts).unwrap();
        let large = generate_static_kernel(256, ScalarKind::F32, &opts).unwrap();
        assert!(large.code.len() > small.code.len());
    }

    /// The synthetic hosts every sweep generates for, so EVEX forms are
    /// covered on any machine: full AVX-512, and the same without AVX-512DQ
    /// (512-bit zeroing through `vpxord`).
    const SWEEP_FEATURES: [CpuFeatures; 2] =
        [CpuFeatures::full_avx512(), CpuFeatures { avx512dq: false, ..CpuFeatures::full_avx512() }];

    /// Every kernel of the sweep for `isa`, in a fixed order: feature set ×
    /// d × f32/f64 × CCM on/off × {static, dynamic batch 1, dynamic batch 128}.
    fn swept_kernels(isa: IsaLevel) -> Vec<Vec<u8>> {
        let mut kernels = Vec::new();
        for features in SWEEP_FEATURES {
            for d in [1, 8, 16, 32, 45, 64, 65] {
                for kind in [ScalarKind::F32, ScalarKind::F64] {
                    for ccm in [true, false] {
                        let opts = KernelOptions { isa, ccm, features, listing: false };
                        kernels.push(generate_static_kernel(d, kind, &opts).unwrap().code);
                        for batch in [1, 128] {
                            let gen = generate_dynamic_kernel(d, kind, batch, &opts).unwrap();
                            kernels.push(gen.code);
                        }
                    }
                }
            }
        }
        kernels
    }

    /// `name(inst)` and `ALL` from one list: the `match` has no `_` arm, so
    /// the list names every variant the decoder can return.
    macro_rules! variants {
        ($($v:ident),* $(,)?) => {
            const ALL: &[&str] = &[$(stringify!($v)),*];
            fn name(inst: &Inst) -> &'static str {
                match inst {
                    $(Inst::$v { .. } => stringify!($v),)*
                }
            }
        };
    }

    variants! {
        MovRegImm, MovRegRm, MovRmReg, AluRmImm, AluRmReg, Inc, Lea, ImulRegRmImm, Push, Pop, Xadd,
        Ret, Jmp, Jcc, VXor, VBroadcast, VFmadd231, VMovLoad, VMovStore
    }

    /// Every swept kernel decodes from its first byte to its last, and the
    /// sweep as a whole uses every form the decoder returns: codegen cannot
    /// emit a form the emulator lacks, and the emulator keeps none that
    /// codegen dropped. The hosts are synthetic, so this covers the EVEX
    /// forms on any machine.
    #[test]
    fn decode_sweep_covers_every_variant() {
        let mut seen = BTreeSet::new();
        for isa in IsaLevel::ALL {
            for code in swept_kernels(isa) {
                let mut at = 0;
                while at < code.len() {
                    let (inst, len) =
                        decode(&code, at).unwrap_or_else(|e| panic!("{isa} kernel: {e}"));
                    seen.insert(name(&inst));
                    at += len;
                }
            }
        }
        assert_eq!(seen, ALL.iter().copied().collect());
    }

    /// FNV-1a (64-bit) over the concatenated kernels.
    fn fnv1a64(kernels: &[Vec<u8>]) -> u64 {
        kernels.iter().flatten().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The emitted bytes of every swept kernel, one digest per ISA tier. An
    /// emitter change that moves a single byte changes a digest; such a
    /// change updates this table in the same commit.
    #[test]
    fn pinned_kernel_bytes() {
        const DIGESTS: [(IsaLevel, u64); 4] = [
            (IsaLevel::Scalar, 0x1233_3771_0f80_c515),
            (IsaLevel::Sse128, 0xea4c_ff89_c1ee_dcbd),
            (IsaLevel::Avx2, 0xdbed_5e73_4297_a87d),
            (IsaLevel::Avx512, 0x303f_60f5_0ede_3ea8),
        ];
        let got = IsaLevel::ALL.map(|isa| (isa, fnv1a64(&swept_kernels(isa))));
        assert_eq!(got, DIGESTS, "emitted bytes moved");
    }

    /// Emulated (instructions, loads, branches) of one static launch over a
    /// 6 x 5 matrix whose first and last rows are empty.
    fn emulated_counts<T: Scalar>(d: usize, isa: IsaLevel, ccm: bool) -> [u64; 3] {
        let entries = [(1, 0), (1, 3), (2, 4), (3, 1), (3, 2), (3, 4), (4, 0)];
        let triplets: Vec<_> =
            entries.iter().map(|&(r, c)| (r, c, T::from_f64(0.5 + c as f64))).collect();
        let matrix = CsrMatrix::from_triplets(6, 5, &triplets).unwrap();
        let x = vec![T::from_f64(0.25); matrix.ncols() * d];
        let mut y = vec![T::from_f64(0.0); matrix.nrows() * d];
        let opts = KernelOptions { isa, ccm, features: CpuFeatures::full_avx512(), listing: false };
        let code = generate_static_kernel(d, T::KIND, &opts).unwrap().code;
        let args = LaunchArgs::new(&matrix, x.as_ptr(), y.as_mut_ptr());
        let argv = [&args as *const LaunchArgs<T> as u64, 0, matrix.nrows() as u64];
        // SAFETY: the block points at `matrix`, `x` (ncols x d) and `y`
        // (nrows x d), all alive for the call, and the range is every row:
        // the accesses a native launch of this kernel would make.
        let counters = unsafe { Emulator::new().run(&code, &argv) }.unwrap();
        [counters.instructions, counters.memory_loads, counters.branches]
    }

    /// Exact emulator counts of the static kernel (what `profile.emu_*`
    /// reads on a larger matrix). An emitter change that moves them updates
    /// this table in the same commit, so the review sees the delta.
    #[test]
    fn pinned_emulator_counts() {
        #[rustfmt::skip]
        const COUNTS: [(usize, IsaLevel, ScalarKind, bool, [u64; 3]); 48] = [
            (1, IsaLevel::Scalar, ScalarKind::F32, true, [145, 45, 34]),
            (1, IsaLevel::Scalar, ScalarKind::F32, false, [206, 51, 52]),
            (1, IsaLevel::Scalar, ScalarKind::F64, true, [145, 45, 34]),
            (1, IsaLevel::Scalar, ScalarKind::F64, false, [206, 51, 52]),
            (1, IsaLevel::Sse128, ScalarKind::F32, true, [145, 45, 34]),
            (1, IsaLevel::Sse128, ScalarKind::F32, false, [224, 51, 58]),
            (1, IsaLevel::Sse128, ScalarKind::F64, true, [145, 45, 34]),
            (1, IsaLevel::Sse128, ScalarKind::F64, false, [224, 51, 58]),
            (1, IsaLevel::Avx2, ScalarKind::F32, true, [145, 45, 34]),
            (1, IsaLevel::Avx2, ScalarKind::F32, false, [224, 51, 58]),
            (1, IsaLevel::Avx2, ScalarKind::F64, true, [145, 45, 34]),
            (1, IsaLevel::Avx2, ScalarKind::F64, false, [224, 51, 58]),
            (1, IsaLevel::Avx512, ScalarKind::F32, true, [145, 45, 34]),
            (1, IsaLevel::Avx512, ScalarKind::F32, false, [224, 51, 58]),
            (1, IsaLevel::Avx512, ScalarKind::F64, true, [145, 45, 34]),
            (1, IsaLevel::Avx512, ScalarKind::F64, false, [224, 51, 58]),
            (16, IsaLevel::Scalar, ScalarKind::F32, true, [497, 170, 54]),
            (16, IsaLevel::Scalar, ScalarKind::F32, false, [2051, 456, 532]),
            (16, IsaLevel::Scalar, ScalarKind::F64, true, [497, 170, 54]),
            (16, IsaLevel::Scalar, ScalarKind::F64, false, [2051, 456, 532]),
            (16, IsaLevel::Sse128, ScalarKind::F32, true, [202, 66, 34]),
            (16, IsaLevel::Sse128, ScalarKind::F32, false, [617, 132, 154]),
            (16, IsaLevel::Sse128, ScalarKind::F64, true, [278, 94, 34]),
            (16, IsaLevel::Sse128, ScalarKind::F64, false, [1133, 240, 282]),
            (16, IsaLevel::Avx2, ScalarKind::F32, true, [164, 52, 34]),
            (16, IsaLevel::Avx2, ScalarKind::F32, false, [359, 78, 90]),
            (16, IsaLevel::Avx2, ScalarKind::F64, true, [202, 66, 34]),
            (16, IsaLevel::Avx2, ScalarKind::F64, false, [617, 132, 154]),
            (16, IsaLevel::Avx512, ScalarKind::F32, true, [145, 45, 34]),
            (16, IsaLevel::Avx512, ScalarKind::F32, false, [230, 51, 58]),
            (16, IsaLevel::Avx512, ScalarKind::F64, true, [164, 52, 34]),
            (16, IsaLevel::Avx512, ScalarKind::F64, false, [359, 78, 90]),
            (45, IsaLevel::Scalar, ScalarKind::F32, true, [1115, 393, 74]),
            (45, IsaLevel::Scalar, ScalarKind::F32, false, [5618, 1239, 1460]),
            (45, IsaLevel::Scalar, ScalarKind::F64, true, [1115, 393, 74]),
            (45, IsaLevel::Scalar, ScalarKind::F64, false, [5618, 1239, 1460]),
            (45, IsaLevel::Sse128, ScalarKind::F32, true, [354, 122, 34]),
            (45, IsaLevel::Sse128, ScalarKind::F32, false, [1643, 348, 410]),
            (45, IsaLevel::Sse128, ScalarKind::F64, true, [630, 219, 54]),
            (45, IsaLevel::Sse128, ScalarKind::F64, false, [3062, 645, 762]),
            (45, IsaLevel::Avx2, ScalarKind::F32, true, [259, 87, 34]),
            (45, IsaLevel::Avx2, ScalarKind::F32, false, [1361, 294, 346]),
            (45, IsaLevel::Avx2, ScalarKind::F64, true, [354, 122, 34]),
            (45, IsaLevel::Avx2, ScalarKind::F64, false, [1643, 348, 410]),
            (45, IsaLevel::Avx512, ScalarKind::F32, true, [221, 73, 34]),
            (45, IsaLevel::Avx512, ScalarKind::F32, false, [1958, 429, 506]),
            (45, IsaLevel::Avx512, ScalarKind::F64, true, [259, 87, 34]),
            (45, IsaLevel::Avx512, ScalarKind::F64, false, [1361, 294, 346]),
        ];
        let mut rows = Vec::new();
        for d in [1, 16, 45] {
            for isa in IsaLevel::ALL {
                for kind in [ScalarKind::F32, ScalarKind::F64] {
                    for ccm in [true, false] {
                        let counts = match kind {
                            ScalarKind::F32 => emulated_counts::<f32>(d, isa, ccm),
                            ScalarKind::F64 => emulated_counts::<f64>(d, isa, ccm),
                        };
                        rows.push((d, isa, kind, ccm, counts));
                    }
                }
            }
        }
        assert_eq!(rows, COUNTS);
    }
}
