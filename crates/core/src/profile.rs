//! Hardware-event models for the profiling analysis (Table II, Figure 11).
//!
//! The paper collects memory loads, branches, branch misses and executed
//! instructions with Linux `perf`. Hardware performance counters are not
//! reliably available in this environment, so this module provides two
//! substitutes:
//!
//! * **analytic models** for the AOT baselines — closed-form event counts
//!   derived from each kernel's loop structure and the matrix statistics
//!   (`nnz`, rows, `d`); and
//! * an **emulator-measured** count for the JIT kernels (see
//!   [`measure_jit_emulated`]), obtained by running the generated machine
//!   code instruction-by-instruction in `jitspmm-emu` with an architectural
//!   event model.
//!
//! The quantities the paper reports are *comparative* (JIT performs fewer
//! loads/branches/instructions than the AOT baselines by some factor), and
//! both substitutes preserve exactly those ratios.

use crate::engine::JitSpmm;
use crate::error::JitSpmmError;
use crate::tiling::CcmPlan;
use jitspmm_asm::IsaLevel;
use jitspmm_emu::{EmuError, Emulator, HwCounters};
use jitspmm_sparse::{CsrMatrix, DenseMatrix, Scalar, ScalarKind};

/// Modeled or measured hardware-event counts for one SpMM execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileCounts {
    /// Executed instructions.
    pub instructions: u64,
    /// Memory load operations.
    pub memory_loads: u64,
    /// Memory store operations.
    pub memory_stores: u64,
    /// Executed branch instructions (conditional and unconditional).
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_misses: u64,
}

impl ProfileCounts {
    /// Ratio of this profile's metric to `other`'s, as reported in the
    /// paper's "N× fewer" comparisons.
    pub fn load_ratio(&self, other: &ProfileCounts) -> f64 {
        ratio(self.memory_loads, other.memory_loads)
    }

    /// Instruction-count ratio versus `other`.
    pub fn instruction_ratio(&self, other: &ProfileCounts) -> f64 {
        ratio(self.instructions, other.instructions)
    }

    /// Branch-count ratio versus `other`.
    pub fn branch_ratio(&self, other: &ProfileCounts) -> f64 {
        ratio(self.branches, other.branches)
    }
}

impl From<HwCounters> for ProfileCounts {
    fn from(c: HwCounters) -> ProfileCounts {
        ProfileCounts {
            instructions: c.instructions,
            memory_loads: c.memory_loads,
            memory_stores: c.memory_stores,
            branches: c.branches,
            branch_misses: c.branch_misses,
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Structural facts about one SpMM problem instance, extracted once and
/// shared by all the analytic models.
#[derive(Debug, Clone, Copy)]
struct Workload {
    rows: u64,
    nnz: u64,
    d: u64,
}

impl Workload {
    fn of<T: Scalar>(matrix: &CsrMatrix<T>, d: usize) -> Workload {
        Workload { rows: matrix.nrows() as u64, nnz: matrix.nnz() as u64, d: d as u64 }
    }
}

/// Analytic event model for the naive scalar AOT kernel (Algorithm 1 as
/// compiled by a C compiler): the column loop is outermost inside each row,
/// so every non-zero is revisited `d` times and each visit reloads the
/// column index, the value and one dense element.
pub fn model_aot_scalar<T: Scalar>(matrix: &CsrMatrix<T>, d: usize) -> ProfileCounts {
    let w = Workload::of(matrix, d);
    let inner = w.nnz * w.d;
    ProfileCounts {
        memory_loads: inner * 3 + w.rows * 2,
        memory_stores: w.rows * w.d,
        branches: inner + w.rows * w.d + w.rows,
        instructions: inner * 8 + w.rows * w.d * 5 + w.rows * 4,
        branch_misses: w.rows * w.d + w.rows,
    }
}

/// Analytic event model for the auto-vectorized AOT kernel: the inner column
/// loop is vectorized with `lanes`-wide operations, but because `d` is a
/// runtime value the accumulator row lives in memory and is re-loaded and
/// re-stored on every non-zero.
pub fn model_aot_vectorized<T: Scalar>(
    matrix: &CsrMatrix<T>,
    d: usize,
    lanes: usize,
) -> ProfileCounts {
    let w = Workload::of(matrix, d);
    let blocks = (d as u64).div_ceil(lanes as u64);
    ProfileCounts {
        memory_loads: w.nnz * (2 + blocks * 2) + w.rows * 2,
        memory_stores: w.nnz * blocks + w.rows * blocks,
        branches: w.nnz * (blocks + 1) + w.rows * 2,
        instructions: w.nnz * (4 + blocks * 6) + w.rows * (blocks * 2 + 6),
        branch_misses: w.nnz + w.rows,
    }
}

/// Analytic event model for the hand-optimized (MKL-like) AOT kernel: column
/// tiles of `lanes` elements with register accumulators, nnz loop innermost,
/// one pass over the row's non-zeros per tile.
pub fn model_mkl_like<T: Scalar>(matrix: &CsrMatrix<T>, d: usize, lanes: usize) -> ProfileCounts {
    let w = Workload::of(matrix, d);
    let tiles = (d as u64).div_ceil(lanes as u64);
    ProfileCounts {
        memory_loads: w.nnz * tiles * 3 + w.rows * 2,
        memory_stores: w.rows * tiles,
        // Compared to the JIT kernel, the AOT tile loop keeps a column
        // cursor and re-tests the tile and remainder bounds every
        // iteration, costing one extra instruction per non-zero and extra
        // per-row loop control.
        branches: w.nnz * tiles + w.rows * (tiles + 2) + w.rows,
        instructions: w.nnz * tiles * 8 + w.rows * (tiles * 6 + 6),
        branch_misses: w.rows * tiles + w.rows,
    }
}

/// Analytic event model for the JIT kernel with coarse-grain column merging,
/// derived from the register-allocation plan: per non-zero the kernel loads
/// the column index and the (broadcast) value once per pass and touches each
/// dense segment exactly once, with a single loop-carried branch.
pub fn model_jit_ccm<T: Scalar>(matrix: &CsrMatrix<T>, plan: &CcmPlan) -> ProfileCounts {
    let w = Workload::of(matrix, plan.d);
    let passes = plan.passes() as u64;
    let segments: u64 = plan.tiles.iter().map(|t| t.segments.len() as u64).sum();
    ProfileCounts {
        memory_loads: w.nnz * (2 * passes + segments) + w.rows * (2 + passes.saturating_sub(1)),
        memory_stores: w.rows * segments,
        branches: w.nnz * passes + w.rows * passes + w.rows,
        instructions: w.nnz * (passes * 6 + segments) + w.rows * (2 * segments + passes * 4 + 5),
        branch_misses: w.rows * passes + w.rows,
    }
}

/// Convenience wrapper: the analytic JIT model for a given ISA tier and
/// element kind (builds the CCM plan internally).
pub fn model_jit<T: Scalar>(matrix: &CsrMatrix<T>, d: usize, isa: IsaLevel) -> ProfileCounts {
    let plan = CcmPlan::new(d, isa, T::KIND);
    model_jit_ccm(matrix, &plan)
}

/// The vector width (in elements of `kind`) that the auto-vectorized and
/// MKL-like models should assume for a given ISA tier.
pub fn lanes_for(isa: IsaLevel, kind: ScalarKind) -> usize {
    match kind {
        ScalarKind::F32 => isa.max_f32_lanes(),
        ScalarKind::F64 => isa.max_f64_lanes(),
    }
}

/// Run a compiled JIT kernel single-threaded under the instruction-level
/// emulator and return the measured event counts.
///
/// The emulator executes the exact machine code the engine generated (the
/// same bytes that run natively), so the counts reflect the real instruction
/// stream rather than a model.
///
/// # Errors
///
/// Returns [`JitSpmmError::ShapeMismatch`] for shape errors and
/// [`JitSpmmError::InvalidConfig`] if the emulator rejects an instruction
/// (which would indicate an encoder/emulator mismatch — covered by tests).
pub fn measure_jit_emulated<T: Scalar>(
    engine: &JitSpmm<'_, T>,
    x: &DenseMatrix<T>,
    y: &mut DenseMatrix<T>,
) -> Result<ProfileCounts, JitSpmmError> {
    if x.nrows() != engine.matrix().ncols() || x.ncols() != engine.d() {
        return Err(JitSpmmError::ShapeMismatch("dense input shape".into()));
    }
    if y.nrows() != engine.matrix().nrows() || y.ncols() != engine.d() {
        return Err(JitSpmmError::ShapeMismatch("dense output shape".into()));
    }
    // A dynamically dispatched kernel claims rows from the engine's shared
    // counter; reset it exactly as a native launch would, so emulation after
    // a previous execution does not observe an exhausted counter (and
    // silently compute nothing).
    let _launch = engine.begin_launch()?;
    let mut emulator = Emulator::new();
    let args: Vec<u64> = match engine.kernel().kind() {
        crate::kernel::KernelKind::StaticRange => {
            vec![0, engine.matrix().nrows() as u64, x.as_ptr() as u64, y.as_mut_ptr() as u64]
        }
        crate::kernel::KernelKind::DynamicDispatch => {
            vec![x.as_ptr() as u64, y.as_mut_ptr() as u64]
        }
    };
    // SAFETY: the kernel was generated against live buffers owned by the
    // borrowed matrix and the caller-provided dense matrices, whose shapes
    // were validated above; the emulator performs the same accesses the
    // hardware would.
    let counters = unsafe { emulator.run(engine.kernel().code(), &args) }.map_err(emu_to_jit)?;
    Ok(counters.into())
}

fn emu_to_jit(e: EmuError) -> JitSpmmError {
    JitSpmmError::InvalidConfig(format!("emulation failed: {e}"))
}

/// Cache-behaviour comparison of the two dense-access patterns of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheComparison {
    /// Misses incurred when every selected dense row is streamed
    /// sequentially in one pass (the CCM pattern, Figure 7(b)).
    pub ccm_misses: u64,
    /// Misses incurred when the dense rows are revisited once per column
    /// block with a stride of the row length (the non-CCM pattern,
    /// Figure 7(a)).
    pub column_loop_misses: u64,
    /// Total dense-element accesses simulated (identical for both patterns).
    pub accesses: u64,
}

impl CacheComparison {
    /// `column_loop_misses / ccm_misses` — how many times fewer misses the
    /// CCM access order takes.
    pub fn improvement(&self) -> f64 {
        if self.ccm_misses == 0 {
            return f64::INFINITY;
        }
        self.column_loop_misses as f64 / self.ccm_misses as f64
    }
}

/// Simulate the dense-matrix (`X`) access stream of one SpMM execution under
/// the two access orders contrasted in Figure 7 and report the cache misses
/// of each, using a cache of the given configuration.
///
/// `block_columns` is the number of columns processed per pass in the
/// non-CCM order (1 for a scalar kernel, the SIMD lane count for a
/// vectorized AOT kernel).
pub fn simulate_figure7_cache_misses<T: Scalar>(
    matrix: &CsrMatrix<T>,
    d: usize,
    block_columns: usize,
    config: jitspmm_emu::CacheConfig,
) -> CacheComparison {
    let elem = T::KIND.bytes() as u64;
    let row_bytes = d as u64 * elem;
    let block = block_columns.max(1);

    // CCM order (Figure 7(b)): one pass per row, each selected dense row
    // streamed start to finish.
    let mut ccm_cache = jitspmm_emu::CacheModel::new(config);
    for i in 0..matrix.nrows() {
        for &k in matrix.row_cols(i) {
            let base = k as u64 * row_bytes;
            let mut j = 0u64;
            while j < d as u64 {
                ccm_cache.access(base + j * elem, elem as usize);
                j += 1;
            }
        }
    }

    // Column-loop order (Figure 7(a)): the row's non-zero list is re-walked
    // once per column block, touching a narrow slice of each dense row with
    // a `row_bytes` stride between consecutive accesses.
    let mut col_cache = jitspmm_emu::CacheModel::new(config);
    for i in 0..matrix.nrows() {
        let mut col = 0usize;
        while col < d {
            let cols_here = block.min(d - col);
            for &k in matrix.row_cols(i) {
                let base = k as u64 * row_bytes + col as u64 * elem;
                for j in 0..cols_here as u64 {
                    col_cache.access(base + j * elem, elem as usize);
                }
            }
            col += cols_here;
        }
    }

    CacheComparison {
        ccm_misses: ccm_cache.misses(),
        column_loop_misses: col_cache.misses(),
        accesses: matrix.nnz() as u64 * d as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitspmm_sparse::generate;

    fn matrix() -> CsrMatrix<f32> {
        generate::rmat(10, 20_000, generate::RmatConfig::WEB, 3)
    }

    #[test]
    fn jit_model_beats_aot_scalar_on_every_metric() {
        let m = matrix();
        let d = 8;
        let aot = model_aot_scalar(&m, d);
        let jit = model_jit::<f32>(&m, d, IsaLevel::Scalar);
        // The paper's Table II reductions: loads 2.4-2.7x, instructions
        // 3.4-4.4x, branches >1x.
        assert!(aot.load_ratio(&jit) > 2.0, "load ratio = {}", aot.load_ratio(&jit));
        assert!(aot.instruction_ratio(&jit) > 3.0);
        assert!(aot.branch_ratio(&jit) > 1.2);
        assert!(aot.branch_misses > jit.branch_misses);
    }

    #[test]
    fn jit_model_beats_vectorized_and_mkl_models() {
        let m = matrix();
        let d = 16;
        let lanes = lanes_for(IsaLevel::Avx512, ScalarKind::F32);
        let vec = model_aot_vectorized(&m, d, lanes);
        let mkl = model_mkl_like(&m, d, lanes);
        let jit = model_jit::<f32>(&m, d, IsaLevel::Avx512);
        assert!(vec.memory_loads > jit.memory_loads);
        assert!(vec.instructions > jit.instructions);
        assert!(mkl.memory_loads >= jit.memory_loads);
        assert!(mkl.instructions > jit.instructions);
        // MKL-like is itself better than naive auto-vectorization, mirroring
        // Figure 11 where MKL sits between auto-vectorization and JITSPMM.
        assert!(vec.memory_loads > mkl.memory_loads);
    }

    #[test]
    fn wider_d_scales_all_models() {
        let m = matrix();
        for model in [
            model_aot_scalar::<f32>,
            |m: &CsrMatrix<f32>, d| model_aot_vectorized(m, d, 16),
            |m: &CsrMatrix<f32>, d| model_mkl_like(m, d, 16),
            |m: &CsrMatrix<f32>, d| model_jit(m, d, IsaLevel::Avx512),
        ] {
            let small = model(&m, 16);
            let large = model(&m, 64);
            assert!(large.instructions > small.instructions);
            assert!(large.memory_loads > small.memory_loads);
        }
    }

    #[test]
    fn lanes_for_matches_isa() {
        assert_eq!(lanes_for(IsaLevel::Avx512, ScalarKind::F32), 16);
        assert_eq!(lanes_for(IsaLevel::Avx2, ScalarKind::F32), 8);
        assert_eq!(lanes_for(IsaLevel::Avx512, ScalarKind::F64), 8);
        assert_eq!(lanes_for(IsaLevel::Scalar, ScalarKind::F64), 1);
    }

    #[test]
    fn figure7_ccm_access_order_misses_less() {
        // A matrix with heavy rows (~1000 non-zeros per row): one pass over a
        // row's dense operands touches more lines than the L1 holds, so the
        // column-loop order re-misses on every revisit.
        let m = generate::power_law_rows::<f32>(128, 8192, 120_000, 0.1, 5);
        let d = 16;
        let cmp = simulate_figure7_cache_misses(&m, d, 1, jitspmm_emu::CacheConfig::L1D);
        assert_eq!(cmp.accesses, m.nnz() as u64 * d as u64);
        assert!(
            cmp.column_loop_misses > cmp.ccm_misses,
            "CCM should reduce cache misses: {} vs {}",
            cmp.ccm_misses,
            cmp.column_loop_misses
        );
        // Streaming touches each 64-byte line once per visit, so the scalar
        // column-loop order should miss several times more often.
        assert!(cmp.improvement() > 2.0, "improvement = {:.2}", cmp.improvement());
    }

    #[test]
    fn figure7_wide_blocks_narrow_the_gap() {
        let m = generate::power_law_rows::<f32>(512, 4096, 60_000, 0.2, 5);
        let d = 64;
        let scalar_blocks = simulate_figure7_cache_misses(&m, d, 1, jitspmm_emu::CacheConfig::L1D);
        let simd_blocks = simulate_figure7_cache_misses(&m, d, 16, jitspmm_emu::CacheConfig::L1D);
        // Processing 16 columns per pass already restores most of the
        // spatial locality, mirroring the paper's observation that the
        // benefit comes from sequential line-sized accesses.
        assert!(simd_blocks.column_loop_misses <= scalar_blocks.column_loop_misses);
        assert_eq!(simd_blocks.ccm_misses, scalar_blocks.ccm_misses);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let zero = ProfileCounts::default();
        let nonzero = ProfileCounts { instructions: 10, ..Default::default() };
        assert_eq!(nonzero.instruction_ratio(&zero), 0.0);
    }
}
