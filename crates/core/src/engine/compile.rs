//! Engine construction: code generation, partitioning and the compiled
//! state a [`JitSpmm`] carries between launches.
//!
//! The compiled state lives in one immutable [`EngineCore`], built once at
//! construction, owned by its engine alone and never replaced or shared.

use crate::codegen::{generate_dynamic_kernel, generate_static_kernel, KernelOptions};
use crate::engine::options::SpmmOptions;
use crate::error::JitSpmmError;
use crate::kernel::{CompiledKernel, KernelKind, KernelMeta};
use crate::runtime::dispatch::BufferPool;
use crate::runtime::WorkerPool;
use crate::schedule::{partition, Partition, Strategy};
use jitspmm_asm::CpuFeatures;
use jitspmm_sparse::{CsrMatrix, DenseMatrix, Scalar};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A JIT-compiled SpMM engine bound to one sparse matrix and one column
/// count.
///
/// Construction generates machine code specialized to the shape of the
/// problem — the number of dense columns `d`, the element type, the ISA
/// tier and the workload division strategy — and partitions the matrix's
/// rows. Every launch hands the kernel the matrix, its dense operands and a
/// fresh row-claim counter, so the engine can be executed repeatedly, and
/// from several threads at once, against dense inputs of shape
/// `ncols x d`.
///
/// Execution runs on a persistent [`WorkerPool`] (the process-wide default
/// unless [`crate::JitSpmmBuilder::pool`] supplied one): no threads are
/// spawned per call, and [`JitSpmm::execute`] recycles output buffers, so
/// steady-state repeated execution performs no allocation at all.
pub struct JitSpmm<'a, T: Scalar> {
    pub(super) matrix: &'a CsrMatrix<T>,
    pub(super) d: usize,
    pub(super) threads: usize,
    /// The compiled state every launch runs against: set once at
    /// construction, immutable afterwards, owned by this engine alone.
    pub(super) core: EngineCore<T>,
    pub(super) pool: WorkerPool,
    pub(super) output_pool: Arc<BufferPool<T>>,
}

/// The compiled configuration of an engine: the kernel, its metadata
/// (which names the strategy) and the partition it launches with.
pub(super) struct EngineCore<T: Scalar> {
    pub(super) kernel: CompiledKernel<T>,
    pub(super) meta: KernelMeta,
    pub(super) partition: Partition,
}

impl<T: Scalar> std::fmt::Debug for JitSpmm<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitSpmm")
            .field("d", &self.d)
            .field("strategy", &self.core.meta.strategy)
            .field("threads", &self.threads)
            .field("pool_workers", &self.pool.size())
            .field("code_bytes", &self.core.meta.code_bytes)
            .finish()
    }
}

impl<'a, T: Scalar> JitSpmm<'a, T> {
    /// Compile a kernel for `matrix` with `d` dense columns under `options`,
    /// executing on the process-wide default pool.
    ///
    /// # Errors
    ///
    /// See [`crate::JitSpmmBuilder::build`].
    pub fn compile(
        matrix: &'a CsrMatrix<T>,
        d: usize,
        options: SpmmOptions,
    ) -> Result<JitSpmm<'a, T>, JitSpmmError> {
        JitSpmm::compile_with_pool(matrix, d, options, WorkerPool::global().clone())
    }

    /// Compile a kernel as in [`JitSpmm::compile`], executing on `pool`.
    ///
    /// # Errors
    ///
    /// See [`crate::JitSpmmBuilder::build`].
    pub fn compile_with_pool(
        matrix: &'a CsrMatrix<T>,
        d: usize,
        options: SpmmOptions,
        pool: WorkerPool,
    ) -> Result<JitSpmm<'a, T>, JitSpmmError> {
        if d == 0 {
            return Err(JitSpmmError::EmptyDenseMatrix);
        }
        let features = CpuFeatures::detect();
        let isa = options.isa.unwrap_or_else(|| features.best_isa());
        let threads = pool.lanes_for(options.threads);
        let kernel_options =
            KernelOptions { isa, ccm: options.ccm, features, listing: options.listing };
        let core = JitSpmm::build_core(matrix, d, options.strategy, kernel_options, threads)?;
        Ok(JitSpmm { matrix, d, threads, core, pool, output_pool: Arc::new(BufferPool::new()) })
    }

    /// Generate, assemble and partition the engine's compiled configuration.
    fn build_core(
        matrix: &CsrMatrix<T>,
        d: usize,
        strategy: Strategy,
        kernel_options: KernelOptions,
        threads: usize,
    ) -> Result<EngineCore<T>, JitSpmmError> {
        crate::codegen::validate_options(&kernel_options)?;
        // The claim loop adds the batch, and the row loop scales by the row
        // stride, as 32-bit immediates.
        let fits_i32 = |n: usize| i32::try_from(n).is_ok();
        if let Strategy::RowSplitDynamic { batch } = strategy {
            if batch == 0 || !fits_i32(batch) {
                return Err(JitSpmmError::InvalidConfig(format!(
                    "dynamic batch size must be in 1..={}, not {batch}",
                    i32::MAX
                )));
            }
        }
        if !d.checked_mul(T::KIND.bytes()).is_some_and(fits_i32) {
            return Err(JitSpmmError::InvalidConfig(format!(
                "a {d}-column dense row exceeds {} bytes",
                i32::MAX
            )));
        }
        let kind = match strategy {
            Strategy::RowSplitDynamic { .. } => KernelKind::DynamicDispatch,
            _ => KernelKind::StaticRange,
        };

        let start = Instant::now();
        let generated = match strategy {
            Strategy::RowSplitDynamic { batch } => {
                generate_dynamic_kernel(d, T::KIND, batch, &kernel_options)?
            }
            _ => generate_static_kernel(d, T::KIND, &kernel_options)?,
        };
        let kernel = CompiledKernel::new(&generated.code, kind, generated.listing)?;
        let codegen_time = start.elapsed();

        let meta = KernelMeta {
            d,
            kind: T::KIND,
            isa: kernel_options.isa,
            ccm: kernel_options.ccm,
            strategy,
            code_bytes: kernel.code().len(),
            codegen_time,
            register_plan: generated.plan.describe(),
            nnz_passes: generated.plan.passes(),
        };
        let partition = partition(matrix, strategy, threads);
        Ok(EngineCore { kernel, meta, partition })
    }

    /// The sparse matrix this engine was compiled against.
    pub fn matrix(&self) -> &CsrMatrix<T> {
        self.matrix
    }

    /// The number of dense columns the kernel expects.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The number of worker lanes used by [`JitSpmm::execute`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker pool this engine executes on.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Kernel metadata: code size, register plan, code-generation time.
    pub fn meta(&self) -> KernelMeta {
        self.core.meta.clone()
    }

    /// The compiled kernel (code bytes, listing).
    pub fn kernel(&self) -> &CompiledKernel<T> {
        &self.core.kernel
    }

    /// The static row partition the engine launches with (one range per
    /// lane; for the dynamic strategy this is only a fallback description).
    pub fn partition(&self) -> Partition {
        self.core.partition.clone()
    }

    /// Output buffers this engine's own pool holds spare.
    #[cfg(test)]
    pub(crate) fn spare_outputs(&self) -> usize {
        self.output_pool.spare_buffers()
    }

    /// The shape check of every launch that writes a caller's `y`:
    /// `x` is `ncols x d` and `y` is `nrows x d`.
    pub(crate) fn check_shapes(
        &self,
        x: &DenseMatrix<T>,
        y: &DenseMatrix<T>,
    ) -> Result<(), JitSpmmError> {
        check_input_shape(x, self.matrix.ncols(), self.d)?;
        if y.nrows() != self.matrix.nrows() || y.ncols() != self.d {
            return Err(JitSpmmError::ShapeMismatch(format!(
                "dense output is {}x{} but the kernel produces {}x{}",
                y.nrows(),
                y.ncols(),
                self.matrix.nrows(),
                self.d
            )));
        }
        Ok(())
    }

    /// Fraction of the total build+execute time spent generating code, as
    /// reported in Table IV, given a measured execution time.
    pub fn codegen_overhead_ratio(&self, execution: Duration) -> f64 {
        let cg = self.core.meta.codegen_time.as_secs_f64();
        let total = cg + execution.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            cg / total
        }
    }
}

/// Validate that `x` is the `ncols x d` input a kernel compiled for a matrix
/// with `ncols` columns expects — the one shape check behind every engine
/// shape (single, sharded, mutable) and the serving router.
///
/// Every launch path calls it **before** pinning a generation or touching a
/// buffer pool, so user input can only ever produce a
/// [`JitSpmmError::ShapeMismatch`], never a panic or a poisoned engine.
pub(crate) fn check_input_shape<T: Scalar>(
    x: &DenseMatrix<T>,
    ncols: usize,
    d: usize,
) -> Result<(), JitSpmmError> {
    if x.nrows() != ncols || x.ncols() != d {
        return Err(JitSpmmError::ShapeMismatch(format!(
            "dense input is {}x{} but the kernel expects {ncols}x{d}",
            x.nrows(),
            x.ncols(),
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::JitSpmmBuilder;
    use crate::test_support::{integer_input, integer_valued, scalar_anchor};
    use jitspmm_asm::IsaLevel;
    use jitspmm_sparse::generate;

    fn host_ok() -> bool {
        let f = CpuFeatures::detect();
        f.avx && f.has_fma()
    }

    #[test]
    fn execute_matches_reference_all_strategies() {
        if !host_ok() {
            eprintln!("skipping: host lacks AVX/FMA");
            return;
        }
        let a = generate::rmat::<f32>(9, 6_000, generate::RmatConfig::GRAPH500, 5);
        let x = DenseMatrix::random(a.ncols(), 16, 7);
        let expected = a.spmm_reference(&x);
        for strategy in [
            Strategy::RowSplitStatic,
            Strategy::row_split_dynamic_default(),
            Strategy::NnzSplit,
            Strategy::MergeSplit,
        ] {
            let engine = JitSpmmBuilder::new().strategy(strategy).threads(4).build(&a, 16).unwrap();
            let (y, report) = engine.execute(&x).unwrap();
            assert!(
                y.approx_eq(&expected, 1e-4),
                "strategy {strategy}: max diff = {}",
                y.max_abs_diff(&expected)
            );
            assert_eq!(report.threads, 4);
        }
    }

    #[test]
    fn execute_handles_odd_column_counts() {
        if !host_ok() {
            eprintln!("skipping: host lacks AVX/FMA");
            return;
        }
        let a = generate::uniform::<f32>(200, 150, 2_000, 3);
        for d in [1usize, 3, 8, 17, 45, 64] {
            let x = DenseMatrix::random(a.ncols(), d, 11);
            let expected = a.spmm_reference(&x);
            let engine = JitSpmmBuilder::new().threads(2).build(&a, d).unwrap();
            let (y, _) = engine.execute(&x).unwrap();
            assert!(y.approx_eq(&expected, 1e-4), "d = {d}: diff {}", y.max_abs_diff(&expected));
        }
    }

    #[test]
    fn f64_kernels_match_reference() {
        if !host_ok() {
            eprintln!("skipping: host lacks AVX/FMA");
            return;
        }
        let a = generate::uniform::<f64>(120, 120, 1_500, 9);
        for d in [1usize, 8, 19] {
            let x = DenseMatrix::<f64>::random(a.ncols(), d, 13);
            let expected = a.spmm_reference(&x);
            let engine = JitSpmmBuilder::new().threads(2).build(&a, d).unwrap();
            let (y, _) = engine.execute(&x).unwrap();
            assert!(y.approx_eq(&expected, 1e-10), "d = {d}");
        }
    }

    #[test]
    fn non_ccm_engine_still_correct() {
        if !host_ok() {
            eprintln!("skipping: host lacks AVX/FMA");
            return;
        }
        let a = generate::rmat::<f32>(8, 3_000, generate::RmatConfig::WEB, 4);
        for d in [8usize, 45] {
            let x = DenseMatrix::random(a.ncols(), d, 3);
            let expected = a.spmm_reference(&x);
            let engine = JitSpmmBuilder::new().ccm(false).threads(2).build(&a, d).unwrap();
            let (y, _) = engine.execute(&x).unwrap();
            assert!(y.approx_eq(&expected, 1e-4), "d = {d}");
        }
    }

    #[test]
    fn scalar_isa_engine_matches_reference() {
        if !host_ok() {
            eprintln!("skipping: host lacks AVX/FMA");
            return;
        }
        let a = generate::uniform::<f32>(150, 150, 2_000, 8);
        let x = DenseMatrix::random(150, 8, 21);
        let expected = a.spmm_reference(&x);
        let engine = JitSpmmBuilder::new()
            .isa(IsaLevel::Scalar)
            .strategy(Strategy::RowSplitStatic)
            .threads(1)
            .build(&a, 8)
            .unwrap();
        let (y, _) = engine.execute(&x).unwrap();
        assert!(y.approx_eq(&expected, 1e-4));
    }

    #[test]
    fn build_rejects_immediates_that_wrap() {
        if !host_ok() {
            eprintln!("skipping: host lacks AVX/FMA");
            return;
        }
        let a = integer_valued(&generate::uniform::<f32>(300, 300, 3_000, 4));
        // The claim loop adds the batch as a 32-bit immediate: 2^31 would
        // wrap to a negative step.
        let build = |strategy, d| JitSpmmBuilder::new().strategy(strategy).threads(2).build(&a, d);
        let err = build(Strategy::RowSplitDynamic { batch: 1 << 31 }, 16).unwrap_err();
        assert!(matches!(err, JitSpmmError::InvalidConfig(_)), "{err:?}");
        // So is the row stride, `d * 4` bytes for f32.
        let err = build(Strategy::RowSplitStatic, (1 << 29) + 1).unwrap_err();
        assert!(matches!(err, JitSpmmError::InvalidConfig(_)), "{err:?}");
        // The largest batch that fits still computes the right product.
        let engine = build(Strategy::RowSplitDynamic { batch: i32::MAX as usize }, 16).unwrap();
        let x = integer_input(300, 16, 1);
        assert_eq!(*engine.execute(&x).unwrap().0, scalar_anchor(&a, &x));
    }

    #[test]
    fn empty_rows_produce_zero_output() {
        if !host_ok() {
            eprintln!("skipping: host lacks AVX/FMA");
            return;
        }
        // A matrix where many rows are empty.
        let a = CsrMatrix::<f32>::from_triplets(64, 64, &[(63, 0, 2.0)]).unwrap();
        let x = DenseMatrix::random(64, 16, 2);
        let engine = JitSpmmBuilder::new().threads(3).build(&a, 16).unwrap();
        let (y, _) = engine.execute(&x).unwrap();
        for r in 0..63 {
            assert!(y.row(r).iter().all(|&v| v == 0.0), "row {r} should be zero");
        }
        assert!(y.approx_eq(&a.spmm_reference(&x), 1e-5));
    }
}
