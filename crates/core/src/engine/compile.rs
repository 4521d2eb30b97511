//! Engine construction: code generation, partitioning and the compiled
//! state a [`JitSpmm`] carries between launches.
//!
//! The compiled state lives in one immutable [`EngineCore`], built once at
//! construction, owned by its engine alone and never replaced or shared.

use crate::codegen::{
    generate_dynamic_kernel, generate_static_kernel, KernelOptions, MatrixBinding,
};
use crate::engine::options::SpmmOptions;
use crate::error::JitSpmmError;
use crate::kernel::{CompiledKernel, KernelKind, KernelMeta};
use crate::runtime::dispatch::BufferPool;
use crate::runtime::WorkerPool;
use crate::schedule::{partition, DynamicCounter, Partition, Strategy};
use jitspmm_asm::CpuFeatures;
use jitspmm_sparse::{CsrMatrix, DenseMatrix, Scalar};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A JIT-compiled SpMM engine bound to one sparse matrix and one column
/// count.
///
/// Construction generates machine code specialized to the matrix (its array
/// base addresses are embedded in the instruction stream), the number of
/// dense columns `d`, the element type, the ISA tier and the workload
/// division strategy. The engine can then be executed repeatedly against
/// different dense inputs of shape `ncols x d`.
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
    /// Serializes launches of this engine's kernel. The dynamic counter is
    /// shared mutable state embedded in the generated code, so two
    /// concurrent launches of one engine (possible from safe code — the
    /// engine is `Sync`) must not interleave a reset with a running claim
    /// loop.
    pub(super) launch: Mutex<()>,
    /// The launch-thread token of the thread currently holding `launch`
    /// (0 = unheld); lets a same-thread re-entry fail fast instead of
    /// self-deadlocking (see the launch layer).
    pub(super) launch_owner: AtomicU64,
    pub(super) pool: WorkerPool,
    pub(super) output_pool: Arc<BufferPool<T>>,
}

/// The compiled configuration of an engine: the kernel, its metadata, the
/// partition and claim counter it launches with, and the per-slot spare
/// kernels batches compile against it.
pub(super) struct EngineCore<T: Scalar> {
    pub(super) kernel: CompiledKernel<T>,
    pub(super) meta: KernelMeta,
    pub(super) partition: Partition,
    pub(super) counter: Box<DynamicCounter>,
    /// The options this core's kernel was generated with, kept so the batch
    /// pipeline can compile spare slot kernels ([`SlotKernel`]) on demand.
    pub(super) kernel_options: KernelOptions,
    /// The workload-division strategy this core compiled.
    pub(super) strategy: Strategy,
    /// Lazily compiled spare kernels backing batch pipeline slots 1.. for
    /// dynamic-dispatch cores (see [`SlotKernel`]); cached so repeated
    /// [`JitSpmm::execute_batch`] calls pay codegen once.
    pub(super) batch_kernels: Mutex<Vec<Arc<SlotKernel<T>>>>,
}

impl<T: Scalar> std::fmt::Debug for JitSpmm<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitSpmm")
            .field("d", &self.d)
            .field("strategy", &self.core.strategy)
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
        Ok(JitSpmm {
            matrix,
            d,
            threads,
            core,
            launch: Mutex::new(()),
            launch_owner: AtomicU64::new(0),
            pool,
            output_pool: Arc::new(BufferPool::new()),
        })
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
        if let Strategy::RowSplitDynamic { batch: 0 } = strategy {
            return Err(JitSpmmError::InvalidConfig("dynamic batch size must be non-zero".into()));
        }
        let counter = Box::new(DynamicCounter::new());
        let binding = MatrixBinding::of(matrix);
        let kind = match strategy {
            Strategy::RowSplitDynamic { .. } => KernelKind::DynamicDispatch,
            _ => KernelKind::StaticRange,
        };

        let start = Instant::now();
        let generated = match strategy {
            Strategy::RowSplitDynamic { batch } => generate_dynamic_kernel(
                binding,
                d,
                T::KIND,
                batch,
                counter.as_ptr() as *const u8,
                &kernel_options,
            )?,
            _ => generate_static_kernel(binding, d, T::KIND, &kernel_options)?,
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
        Ok(EngineCore {
            kernel,
            meta,
            partition,
            counter,
            kernel_options,
            strategy,
            batch_kernels: Mutex::new(Vec::new()),
        })
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

    /// The cached spare [`SlotKernel`]s for batch pipeline slots `1..=extra`
    /// of a dynamic-dispatch core, compiling any that do not exist yet.
    /// Static-range cores need none and get an empty list.
    pub(super) fn spare_slot_kernels(
        &self,
        extra: usize,
    ) -> Result<Vec<Arc<SlotKernel<T>>>, JitSpmmError> {
        let core = &self.core;
        if extra == 0 || core.kernel.kind() != KernelKind::DynamicDispatch {
            return Ok(Vec::new());
        }
        let Strategy::RowSplitDynamic { batch } = core.strategy else {
            unreachable!("dynamic kernels are only generated for dynamic row-split")
        };
        // Listings are a debugging aid of the primary kernel; spare copies
        // are byte-identical except for the counter address.
        let options = KernelOptions { listing: false, ..core.kernel_options };
        let binding = MatrixBinding::of(self.matrix);
        let mut slots = crate::runtime::pool::lock(&core.batch_kernels);
        while slots.len() < extra {
            let counter = Box::new(DynamicCounter::new());
            let generated = generate_dynamic_kernel(
                binding,
                self.d,
                T::KIND,
                batch,
                counter.as_ptr() as *const u8,
                &options,
            )?;
            let kernel = CompiledKernel::new(&generated.code, KernelKind::DynamicDispatch, None)?;
            slots.push(Arc::new(SlotKernel { kernel, counter }));
        }
        Ok(slots.iter().take(extra).cloned().collect())
    }

    /// Output buffers this engine's own pool holds spare.
    #[cfg(test)]
    pub(crate) fn spare_outputs(&self) -> usize {
        self.output_pool.spare_buffers()
    }

    /// Spare slot kernels this engine has compiled for batch pipelines.
    #[cfg(test)]
    pub(crate) fn spare_kernels(&self) -> usize {
        crate::runtime::pool::lock(&self.core.batch_kernels).len()
    }

    pub(super) fn check_shapes(
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
/// Every launch path calls it **before** taking a launch lock, pinning a
/// generation or touching a buffer pool, so user input can only ever produce
/// a [`JitSpmmError::ShapeMismatch`], never a panic or a poisoned engine.
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

/// A spare kernel instance backing one batch pipeline slot of a
/// dynamic-dispatch engine. The row-claim counter's address is embedded in
/// the generated code, so every launch that may be in flight concurrently
/// needs its own counter — and therefore its own compiled copy. (Static
/// kernels have no embedded mutable state; slots share the engine's.)
pub(super) struct SlotKernel<T: Scalar> {
    pub(super) kernel: CompiledKernel<T>,
    /// The claim counter the spare kernel's `lock xadd` targets; boxed so
    /// its address outlives any move of the surrounding struct.
    pub(super) counter: Box<DynamicCounter>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::JitSpmmBuilder;
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
