//! Engine configuration: [`SpmmOptions`] and the [`JitSpmmBuilder`].

use super::compile::JitSpmm;
use crate::error::JitSpmmError;
use crate::runtime::WorkerPool;
use crate::schedule::Strategy;
use jitspmm_asm::IsaLevel;
use jitspmm_sparse::{CsrMatrix, Scalar};

/// Configuration of a [`JitSpmm`] engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmmOptions {
    /// Workload-division strategy (default: dynamic row-split with the
    /// paper's batch size of 128).
    pub strategy: Strategy,
    /// ISA tier to generate code for; `None` selects the best tier the host
    /// supports.
    pub isa: Option<IsaLevel>,
    /// Number of worker lanes; `0` uses one lane per pool worker.
    pub threads: usize,
    /// Whether to apply coarse-grain column merging (always on in the paper;
    /// disable only for the ablation experiment).
    pub ccm: bool,
    /// Record an instruction listing alongside the generated code.
    pub listing: bool,
}

impl Default for SpmmOptions {
    fn default() -> SpmmOptions {
        SpmmOptions {
            strategy: Strategy::row_split_dynamic_default(),
            isa: None,
            threads: 0,
            ccm: true,
            listing: false,
        }
    }
}

/// Builder for [`JitSpmm`].
///
/// # Example
///
/// ```
/// use jitspmm::{JitSpmmBuilder, Strategy};
/// use jitspmm_sparse::{generate, DenseMatrix};
///
/// # fn main() -> Result<(), jitspmm::JitSpmmError> {
/// let a = generate::uniform::<f32>(100, 100, 500, 1);
/// let x = DenseMatrix::random(100, 16, 2);
/// let engine = JitSpmmBuilder::new()
///     .strategy(Strategy::NnzSplit)
///     .threads(2)
///     .build(&a, x.ncols())?;
/// let (y, _report) = engine.execute(&x)?;
/// assert!(y.approx_eq(&a.spmm_reference(&x), 1e-4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct JitSpmmBuilder {
    options: SpmmOptions,
    pool: Option<WorkerPool>,
}

impl JitSpmmBuilder {
    /// Start a builder with the default options.
    pub fn new() -> JitSpmmBuilder {
        JitSpmmBuilder::default()
    }

    /// Select the workload-division strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.options.strategy = strategy;
        self
    }

    /// Pin the ISA tier instead of auto-detecting.
    pub fn isa(mut self, isa: IsaLevel) -> Self {
        self.options.isa = Some(isa);
        self
    }

    /// Set the number of worker lanes (`0` = one per pool worker).
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Enable or disable coarse-grain column merging.
    pub fn ccm(mut self, ccm: bool) -> Self {
        self.options.ccm = ccm;
        self
    }

    /// Record a textual listing of the generated instructions.
    pub fn listing(mut self, listing: bool) -> Self {
        self.options.listing = listing;
        self
    }

    /// Execute on `pool` instead of the process-wide default
    /// ([`WorkerPool::global`]). Any number of engines may share one pool;
    /// their executions are serialized per pool, never oversubscribing the
    /// machine.
    pub fn pool(mut self, pool: WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Compile a kernel for `matrix` and `d` dense columns.
    ///
    /// # Errors
    ///
    /// Fails if the host cannot execute the requested ISA tier, if `d` is
    /// zero, or if code generation fails.
    pub fn build<T: Scalar>(
        self,
        matrix: &CsrMatrix<T>,
        d: usize,
    ) -> Result<JitSpmm<'_, T>, JitSpmmError> {
        let pool = self.pool.unwrap_or_else(|| WorkerPool::global().clone());
        JitSpmm::compile_with_pool(matrix, d, self.options, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitspmm_asm::CpuFeatures;
    use jitspmm_sparse::{generate, DenseMatrix};
    use std::time::Duration;

    fn host_ok() -> bool {
        let f = CpuFeatures::detect();
        f.avx && f.has_fma()
    }

    #[test]
    fn compile_rejects_zero_columns() {
        let a = generate::uniform::<f32>(10, 10, 20, 1);
        let err = JitSpmm::compile(&a, 0, SpmmOptions::default()).unwrap_err();
        assert!(matches!(err, JitSpmmError::EmptyDenseMatrix));
    }

    #[test]
    fn meta_reports_codegen_details() {
        if !host_ok() {
            eprintln!("skipping: host lacks AVX/FMA");
            return;
        }
        let a = generate::uniform::<f32>(100, 100, 400, 2);
        let engine = JitSpmmBuilder::new().threads(1).listing(true).build(&a, 45).unwrap();
        let meta = engine.meta();
        assert_eq!(meta.d, 45);
        assert!(meta.code_bytes > 0);
        assert!(meta.codegen_time.as_nanos() > 0);
        assert!(!meta.register_plan.is_empty());
        assert!(engine.kernel().listing().is_some());
        assert!(engine.codegen_overhead_ratio(Duration::from_secs(1)) < 0.5);
    }

    #[test]
    fn explicit_pool_is_shared_across_engines() {
        if !host_ok() {
            eprintln!("skipping: host lacks AVX/FMA");
            return;
        }
        let pool = WorkerPool::new(2);
        let a = generate::uniform::<f32>(100, 100, 800, 3);
        let b = generate::uniform::<f32>(80, 100, 500, 4);
        let x = DenseMatrix::random(100, 8, 5);
        let e1 = JitSpmmBuilder::new().pool(pool.clone()).build(&a, 8).unwrap();
        let e2 = JitSpmmBuilder::new().pool(pool.clone()).build(&b, 8).unwrap();
        assert_eq!(e1.pool().size(), 2);
        assert_eq!(e1.threads(), 2, "threads default to the pool size");
        let (ya, _) = e1.execute(&x).unwrap();
        let (yb, _) = e2.execute(&x).unwrap();
        assert!(ya.approx_eq(&a.spmm_reference(&x), 1e-4));
        assert!(yb.approx_eq(&b.spmm_reference(&x), 1e-4));
    }
}
