//! Compiled kernel wrapper: executable code plus metadata.

use crate::codegen::LaunchArgs;
use crate::schedule::Strategy;
use jitspmm_asm::{AsmError, ExecutableBuffer, IsaLevel};
use jitspmm_sparse::ScalarKind;
use std::marker::PhantomData;
use std::time::Duration;

/// How a compiled kernel divides rows. Both kinds share one call shape,
/// `fn(args, row_start, row_end)`, where `args` carries the matrix, the
/// dense operands and a per-launch claim counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Computes rows `[row_start, row_end)` — used by all static
    /// partitions, one range per lane.
    StaticRange,
    /// Ignores the range: every lane claims batches of rows from the
    /// launch's counter with `lock xadd` until none are left (Listing 1).
    DynamicDispatch,
}

/// Metadata describing a compiled kernel, reported by
/// [`crate::JitSpmm::meta`] and used by the Table IV harness.
#[derive(Debug, Clone)]
pub struct KernelMeta {
    /// Number of dense columns the kernel was specialized for.
    pub d: usize,
    /// Element kind.
    pub kind: ScalarKind,
    /// ISA tier of the generated code.
    pub isa: IsaLevel,
    /// Whether coarse-grain column merging was applied.
    pub ccm: bool,
    /// Workload-division strategy the kernel was built for.
    pub strategy: Strategy,
    /// Size of the generated machine code in bytes.
    pub code_bytes: usize,
    /// Wall-clock time spent generating and materializing the code.
    pub codegen_time: Duration,
    /// Human-readable register-allocation summary (e.g.
    /// `16(zmm0)+16(zmm1)+8(ymm2)+4(xmm3)+1(xmm4)`).
    pub register_plan: String,
    /// Number of passes over each row's non-zero list (1 unless `d` exceeds
    /// the register file).
    pub nnz_passes: usize,
}

/// A compiled, executable SpMM kernel.
///
/// The type parameter ties the kernel to the element type it was generated
/// for, preventing an `f32` kernel from being invoked with `f64` buffers.
pub struct CompiledKernel<T> {
    buf: ExecutableBuffer,
    kernel_kind: KernelKind,
    listing: Option<Vec<(usize, String)>>,
    _marker: PhantomData<fn(*const T)>,
}

impl<T> std::fmt::Debug for CompiledKernel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledKernel")
            .field("kind", &self.kernel_kind)
            .field("code_bytes", &self.buf.code_len())
            .finish()
    }
}

impl<T> CompiledKernel<T> {
    /// Wrap finalized machine code in executable memory.
    pub(crate) fn new(
        code: &[u8],
        kernel_kind: KernelKind,
        listing: Option<Vec<(usize, String)>>,
    ) -> Result<CompiledKernel<T>, AsmError> {
        Ok(CompiledKernel {
            buf: ExecutableBuffer::from_code(code)?,
            kernel_kind,
            listing,
            _marker: PhantomData,
        })
    }

    /// The call shape of this kernel.
    pub fn kind(&self) -> KernelKind {
        self.kernel_kind
    }

    /// The generated machine code (for inspection, disassembly or emulation).
    pub fn code(&self) -> &[u8] {
        self.buf.code()
    }

    /// The instruction listing, when the engine was built with listing
    /// enabled.
    pub fn listing(&self) -> Option<&[(usize, String)]> {
        self.listing.as_deref()
    }

    /// Run the kernel on the launch described by `args`: rows
    /// `[start, end)` for a static-range kernel; a dynamic-dispatch kernel
    /// ignores the range and claims rows from `args`' counter until none
    /// are left.
    ///
    /// # Safety
    ///
    /// `args` is the whole contract. Its matrix arrays must be alive and
    /// unchanged for the call, its `x` must point to at least `ncols * d`
    /// elements and its `y` to at least `nrows * d` writable elements, for
    /// the `d` and element type this kernel was compiled for. A static call
    /// needs `start <= end <= nrows`. Calls running at once on one `args`
    /// must write disjoint rows: disjoint ranges, or dynamic calls sharing
    /// its counter, which must not have been advanced by another launch.
    pub(crate) unsafe fn call(&self, args: &LaunchArgs<T>, start: u64, end: u64) {
        let f: extern "C" fn(*const LaunchArgs<T>, u64, u64) =
            std::mem::transmute(self.buf.entry());
        f(args, start, end);
    }
}
