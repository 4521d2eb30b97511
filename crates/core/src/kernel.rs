//! Compiled kernel wrapper: executable code plus metadata.

use crate::schedule::Strategy;
use jitspmm_asm::{AsmError, ExecutableBuffer, IsaLevel};
use jitspmm_sparse::ScalarKind;
use std::marker::PhantomData;
use std::time::Duration;

/// The call shape of a compiled kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// `fn(row_start, row_end, x, y)` — used by all static partitions.
    StaticRange,
    /// `fn(x, y)` — dynamic row dispatching with an embedded `NEXT` counter.
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

    /// Invoke a static-range kernel on rows `[start, end)`.
    ///
    /// # Safety
    ///
    /// The kernel embeds raw pointers to the CSR arrays it was compiled
    /// against; those arrays must still be alive and unchanged. `x` must
    /// point to at least `ncols * d` elements and `y` to at least
    /// `nrows * d` writable elements of the correct type, and `start <= end
    /// <= nrows`.
    pub(crate) unsafe fn call_static(&self, start: u64, end: u64, x: *const T, y: *mut T) {
        debug_assert_eq!(self.kernel_kind, KernelKind::StaticRange);
        let f: extern "C" fn(u64, u64, *const T, *mut T) = std::mem::transmute(self.buf.entry());
        f(start, end, x, y);
    }

    /// Invoke a dynamic-dispatch kernel (it loops until the shared counter
    /// runs past the row count).
    ///
    /// # Safety
    ///
    /// Same requirements as [`CompiledKernel::call_static`]; additionally the
    /// embedded `NEXT` counter must still be alive.
    pub(crate) unsafe fn call_dynamic(&self, x: *const T, y: *mut T) {
        debug_assert_eq!(self.kernel_kind, KernelKind::DynamicDispatch);
        let f: extern "C" fn(*const T, *mut T) = std::mem::transmute(self.buf.entry());
        f(x, y);
    }
}
