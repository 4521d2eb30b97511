//! Executable-memory management.
//!
//! Generated machine code is copied into a page-aligned anonymous mapping
//! which is then flipped from writable to executable (W^X): the buffer is
//! never writable and executable at the same time.

use crate::error::AsmError;
use std::ffi::c_void;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn __errno_location() -> *mut i32;
}

const PROT_READ: i32 = 0x1;
const PROT_WRITE: i32 = 0x2;
const PROT_EXEC: i32 = 0x4;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_FAILED: isize = -1;

fn errno() -> i32 {
    // SAFETY: __errno_location always returns a valid thread-local pointer.
    unsafe { *__errno_location() }
}

/// A page-aligned, executable copy of finalized machine code.
///
/// The memory is unmapped on drop. The buffer is `Send`/`Sync`: the code is
/// immutable once mapped executable, so it may be invoked concurrently from
/// many threads (which is exactly what the multi-threaded SpMM executor
/// does).
///
/// # Example
///
/// ```
/// use jitspmm_asm::{Assembler, Gpr, ExecutableBuffer};
/// # fn main() -> Result<(), jitspmm_asm::AsmError> {
/// let mut asm = Assembler::new();
/// asm.mov_ri64(Gpr::Rax, 42);
/// asm.ret();
/// let buf = ExecutableBuffer::from_code(&asm.finalize()?)?;
/// let f: extern "C" fn() -> u64 = unsafe { buf.as_fn0() };
/// assert_eq!(f(), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ExecutableBuffer {
    ptr: *mut u8,
    map_len: usize,
    code_len: usize,
}

// SAFETY: the mapping is immutable (read+exec) for the lifetime of the value
// and freed only in `Drop`, so moving its owner across threads is sound.
unsafe impl Send for ExecutableBuffer {}
// SAFETY: nothing writes the mapping after construction, so references on
// several threads only ever read or execute it.
unsafe impl Sync for ExecutableBuffer {}

impl ExecutableBuffer {
    /// Copy `code` into fresh executable memory.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::EmptyCode`] for an empty slice and
    /// [`AsmError::ExecAlloc`] if the kernel refuses the mapping or the
    /// protection change.
    pub fn from_code(code: &[u8]) -> Result<ExecutableBuffer, AsmError> {
        if code.is_empty() {
            return Err(AsmError::EmptyCode);
        }
        let page = 4096usize;
        let map_len = code.len().div_ceil(page) * page;
        // SAFETY: a fresh anonymous private mapping with no required address.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                map_len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if ptr as isize == MAP_FAILED || ptr.is_null() {
            return Err(AsmError::ExecAlloc { code: errno(), call: "mmap" });
        }
        // SAFETY: `ptr` points to at least `map_len >= code.len()` writable
        // bytes that nothing else references yet.
        unsafe {
            std::ptr::copy_nonoverlapping(code.as_ptr(), ptr as *mut u8, code.len());
        }
        // SAFETY: `ptr`/`map_len` describe the mapping created above.
        let rc = unsafe { mprotect(ptr, map_len, PROT_READ | PROT_EXEC) };
        if rc != 0 {
            let err = AsmError::ExecAlloc { code: errno(), call: "mprotect" };
            // SAFETY: unmapping the region we just mapped.
            unsafe {
                munmap(ptr, map_len);
            }
            return Err(err);
        }
        Ok(ExecutableBuffer { ptr: ptr as *mut u8, map_len, code_len: code.len() })
    }

    /// The entry point of the generated code.
    pub fn entry(&self) -> *const u8 {
        self.ptr
    }

    /// Length of the machine code in bytes (excluding page padding).
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// A read-only view of the machine code bytes.
    pub fn code(&self) -> &[u8] {
        // SAFETY: the mapping is PROT_READ and `code_len` bytes were written.
        unsafe { std::slice::from_raw_parts(self.ptr, self.code_len) }
    }

    /// Reinterpret the entry point as a zero-argument function.
    ///
    /// # Safety
    ///
    /// The generated code must follow the System V AMD64 calling convention
    /// for the chosen signature and must terminate.
    pub unsafe fn as_fn0<R>(&self) -> extern "C" fn() -> R {
        std::mem::transmute(self.ptr)
    }

    /// Reinterpret the entry point as a one-argument function.
    ///
    /// # Safety
    ///
    /// See [`ExecutableBuffer::as_fn0`].
    pub unsafe fn as_fn1<A, R>(&self) -> extern "C" fn(A) -> R {
        std::mem::transmute(self.ptr)
    }

    /// Reinterpret the entry point as a two-argument function.
    ///
    /// # Safety
    ///
    /// See [`ExecutableBuffer::as_fn0`].
    pub unsafe fn as_fn2<A, B, R>(&self) -> extern "C" fn(A, B) -> R {
        std::mem::transmute(self.ptr)
    }

    /// Reinterpret the entry point as a three-argument function.
    ///
    /// # Safety
    ///
    /// See [`ExecutableBuffer::as_fn0`].
    pub unsafe fn as_fn3<A, B, C, R>(&self) -> extern "C" fn(A, B, C) -> R {
        std::mem::transmute(self.ptr)
    }
}

impl Drop for ExecutableBuffer {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`map_len` describe a live mapping owned by `self`.
        unsafe {
            munmap(self.ptr as *mut c_void, self.map_len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assembler, Gpr};

    #[test]
    fn empty_code_is_rejected() {
        assert_eq!(ExecutableBuffer::from_code(&[]).unwrap_err(), AsmError::EmptyCode);
    }

    #[test]
    fn constant_function_executes() {
        let mut asm = Assembler::new();
        asm.mov_ri64(Gpr::Rax, 0x1234_5678_9ABC_DEF0u64 as i64);
        asm.ret();
        let buf = ExecutableBuffer::from_code(&asm.finalize().unwrap()).unwrap();
        // SAFETY: the code above is a complete SysV function of this signature
        // that touches no memory and returns; `buf` outlives every call through `f`.
        let f: extern "C" fn() -> u64 = unsafe { buf.as_fn0() };
        assert_eq!(f(), 0x1234_5678_9ABC_DEF0);
    }

    #[test]
    fn identity_and_add_execute() {
        let mut asm = Assembler::new();
        asm.mov_rr64(Gpr::Rax, Gpr::Rdi);
        asm.add_rr64(Gpr::Rax, Gpr::Rsi);
        asm.ret();
        let buf = ExecutableBuffer::from_code(&asm.finalize().unwrap()).unwrap();
        // SAFETY: the code above is a complete SysV function of this signature
        // that touches no memory and returns; `buf` outlives every call through `f`.
        let f: extern "C" fn(u64, u64) -> u64 = unsafe { buf.as_fn2() };
        assert_eq!(f(40, 2), 42);
        assert_eq!(f(u64::MAX, 1), 0);
    }

    #[test]
    fn code_is_retained_verbatim() {
        let mut asm = Assembler::new();
        asm.inc_r64(Gpr::Rax);
        asm.ret();
        let code = asm.finalize().unwrap();
        let buf = ExecutableBuffer::from_code(&code).unwrap();
        assert_eq!(buf.code(), &code[..]);
        assert_eq!(buf.code_len(), 4);
    }

    #[test]
    fn many_buffers_can_coexist() {
        let buffers: Vec<ExecutableBuffer> = (0..64u64)
            .map(|i| {
                let mut asm = Assembler::new();
                asm.mov_ri64(Gpr::Rax, i as i64);
                asm.ret();
                ExecutableBuffer::from_code(&asm.finalize().unwrap()).unwrap()
            })
            .collect();
        for (i, buf) in buffers.iter().enumerate() {
            // SAFETY: the code above is a complete SysV function of this signature
            // that touches no memory and returns; `buf` outlives every call through `f`.
            let f: extern "C" fn() -> u64 = unsafe { buf.as_fn0() };
            assert_eq!(f(), i as u64);
        }
    }
}
