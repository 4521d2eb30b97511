//! # jitspmm-asm — a from-scratch x86-64 runtime assembler
//!
//! This crate provides the machine-code emission substrate used by the
//! [JITSPMM](https://arxiv.org/abs/2312.05639) reproduction. The paper relies
//! on the C++ AsmJit library to generate x86-64 instructions at runtime; this
//! crate plays the same role in pure Rust:
//!
//! * register definitions for the general-purpose and SIMD register files
//!   ([`Gpr`], [`Xmm`], [`Ymm`], [`Zmm`]),
//! * memory-operand construction ([`Mem`]),
//! * legacy/REX, VEX and EVEX instruction encoding ([`Assembler`]),
//! * forward/backward label management with relocation fixups ([`Label`]),
//! * executable-memory management with W^X protection ([`ExecutableBuffer`]),
//! * CPU feature detection ([`CpuFeatures`], [`IsaLevel`]).
//!
//! The instruction surface is exactly the forms the JITSPMM kernels emit
//! (scalar and packed FMA with a memory operand, broadcasts, scalar loads,
//! unaligned stores, the `lock xadd` dynamic-dispatch primitive, and the
//! control-flow/ALU instructions of the row and non-zero loops). Every
//! [`Assembler`] method has a caller in the code generator. A new form is
//! one `Assembler` method, one `jitspmm_emu::Inst` variant, one decoder arm
//! and one `execute` arm, plus one row of the emulator's encode/decode
//! round-trip test, all in the change that makes the code generator emit it.
//!
//! # Example
//!
//! ```
//! use jitspmm_asm::{Assembler, Gpr, ExecutableBuffer};
//!
//! # fn main() -> Result<(), jitspmm_asm::AsmError> {
//! let mut asm = Assembler::new();
//! // fn(x: u64) -> u64 { x + 7 }
//! asm.mov_rr64(Gpr::Rax, Gpr::Rdi);
//! asm.add_ri64(Gpr::Rax, 7);
//! asm.ret();
//! let buf = ExecutableBuffer::from_code(&asm.finalize()?)?;
//! let f: extern "C" fn(u64) -> u64 = unsafe { buf.as_fn1() };
//! assert_eq!(f(35), 42);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![allow(clippy::too_many_arguments)]

mod assembler;
mod buffer;
mod cond;
mod cpu;
mod encode;
mod error;
mod exec;
mod label;
mod mem;
mod reg;

pub use assembler::Assembler;
pub use cond::Cond;
pub use cpu::{CpuFeatures, IsaLevel};
pub use error::AsmError;
pub use exec::ExecutableBuffer;
pub use label::Label;
pub use mem::{Mem, Scale};
pub use reg::{Gpr, VecReg, VecWidth, Xmm, Ymm, Zmm};
