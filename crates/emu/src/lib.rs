//! # jitspmm-emu — an x86-64 subset emulator with hardware-event counters
//!
//! The JITSPMM paper profiles its kernels with Linux `perf` hardware
//! counters (memory loads, branches, branch misses, instructions — Table II
//! and Figure 11). Hardware counters are not reliably available in a
//! container, so this crate provides the substitute substrate: it decodes
//! and executes the exact machine code produced by `jitspmm-asm`, counting
//! architectural events as it goes and modelling branch mispredictions with
//! a bimodal two-bit predictor.
//!
//! Besides profiling, the emulator doubles as an independent oracle for the
//! encoder: an instruction that the assembler mis-encodes either fails to
//! decode or produces results that disagree with native execution, both of
//! which the test suites check.
//!
//! The supported instruction subset is exactly the forms the JITSPMM code
//! generator emits: [`Inst`] lists them, [`decode`] returns them, and any
//! other encoding is [`EmuError::Unsupported`]. A new form lands as one
//! `Assembler` method, one [`Inst`] variant, one decoder arm and one
//! `execute` arm, plus one row of the encode/decode round-trip test, all in
//! the change that makes the code generator emit it.
//!
//! # Example
//!
//! ```
//! use jitspmm_asm::{Assembler, Gpr};
//! use jitspmm_emu::Emulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Assembler::new();
//! asm.mov_rr64(Gpr::Rax, Gpr::Rdi);
//! asm.add_ri64(Gpr::Rax, 5);
//! asm.ret();
//! let code = asm.finalize()?;
//! let mut emu = Emulator::new();
//! // SAFETY: the code only touches registers.
//! let (counters, result) = unsafe { emu.run_with_result(&code, &[37])? };
//! assert_eq!(result, 42);
//! assert_eq!(counters.instructions, 3);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod cache;
mod counters;
mod decode;
mod error;
mod inst;
mod machine;

pub use cache::{CacheConfig, CacheModel};
pub use counters::{BranchPredictor, HwCounters};
pub use decode::decode;
pub use error::EmuError;
pub use inst::{AluOp, Inst, MemOperand, OpWidth, VecKind};

use machine::MachineState;

/// Sentinel return address marking the outermost frame.
const HALT_ADDRESS: u64 = u64::MAX;

/// Default ceiling on executed instructions (guards against emulating a
/// kernel that never terminates because of an encoder/emulator bug).
const DEFAULT_MAX_INSTRUCTIONS: u64 = 20_000_000_000;

/// An x86-64 subset emulator with an architectural event model.
#[derive(Debug)]
pub struct Emulator {
    max_instructions: u64,
    stack_bytes: usize,
}

impl Default for Emulator {
    fn default() -> Self {
        Emulator::new()
    }
}

impl Emulator {
    /// An emulator with default limits (20 G instructions, 1 MiB stack).
    pub fn new() -> Emulator {
        Emulator { max_instructions: DEFAULT_MAX_INSTRUCTIONS, stack_bytes: 1 << 20 }
    }

    /// Override the instruction ceiling (useful to keep tests fast).
    pub fn with_max_instructions(mut self, max: u64) -> Emulator {
        self.max_instructions = max;
        self
    }

    /// Execute `code` as a System V AMD64 function with up to six integer
    /// `args`, returning the event counters.
    ///
    /// # Errors
    ///
    /// Fails on instructions outside the supported subset, control flow that
    /// leaves the code buffer, a `push`, `pop` or `ret` that leaves the
    /// private stack ([`EmuError::StackFault`]), or exceeding the
    /// instruction ceiling.
    ///
    /// # Safety
    ///
    /// The code is executed with *host* memory semantics: every address it
    /// computes is dereferenced for real. The caller must guarantee the code
    /// only accesses memory that is valid for the implied reads and writes —
    /// the same contract as running the code natively.
    pub unsafe fn run(&mut self, code: &[u8], args: &[u64]) -> Result<HwCounters, EmuError> {
        self.run_with_result(code, args).map(|(c, _)| c)
    }

    /// Like [`Emulator::run`] but also returns the function result (`rax` at
    /// the final `ret`).
    ///
    /// # Errors
    ///
    /// See [`Emulator::run`].
    ///
    /// # Safety
    ///
    /// See [`Emulator::run`].
    pub unsafe fn run_with_result(
        &mut self,
        code: &[u8],
        args: &[u64],
    ) -> Result<(HwCounters, u64), EmuError> {
        assert!(args.len() <= 6, "at most six integer arguments are supported");
        let mut state = MachineState::new(self.stack_bytes);
        state.set_args(args);
        state.push_u64(HALT_ADDRESS)?;

        let mut counters = HwCounters::default();
        let mut predictor = BranchPredictor::new();
        let mut cache: Vec<Option<(Inst, usize)>> = vec![None; code.len()];
        let mut rip: usize = 0;

        loop {
            if counters.instructions >= self.max_instructions {
                return Err(EmuError::InstructionLimit { limit: self.max_instructions });
            }
            if rip >= code.len() {
                return Err(EmuError::RipOutOfRange { rip });
            }
            let (inst, len) = match &cache[rip] {
                Some(entry) => entry.clone(),
                None => {
                    let decoded = decode::decode(code, rip)?;
                    cache[rip] = Some(decoded.clone());
                    decoded
                }
            };
            counters.instructions += 1;
            match state.execute(&inst, &mut counters, &mut predictor)? {
                machine::Flow::Next => rip += len,
                machine::Flow::Jump(target) => {
                    if target == HALT_ADDRESS {
                        return Ok((counters, state.gpr(jitspmm_asm::Gpr::Rax)));
                    }
                    rip = target as usize;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitspmm_asm::{Assembler, Cond, Gpr, Mem, Scale};

    fn emulate(asm: Assembler, args: &[u64]) -> (HwCounters, u64) {
        let code = asm.finalize().unwrap();
        let mut emu = Emulator::new().with_max_instructions(10_000_000);
        // SAFETY: every test kernel reads and writes only through the argument
        // pointers it is given, each pointing at a live buffer of the length the
        // test passes with it (or touches no memory at all).
        unsafe { emu.run_with_result(&code, args).unwrap() }
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut asm = Assembler::new();
        asm.mov_ri64(Gpr::Rax, 40);
        asm.add_ri64(Gpr::Rax, 2);
        asm.ret();
        let (counters, result) = emulate(asm, &[]);
        assert_eq!(result, 42);
        assert_eq!(counters.instructions, 3);
        assert_eq!(counters.branches, 1); // ret
        assert_eq!(counters.memory_loads, 1); // ret pops the return address
    }

    #[test]
    fn loop_sums_first_n_integers() {
        let mut asm = Assembler::new();
        let (head, done) = {
            let mut l = || asm.new_label();
            (l(), l())
        };
        asm.xor_rr64(Gpr::Rax, Gpr::Rax);
        asm.xor_rr64(Gpr::Rcx, Gpr::Rcx);
        asm.bind(head).unwrap();
        asm.cmp_rr64(Gpr::Rcx, Gpr::Rdi);
        asm.jcc(Cond::Ge, done);
        asm.add_rr64(Gpr::Rax, Gpr::Rcx);
        asm.inc_r64(Gpr::Rcx);
        asm.jmp(head);
        asm.bind(done).unwrap();
        asm.ret();
        let (counters, result) = emulate(asm, &[100]);
        assert_eq!(result, 4950);
        assert!(counters.instructions > 500);
        assert!(counters.branches > 200);
        // A bimodal predictor learns a monotone loop almost perfectly.
        assert!(counters.branch_misses < 5, "misses = {}", counters.branch_misses);
    }

    #[test]
    fn memory_round_trip_counts_loads_and_stores() {
        // fn(src, dst): dst[0] += src[0] + src[1], the store through `xadd`
        let mut asm = Assembler::new();
        asm.mov_rm64(Gpr::Rax, Mem::base(Gpr::Rdi));
        asm.mov_rm64(Gpr::Rcx, Mem::base(Gpr::Rdi).disp(8));
        asm.add_rr64(Gpr::Rax, Gpr::Rcx);
        asm.lock_xadd_mr64(Mem::base(Gpr::Rsi), Gpr::Rax);
        asm.ret();
        let src = [30u64, 12u64];
        let mut dst = [0u64];
        let (counters, _) = emulate(asm, &[src.as_ptr() as u64, dst.as_mut_ptr() as u64]);
        assert_eq!(dst[0], 42);
        assert_eq!(counters.memory_loads, 4); // two data loads + xadd + ret
        assert_eq!(counters.memory_stores, 1);
    }

    #[test]
    fn lock_xadd_matches_hardware_semantics() {
        let mut asm = Assembler::new();
        asm.mov_rr64(Gpr::Rax, Gpr::Rsi);
        asm.lock_xadd_mr64(Mem::base(Gpr::Rdi), Gpr::Rax);
        asm.ret();
        let mut counter = 100u64;
        let (_, old) = emulate(asm, &[&mut counter as *mut u64 as u64, 28]);
        assert_eq!(old, 100);
        assert_eq!(counter, 128);
    }

    #[test]
    fn indexed_addressing_with_scale() {
        // fn(ptr, i) -> ptr[i] (u64 elements)
        let mut asm = Assembler::new();
        asm.mov_rm64(Gpr::Rax, Mem::base(Gpr::Rdi).index(Gpr::Rsi, Scale::S8));
        asm.ret();
        let data = [10u64, 20, 30, 40];
        let (_, v) = emulate(asm, &[data.as_ptr() as u64, 2]);
        assert_eq!(v, 30);
    }

    #[test]
    fn push_pop_round_trip() {
        let mut asm = Assembler::new();
        asm.mov_ri64(Gpr::Rbx, 77);
        asm.push_r64(Gpr::Rbx);
        asm.mov_ri64(Gpr::Rbx, 0);
        asm.pop_r64(Gpr::Rax);
        asm.ret();
        let (counters, v) = emulate(asm, &[]);
        assert_eq!(v, 77);
        assert_eq!(counters.memory_stores, 1);
        assert_eq!(counters.memory_loads, 2); // pop + ret
    }

    /// The error `asm` stops with; its code may touch nothing but the
    /// emulator's own stack.
    fn stack_fault_of(asm: Assembler) -> EmuError {
        let code = asm.finalize().unwrap();
        let mut emu = Emulator::new().with_max_instructions(1_000_000);
        // SAFETY: the code only pushes and pops, and every stack access is
        // checked against the emulator's private stack.
        unsafe { emu.run(&code, &[]) }.unwrap_err()
    }

    #[test]
    fn a_pop_past_the_halt_sentinel_is_a_stack_fault() {
        // The pop takes the halt sentinel; the ret reads above the stack.
        let mut asm = Assembler::new();
        asm.pop_r64(Gpr::Rax);
        asm.ret();
        assert!(matches!(stack_fault_of(asm), EmuError::StackFault));
    }

    #[test]
    fn a_push_below_the_stack_base_is_a_stack_fault() {
        // 1 MiB of stack holds 131,072 slots; the loop pushes forever.
        let mut asm = Assembler::new();
        let top = asm.new_label();
        asm.bind(top).unwrap();
        asm.push_r64(Gpr::Rax);
        asm.jmp(top);
        assert!(matches!(stack_fault_of(asm), EmuError::StackFault));
    }

    #[test]
    fn shifts_lea_and_imul() {
        // fn(a, b) -> (a << 1) + ((b * 24) << 2) - 4. The kernels shift only
        // through a scaled index, as in their row and column addressing.
        let mut asm = Assembler::new();
        asm.imul_rri64(Gpr::Rsi, Gpr::Rsi, 24);
        asm.lea(Gpr::Rcx, Mem::base(Gpr::Rdi).index(Gpr::Rdi, Scale::S1));
        asm.lea(Gpr::Rax, Mem::base(Gpr::Rcx).index(Gpr::Rsi, Scale::S4).disp(-4));
        asm.ret();
        let (_, v) = emulate(asm, &[3, 5]);
        assert_eq!(v, (3 << 1) + ((5 * 24) << 2) - 4);
    }

    #[test]
    fn unsupported_instruction_reports_offset() {
        // 0F 31 = rdtsc, not in the supported subset.
        let code = vec![0x0F, 0x31, 0xC3];
        let mut emu = Emulator::new();
        // SAFETY: the emulator only dereferences addresses the code computes,
        // and this code touches no memory (it faults on decode or runs out of
        // bounds or budget before any access).
        let err = unsafe { emu.run(&code, &[]) }.unwrap_err();
        match err {
            EmuError::Unsupported { offset, .. } => assert_eq!(offset, 0),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn instruction_limit_is_enforced() {
        let mut asm = Assembler::new();
        let l = asm.new_label();
        asm.bind(l).unwrap();
        asm.jmp(l);
        let code = asm.finalize().unwrap();
        let mut emu = Emulator::new().with_max_instructions(1000);
        // SAFETY: the emulator only dereferences addresses the code computes,
        // and this code touches no memory (it faults on decode or runs out of
        // bounds or budget before any access).
        let err = unsafe { emu.run(&code, &[]) }.unwrap_err();
        assert!(matches!(err, EmuError::InstructionLimit { .. }));
    }

    #[test]
    fn falling_off_the_end_is_detected() {
        // No ret: a single inc then out of bounds.
        let mut asm = Assembler::new();
        asm.inc_r64(Gpr::Rax);
        let code = asm.finalize().unwrap();
        let mut emu = Emulator::new();
        // SAFETY: the emulator only dereferences addresses the code computes,
        // and this code touches no memory (it faults on decode or runs out of
        // bounds or budget before any access).
        let err = unsafe { emu.run(&code, &[]) }.unwrap_err();
        assert!(matches!(err, EmuError::RipOutOfRange { .. }));
    }
}
