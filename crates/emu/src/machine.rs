//! Machine state and instruction execution.

use crate::counters::{BranchPredictor, HwCounters};
use crate::error::EmuError;
use crate::inst::{AluOp, Inst, MemOperand, OpWidth, VecKind};
use jitspmm_asm::Cond;

/// Where execution continues after an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Fall through to the next instruction.
    Next,
    /// Jump to an absolute code offset (or the halt sentinel).
    Jump(u64),
}

/// Architectural state: general-purpose registers, 32 512-bit vector
/// registers, the status flags the supported subset writes, and a private
/// stack used by `push`/`pop`/`ret`.
pub(crate) struct MachineState {
    gpr: [u64; 16],
    vec: [[u8; 64]; 32],
    cf: bool,
    zf: bool,
    sf: bool,
    of: bool,
    pf: bool,
    stack: Vec<u8>,
}

impl MachineState {
    pub(crate) fn new(stack_bytes: usize) -> MachineState {
        let stack = vec![0u8; stack_bytes];
        let mut state = MachineState {
            gpr: [0; 16],
            vec: [[0; 64]; 32],
            cf: false,
            zf: false,
            sf: false,
            of: false,
            pf: false,
            stack,
        };
        // rsp points at the top of the private stack (16-byte aligned).
        let top = state.stack.as_ptr() as u64 + state.stack.len() as u64;
        state.gpr[4] = top & !0xF;
        state
    }

    /// Load the System V integer argument registers.
    pub(crate) fn set_args(&mut self, args: &[u64]) {
        const ARG_REGS: [usize; 6] = [7, 6, 2, 1, 8, 9]; // rdi rsi rdx rcx r8 r9
        for (i, &v) in args.iter().enumerate() {
            self.gpr[ARG_REGS[i]] = v;
        }
    }

    /// Read a general-purpose register.
    pub(crate) fn gpr(&self, reg: jitspmm_asm::Gpr) -> u64 {
        self.gpr[reg.id() as usize]
    }

    /// Where the 8-byte stack slot at address `addr` starts in the private
    /// stack; [`EmuError::StackFault`] unless the whole slot lies inside it.
    fn stack_slot(&self, addr: u64) -> Result<usize, EmuError> {
        let offset = addr.wrapping_sub(self.stack.as_ptr() as u64);
        match offset.checked_add(8) {
            Some(end) if end <= self.stack.len() as u64 => Ok(offset as usize),
            _ => Err(EmuError::StackFault),
        }
    }

    /// Push a 64-bit value (also used to seed the return address).
    pub(crate) fn push_u64(&mut self, value: u64) -> Result<(), EmuError> {
        let rsp = self.gpr[4].wrapping_sub(8);
        let at = self.stack_slot(rsp)?;
        self.stack[at..at + 8].copy_from_slice(&value.to_le_bytes());
        self.gpr[4] = rsp;
        Ok(())
    }

    fn pop_u64(&mut self) -> Result<u64, EmuError> {
        let at = self.stack_slot(self.gpr[4])?;
        let value = u64::from_le_bytes(self.stack[at..at + 8].try_into().expect("an 8-byte slot"));
        self.gpr[4] = self.gpr[4].wrapping_add(8);
        Ok(value)
    }

    fn addr_of(&self, mem: &MemOperand) -> u64 {
        let mut addr = self.gpr[mem.base as usize];
        if let Some((idx, scale)) = mem.index {
            addr = addr.wrapping_add(self.gpr[idx as usize] << scale);
        }
        addr.wrapping_add(mem.disp as i64 as u64)
    }

    /// A 64-bit load, or a 32-bit one zero-extended.
    fn load(&self, mem: &MemOperand, width: OpWidth, counters: &mut HwCounters) -> u64 {
        counters.memory_loads += 1;
        let addr = self.addr_of(mem);
        // SAFETY: guaranteed by the caller of `Emulator::run`.
        unsafe {
            match width {
                OpWidth::W64 => std::ptr::read_unaligned(addr as *const u64),
                OpWidth::W32 => std::ptr::read_unaligned(addr as *const u32) as u64,
            }
        }
    }

    fn set_logic_flags(&mut self, result: u64) {
        self.cf = false;
        self.of = false;
        self.zf = result == 0;
        self.sf = (result as i64) < 0;
        self.pf = (result as u8).count_ones().is_multiple_of(2);
    }

    fn set_add_flags(&mut self, a: u64, b: u64, result: u64) {
        self.cf = result < a;
        self.zf = result == 0;
        self.sf = (result as i64) < 0;
        self.of = ((a ^ result) & (b ^ result)) >> 63 == 1;
        self.pf = (result as u8).count_ones().is_multiple_of(2);
    }

    fn set_sub_flags(&mut self, a: u64, b: u64, result: u64) {
        self.cf = a < b;
        self.zf = result == 0;
        self.sf = (result as i64) < 0;
        self.of = ((a ^ b) & (a ^ result)) >> 63 == 1;
        self.pf = (result as u8).count_ones().is_multiple_of(2);
    }

    fn eval_cond(&self, cond: u8) -> bool {
        Cond::ALL[cond as usize & 0xF].eval(self.cf, self.zf, self.sf, self.of, self.pf)
    }

    fn vec_read_mem(&self, mem: &MemOperand, bytes: usize, counters: &mut HwCounters) -> [u8; 64] {
        counters.memory_loads += 1;
        let addr = self.addr_of(mem);
        let mut out = [0u8; 64];
        // SAFETY: guaranteed by the caller of `Emulator::run`.
        unsafe {
            std::ptr::copy_nonoverlapping(addr as *const u8, out.as_mut_ptr(), bytes);
        }
        out
    }

    /// `dst[i] += a[i] * b[i]` over `bytes` of lanes, one rounding each.
    fn fmadd(dst: &mut [u8; 64], a: &[u8; 64], b: &[u8; 64], kind: VecKind, bytes: usize) {
        match kind {
            VecKind::F32 => {
                for lane in 0..bytes / 4 {
                    let o = lane * 4;
                    let d = f32::from_le_bytes(dst[o..o + 4].try_into().unwrap());
                    let x = f32::from_le_bytes(a[o..o + 4].try_into().unwrap());
                    let y = f32::from_le_bytes(b[o..o + 4].try_into().unwrap());
                    dst[o..o + 4].copy_from_slice(&x.mul_add(y, d).to_le_bytes());
                }
            }
            VecKind::F64 => {
                for lane in 0..bytes / 8 {
                    let o = lane * 8;
                    let d = f64::from_le_bytes(dst[o..o + 8].try_into().unwrap());
                    let x = f64::from_le_bytes(a[o..o + 8].try_into().unwrap());
                    let y = f64::from_le_bytes(b[o..o + 8].try_into().unwrap());
                    dst[o..o + 8].copy_from_slice(&x.mul_add(y, d).to_le_bytes());
                }
            }
        }
    }

    /// Execute one decoded instruction.
    pub(crate) fn execute(
        &mut self,
        inst: &Inst,
        counters: &mut HwCounters,
        predictor: &mut BranchPredictor,
    ) -> Result<Flow, EmuError> {
        match inst {
            Inst::MovRegImm { dst, imm } => self.gpr[*dst as usize] = *imm,
            Inst::MovRegRm { dst, src, width } => {
                self.gpr[*dst as usize] = self.load(src, *width, counters);
            }
            Inst::MovRmReg { dst, src } => self.gpr[*dst as usize] = self.gpr[*src as usize],
            Inst::AluRmImm { op, dst, imm } => self.alu(*op, *dst, *imm as u64),
            Inst::AluRmReg { op, dst, src } => self.alu(*op, *dst, self.gpr[*src as usize]),
            Inst::Inc { dst } => {
                let a = self.gpr[*dst as usize];
                let result = a.wrapping_add(1);
                // INC leaves CF untouched.
                let cf = self.cf;
                self.set_add_flags(a, 1, result);
                self.cf = cf;
                self.gpr[*dst as usize] = result;
            }
            Inst::Lea { dst, mem } => {
                let addr = self.addr_of(mem);
                self.gpr[*dst as usize] = addr;
            }
            Inst::ImulRegRmImm { dst, src, imm } => {
                let result = (self.gpr[*src as usize] as i64).wrapping_mul(*imm);
                self.gpr[*dst as usize] = result as u64;
                self.set_logic_flags(result as u64);
            }
            Inst::Push { reg } => {
                counters.memory_stores += 1;
                let v = self.gpr[*reg as usize];
                self.push_u64(v)?;
            }
            Inst::Pop { reg } => {
                counters.memory_loads += 1;
                let v = self.pop_u64()?;
                self.gpr[*reg as usize] = v;
            }
            Inst::Xadd { mem, reg } => {
                counters.memory_loads += 1;
                counters.memory_stores += 1;
                let addr = self.addr_of(mem);
                let old: u64 =
                // SAFETY: guaranteed by the caller of `Emulator::run`.
                    unsafe { std::ptr::read_unaligned(addr as *const u64) };
                let add = self.gpr[*reg as usize];
                let result = old.wrapping_add(add);
                // SAFETY: as above.
                unsafe { std::ptr::write_unaligned(addr as *mut u64, result) };
                self.gpr[*reg as usize] = old;
                self.set_add_flags(old, add, result);
            }
            Inst::Ret => {
                counters.memory_loads += 1;
                counters.branches += 1;
                let target = self.pop_u64()?;
                return Ok(Flow::Jump(target));
            }
            Inst::Jmp { target } => {
                counters.branches += 1;
                return Ok(Flow::Jump(*target));
            }
            Inst::Jcc { cond, target } => {
                counters.branches += 1;
                let taken = self.eval_cond(*cond);
                // Index the predictor by the branch target's low bits, which
                // uniquely identify the branch site in our small kernels.
                if !predictor.predict_and_update(*target as usize ^ (*cond as usize), taken) {
                    counters.branch_misses += 1;
                }
                if taken {
                    return Ok(Flow::Jump(*target));
                }
            }
            Inst::VXor { dst, a, b, width_bytes } => {
                let mut out = [0u8; 64];
                let (va, vb) = (self.vec[*a as usize], self.vec[*b as usize]);
                for i in 0..*width_bytes {
                    out[i] = va[i] ^ vb[i];
                }
                self.vec[*dst as usize] = out;
            }
            Inst::VBroadcast { dst, src, kind, width_bytes } => {
                counters.memory_loads += 1;
                let addr = self.addr_of(src);
                let mut out = [0u8; 64];
                match kind {
                    VecKind::F32 => {
                        // SAFETY: guaranteed by the caller of `Emulator::run`.
                        let v = unsafe { std::ptr::read_unaligned(addr as *const u32) };
                        for lane in 0..width_bytes / 4 {
                            out[lane * 4..lane * 4 + 4].copy_from_slice(&v.to_le_bytes());
                        }
                    }
                    VecKind::F64 => {
                        // SAFETY: as above.
                        let v = unsafe { std::ptr::read_unaligned(addr as *const u64) };
                        for lane in 0..width_bytes / 8 {
                            out[lane * 8..lane * 8 + 8].copy_from_slice(&v.to_le_bytes());
                        }
                    }
                }
                self.vec[*dst as usize] = out;
            }
            Inst::VFmadd231 { dst, a, src, kind, width_bytes, scalar } => {
                let bytes = if *scalar { kind_bytes(*kind) } else { *width_bytes };
                let vb = self.vec_read_mem(src, bytes, counters);
                let va = self.vec[*a as usize];
                let mut vd = self.vec[*dst as usize];
                Self::fmadd(&mut vd, &va, &vb, *kind, bytes);
                self.vec[*dst as usize] = vd;
            }
            Inst::VMovLoad { dst, src, width_bytes } => {
                let data = self.vec_read_mem(src, *width_bytes, counters);
                let mut out = [0u8; 64];
                out[..*width_bytes].copy_from_slice(&data[..*width_bytes]);
                self.vec[*dst as usize] = out;
            }
            Inst::VMovStore { dst, src, width_bytes } => {
                counters.memory_stores += 1;
                let addr = self.addr_of(dst);
                let data = self.vec[*src as usize];
                // SAFETY: guaranteed by the caller of `Emulator::run`.
                unsafe {
                    std::ptr::copy_nonoverlapping(data.as_ptr(), addr as *mut u8, *width_bytes);
                }
            }
        }
        Ok(Flow::Next)
    }

    /// `dst = dst op b` for a register destination (`cmp` only sets flags).
    fn alu(&mut self, op: AluOp, dst: u8, b: u64) {
        let a = self.gpr[dst as usize];
        match op {
            AluOp::Add => {
                let result = a.wrapping_add(b);
                self.set_add_flags(a, b, result);
                self.gpr[dst as usize] = result;
            }
            AluOp::Cmp => self.set_sub_flags(a, b, a.wrapping_sub(b)),
            AluOp::Xor => {
                let result = a ^ b;
                self.set_logic_flags(result);
                self.gpr[dst as usize] = result;
            }
        }
    }
}

fn kind_bytes(kind: VecKind) -> usize {
    match kind {
        VecKind::F32 => 4,
        VecKind::F64 => 8,
    }
}
