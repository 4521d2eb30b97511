//! The [`Assembler`]: instruction-emitting methods, labels and finalization.

use crate::buffer::CodeBuffer;
use crate::cond::Cond;
use crate::encode::{emit_evex, emit_legacy, emit_legacy_opreg, emit_vex, OpMap, Pp, RegMem, Vl};
use crate::error::AsmError;
use crate::label::{Fixup, FixupKind, Label};
use crate::mem::Mem;
use crate::reg::{Gpr, VecReg, VecWidth, Xmm};

/// An x86-64 instruction assembler.
///
/// Instructions are appended by calling the emitting methods; control flow
/// targets are expressed with [`Label`]s which may be bound before or after
/// the jumps that reference them. [`Assembler::finalize`] resolves all
/// fixups and returns the machine code, ready to be placed in an
/// [`crate::ExecutableBuffer`].
///
/// An optional *listing* records a textual mnemonic per emitted instruction,
/// which the tests and the profiling tooling use to inspect generated code
/// without a disassembler.
///
/// # Example
///
/// ```
/// use jitspmm_asm::{Assembler, Gpr, Cond, ExecutableBuffer};
///
/// # fn main() -> Result<(), jitspmm_asm::AsmError> {
/// // fn(n: u64) -> u64 { (0..n).sum() }
/// let mut asm = Assembler::new();
/// let (loop_start, done) = (asm.new_label(), asm.new_label());
/// asm.xor_rr64(Gpr::Rax, Gpr::Rax);      // acc = 0
/// asm.xor_rr64(Gpr::Rcx, Gpr::Rcx);      // i = 0
/// asm.bind(loop_start)?;
/// asm.cmp_rr64(Gpr::Rcx, Gpr::Rdi);
/// asm.jcc(Cond::Ge, done);
/// asm.add_rr64(Gpr::Rax, Gpr::Rcx);
/// asm.inc_r64(Gpr::Rcx);
/// asm.jmp(loop_start);
/// asm.bind(done)?;
/// asm.ret();
/// let buf = ExecutableBuffer::from_code(&asm.finalize()?)?;
/// let f: extern "C" fn(u64) -> u64 = unsafe { buf.as_fn1() };
/// assert_eq!(f(10), 45);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    buf: CodeBuffer,
    labels: Vec<Option<usize>>,
    fixups: Vec<Fixup>,
    listing: Option<Vec<(usize, String)>>,
    errors: Vec<AsmError>,
}

macro_rules! note {
    ($self:ident, $($fmt:tt)*) => {
        if let Some(listing) = $self.listing.as_mut() {
            let at = $self.buf.len();
            let text = format!($($fmt)*);
            listing.push((at, text));
        }
    };
}

impl Assembler {
    /// Create an empty assembler.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Create an empty assembler that records a textual listing of every
    /// emitted instruction (useful for debugging and tests; adds formatting
    /// overhead to code generation).
    pub fn with_listing() -> Assembler {
        Assembler { listing: Some(Vec::new()), ..Assembler::default() }
    }

    /// The recorded listing (offset, mnemonic) if listing mode is enabled.
    pub fn listing(&self) -> Option<&[(usize, String)]> {
        self.listing.as_deref()
    }

    /// Allocate a new, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::LabelRebound`] if the label was already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), AsmError> {
        let slot = &mut self.labels[label.0];
        if slot.is_some() {
            return Err(AsmError::LabelRebound { label: label.0 });
        }
        *slot = Some(self.buf.len());
        note!(self, ".L{}:", label.0);
        Ok(())
    }

    /// Resolve all label references and return the finished machine code.
    ///
    /// # Errors
    ///
    /// Returns the first encoding error recorded while emitting, or an error
    /// for unbound labels / out-of-range jumps.
    pub fn finalize(mut self) -> Result<Vec<u8>, AsmError> {
        if let Some(err) = self.errors.into_iter().next() {
            return Err(err);
        }
        for fixup in &self.fixups {
            let target = self.labels[fixup.label.0]
                .ok_or(AsmError::UnboundLabel { label: fixup.label.0 })?;
            let disp = target as i64 - fixup.next_inst as i64;
            match fixup.kind {
                FixupKind::Rel32 => {
                    if disp < i32::MIN as i64 || disp > i32::MAX as i64 {
                        return Err(AsmError::JumpOutOfRange { at: fixup.at, disp });
                    }
                    self.buf.patch_u32(fixup.at, disp as i32 as u32);
                }
            }
        }
        Ok(self.buf.into_bytes())
    }

    // ------------------------------------------------------------------
    // General-purpose register instructions
    // ------------------------------------------------------------------

    /// `mov r64, imm64` (movabs).
    pub fn mov_ri64(&mut self, dst: Gpr, imm: i64) {
        note!(self, "mov {dst}, {imm:#x}");
        emit_legacy_opreg(&mut self.buf, true, 0xB8, dst.id());
        self.buf.push_u64(imm as u64);
    }

    /// `mov r64, r64`.
    pub fn mov_rr64(&mut self, dst: Gpr, src: Gpr) {
        note!(self, "mov {dst}, {src}");
        emit_legacy(&mut self.buf, &[], true, &[0x89], src.id(), &RegMem::Reg(dst.id()));
    }

    /// `mov r64, [mem]` (64-bit load).
    pub fn mov_rm64(&mut self, dst: Gpr, mem: Mem) {
        note!(self, "mov {dst}, qword {mem}");
        emit_legacy(&mut self.buf, &[], true, &[0x8B], dst.id(), &RegMem::Mem(mem));
    }

    /// `mov r32, [mem]` — 32-bit load, zero-extended into the 64-bit register.
    pub fn mov_rm32(&mut self, dst: Gpr, mem: Mem) {
        note!(self, "mov {}d, dword {mem}", dst);
        emit_legacy(&mut self.buf, &[], false, &[0x8B], dst.id(), &RegMem::Mem(mem));
    }

    /// `add r64, imm32` (sign-extended immediate).
    pub fn add_ri64(&mut self, dst: Gpr, imm: i32) {
        note!(self, "add {dst}, {imm}");
        if (-128..=127).contains(&imm) {
            emit_legacy(&mut self.buf, &[], true, &[0x83], 0, &RegMem::Reg(dst.id()));
            self.buf.push_u8(imm as i8 as u8);
        } else {
            emit_legacy(&mut self.buf, &[], true, &[0x81], 0, &RegMem::Reg(dst.id()));
            self.buf.push_i32(imm);
        }
    }

    /// `add r64, r64`.
    pub fn add_rr64(&mut self, dst: Gpr, src: Gpr) {
        note!(self, "add {dst}, {src}");
        emit_legacy(&mut self.buf, &[], true, &[0x01], src.id(), &RegMem::Reg(dst.id()));
    }

    /// `cmp r64, r64`.
    pub fn cmp_rr64(&mut self, a: Gpr, b: Gpr) {
        note!(self, "cmp {a}, {b}");
        emit_legacy(&mut self.buf, &[], true, &[0x39], b.id(), &RegMem::Reg(a.id()));
    }

    /// `cmp r64, imm32` (sign-extended immediate).
    pub fn cmp_ri64(&mut self, a: Gpr, imm: i32) {
        note!(self, "cmp {a}, {imm}");
        if (-128..=127).contains(&imm) {
            emit_legacy(&mut self.buf, &[], true, &[0x83], 7, &RegMem::Reg(a.id()));
            self.buf.push_u8(imm as i8 as u8);
        } else {
            emit_legacy(&mut self.buf, &[], true, &[0x81], 7, &RegMem::Reg(a.id()));
            self.buf.push_i32(imm);
        }
    }

    /// `inc r64`.
    pub fn inc_r64(&mut self, dst: Gpr) {
        note!(self, "inc {dst}");
        emit_legacy(&mut self.buf, &[], true, &[0xFF], 0, &RegMem::Reg(dst.id()));
    }

    /// `lea r64, [mem]`.
    pub fn lea(&mut self, dst: Gpr, mem: Mem) {
        note!(self, "lea {dst}, {mem}");
        emit_legacy(&mut self.buf, &[], true, &[0x8D], dst.id(), &RegMem::Mem(mem));
    }

    /// `imul r64, r64, imm32`.
    pub fn imul_rri64(&mut self, dst: Gpr, src: Gpr, imm: i32) {
        note!(self, "imul {dst}, {src}, {imm}");
        emit_legacy(&mut self.buf, &[], true, &[0x69], dst.id(), &RegMem::Reg(src.id()));
        self.buf.push_i32(imm);
    }

    /// `xor r64, r64` (the canonical zeroing idiom).
    pub fn xor_rr64(&mut self, dst: Gpr, src: Gpr) {
        note!(self, "xor {dst}, {src}");
        emit_legacy(&mut self.buf, &[], true, &[0x31], src.id(), &RegMem::Reg(dst.id()));
    }

    /// `push r64`.
    pub fn push_r64(&mut self, reg: Gpr) {
        note!(self, "push {reg}");
        emit_legacy_opreg(&mut self.buf, false, 0x50, reg.id());
    }

    /// `pop r64`.
    pub fn pop_r64(&mut self, reg: Gpr) {
        note!(self, "pop {reg}");
        emit_legacy_opreg(&mut self.buf, false, 0x58, reg.id());
    }

    /// `lock xadd [mem], r64` — the atomic fetch-and-add used by dynamic row
    /// dispatching (Listing 1 of the paper).
    pub fn lock_xadd_mr64(&mut self, mem: Mem, src: Gpr) {
        note!(self, "lock xadd qword {mem}, {src}");
        emit_legacy(&mut self.buf, &[0xF0], true, &[0x0F, 0xC1], src.id(), &RegMem::Mem(mem));
    }

    /// `ret`.
    pub fn ret(&mut self) {
        note!(self, "ret");
        self.buf.push_u8(0xC3);
    }

    // ------------------------------------------------------------------
    // Control flow
    // ------------------------------------------------------------------

    fn record_fixup(&mut self, label: Label) {
        let at = self.buf.len();
        self.buf.push_i32(0);
        self.fixups.push(Fixup { at, next_inst: self.buf.len(), label, kind: FixupKind::Rel32 });
    }

    /// `jmp label` (rel32 form).
    pub fn jmp(&mut self, label: Label) {
        note!(self, "jmp .L{}", label.0);
        self.buf.push_u8(0xE9);
        self.record_fixup(label);
    }

    /// `jcc label` (rel32 form), e.g. `jge`, `jl`, `jne`.
    pub fn jcc(&mut self, cond: Cond, label: Label) {
        note!(self, "j{} .L{}", cond.mnemonic(), label.0);
        self.buf.push_u8(0x0F);
        self.buf.push_u8(0x80 + cond.code());
        self.record_fixup(label);
    }

    // ------------------------------------------------------------------
    // SIMD: encoding-selection helpers
    // ------------------------------------------------------------------

    /// Whether any operand forces EVEX encoding (512-bit width or register
    /// ids ≥ 16).
    fn needs_evex(ops: &[VecReg]) -> bool {
        ops.iter().any(|r| r.width() == VecWidth::Z512 || r.requires_evex())
    }

    fn vl_of(width: VecWidth) -> Vl {
        match width {
            VecWidth::X128 => Vl::L128,
            VecWidth::Y256 => Vl::L256,
            VecWidth::Z512 => Vl::L512,
        }
    }

    /// Emit a three-operand AVX instruction `dst := op(src1, src2_rm)` where
    /// the second source is a register or memory operand, choosing VEX or
    /// EVEX automatically.
    ///
    /// `evex_w` lets instructions whose W bit differs between VEX and EVEX
    /// forms (e.g. `vbroadcastsd`) override the W used for EVEX.
    fn vex_or_evex(
        &mut self,
        map: OpMap,
        pp: Pp,
        w: bool,
        evex_w: bool,
        opcode: u8,
        dst: VecReg,
        src1: VecReg,
        src2: &RegMem,
        width: VecWidth,
    ) {
        let force_evex = match src2 {
            RegMem::Reg(id) => *id >= 16,
            RegMem::Mem(_) => false,
        };
        let vl = Self::vl_of(width);
        if Self::needs_evex(&[dst, src1]) || force_evex || width == VecWidth::Z512 {
            emit_evex(&mut self.buf, map, pp, vl, evex_w, opcode, dst.id(), src1.id(), src2);
        } else {
            emit_vex(&mut self.buf, map, pp, vl, w, opcode, dst.id(), src1.id(), src2);
        }
    }

    // ------------------------------------------------------------------
    // SIMD: register zeroing
    // ------------------------------------------------------------------

    /// `vxorps dst, a, b` — packed single-precision XOR (the register-zeroing
    /// idiom of Listing 2). 512-bit and high-register forms require AVX-512DQ.
    pub fn vxorps(&mut self, dst: VecReg, a: VecReg, b: VecReg) {
        note!(self, "vxorps {dst}, {a}, {b}");
        self.vex_or_evex(
            OpMap::M0F,
            Pp::None,
            false,
            false,
            0x57,
            dst,
            a,
            &RegMem::Reg(b.id()),
            dst.width(),
        );
    }

    /// `vpxord dst, a, b` — packed 32-bit integer XOR. The AVX-512F
    /// alternative to 512-bit `vxorps` on CPUs without AVX-512DQ.
    pub fn vpxord(&mut self, dst: VecReg, a: VecReg, b: VecReg) {
        note!(self, "vpxord {dst}, {a}, {b}");
        emit_evex(
            &mut self.buf,
            OpMap::M0F,
            Pp::P66,
            Self::vl_of(dst.width()),
            false,
            0xEF,
            dst.id(),
            a.id(),
            &RegMem::Reg(b.id()),
        );
    }

    // ------------------------------------------------------------------
    // SIMD: broadcasts
    // ------------------------------------------------------------------

    /// `vbroadcastss dst, dword [mem]` — broadcast one f32 to every lane.
    pub fn vbroadcastss(&mut self, dst: VecReg, mem: Mem) {
        note!(self, "vbroadcastss {dst}, dword {mem}");
        self.vex_or_evex(
            OpMap::M0F38,
            Pp::P66,
            false,
            false,
            0x18,
            dst,
            VecReg::xmm(0),
            &RegMem::Mem(mem),
            dst.width(),
        );
    }

    /// `vbroadcastsd dst, qword [mem]` — broadcast one f64 to every lane.
    ///
    /// Only 256-bit and 512-bit destinations exist architecturally.
    pub fn vbroadcastsd(&mut self, dst: VecReg, mem: Mem) {
        note!(self, "vbroadcastsd {dst}, qword {mem}");
        debug_assert!(dst.width() != VecWidth::X128, "vbroadcastsd has no 128-bit form");
        // VEX form uses W0; EVEX form uses W1.
        self.vex_or_evex(
            OpMap::M0F38,
            Pp::P66,
            false,
            true,
            0x19,
            dst,
            VecReg::xmm(0),
            &RegMem::Mem(mem),
            dst.width(),
        );
    }

    // ------------------------------------------------------------------
    // SIMD: fused multiply-add
    // ------------------------------------------------------------------

    /// `vfmadd231ps dst, a, [mem]` — packed f32 FMA: `dst += a * mem`.
    pub fn vfmadd231ps_m(&mut self, dst: VecReg, a: VecReg, mem: Mem) {
        note!(self, "vfmadd231ps {dst}, {a}, {mem}");
        self.vex_or_evex(
            OpMap::M0F38,
            Pp::P66,
            false,
            false,
            0xB8,
            dst,
            a,
            &RegMem::Mem(mem),
            dst.width(),
        );
    }

    /// `vfmadd231pd dst, a, [mem]` — packed f64 FMA: `dst += a * mem`.
    pub fn vfmadd231pd_m(&mut self, dst: VecReg, a: VecReg, mem: Mem) {
        note!(self, "vfmadd231pd {dst}, {a}, {mem}");
        self.vex_or_evex(
            OpMap::M0F38,
            Pp::P66,
            true,
            true,
            0xB8,
            dst,
            a,
            &RegMem::Mem(mem),
            dst.width(),
        );
    }

    /// `vfmadd231ss dst, a, dword [mem]` — scalar f32 FMA on the low lane.
    pub fn vfmadd231ss_m(&mut self, dst: Xmm, a: Xmm, mem: Mem) {
        note!(self, "vfmadd231ss xmm{}, xmm{}, {mem}", dst.id(), a.id());
        self.vex_or_evex(
            OpMap::M0F38,
            Pp::P66,
            false,
            false,
            0xB9,
            VecReg::from(dst),
            VecReg::from(a),
            &RegMem::Mem(mem),
            VecWidth::X128,
        );
    }

    /// `vfmadd231sd dst, a, qword [mem]` — scalar f64 FMA on the low lane.
    pub fn vfmadd231sd_m(&mut self, dst: Xmm, a: Xmm, mem: Mem) {
        note!(self, "vfmadd231sd xmm{}, xmm{}, {mem}", dst.id(), a.id());
        self.vex_or_evex(
            OpMap::M0F38,
            Pp::P66,
            true,
            true,
            0xB9,
            VecReg::from(dst),
            VecReg::from(a),
            &RegMem::Mem(mem),
            VecWidth::X128,
        );
    }

    // ------------------------------------------------------------------
    // SIMD: loads and stores
    // ------------------------------------------------------------------

    /// `vmovups [mem], src` — unaligned packed f32 store.
    pub fn vmovups_store(&mut self, mem: Mem, src: VecReg) {
        note!(self, "vmovups {mem}, {src}");
        self.vex_or_evex(
            OpMap::M0F,
            Pp::None,
            false,
            false,
            0x11,
            src,
            VecReg::xmm(0),
            &RegMem::Mem(mem),
            src.width(),
        );
    }

    /// `vmovupd [mem], src` — unaligned packed f64 store.
    pub fn vmovupd_store(&mut self, mem: Mem, src: VecReg) {
        note!(self, "vmovupd {mem}, {src}");
        self.vex_or_evex(
            OpMap::M0F,
            Pp::P66,
            false,
            true,
            0x11,
            src,
            VecReg::xmm(0),
            &RegMem::Mem(mem),
            src.width(),
        );
    }

    /// `vmovss dst, dword [mem]` — scalar f32 load into the low lane (upper
    /// lanes zeroed).
    pub fn vmovss_load(&mut self, dst: Xmm, mem: Mem) {
        note!(self, "vmovss xmm{}, dword {mem}", dst.id());
        self.vex_or_evex(
            OpMap::M0F,
            Pp::PF3,
            false,
            false,
            0x10,
            VecReg::from(dst),
            VecReg::xmm(0),
            &RegMem::Mem(mem),
            VecWidth::X128,
        );
    }

    /// `vmovss dword [mem], src` — scalar f32 store from the low lane.
    pub fn vmovss_store(&mut self, mem: Mem, src: Xmm) {
        note!(self, "vmovss dword {mem}, xmm{}", src.id());
        self.vex_or_evex(
            OpMap::M0F,
            Pp::PF3,
            false,
            false,
            0x11,
            VecReg::from(src),
            VecReg::xmm(0),
            &RegMem::Mem(mem),
            VecWidth::X128,
        );
    }

    /// `vmovsd dst, qword [mem]` — scalar f64 load into the low lane.
    pub fn vmovsd_load(&mut self, dst: Xmm, mem: Mem) {
        note!(self, "vmovsd xmm{}, qword {mem}", dst.id());
        self.vex_or_evex(
            OpMap::M0F,
            Pp::PF2,
            false,
            true,
            0x10,
            VecReg::from(dst),
            VecReg::xmm(0),
            &RegMem::Mem(mem),
            VecWidth::X128,
        );
    }

    /// `vmovsd qword [mem], src` — scalar f64 store from the low lane.
    pub fn vmovsd_store(&mut self, mem: Mem, src: Xmm) {
        note!(self, "vmovsd qword {mem}, xmm{}", src.id());
        self.vex_or_evex(
            OpMap::M0F,
            Pp::PF2,
            false,
            true,
            0x11,
            VecReg::from(src),
            VecReg::xmm(0),
            &RegMem::Mem(mem),
            VecWidth::X128,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_records_each_instruction() {
        let mut asm = Assembler::with_listing();
        asm.mov_ri64(Gpr::Rax, 1);
        asm.ret();
        let listing = asm.listing().unwrap().to_vec();
        assert_eq!(listing.len(), 2);
        assert!(listing[0].1.starts_with("mov rax"));
        assert_eq!(listing[1].1, "ret");
    }

    #[test]
    fn finalize_empty_is_ok() {
        let asm = Assembler::new();
        assert!(asm.finalize().unwrap().is_empty());
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut asm = Assembler::new();
        let l = asm.new_label();
        asm.jmp(l);
        assert_eq!(asm.finalize().unwrap_err(), AsmError::UnboundLabel { label: 0 });
    }

    #[test]
    fn rebound_label_is_an_error() {
        let mut asm = Assembler::new();
        let l = asm.new_label();
        asm.bind(l).unwrap();
        assert_eq!(asm.bind(l).unwrap_err(), AsmError::LabelRebound { label: 0 });
    }

    #[test]
    fn backward_jump_displacement() {
        let mut asm = Assembler::new();
        let l = asm.new_label();
        asm.bind(l).unwrap();
        asm.ret();
        asm.jmp(l);
        let code = asm.finalize().unwrap();
        // ret (1 byte) + jmp rel32 (5 bytes): target 0, next_inst 6 => disp -6.
        assert_eq!(code, vec![0xC3, 0xE9, 0xFA, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn forward_jcc_displacement() {
        let mut asm = Assembler::new();
        let l = asm.new_label();
        asm.jcc(Cond::Ge, l);
        asm.ret();
        asm.bind(l).unwrap();
        let code = asm.finalize().unwrap();
        // jge rel32 is 6 bytes; target is 7 => disp = 1.
        assert_eq!(code, vec![0x0F, 0x8D, 0x01, 0x00, 0x00, 0x00, 0xC3]);
    }

    #[test]
    fn known_encodings_golden() {
        let mut asm = Assembler::new();
        asm.mov_ri64(Gpr::Rdi, 0x1122334455667788);
        asm.lock_xadd_mr64(Mem::base(Gpr::Rdi), Gpr::Rsi);
        asm.ret();
        let code = asm.finalize().unwrap();
        assert_eq!(
            code,
            vec![
                0x48, 0xBF, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // movabs rdi, ...
                0xF0, 0x48, 0x0F, 0xC1, 0x37, // lock xadd [rdi], rsi
                0xC3,
            ]
        );
    }

    #[test]
    fn vfmadd_zmm_encoding_golden() {
        // Matches line 20 of Listing 2 in the paper:
        //   vfmadd231ps zmm0, zmm31, [r12]
        let mut asm = Assembler::new();
        asm.vfmadd231ps_m(VecReg::zmm(0), VecReg::zmm(31), Mem::base(Gpr::R12));
        let code = asm.finalize().unwrap();
        // 62 D2 05 40 B8 04 24  (SIB required because base is r12).
        assert_eq!(code, vec![0x62, 0xD2, 0x05, 0x40, 0xB8, 0x04, 0x24]);
    }

    #[test]
    fn vxorps_xmm_uses_vex() {
        let mut asm = Assembler::new();
        asm.vxorps(VecReg::xmm(3), VecReg::xmm(3), VecReg::xmm(3));
        let code = asm.finalize().unwrap();
        assert_eq!(code[0], 0xC4);
        assert_eq!(code.len(), 5);
    }

    #[test]
    fn vxorps_zmm_uses_evex() {
        let mut asm = Assembler::new();
        asm.vxorps(VecReg::zmm(1), VecReg::zmm(1), VecReg::zmm(1));
        let code = asm.finalize().unwrap();
        assert_eq!(code[0], 0x62);
    }

    #[test]
    fn add_small_immediate_uses_imm8_form() {
        let mut asm = Assembler::new();
        asm.add_ri64(Gpr::Rax, 8);
        let short = asm.finalize().unwrap();
        let mut asm = Assembler::new();
        asm.add_ri64(Gpr::Rax, 1 << 20);
        let long = asm.finalize().unwrap();
        assert!(short.len() < long.len());
        assert_eq!(short, vec![0x48, 0x83, 0xC0, 0x08]);
    }
}
