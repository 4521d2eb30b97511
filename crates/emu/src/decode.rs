//! Instruction decoder for the forms the code generator emits.
//!
//! Each arm has a twin `Assembler` method in `jitspmm-asm`. An encoding
//! outside that set (another opcode, operand size, operand class or prefix)
//! is [`EmuError::Unsupported`].

use crate::error::EmuError;
use crate::inst::{AluOp, Inst, MemOperand, OpWidth, VecKind};

/// A byte cursor over the code buffer.
struct Cursor<'a> {
    code: &'a [u8],
    start: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(code: &'a [u8], start: usize) -> Cursor<'a> {
        Cursor { code, start, pos: start }
    }

    fn u8(&mut self) -> Result<u8, EmuError> {
        let b = *self.code.get(self.pos).ok_or(EmuError::Truncated { offset: self.start })?;
        self.pos += 1;
        Ok(b)
    }

    fn peek(&self) -> Option<u8> {
        self.code.get(self.pos).copied()
    }

    fn i8(&mut self) -> Result<i8, EmuError> {
        Ok(self.u8()? as i8)
    }

    fn u32(&mut self) -> Result<u32, EmuError> {
        let mut v = [0u8; 4];
        for b in &mut v {
            *b = self.u8()?;
        }
        Ok(u32::from_le_bytes(v))
    }

    fn i32(&mut self) -> Result<i32, EmuError> {
        Ok(self.u32()? as i32)
    }

    fn u64(&mut self) -> Result<u64, EmuError> {
        let mut v = [0u8; 8];
        for b in &mut v {
            *b = self.u8()?;
        }
        Ok(u64::from_le_bytes(v))
    }

    fn len(&self) -> usize {
        self.pos - self.start
    }

    fn unsupported(&self, what: impl Into<String>) -> EmuError {
        EmuError::Unsupported { offset: self.start, what: what.into() }
    }
}

/// A ModRM `r/m` operand.
enum RmOperand {
    Reg(u8),
    Mem(MemOperand),
}

/// The extension bits a REX, VEX or EVEX prefix gives the ModRM fields, each
/// reduced to one bit.
#[derive(Clone, Copy)]
struct Ext {
    r: u8,
    x: u8,
    b: u8,
    /// EVEX: `X` is bit 4 of a register `r/m`, and an 8-bit displacement is
    /// scaled by the operand's tuple size.
    evex: bool,
}

/// Decode the ModRM byte (and SIB/displacement) that follows.
fn decode_modrm(cur: &mut Cursor<'_>, ext: Ext) -> Result<(u8, RmOperand), EmuError> {
    let modrm = cur.u8()?;
    let md = modrm >> 6;
    let reg = (ext.r << 3) | ((modrm >> 3) & 0b111);
    let rm_low = modrm & 0b111;
    if md == 0b11 {
        let hi = if ext.evex { ext.x << 4 } else { 0 };
        return Ok((reg, RmOperand::Reg(hi | (ext.b << 3) | rm_low)));
    }
    let (base, index) = if rm_low == 0b100 {
        let sib = cur.u8()?;
        let scale = sib >> 6;
        let idx_low = (sib >> 3) & 0b111;
        let base_low = sib & 0b111;
        let index = if idx_low == 0b100 && ext.x == 0 {
            None
        } else {
            Some(((ext.x << 3) | idx_low, scale))
        };
        if base_low == 0b101 && md == 0b00 {
            return Err(cur.unsupported("SIB with no base register"));
        }
        ((ext.b << 3) | base_low, index)
    } else {
        if rm_low == 0b101 && md == 0b00 {
            return Err(cur.unsupported("RIP-relative addressing"));
        }
        ((ext.b << 3) | rm_low, None)
    };
    let disp = match md {
        0b00 => 0,
        // Hardware reads an EVEX disp8 as disp8*N. The assembler always
        // writes disp32 under EVEX, so this form is not one of its own.
        0b01 if ext.evex => return Err(cur.unsupported("EVEX compressed disp8")),
        0b01 => cur.i8()? as i32,
        _ => cur.i32()?,
    };
    Ok((reg, RmOperand::Mem(MemOperand { base, index, disp })))
}

/// ModRM whose `r/m` must be a register: `(reg, rm)`.
fn modrm_reg(cur: &mut Cursor<'_>, ext: Ext) -> Result<(u8, u8), EmuError> {
    match decode_modrm(cur, ext)? {
        (reg, RmOperand::Reg(rm)) => Ok((reg, rm)),
        (_, RmOperand::Mem(_)) => Err(cur.unsupported("memory operand in a register form")),
    }
}

/// ModRM whose `r/m` must be memory: `(reg, mem)`.
fn modrm_mem(cur: &mut Cursor<'_>, ext: Ext) -> Result<(u8, MemOperand), EmuError> {
    match decode_modrm(cur, ext)? {
        (reg, RmOperand::Mem(mem)) => Ok((reg, mem)),
        (_, RmOperand::Reg(_)) => Err(cur.unsupported("register operand in a memory form")),
    }
}

/// Decode one instruction starting at `offset`; returns the instruction and
/// its encoded length.
///
/// # Errors
///
/// [`EmuError::Truncated`] if the code ends inside the instruction, and
/// [`EmuError::Unsupported`] for any instruction that is not an [`Inst`].
pub fn decode(code: &[u8], offset: usize) -> Result<(Inst, usize), EmuError> {
    let mut cur = Cursor::new(code, offset);
    // `lock` is the only legacy prefix the kernels use, and only on `xadd`.
    let lock = cur.peek() == Some(0xF0);
    if lock {
        cur.u8()?;
    }
    match cur.peek() {
        Some(0xC4) if !lock => return decode_vex(cur),
        Some(0x62) if !lock => return decode_evex(cur),
        _ => {}
    }
    let rex = match cur.peek() {
        Some(b @ 0x40..=0x4F) => {
            cur.u8()?;
            b
        }
        _ => 0,
    };
    let w = rex & 0x08 != 0;
    let ext = Ext { r: (rex >> 2) & 1, x: (rex >> 1) & 1, b: rex & 1, evex: false };
    // Group opcodes carry an opcode extension, not a register, in ModRM.reg.
    let group = Ext { r: 0, ..ext };
    let opcode = cur.u8()?;
    let inst = match opcode {
        0xC3 => Inst::Ret,
        0xE9 => {
            let disp = cur.i32()? as i64;
            Inst::Jmp { target: (cur.pos as i64 + disp) as u64 }
        }
        0x50..=0x57 => Inst::Push { reg: (ext.b << 3) | (opcode - 0x50) },
        0x58..=0x5F => Inst::Pop { reg: (ext.b << 3) | (opcode - 0x58) },
        0xB8..=0xBF if w => {
            Inst::MovRegImm { dst: (ext.b << 3) | (opcode - 0xB8), imm: cur.u64()? }
        }
        0x89 if w => {
            let (src, dst) = modrm_reg(&mut cur, ext)?;
            Inst::MovRmReg { dst, src }
        }
        0x8B => {
            let (dst, src) = modrm_mem(&mut cur, ext)?;
            Inst::MovRegRm { dst, src, width: if w { OpWidth::W64 } else { OpWidth::W32 } }
        }
        0x8D if w => {
            let (dst, mem) = modrm_mem(&mut cur, ext)?;
            Inst::Lea { dst, mem }
        }
        0x01 | 0x39 | 0x31 if w => {
            let op = match opcode {
                0x01 => AluOp::Add,
                0x39 => AluOp::Cmp,
                _ => AluOp::Xor,
            };
            let (src, dst) = modrm_reg(&mut cur, ext)?;
            Inst::AluRmReg { op, dst, src }
        }
        0x81 | 0x83 if w => {
            let (digit, dst) = modrm_reg(&mut cur, group)?;
            let op = match digit {
                0 => AluOp::Add,
                7 => AluOp::Cmp,
                other => return Err(cur.unsupported(format!("group-1 /{other}"))),
            };
            let imm = if opcode == 0x83 { cur.i8()? as i64 } else { cur.i32()? as i64 };
            Inst::AluRmImm { op, dst, imm }
        }
        0x69 if w => {
            let (dst, src) = modrm_reg(&mut cur, ext)?;
            Inst::ImulRegRmImm { dst, src, imm: cur.i32()? as i64 }
        }
        0xFF if w => match modrm_reg(&mut cur, group)? {
            (0, dst) => Inst::Inc { dst },
            (other, _) => return Err(cur.unsupported(format!("group-5 /{other}"))),
        },
        0x0F => match cur.u8()? {
            op2 @ 0x80..=0x8F => {
                let disp = cur.i32()? as i64;
                Inst::Jcc { cond: op2 - 0x80, target: (cur.pos as i64 + disp) as u64 }
            }
            0xC1 if w && lock => {
                let (reg, mem) = modrm_mem(&mut cur, ext)?;
                Inst::Xadd { mem, reg }
            }
            other => return Err(cur.unsupported(format!("two-byte opcode 0F {other:02X}"))),
        },
        other => return Err(cur.unsupported(format!("opcode {other:02X} (REX {rex:02X})"))),
    };
    if lock && !matches!(inst, Inst::Xadd { .. }) {
        return Err(cur.unsupported("lock prefix outside xadd"));
    }
    Ok((inst, cur.len()))
}

/// The VEX/EVEX fields the opcode dispatch needs beyond the ModRM
/// extensions.
struct Avx {
    map: u8,
    pp: u8,
    w: bool,
    width_bytes: usize,
    /// The non-destructive source register (`vvvv`, with `V'` under EVEX).
    vvvv: u8,
    /// Bit 4 of ModRM.reg (`R'`, EVEX only).
    r_hi: u8,
}

/// Shared VEX/EVEX opcode dispatch once the prefix fields are known.
fn decode_avx_opcode(cur: &mut Cursor<'_>, avx: Avx, ext: Ext) -> Result<Inst, EmuError> {
    let opcode = cur.u8()?;
    let (reg, rm) = decode_modrm(cur, ext)?;
    let reg = (avx.r_hi << 4) | reg;
    let Avx { map, pp, w, width_bytes, vvvv, .. } = avx;
    let fma_kind = if w { VecKind::F64 } else { VecKind::F32 };
    Ok(match (map, opcode, pp, rm) {
        // vxorps; vpxord exists only as EVEX.
        (1, 0x57, 0, RmOperand::Reg(b)) => Inst::VXor { dst: reg, a: vvvv, b, width_bytes },
        (1, 0xEF, 1, RmOperand::Reg(b)) if ext.evex => {
            Inst::VXor { dst: reg, a: vvvv, b, width_bytes }
        }
        // vmovss / vmovsd loads.
        (1, 0x10, 2 | 3, RmOperand::Mem(src)) => {
            Inst::VMovLoad { dst: reg, src, width_bytes: if pp == 2 { 4 } else { 8 } }
        }
        // vmovups / vmovupd / vmovss / vmovsd stores.
        (1, 0x11, _, RmOperand::Mem(dst)) => {
            let width_bytes = match pp {
                2 => 4,
                3 => 8,
                _ => width_bytes,
            };
            Inst::VMovStore { dst, src: reg, width_bytes }
        }
        (2, 0x18, 1, RmOperand::Mem(src)) => {
            Inst::VBroadcast { dst: reg, src, kind: VecKind::F32, width_bytes }
        }
        (2, 0x19, 1, RmOperand::Mem(src)) => {
            Inst::VBroadcast { dst: reg, src, kind: VecKind::F64, width_bytes }
        }
        (2, 0xB8, 1, RmOperand::Mem(src)) => {
            Inst::VFmadd231 { dst: reg, a: vvvv, src, kind: fma_kind, width_bytes, scalar: false }
        }
        (2, 0xB9, 1, RmOperand::Mem(src)) => Inst::VFmadd231 {
            dst: reg,
            a: vvvv,
            src,
            kind: fma_kind,
            width_bytes: if w { 8 } else { 4 },
            scalar: true,
        },
        _ => return Err(cur.unsupported(format!("AVX map {map} opcode {opcode:02X} pp {pp}"))),
    })
}

/// Decode a three-byte (`C4`) VEX instruction.
fn decode_vex(mut cur: Cursor<'_>) -> Result<(Inst, usize), EmuError> {
    cur.u8()?;
    let b1 = cur.u8()?;
    let b2 = cur.u8()?;
    let ext = Ext { r: (!b1 >> 7) & 1, x: (!b1 >> 6) & 1, b: (!b1 >> 5) & 1, evex: false };
    let avx = Avx {
        map: b1 & 0b1_1111,
        pp: b2 & 0b11,
        w: b2 & 0x80 != 0,
        width_bytes: if (b2 >> 2) & 1 == 1 { 32 } else { 16 },
        vvvv: (!b2 >> 3) & 0xF,
        r_hi: 0,
    };
    let inst = decode_avx_opcode(&mut cur, avx, ext)?;
    Ok((inst, cur.len()))
}

/// Decode an EVEX instruction (no masking, broadcast or rounding control).
fn decode_evex(mut cur: Cursor<'_>) -> Result<(Inst, usize), EmuError> {
    cur.u8()?;
    let p0 = cur.u8()?;
    let p1 = cur.u8()?;
    let p2 = cur.u8()?;
    if p2 & 0b111 != 0 {
        return Err(cur.unsupported("EVEX masking"));
    }
    if p2 & 0b1_0000 != 0 {
        return Err(cur.unsupported("EVEX broadcast/rounding"));
    }
    let width_bytes = match (p2 >> 5) & 0b11 {
        0 => 16,
        1 => 32,
        2 => 64,
        _ => return Err(cur.unsupported("EVEX vector length 3")),
    };
    let ext = Ext { r: (!p0 >> 7) & 1, x: (!p0 >> 6) & 1, b: (!p0 >> 5) & 1, evex: true };
    let avx = Avx {
        map: p0 & 0b111,
        pp: p1 & 0b11,
        w: p1 & 0x80 != 0,
        width_bytes,
        vvvv: (((!p2 >> 3) & 1) << 4) | ((!p1 >> 3) & 0xF),
        r_hi: (!p0 >> 4) & 1,
    };
    let inst = decode_avx_opcode(&mut cur, avx, ext)?;
    Ok((inst, cur.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitspmm_asm::{Assembler, Gpr, Mem, Scale, VecReg, Xmm};

    fn decode_first(asm: Assembler) -> (Inst, usize) {
        let code = asm.finalize().unwrap();
        decode(&code, 0).unwrap()
    }

    #[test]
    fn decodes_mov_imm64() {
        let mut asm = Assembler::new();
        asm.mov_ri64(Gpr::R12, 0x1122334455667788);
        let (inst, len) = decode_first(asm);
        assert_eq!(inst, Inst::MovRegImm { dst: 12, imm: 0x1122334455667788 });
        assert_eq!(len, 10);
    }

    #[test]
    fn decodes_indexed_load() {
        let mut asm = Assembler::new();
        asm.mov_rm64(Gpr::R10, Mem::base(Gpr::Rbx).index(Gpr::Rdi, Scale::S8).disp(8));
        let (inst, _) = decode_first(asm);
        assert_eq!(
            inst,
            Inst::MovRegRm {
                dst: 10,
                src: MemOperand { base: Gpr::Rbx.id(), index: Some((Gpr::Rdi.id(), 3)), disp: 8 },
                width: OpWidth::W64,
            }
        );
    }

    #[test]
    fn decodes_32bit_load_as_w32() {
        let mut asm = Assembler::new();
        asm.mov_rm32(Gpr::R12, Mem::base(Gpr::Rcx).index(Gpr::R10, Scale::S4));
        let (inst, _) = decode_first(asm);
        match inst {
            Inst::MovRegRm { dst: 12, width: OpWidth::W32, .. } => {}
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn decodes_alu_and_jumps() {
        let mut asm = Assembler::new();
        let l = asm.new_label();
        asm.cmp_rr64(Gpr::R10, Gpr::R11);
        asm.jcc(jitspmm_asm::Cond::Ge, l);
        asm.add_ri64(Gpr::Rax, 100000);
        asm.bind(l).unwrap();
        asm.ret();
        let code = asm.finalize().unwrap();
        let (i1, l1) = decode(&code, 0).unwrap();
        assert_eq!(i1, Inst::AluRmReg { op: AluOp::Cmp, dst: 10, src: 11 });
        let (i2, l2) = decode(&code, l1).unwrap();
        match i2 {
            Inst::Jcc { cond: 0xD, target } => {
                // Target must be the offset of ret.
                assert_eq!(target as usize, code.len() - 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let (i3, _) = decode(&code, l1 + l2).unwrap();
        assert_eq!(i3, Inst::AluRmImm { op: AluOp::Add, dst: 0, imm: 100000 });
    }

    #[test]
    fn decodes_lock_xadd() {
        let mut asm = Assembler::new();
        asm.lock_xadd_mr64(Mem::base(Gpr::R14), Gpr::Rsi);
        let (inst, _) = decode_first(asm);
        assert_eq!(
            inst,
            Inst::Xadd { mem: MemOperand { base: 14, index: None, disp: 0 }, reg: Gpr::Rsi.id() }
        );
    }

    #[test]
    fn decodes_vex_and_evex_fmadd() {
        // VEX form (ymm, low registers).
        let mut asm = Assembler::new();
        asm.vfmadd231ps_m(VecReg::ymm(2), VecReg::ymm(7), Mem::base(Gpr::R8).disp(32));
        let (inst, _) = decode_first(asm);
        assert_eq!(
            inst,
            Inst::VFmadd231 {
                dst: 2,
                a: 7,
                src: MemOperand { base: 8, index: None, disp: 32 },
                kind: VecKind::F32,
                width_bytes: 32,
                scalar: false,
            }
        );
        // EVEX form (zmm31 source).
        let mut asm = Assembler::new();
        asm.vfmadd231ps_m(
            VecReg::zmm(0),
            VecReg::zmm(31),
            Mem::base(Gpr::R8).index(Gpr::R12, Scale::S1),
        );
        let (inst, _) = decode_first(asm);
        assert_eq!(
            inst,
            Inst::VFmadd231 {
                dst: 0,
                a: 31,
                src: MemOperand { base: 8, index: Some((12, 0)), disp: 0 },
                kind: VecKind::F32,
                width_bytes: 64,
                scalar: false,
            }
        );
    }

    #[test]
    fn evex_compressed_disp8_is_unsupported() {
        // vfmadd231ps zmm0, zmm31, [rdi + 1*N]: the codegen form, but with
        // ModRM mod = 01 (disp8, which EVEX scales by the tuple size).
        let code = [0x62, 0xF2, 0x05, 0x40, 0xB8, 0x47, 0x01];
        match decode(&code, 0) {
            Err(EmuError::Unsupported { offset: 0, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decodes_broadcast_and_moves() {
        let mut asm = Assembler::new();
        asm.vbroadcastss(VecReg::zmm(31), Mem::base(Gpr::Rdx).index(Gpr::R10, Scale::S4));
        asm.vmovups_store(Mem::base(Gpr::R9).disp(64), VecReg::zmm(1));
        asm.vmovss_load(Xmm::new(4), Mem::base(Gpr::Rdx));
        let code = asm.finalize().unwrap();
        let (i1, l1) = decode(&code, 0).unwrap();
        assert_eq!(
            i1,
            Inst::VBroadcast {
                dst: 31,
                src: MemOperand { base: 2, index: Some((10, 2)), disp: 0 },
                kind: VecKind::F32,
                width_bytes: 64,
            }
        );
        let (i2, l2) = decode(&code, l1).unwrap();
        assert_eq!(
            i2,
            Inst::VMovStore {
                dst: MemOperand { base: 9, index: None, disp: 64 },
                src: 1,
                width_bytes: 64,
            }
        );
        let (i3, _) = decode(&code, l1 + l2).unwrap();
        assert_eq!(
            i3,
            Inst::VMovLoad {
                dst: 4,
                src: MemOperand { base: 2, index: None, disp: 0 },
                width_bytes: 4
            }
        );
    }

    #[test]
    fn decodes_vxor_and_vpxord() {
        let mut asm = Assembler::new();
        asm.vxorps(VecReg::zmm(3), VecReg::zmm(3), VecReg::zmm(3));
        asm.vxorps(VecReg::xmm(2), VecReg::xmm(2), VecReg::xmm(2));
        asm.vpxord(VecReg::zmm(20), VecReg::zmm(20), VecReg::zmm(20));
        let code = asm.finalize().unwrap();
        let (i1, l1) = decode(&code, 0).unwrap();
        assert_eq!(i1, Inst::VXor { dst: 3, a: 3, b: 3, width_bytes: 64 });
        let (i2, l2) = decode(&code, l1).unwrap();
        assert_eq!(i2, Inst::VXor { dst: 2, a: 2, b: 2, width_bytes: 16 });
        let (i3, _) = decode(&code, l1 + l2).unwrap();
        assert_eq!(i3, Inst::VXor { dst: 20, a: 20, b: 20, width_bytes: 64 });
    }

    #[test]
    fn decodes_push_pop_lea_imul() {
        let mut asm = Assembler::new();
        asm.push_r64(Gpr::R13);
        asm.pop_r64(Gpr::Rbx);
        asm.lea(Gpr::Rax, Mem::base(Gpr::Rbp).index(Gpr::R9, Scale::S2).disp(-4));
        asm.imul_rri64(Gpr::R13, Gpr::Rdi, 180);
        let code = asm.finalize().unwrap();
        let mut off = 0;
        let mut insts = Vec::new();
        while off < code.len() {
            let (i, l) = decode(&code, off).unwrap();
            insts.push(i);
            off += l;
        }
        assert_eq!(insts[0], Inst::Push { reg: 13 });
        assert_eq!(insts[1], Inst::Pop { reg: 3 });
        assert!(matches!(insts[2], Inst::Lea { dst: 0, .. }));
        assert_eq!(insts[3], Inst::ImulRegRmImm { dst: 13, src: 7, imm: 180 });
    }

    #[test]
    fn truncated_input_is_detected() {
        assert!(matches!(decode(&[0x48], 0), Err(EmuError::Truncated { .. })));
        assert!(matches!(decode(&[0x62, 0xF2], 0), Err(EmuError::Truncated { .. })));
    }

    #[test]
    fn unknown_opcode_is_unsupported() {
        assert!(matches!(decode(&[0xCC], 0), Err(EmuError::Unsupported { .. })));
    }
}
