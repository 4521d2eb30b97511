//! Every form round-trips: for each [`Inst`] variant over the register
//! classes (ids 0, 7, 8, 12, 13, 15, and 16 and 31 for vectors, which need
//! EVEX) and the memory classes (base `rax`/`rdi`/`rsp`/`rbp`/`r12`/`r13`;
//! no index or an `r12`/`r15` index; displacement 0, the disp8 edges and
//! disp32), decoding what the assembler wrote gives back the instruction
//! and the number of bytes written.

use jitspmm_asm::{Assembler, Cond, Gpr, Mem, Scale, VecReg, VecWidth, Xmm};
use jitspmm_emu::{decode, AluOp, Inst, MemOperand, OpWidth, VecKind};
use std::collections::BTreeSet;

/// `name(inst)` and `ALL` from one list: the `match` has no `_` arm, so the
/// list names every variant.
macro_rules! variants {
    ($($v:ident),* $(,)?) => {
        const ALL: &[&str] = &[$(stringify!($v)),*];
        fn name(inst: &Inst) -> &'static str {
            match inst {
                $(Inst::$v { .. } => stringify!($v),)*
            }
        }
    };
}

variants! {
    MovRegImm, MovRegRm, MovRmReg, AluRmImm, AluRmReg, Inc, Lea, ImulRegRmImm, Push, Pop, Xadd,
    Ret, Jmp, Jcc, VXor, VBroadcast, VFmadd231, VMovLoad, VMovStore
}

const GPRS: [u8; 6] = [0, 7, 8, 12, 13, 15];
const VECS: [u8; 8] = [0, 7, 8, 12, 13, 15, 16, 31];
const IMM32: [i32; 9] = [0, 1, -1, 127, -128, 128, -129, i32::MAX, i32::MIN];

fn mems() -> Vec<MemOperand> {
    let mut out = Vec::new();
    for base in [0, 7, 4, 5, 12, 13] {
        for index in [None, Some((12, 0)), Some((12, 2)), Some((15, 3))] {
            for disp in [0, 127, -128, 128, -129, 0x1234_5678, i32::MIN] {
                out.push(MemOperand { base, index, disp });
            }
        }
    }
    out
}

fn gpr(id: u8) -> Gpr {
    Gpr::from_id(id)
}

fn vec(id: u8, width_bytes: usize) -> VecReg {
    let width = match width_bytes {
        16 => VecWidth::X128,
        32 => VecWidth::Y256,
        _ => VecWidth::Z512,
    };
    VecReg::with_width(id, width)
}

fn mem(m: &MemOperand) -> Mem {
    let out = Mem::base(gpr(m.base)).disp(m.disp);
    match m.index {
        Some((idx, log2)) => out.index(gpr(idx), Scale::from_factor(1 << log2).unwrap()),
        None => out,
    }
}

/// One instruction of every class combination the kernels can produce.
fn samples() -> Vec<Inst> {
    let mut out = vec![Inst::Ret, Inst::Jmp { target: 0 }, Inst::Jmp { target: 5 }];
    for cond in 0..16 {
        out.extend([Inst::Jcc { cond, target: 0 }, Inst::Jcc { cond, target: 6 }]);
    }
    let mems = mems();
    for (i, &r) in GPRS.iter().enumerate() {
        let r2 = GPRS[(i + 1) % GPRS.len()];
        for imm in [0, 1, u64::MAX, 0x8000_0000, 0x1122_3344_5566_7788] {
            out.push(Inst::MovRegImm { dst: r, imm });
        }
        out.extend([
            Inst::MovRmReg { dst: r, src: r2 },
            Inst::Inc { dst: r },
            Inst::Push { reg: r },
            Inst::Pop { reg: r },
        ]);
        for op in [AluOp::Add, AluOp::Cmp, AluOp::Xor] {
            out.push(Inst::AluRmReg { op, dst: r, src: r2 });
        }
        for imm in IMM32.map(i64::from) {
            out.push(Inst::AluRmImm { op: AluOp::Add, dst: r, imm });
            out.push(Inst::AluRmImm { op: AluOp::Cmp, dst: r, imm });
            out.push(Inst::ImulRegRmImm { dst: r, src: r2, imm });
        }
        for &m in &mems {
            out.extend([
                Inst::MovRegRm { dst: r, src: m, width: OpWidth::W64 },
                Inst::MovRegRm { dst: r, src: m, width: OpWidth::W32 },
                Inst::Lea { dst: r, mem: m },
                Inst::Xadd { mem: m, reg: r },
            ]);
        }
    }
    for (i, &v) in VECS.iter().enumerate() {
        let a = VECS[(i + 1) % VECS.len()];
        let b = VECS[(i + 3) % VECS.len()];
        for width_bytes in [16, 32, 64] {
            out.push(Inst::VXor { dst: v, a, b, width_bytes });
        }
        for &m in &mems {
            for width_bytes in [16, 32, 64] {
                let kind = VecKind::F32;
                out.push(Inst::VBroadcast { dst: v, src: m, kind, width_bytes });
                out.push(Inst::VMovStore { dst: m, src: v, width_bytes });
                for kind in [VecKind::F32, VecKind::F64] {
                    let scalar = false;
                    out.push(Inst::VFmadd231 { dst: v, a, src: m, kind, width_bytes, scalar });
                }
            }
            for width_bytes in [32, 64] {
                let kind = VecKind::F64;
                out.push(Inst::VBroadcast { dst: v, src: m, kind, width_bytes });
            }
            for (kind, width_bytes) in [(VecKind::F32, 4), (VecKind::F64, 8)] {
                out.push(Inst::VFmadd231 { dst: v, a, src: m, kind, width_bytes, scalar: true });
                out.push(Inst::VMovLoad { dst: v, src: m, width_bytes });
                out.push(Inst::VMovStore { dst: m, src: v, width_bytes });
            }
        }
    }
    out
}

/// Assemble one instruction with `emit`.
fn asm(emit: impl FnOnce(&mut Assembler)) -> Vec<u8> {
    let mut asm = Assembler::new();
    emit(&mut asm);
    asm.finalize().unwrap()
}

/// A jump to offset 0, or to the end of the jump itself.
fn jump(target: u64, emit: impl FnOnce(&mut Assembler, jitspmm_asm::Label)) -> Vec<u8> {
    asm(|a| {
        let label = a.new_label();
        if target == 0 {
            a.bind(label).unwrap();
        }
        emit(a, label);
        if target != 0 {
            a.bind(label).unwrap();
        }
    })
}

/// Every assembler encoding of `inst` the kernels use: most forms have one,
/// a zeroing has `vxorps` and `vpxord`, a packed store `vmovups` and
/// `vmovupd`. The match has no `_` arm, so a new variant does not compile
/// until it has its encoder here.
fn encodings(inst: &Inst) -> Vec<Vec<u8>> {
    match *inst {
        Inst::MovRegImm { dst, imm } => vec![asm(|a| a.mov_ri64(gpr(dst), imm as i64))],
        Inst::MovRegRm { dst, src, width: OpWidth::W64 } => {
            vec![asm(|a| a.mov_rm64(gpr(dst), mem(&src)))]
        }
        Inst::MovRegRm { dst, src, width: OpWidth::W32 } => {
            vec![asm(|a| a.mov_rm32(gpr(dst), mem(&src)))]
        }
        Inst::MovRmReg { dst, src } => vec![asm(|a| a.mov_rr64(gpr(dst), gpr(src)))],
        Inst::AluRmImm { op, dst, imm } => match op {
            AluOp::Add => vec![asm(|a| a.add_ri64(gpr(dst), imm as i32))],
            AluOp::Cmp => vec![asm(|a| a.cmp_ri64(gpr(dst), imm as i32))],
            AluOp::Xor => vec![],
        },
        Inst::AluRmReg { op, dst, src } => vec![asm(|a| match op {
            AluOp::Add => a.add_rr64(gpr(dst), gpr(src)),
            AluOp::Cmp => a.cmp_rr64(gpr(dst), gpr(src)),
            AluOp::Xor => a.xor_rr64(gpr(dst), gpr(src)),
        })],
        Inst::Inc { dst } => vec![asm(|a| a.inc_r64(gpr(dst)))],
        Inst::Lea { dst, mem: m } => vec![asm(|a| a.lea(gpr(dst), mem(&m)))],
        Inst::ImulRegRmImm { dst, src, imm } => {
            vec![asm(|a| a.imul_rri64(gpr(dst), gpr(src), imm as i32))]
        }
        Inst::Push { reg } => vec![asm(|a| a.push_r64(gpr(reg)))],
        Inst::Pop { reg } => vec![asm(|a| a.pop_r64(gpr(reg)))],
        Inst::Xadd { mem: m, reg } => vec![asm(|a| a.lock_xadd_mr64(mem(&m), gpr(reg)))],
        Inst::Ret => vec![asm(|a| a.ret())],
        Inst::Jmp { target } => vec![jump(target, |a, l| a.jmp(l))],
        Inst::Jcc { cond, target } => vec![jump(target, |a, l| a.jcc(Cond::ALL[cond as usize], l))],
        Inst::VXor { dst, a, b, width_bytes: w } => {
            let (dst, a, b) = (vec(dst, w), vec(a, w), vec(b, w));
            let mut out = vec![asm(|asm| asm.vxorps(dst, a, b))];
            if w == 64 {
                out.push(asm(|asm| asm.vpxord(dst, a, b)));
            }
            out
        }
        Inst::VBroadcast { dst, src, kind, width_bytes: w } => vec![asm(|a| match kind {
            VecKind::F32 => a.vbroadcastss(vec(dst, w), mem(&src)),
            VecKind::F64 => a.vbroadcastsd(vec(dst, w), mem(&src)),
        })],
        Inst::VFmadd231 { dst, a, src, kind, width_bytes: w, scalar } => {
            vec![asm(|asm| match (kind, scalar) {
                (VecKind::F32, true) => asm.vfmadd231ss_m(Xmm::new(dst), Xmm::new(a), mem(&src)),
                (VecKind::F64, true) => asm.vfmadd231sd_m(Xmm::new(dst), Xmm::new(a), mem(&src)),
                (VecKind::F32, false) => asm.vfmadd231ps_m(vec(dst, w), vec(a, w), mem(&src)),
                (VecKind::F64, false) => asm.vfmadd231pd_m(vec(dst, w), vec(a, w), mem(&src)),
            })]
        }
        Inst::VMovLoad { dst, src, width_bytes } => match width_bytes {
            4 => vec![asm(|a| a.vmovss_load(Xmm::new(dst), mem(&src)))],
            8 => vec![asm(|a| a.vmovsd_load(Xmm::new(dst), mem(&src)))],
            _ => vec![],
        },
        Inst::VMovStore { dst, src, width_bytes: w } => match w {
            4 => vec![asm(|a| a.vmovss_store(mem(&dst), Xmm::new(src)))],
            8 => vec![asm(|a| a.vmovsd_store(mem(&dst), Xmm::new(src)))],
            _ => vec![
                asm(|a| a.vmovups_store(mem(&dst), vec(src, w))),
                asm(|a| a.vmovupd_store(mem(&dst), vec(src, w))),
            ],
        },
    }
}

#[test]
fn every_form_round_trips() {
    let samples = samples();
    let seen: BTreeSet<&str> = samples.iter().map(name).collect();
    assert_eq!(seen, ALL.iter().copied().collect(), "a variant has no samples");
    for inst in &samples {
        let encoded = encodings(inst);
        assert!(!encoded.is_empty(), "{inst:?} has no encoder");
        for bytes in encoded {
            assert_eq!(decode(&bytes, 0), Ok((inst.clone(), bytes.len())), "{bytes:02x?}");
        }
    }
}
