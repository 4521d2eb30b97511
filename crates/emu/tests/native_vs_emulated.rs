//! Differential testing: programs assembled with `jitspmm-asm` are executed
//! both natively (through `ExecutableBuffer`) and under the emulator, and the
//! results must agree. This closes the loop between the encoder and the
//! decoder/interpreter — a bug in either shows up as a divergence.

use jitspmm_asm::{Assembler, Cond, ExecutableBuffer, Gpr, Mem, Scale, VecReg, Xmm};
use jitspmm_emu::Emulator;
use proptest::prelude::*;

/// Assemble, run natively, run emulated, and compare the u64 result.
fn compare_u64(build: impl Fn(&mut Assembler), args: &[u64]) -> (u64, u64) {
    let mut asm = Assembler::new();
    build(&mut asm);
    asm.ret();
    let code = asm.finalize().expect("finalize");

    let buf = ExecutableBuffer::from_code(&code).expect("exec alloc");
    let native = match args.len() {
        0 => {
            // SAFETY: the code assembled by `build` plus `ret` is a complete SysV
            // function of this signature that returns and touches no memory beyond
            // its arguments' pointees; `buf` outlives every call through `f`.
            let f: extern "C" fn() -> u64 = unsafe { buf.as_fn0() };
            f()
        }
        1 => {
            // SAFETY: the code assembled by `build` plus `ret` is a complete SysV
            // function of this signature that returns and touches no memory beyond
            // its arguments' pointees; `buf` outlives every call through `f`.
            let f: extern "C" fn(u64) -> u64 = unsafe { buf.as_fn1() };
            f(args[0])
        }
        2 => {
            // SAFETY: the code assembled by `build` plus `ret` is a complete SysV
            // function of this signature that returns and touches no memory beyond
            // its arguments' pointees; `buf` outlives every call through `f`.
            let f: extern "C" fn(u64, u64) -> u64 = unsafe { buf.as_fn2() };
            f(args[0], args[1])
        }
        3 => {
            // SAFETY: the code assembled by `build` plus `ret` is a complete SysV
            // function of this signature that returns and touches no memory beyond
            // its arguments' pointees; `buf` outlives every call through `f`.
            let f: extern "C" fn(u64, u64, u64) -> u64 = unsafe { buf.as_fn3() };
            f(args[0], args[1], args[2])
        }
        _ => panic!("unsupported arity"),
    };

    let mut emu = Emulator::new().with_max_instructions(10_000_000);
    // SAFETY: the emulator dereferences the addresses the code computes; the
    // code reads and writes only through the argument pointers, which point at
    // live buffers of the lengths passed alongside them.
    let (_, emulated) = unsafe { emu.run_with_result(&code, args).expect("emulation") };
    (native, emulated)
}

#[test]
fn arithmetic_sequences_agree() {
    let (native, emulated) = compare_u64(
        |asm| {
            asm.mov_rr64(Gpr::Rax, Gpr::Rdi);
            asm.add_rr64(Gpr::Rax, Gpr::Rsi);
            asm.add_ri64(Gpr::Rax, -17);
            asm.lea(Gpr::Rax, Mem::base(Gpr::Rsi).index(Gpr::Rax, Scale::S4).disp(-300));
            asm.imul_rri64(Gpr::Rax, Gpr::Rax, 3);
            asm.inc_r64(Gpr::Rax);
            asm.xor_rr64(Gpr::Rax, Gpr::Rdi);
            asm.add_ri64(Gpr::Rax, 1 << 20);
        },
        &[123456, 7890],
    );
    assert_eq!(native, emulated);
}

#[test]
fn branchy_max_function_agrees() {
    let build = |asm: &mut Assembler| {
        let done = asm.new_label();
        asm.mov_rr64(Gpr::Rax, Gpr::Rdi);
        asm.cmp_rr64(Gpr::Rdi, Gpr::Rsi);
        // `jae`: unsigned comparison, matching u64::max below.
        asm.jcc(Cond::Ae, done);
        asm.mov_rr64(Gpr::Rax, Gpr::Rsi);
        asm.bind(done).unwrap();
    };
    for (a, b) in [(1u64, 2u64), (2, 1), (5, 5), (u64::MAX, 0)] {
        let (native, emulated) = compare_u64(build, &[a, b]);
        assert_eq!(native, emulated, "max({a}, {b})");
        assert_eq!(native, a.max(b));
    }
}

#[test]
fn float_dot_product_agrees_bit_exactly() {
    if !jitspmm_asm::CpuFeatures::detect().has_fma() {
        eprintln!("skipping: no FMA");
        return;
    }
    // fn(a_ptr, b_ptr, n) -> f32 bits of the dot product
    let build = |asm: &mut Assembler| {
        let (head, done) = (asm.new_label(), asm.new_label());
        let acc = Xmm::new(0);
        asm.vxorps(VecReg::from(acc), VecReg::from(acc), VecReg::from(acc));
        asm.xor_rr64(Gpr::Rax, Gpr::Rax);
        asm.bind(head).unwrap();
        asm.cmp_rr64(Gpr::Rax, Gpr::Rdx);
        asm.jcc(Cond::Ge, done);
        asm.vmovss_load(Xmm::new(1), Mem::base(Gpr::Rdi).index(Gpr::Rax, Scale::S4));
        asm.vfmadd231ss_m(acc, Xmm::new(1), Mem::base(Gpr::Rsi).index(Gpr::Rax, Scale::S4));
        asm.inc_r64(Gpr::Rax);
        asm.jmp(head);
        asm.bind(done).unwrap();
        // Store the accumulator to the stack-free scratch: reuse b[0]'s slot
        // is unsafe for comparison, so return its bit pattern via memory.
        asm.vmovss_store(Mem::base(Gpr::Rdi), acc);
        asm.mov_rm32(Gpr::Rax, Mem::base(Gpr::Rdi));
    };
    let a: Vec<f32> = (0..31).map(|i| (i as f32) * 0.25 - 3.0).collect();
    let b: Vec<f32> = (0..31).map(|i| ((i * 7 % 11) as f32) * 0.5).collect();
    let mut a1 = a.clone();
    let mut a2 = a.clone();
    // Native run mutates a1[0]; emulated run mutates a2[0]; compare results.
    let mut asm = Assembler::new();
    build(&mut asm);
    asm.ret();
    let code = asm.finalize().unwrap();
    let buf = ExecutableBuffer::from_code(&code).unwrap();
    // SAFETY: the code assembled by `build` plus `ret` is a complete SysV
    // function of this signature that returns and touches no memory beyond
    // its arguments' pointees; `buf` outlives every call through `f`.
    let f: extern "C" fn(*mut f32, *const f32, u64) -> u64 =
        unsafe { std::mem::transmute(buf.entry()) };
    let native = f(a1.as_mut_ptr(), b.as_ptr(), a.len() as u64);
    let mut emu = Emulator::new().with_max_instructions(1_000_000);
    // SAFETY: the emulator dereferences the addresses the code computes; the
    // code reads and writes only through the argument pointers, which point at
    // live buffers of the lengths passed alongside them.
    let (_, emulated) = unsafe {
        emu.run_with_result(&code, &[a2.as_mut_ptr() as u64, b.as_ptr() as u64, a.len() as u64])
            .unwrap()
    };
    assert_eq!(native as u32, emulated as u32, "dot products must agree bit-exactly");
    let expected: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
    // FMA-accumulated result may differ from the two-rounding sum by ulps.
    assert!((f32::from_bits(native as u32) - expected).abs() < 1e-3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random programs over the kernels' integer forms produce identical
    /// results natively and under emulation.
    #[test]
    fn random_alu_programs_agree(
        ops in proptest::collection::vec((0u8..7, 0u8..4, -1000i32..1000), 1..20),
        args in proptest::array::uniform2(0u64..1_000_000),
    ) {
        // Registers rax, rdi, rsi, rcx form the working set.
        let regs = [Gpr::Rax, Gpr::Rdi, Gpr::Rsi, Gpr::Rcx];
        let scales = [Scale::S1, Scale::S2, Scale::S4, Scale::S8];
        let conds = [Cond::E, Cond::Ne, Cond::L, Cond::Ge, Cond::Le, Cond::G];
        let build = |asm: &mut Assembler| {
            asm.xor_rr64(Gpr::Rax, Gpr::Rax);
            asm.xor_rr64(Gpr::Rcx, Gpr::Rcx);
            for &(op, reg_idx, imm) in &ops {
                let reg = regs[reg_idx as usize];
                match op {
                    0 => asm.add_ri64(reg, imm),
                    1 => asm.add_rr64(Gpr::Rax, reg),
                    2 => asm.xor_rr64(Gpr::Rax, reg),
                    3 => asm.imul_rri64(reg, reg, (imm % 17).max(1)),
                    4 => {
                        let scale = scales[imm.unsigned_abs() as usize % 4];
                        asm.lea(reg, Mem::base(Gpr::Rax).index(reg, scale).disp(imm));
                    }
                    5 => asm.inc_r64(reg),
                    _ => {
                        // if !(reg cond imm) { rax += 1 }
                        let skip = asm.new_label();
                        if imm % 2 == 0 {
                            asm.cmp_ri64(reg, imm);
                        } else {
                            asm.cmp_rr64(reg, Gpr::Rax);
                        }
                        asm.jcc(conds[imm.unsigned_abs() as usize % conds.len()], skip);
                        asm.inc_r64(Gpr::Rax);
                        asm.bind(skip).unwrap();
                    }
                }
            }
        };
        let (native, emulated) = compare_u64(build, &args);
        prop_assert_eq!(native, emulated);
    }

    /// Conditional-jump behaviour over random comparison values agrees with
    /// native execution for every condition code we emit.
    #[test]
    fn conditional_branches_agree(a in any::<i64>(), b in any::<i64>(), cond_idx in 0usize..6) {
        let cond = [Cond::E, Cond::Ne, Cond::L, Cond::Ge, Cond::Le, Cond::G][cond_idx];
        let build = |asm: &mut Assembler| {
            let taken = asm.new_label();
            asm.cmp_rr64(Gpr::Rdi, Gpr::Rsi);
            asm.jcc(cond, taken);
            asm.mov_ri64(Gpr::Rax, 0);
            asm.ret();
            asm.bind(taken).unwrap();
            asm.mov_ri64(Gpr::Rax, 1);
        };
        let (native, emulated) = compare_u64(build, &[a as u64, b as u64]);
        prop_assert_eq!(native, emulated);
    }
}
