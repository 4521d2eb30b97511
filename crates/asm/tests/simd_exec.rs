//! Hardware-execution tests for the SIMD encodings.
//!
//! These tests are the strongest available oracle for the VEX/EVEX encoder:
//! they emit small kernels built only from the forms the JITSPMM code
//! generator uses (`vxorps`/`vpxord`, `vbroadcastss/sd`, `vfmadd231*`,
//! `vmovups`/`vmovss` stores, ...), run them on the host CPU, and compare the
//! results against plain Rust arithmetic. Wrong prefix bits, ModRM forms, or
//! displacement encodings would either fault or produce wrong numbers.
//!
//! Tests that need AVX2/FMA or AVX-512 skip themselves on hosts without
//! those features.

use jitspmm_asm::{
    Assembler, CpuFeatures, ExecutableBuffer, Gpr, Mem, Scale, VecReg, VecWidth, Xmm,
};

fn run_kernel(asm: Assembler) -> ExecutableBuffer {
    ExecutableBuffer::from_code(&asm.finalize().expect("finalize")).expect("exec alloc")
}

fn features() -> CpuFeatures {
    CpuFeatures::detect()
}

/// Bring `[src]` into `acc` the way a kernel accumulates a row: zero `acc`,
/// broadcast the 1.0 at `one` into `bcast`, then `acc += bcast * [src]`.
/// Exact for the finite values these tests use.
fn load_packed(asm: &mut Assembler, acc: VecReg, bcast: VecReg, one: Mem, src: Mem, f64: bool) {
    if acc.width() == VecWidth::Z512 {
        asm.vpxord(acc, acc, acc);
    } else {
        asm.vxorps(acc, acc, acc);
    }
    if f64 {
        asm.vbroadcastsd(bcast, one);
        asm.vfmadd231pd_m(acc, bcast, src);
    } else {
        asm.vbroadcastss(bcast, one);
        asm.vfmadd231ps_m(acc, bcast, src);
    }
}

/// dst[0..4] = src[0..4] through xmm0 and a `vmovups` store.
#[test]
fn vmovups_xmm_round_trip() {
    if !features().has_fma() {
        eprintln!("skipping: no FMA");
        return;
    }
    // fn(src_ptr, one_ptr, dst_ptr)
    let mut asm = Assembler::new();
    let one = Mem::base(Gpr::Rsi);
    load_packed(&mut asm, VecReg::xmm(0), VecReg::xmm(1), one, Mem::base(Gpr::Rdi), false);
    asm.vmovups_store(Mem::base(Gpr::Rdx), VecReg::xmm(0));
    asm.ret();
    let buf = run_kernel(asm);
    // SAFETY: the kernel assembled above is a complete SysV function of
    // exactly this signature that returns and touches only the buffers it is
    // passed; `buf` outlives every call through `f`.
    let f: extern "C" fn(*const f32, *const f32, *mut f32) = unsafe { buf.as_fn3() };
    let src = [1.0f32, -2.5, 3.25, 4.0];
    let mut dst = [0.0f32; 4];
    f(src.as_ptr(), [1.0f32].as_ptr(), dst.as_mut_ptr());
    assert_eq!(src, dst);
}

/// Scalar FMA: y[0] += a * x[0] using vfmadd231ss.
#[test]
fn vfmadd231ss_matches_scalar_math() {
    if !features().has_fma() {
        eprintln!("skipping: no FMA");
        return;
    }
    // fn(acc_ptr, a_ptr, x_ptr): acc[0] += a[0] * x[0]
    let mut asm = Assembler::new();
    asm.vmovss_load(Xmm::new(0), Mem::base(Gpr::Rdi));
    asm.vmovss_load(Xmm::new(1), Mem::base(Gpr::Rsi));
    asm.vfmadd231ss_m(Xmm::new(0), Xmm::new(1), Mem::base(Gpr::Rdx));
    asm.vmovss_store(Mem::base(Gpr::Rdi), Xmm::new(0));
    asm.ret();
    let buf = run_kernel(asm);
    // SAFETY: the kernel assembled above is a complete SysV function of
    // exactly this signature that returns and touches only the buffers it is
    // passed; `buf` outlives every call through `f`.
    let f: extern "C" fn(*mut f32, *const f32, *const f32) = unsafe { buf.as_fn3() };
    let mut acc = [10.0f32];
    let a = [3.0f32];
    let x = [7.0f32];
    f(acc.as_mut_ptr(), a.as_ptr(), x.as_ptr());
    assert_eq!(acc[0], 10.0 + 3.0 * 7.0);
}

/// Packed 256-bit FMA with a broadcast multiplier, mirroring one CCM step.
#[test]
fn vfmadd231ps_ymm_with_broadcast() {
    let feats = features();
    if !(feats.avx2 && feats.fma) {
        eprintln!("skipping: no AVX2+FMA");
        return;
    }
    // fn(y_ptr, aval_ptr, x_ptr): y[0..8] += broadcast(aval[0]) * x[0..8],
    // with aval[1] = 1.0 for loading y.
    let mut asm = Assembler::new();
    let one = Mem::base(Gpr::Rsi).disp(4);
    load_packed(&mut asm, VecReg::ymm(2), VecReg::ymm(7), one, Mem::base(Gpr::Rdi), false);
    asm.vbroadcastss(VecReg::ymm(7), Mem::base(Gpr::Rsi));
    asm.vfmadd231ps_m(VecReg::ymm(2), VecReg::ymm(7), Mem::base(Gpr::Rdx));
    asm.vmovups_store(Mem::base(Gpr::Rdi), VecReg::ymm(2));
    asm.ret();
    let buf = run_kernel(asm);
    // SAFETY: the kernel assembled above is a complete SysV function of
    // exactly this signature that returns and touches only the buffers it is
    // passed; `buf` outlives every call through `f`.
    let f: extern "C" fn(*mut f32, *const f32, *const f32) = unsafe { buf.as_fn3() };
    let mut y: Vec<f32> = (0..8).map(|i| i as f32).collect();
    let a = [2.5f32, 1.0];
    let x: Vec<f32> = (0..8).map(|i| (i as f32) * 0.5).collect();
    f(y.as_mut_ptr(), a.as_ptr(), x.as_ptr());
    for (i, &v) in y.iter().enumerate() {
        assert_eq!(v, i as f32 + 2.5 * (i as f32) * 0.5, "lane {i}");
    }
}

/// Packed 512-bit FMA using zmm31 as the broadcast register, exactly as in
/// Listing 2 of the paper, including a non-zero displacement and an indexed
/// address.
#[test]
fn vfmadd231ps_zmm31_listing2_shape() {
    let feats = features();
    if !feats.avx512f {
        eprintln!("skipping: no AVX-512F");
        return;
    }
    // fn(y_ptr, aval_ptr, x_ptr):
    //   zmm0 = 0
    //   zmm0 += broadcast(aval[1]) * x[16..32]   (disp = 64 bytes, index form)
    //   y[0..16] = zmm0
    let mut asm = Assembler::new();
    let zero = VecReg::zmm(0);
    if feats.avx512dq {
        asm.vxorps(zero, zero, zero);
    } else {
        asm.vpxord(zero, zero, zero);
    }
    asm.mov_ri64(Gpr::Rcx, 4); // element index 4 within aval
    asm.vbroadcastss(VecReg::zmm(31), Mem::base(Gpr::Rsi).index(Gpr::Rcx, Scale::S4).disp(-12));
    asm.vfmadd231ps_m(zero, VecReg::zmm(31), Mem::base(Gpr::Rdx).disp(64));
    asm.vmovups_store(Mem::base(Gpr::Rdi), zero);
    asm.ret();
    let buf = run_kernel(asm);
    // SAFETY: the kernel assembled above is a complete SysV function of
    // exactly this signature that returns and touches only the buffers it is
    // passed; `buf` outlives every call through `f`.
    let f: extern "C" fn(*mut f32, *const f32, *const f32) = unsafe { buf.as_fn3() };
    let mut y = [0.0f32; 16];
    let a = [0.0f32, 3.0, 0.0, 0.0, 0.0]; // broadcast picks a[4*4-12 bytes] = a[1] = 3.0
    let x: Vec<f32> = (0..32).map(|i| i as f32).collect();
    f(y.as_mut_ptr(), a.as_ptr(), x.as_ptr());
    for (i, &v) in y.iter().enumerate() {
        assert_eq!(v, 3.0 * (16 + i) as f32, "lane {i}");
    }
}

/// High EVEX registers (zmm16–zmm31) must round-trip through load/store.
#[test]
fn high_zmm_registers_round_trip() {
    if !features().avx512f {
        eprintln!("skipping: no AVX-512F");
        return;
    }
    // fn(src_ptr, one_ptr, dst_ptr)
    let mut asm = Assembler::new();
    let one = Mem::base(Gpr::Rsi);
    load_packed(&mut asm, VecReg::zmm(20), VecReg::zmm(31), one, Mem::base(Gpr::Rdi), false);
    asm.vmovups_store(Mem::base(Gpr::Rdx), VecReg::zmm(20));
    asm.ret();
    let buf = run_kernel(asm);
    // SAFETY: the kernel assembled above is a complete SysV function of
    // exactly this signature that returns and touches only the buffers it is
    // passed; `buf` outlives every call through `f`.
    let f: extern "C" fn(*const f32, *const f32, *mut f32) = unsafe { buf.as_fn3() };
    let src: Vec<f32> = (0..16).map(|i| (i * i) as f32).collect();
    let mut dst = vec![0.0f32; 16];
    f(src.as_ptr(), [1.0f32].as_ptr(), dst.as_mut_ptr());
    assert_eq!(src, dst);
}

/// f64 scalar and packed paths.
#[test]
fn f64_paths_match_scalar_math() {
    let feats = features();
    if !(feats.avx2 && feats.fma) {
        eprintln!("skipping: no AVX2+FMA");
        return;
    }
    // fn(y_ptr, a_ptr, x_ptr): y[0..4] += broadcast(a[0]) * x[0..4] (f64,
    // ymm), with a[1] = 1.0 for loading y.
    let mut asm = Assembler::new();
    let one = Mem::base(Gpr::Rsi).disp(8);
    load_packed(&mut asm, VecReg::ymm(1), VecReg::ymm(5), one, Mem::base(Gpr::Rdi), true);
    asm.vbroadcastsd(VecReg::ymm(5), Mem::base(Gpr::Rsi));
    asm.vfmadd231pd_m(VecReg::ymm(1), VecReg::ymm(5), Mem::base(Gpr::Rdx));
    asm.vmovupd_store(Mem::base(Gpr::Rdi), VecReg::ymm(1));
    asm.ret();
    let buf = run_kernel(asm);
    // SAFETY: the kernel assembled above is a complete SysV function of
    // exactly this signature that returns and touches only the buffers it is
    // passed; `buf` outlives every call through `f`.
    let f: extern "C" fn(*mut f64, *const f64, *const f64) = unsafe { buf.as_fn3() };
    let mut y = [1.0f64, 2.0, 3.0, 4.0];
    let a = [1.5f64, 1.0];
    let x = [10.0f64, 20.0, 30.0, 40.0];
    f(y.as_mut_ptr(), a.as_ptr(), x.as_ptr());
    assert_eq!(y, [16.0, 32.0, 48.0, 64.0]);

    // Scalar f64 FMA.
    let mut asm = Assembler::new();
    asm.vmovsd_load(Xmm::new(0), Mem::base(Gpr::Rdi));
    asm.vmovsd_load(Xmm::new(1), Mem::base(Gpr::Rsi));
    asm.vfmadd231sd_m(Xmm::new(0), Xmm::new(1), Mem::base(Gpr::Rdx));
    asm.vmovsd_store(Mem::base(Gpr::Rdi), Xmm::new(0));
    asm.ret();
    let buf = run_kernel(asm);
    // SAFETY: the kernel assembled above is a complete SysV function of
    // exactly this signature that returns and touches only the buffers it is
    // passed; `buf` outlives every call through `f`.
    let f: extern "C" fn(*mut f64, *const f64, *const f64) = unsafe { buf.as_fn3() };
    let mut acc = [100.0f64];
    f(acc.as_mut_ptr(), [0.5f64].as_ptr(), [8.0f64].as_ptr());
    assert_eq!(acc[0], 104.0);
}

/// The dynamic-row-dispatch primitive: `lock xadd` returns the old value and
/// bumps the shared counter.
#[test]
fn lock_xadd_fetch_add_semantics() {
    // fn(next_ptr, batch) -> old value
    let mut asm = Assembler::new();
    asm.mov_rr64(Gpr::Rax, Gpr::Rsi);
    asm.lock_xadd_mr64(Mem::base(Gpr::Rdi), Gpr::Rax);
    asm.ret();
    let buf = run_kernel(asm);
    // SAFETY: the kernel assembled above is a complete SysV function of
    // exactly this signature that returns and touches only the buffers it is
    // passed; `buf` outlives every call through `f`.
    let f: extern "C" fn(*mut u64, u64) -> u64 = unsafe { buf.as_fn2() };
    let mut next = 0u64;
    assert_eq!(f(&mut next, 128), 0);
    assert_eq!(f(&mut next, 128), 128);
    assert_eq!(f(&mut next, 64), 256);
    assert_eq!(next, 320);
}

/// A small but complete scalar dot-product loop exercising labels, cmp/jge,
/// indexed addressing with scale 4, and inc.
#[test]
fn scalar_dot_product_loop() {
    if !features().has_fma() {
        eprintln!("skipping: no FMA");
        return;
    }
    // fn(a_ptr, b_ptr, n, out_ptr)  — System V: rdi, rsi, rdx, rcx
    let mut asm = Assembler::new();
    let (head, done) = {
        let mut a = || asm.new_label();
        (a(), a())
    };
    let acc = Xmm::new(0);
    asm.vxorps(VecReg::from(acc), VecReg::from(acc), VecReg::from(acc));
    asm.xor_rr64(Gpr::Rax, Gpr::Rax);
    asm.bind(head).unwrap();
    asm.cmp_rr64(Gpr::Rax, Gpr::Rdx);
    asm.jcc(jitspmm_asm::Cond::Ge, done);
    asm.vmovss_load(Xmm::new(1), Mem::base(Gpr::Rdi).index(Gpr::Rax, Scale::S4));
    asm.vfmadd231ss_m(acc, Xmm::new(1), Mem::base(Gpr::Rsi).index(Gpr::Rax, Scale::S4));
    asm.inc_r64(Gpr::Rax);
    asm.jmp(head);
    asm.bind(done).unwrap();
    asm.vmovss_store(Mem::base(Gpr::Rcx), acc);
    asm.ret();
    let buf = run_kernel(asm);
    // SAFETY: the kernel assembled above is a complete SysV function of
    // exactly this signature that returns and touches only the buffers it is
    // passed; `buf` outlives every call through `f`.
    let f: extern "C" fn(*const f32, *const f32, u64, *mut f32) =
        unsafe { std::mem::transmute(buf.entry()) };
    let a: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let b: Vec<f32> = (0..64).map(|i| (i % 7) as f32).collect();
    let mut out = [0.0f32];
    f(a.as_ptr(), b.as_ptr(), 64, out.as_mut_ptr());
    let expected: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
    assert_eq!(out[0], expected);
}
