//! Decoded-instruction representation.
//!
//! [`Inst`] is the table of the forms `jitspmm-asm` emits for the JITSPMM
//! kernels: one variant per form, with each operand narrowed to the class
//! the assembler encodes there (a register where it only writes a register,
//! a memory operand where it only writes memory). The decoder returns these
//! and nothing else.

/// Element kind of a SIMD operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecKind {
    /// 32-bit floats.
    F32,
    /// 64-bit floats.
    F64,
}

/// Operand width of a general-purpose load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpWidth {
    /// 32-bit (result zero-extended into the 64-bit register).
    W32,
    /// 64-bit.
    W64,
}

/// A decoded memory operand `[base + index * scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOperand {
    /// Base register id (0–15).
    pub base: u8,
    /// Optional `(register id, log2 scale)` index.
    pub index: Option<(u8, u8)>,
    /// Signed displacement.
    pub disp: i32,
}

/// Arithmetic/logic operations sharing the standard two-operand encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Addition (writes the destination and all flags).
    Add,
    /// Compare (subtraction that only writes flags).
    Cmp,
    /// Bitwise exclusive or (register operands only).
    Xor,
}

/// One decoded instruction of the supported subset. General-purpose
/// operations are 64-bit unless they say otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `mov r64, imm64` (opcode `B8+r`).
    MovRegImm {
        /// Destination register.
        dst: u8,
        /// Immediate value.
        imm: u64,
    },
    /// `mov reg, [mem]` (opcode `8B`), 64-bit or zero-extending 32-bit.
    MovRegRm {
        /// Destination register.
        dst: u8,
        /// Source address.
        src: MemOperand,
        /// Operand width.
        width: OpWidth,
    },
    /// `mov r64, r64` (opcode `89`).
    MovRmReg {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// `add`/`cmp r64, imm` (`81`/`83` group).
    AluRmImm {
        /// Operation ([`AluOp::Add`] or [`AluOp::Cmp`]).
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Sign-extended immediate.
        imm: i64,
    },
    /// `add`/`cmp`/`xor r64, r64` (`01`, `39`, `31`).
    AluRmReg {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// `inc r64`.
    Inc {
        /// Target register.
        dst: u8,
    },
    /// `lea r64, [mem]`.
    Lea {
        /// Destination register.
        dst: u8,
        /// Address expression.
        mem: MemOperand,
    },
    /// `imul r64, r64, imm32`.
    ImulRegRmImm {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
        /// Immediate multiplier.
        imm: i64,
    },
    /// `push reg`.
    Push {
        /// Register pushed.
        reg: u8,
    },
    /// `pop reg`.
    Pop {
        /// Register popped into.
        reg: u8,
    },
    /// `lock xadd [mem], r64`.
    Xadd {
        /// Memory operand.
        mem: MemOperand,
        /// Register operand (receives the old memory value).
        reg: u8,
    },
    /// `ret`.
    Ret,
    /// `jmp rel32`, target resolved to an absolute code offset.
    Jmp {
        /// Absolute target offset.
        target: u64,
    },
    /// `jcc rel32`, target resolved to an absolute code offset.
    Jcc {
        /// Condition code (0–15).
        cond: u8,
        /// Absolute target offset.
        target: u64,
    },
    /// `vxorps`/`vpxord`: bitwise xor of two vector registers.
    VXor {
        /// Destination vector register.
        dst: u8,
        /// First source.
        a: u8,
        /// Second source.
        b: u8,
        /// Operation width in bytes (16/32/64).
        width_bytes: usize,
    },
    /// `vbroadcastss`/`vbroadcastsd` from memory.
    VBroadcast {
        /// Destination vector register.
        dst: u8,
        /// Source element address.
        src: MemOperand,
        /// Element kind.
        kind: VecKind,
        /// Destination width in bytes.
        width_bytes: usize,
    },
    /// `vfmadd231ps/pd/ss/sd` with a memory operand: `dst += a * [src]`.
    VFmadd231 {
        /// Destination (accumulator) register.
        dst: u8,
        /// Multiplier register.
        a: u8,
        /// Second multiplier's address.
        src: MemOperand,
        /// Element kind.
        kind: VecKind,
        /// Operation width in bytes.
        width_bytes: usize,
        /// `true` for the scalar (`ss`/`sd`) forms.
        scalar: bool,
    },
    /// `vmovss`/`vmovsd` load from memory (upper lanes zeroed).
    VMovLoad {
        /// Destination register.
        dst: u8,
        /// Source address.
        src: MemOperand,
        /// Width in bytes (4 or 8).
        width_bytes: usize,
    },
    /// `vmovups/upd/ss/sd` store to memory.
    VMovStore {
        /// Destination address.
        dst: MemOperand,
        /// Source register.
        src: u8,
        /// Width in bytes (4/8 for scalar forms).
        width_bytes: usize,
    },
}
