//! The virtine instruction set: definitions, binary encoding, and decoding.
//!
//! VISA is the abstract machine model of this reproduction (§2 of the paper:
//! "a virtine hypervisor … implements an abstract machine model designed for
//! and restricted to the intentions of the virtine"). It mirrors the parts of
//! x86 that matter for the paper's measurements — the real→protected→long
//! bring-up, control registers, GDT loads, far jumps, port-mapped I/O and
//! `hlt` — while using a simple fixed-format binary encoding so images are
//! genuine binary blobs that can be loaded, snapshotted and padded.
//!
//! Encoding formats (little-endian):
//!
//! | format | layout | length |
//! |---|---|---|
//! | RR | `op dst src` | 3 |
//! | RI | `op dst imm64` | 10 |
//! | mem | `op reg base off32` | 7 |
//! | jump | `op rel32` | 5 |
//! | cond jump | `op cond rel32` | 6 |
//! | port | `op reg port16` | 4 |
//! | far jump | `op mode imm64` | 10 |

use std::fmt;

/// A general-purpose register (`r0`–`r15`).
///
/// By software convention `r15` is the stack pointer (`sp`) used implicitly
/// by `push`/`pop`/`call`/`ret`, and `r14` is the frame pointer (`fp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: usize = 16;
    /// The stack pointer alias (`r15`).
    pub const SP: Reg = Reg(15);
    /// The frame pointer alias (`r14`).
    pub const FP: Reg = Reg(14);

    /// Builds a register, validating the index.
    pub fn new(idx: u8) -> Result<Reg, DecodeError> {
        if (idx as usize) < Reg::COUNT {
            Ok(Reg(idx))
        } else {
            Err(DecodeError::BadRegister(idx))
        }
    }

    /// The register index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            15 => write!(f, "sp"),
            14 => write!(f, "fp"),
            n => write!(f, "r{n}"),
        }
    }
}

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte, zero-extended on load.
    B,
    /// 2 bytes, zero-extended on load.
    W,
    /// 4 bytes, zero-extended on load.
    D,
    /// 8 bytes.
    Q,
}

impl Width {
    /// Size of the access in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B => 1,
            Width::W => 2,
            Width::D => 4,
            Width::Q => 8,
        }
    }
}

/// Binary ALU operation selector shared by the RR and RI forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alu {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; divide-by-zero faults.
    Div,
    /// Signed remainder; divide-by-zero faults.
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (count masked to 63).
    Shl,
    /// Logical shift right (count masked to 63).
    Shr,
    /// Arithmetic shift right (count masked to 63).
    Sar,
}

/// Branch condition, evaluated against the flags set by the last `cmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned below.
    B,
    /// Unsigned below-or-equal.
    Be,
    /// Unsigned above.
    A,
    /// Unsigned above-or-equal.
    Ae,
}

impl Cond {
    /// Encodes the condition as a byte.
    pub fn encode(self) -> u8 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Lt => 2,
            Cond::Le => 3,
            Cond::Gt => 4,
            Cond::Ge => 5,
            Cond::B => 6,
            Cond::Be => 7,
            Cond::A => 8,
            Cond::Ae => 9,
        }
    }

    /// Decodes a condition byte.
    pub fn decode(b: u8) -> Result<Cond, DecodeError> {
        Ok(match b {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Lt,
            3 => Cond::Le,
            4 => Cond::Gt,
            5 => Cond::Ge,
            6 => Cond::B,
            7 => Cond::Be,
            8 => Cond::A,
            9 => Cond::Ae,
            other => return Err(DecodeError::BadCondition(other)),
        })
    }
}

/// Target processor mode of a far jump (`ljmp16`/`ljmp32`/`ljmp64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JmpMode {
    /// 16-bit real mode.
    Real16,
    /// 32-bit protected mode.
    Prot32,
    /// 64-bit long mode.
    Long64,
}

impl JmpMode {
    /// Encodes the mode as a byte.
    pub fn encode(self) -> u8 {
        match self {
            JmpMode::Real16 => 16,
            JmpMode::Prot32 => 32,
            JmpMode::Long64 => 64,
        }
    }

    /// Decodes a mode byte.
    pub fn decode(b: u8) -> Result<JmpMode, DecodeError> {
        Ok(match b {
            16 => JmpMode::Real16,
            32 => JmpMode::Prot32,
            64 => JmpMode::Long64,
            other => return Err(DecodeError::BadMode(other)),
        })
    }
}

/// Control register selector for `mov crN, r` / `mov r, crN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrReg {
    /// CR0 (PE is bit 0, PG is bit 31).
    Cr0,
    /// CR3 (page-table base).
    Cr3,
    /// CR4 (PAE is bit 5).
    Cr4,
}

impl CrReg {
    /// Encodes the selector as a byte.
    pub fn encode(self) -> u8 {
        match self {
            CrReg::Cr0 => 0,
            CrReg::Cr3 => 3,
            CrReg::Cr4 => 4,
        }
    }

    /// Decodes a selector byte.
    pub fn decode(b: u8) -> Result<CrReg, DecodeError> {
        Ok(match b {
            0 => CrReg::Cr0,
            3 => CrReg::Cr3,
            4 => CrReg::Cr4,
            other => return Err(DecodeError::BadControlRegister(other)),
        })
    }
}

/// A decoded VISA instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Halt: exits the virtual context (`VmExit::Hlt`).
    Hlt,
    /// `dst = src`.
    MovRR(Reg, Reg),
    /// `dst = imm`.
    MovRI(Reg, u64),
    /// `dst = dst <op> src`.
    AluRR(Alu, Reg, Reg),
    /// `dst = dst <op> imm`.
    AluRI(Alu, Reg, u64),
    /// `dst = -dst`.
    Neg(Reg),
    /// `dst = !dst`.
    Not(Reg),
    /// Sets flags from `a - b`.
    CmpRR(Reg, Reg),
    /// Sets flags from `a - imm`.
    CmpRI(Reg, u64),
    /// Relative jump (offset from the next instruction).
    Jmp(i32),
    /// Conditional relative jump.
    Jcc(Cond, i32),
    /// Relative call: pushes the return address.
    Call(i32),
    /// Indirect call through a register.
    CallR(Reg),
    /// Indirect jump through a register.
    JmpR(Reg),
    /// Pops the return address and jumps to it.
    Ret,
    /// Pushes a register on the stack.
    Push(Reg),
    /// Pops the stack into a register.
    Pop(Reg),
    /// Memory load: `dst = mem[base + off]`, zero-extended to 64 bits.
    Load(Width, Reg, Reg, i32),
    /// Memory store: `mem[base + off] = src` (truncated to the width).
    Store(Width, Reg, i32, Reg),
    /// Port input: exits to the hypervisor, which supplies the value.
    In(Reg, u16),
    /// Port output: exits to the hypervisor with `(port, value)`.
    Out(u16, Reg),
    /// Loads the GDT register from an absolute address.
    Lgdt(u64),
    /// Writes a control register from a GPR.
    MovCr(CrReg, Reg),
    /// Reads a control register into a GPR.
    MovRCr(Reg, CrReg),
    /// Writes a model-specific register (only EFER is modelled).
    Wrmsr(u32, Reg),
    /// Far jump: switches processor mode and jumps to an absolute address.
    Ljmp(JmpMode, u64),
    /// Records a zero-cost milestone timestamp (experiment instrumentation,
    /// standing in for an in-guest `rdtsc` which causes no VM exit).
    Mark(u8),
}

/// Errors produced while decoding instruction bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode byte is not a defined instruction.
    BadOpcode(u8),
    /// A register operand index was out of range.
    BadRegister(u8),
    /// A condition byte was out of range.
    BadCondition(u8),
    /// A far-jump mode byte was invalid.
    BadMode(u8),
    /// A control-register selector was invalid.
    BadControlRegister(u8),
    /// The instruction was truncated by the end of memory.
    Truncated,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(op) => write!(f, "invalid opcode {op:#04x}"),
            DecodeError::BadRegister(r) => write!(f, "invalid register index {r}"),
            DecodeError::BadCondition(c) => write!(f, "invalid condition code {c}"),
            DecodeError::BadMode(m) => write!(f, "invalid far-jump mode {m}"),
            DecodeError::BadControlRegister(c) => write!(f, "invalid control register {c}"),
            DecodeError::Truncated => write!(f, "truncated instruction"),
        }
    }
}

impl std::error::Error for DecodeError {}

// Opcode assignments. Kept dense and stable: images are persisted by tests.
const OP_NOP: u8 = 0x00;
const OP_HLT: u8 = 0x01;
const OP_MOV_RR: u8 = 0x02;
const OP_MOV_RI: u8 = 0x03;
const OP_ALU_RR_BASE: u8 = 0x10; // 0x10..=0x1A indexed by Alu discriminant.
const OP_ALU_RI_BASE: u8 = 0x20; // 0x20..=0x2A.
const OP_NEG: u8 = 0x2B;
const OP_NOT: u8 = 0x2C;
const OP_CMP_RR: u8 = 0x2D;
const OP_CMP_RI: u8 = 0x2E;
const OP_JMP: u8 = 0x30;
const OP_JCC: u8 = 0x31;
const OP_CALL: u8 = 0x32;
const OP_CALL_R: u8 = 0x33;
const OP_JMP_R: u8 = 0x34;
const OP_RET: u8 = 0x35;
const OP_PUSH: u8 = 0x36;
const OP_POP: u8 = 0x37;
const OP_LOAD_B: u8 = 0x40;
const OP_LOAD_W: u8 = 0x41;
const OP_LOAD_D: u8 = 0x42;
const OP_LOAD_Q: u8 = 0x43;
const OP_STORE_B: u8 = 0x44;
const OP_STORE_W: u8 = 0x45;
const OP_STORE_D: u8 = 0x46;
const OP_STORE_Q: u8 = 0x47;
const OP_IN: u8 = 0x50;
const OP_OUT: u8 = 0x51;
const OP_LGDT: u8 = 0x60;
const OP_MOV_CR: u8 = 0x61;
const OP_MOV_RCR: u8 = 0x62;
const OP_WRMSR: u8 = 0x63;
const OP_LJMP: u8 = 0x64;
const OP_MARK: u8 = 0x70;

fn alu_code(alu: Alu) -> u8 {
    match alu {
        Alu::Add => 0,
        Alu::Sub => 1,
        Alu::Mul => 2,
        Alu::Div => 3,
        Alu::Mod => 4,
        Alu::And => 5,
        Alu::Or => 6,
        Alu::Xor => 7,
        Alu::Shl => 8,
        Alu::Shr => 9,
        Alu::Sar => 10,
    }
}

fn alu_from_code(c: u8) -> Option<Alu> {
    Some(match c {
        0 => Alu::Add,
        1 => Alu::Sub,
        2 => Alu::Mul,
        3 => Alu::Div,
        4 => Alu::Mod,
        5 => Alu::And,
        6 => Alu::Or,
        7 => Alu::Xor,
        8 => Alu::Shl,
        9 => Alu::Shr,
        10 => Alu::Sar,
        _ => return None,
    })
}

impl Inst {
    /// Encoded length of the instruction in bytes (never zero, so there
    /// is deliberately no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        match self {
            Inst::Nop | Inst::Hlt | Inst::Ret => 1,
            Inst::MovRR(..) | Inst::AluRR(..) | Inst::CmpRR(..) => 3,
            Inst::MovRI(..) | Inst::AluRI(..) | Inst::CmpRI(..) => 10,
            Inst::Neg(_) | Inst::Not(_) | Inst::Push(_) | Inst::Pop(_) => 2,
            Inst::CallR(_) | Inst::JmpR(_) => 2,
            Inst::Jmp(_) | Inst::Call(_) => 5,
            Inst::Jcc(..) => 6,
            Inst::Load(..) | Inst::Store(..) => 7,
            Inst::In(..) | Inst::Out(..) => 4,
            Inst::Lgdt(_) => 9,
            Inst::MovCr(..) | Inst::MovRCr(..) => 3,
            Inst::Wrmsr(..) => 6,
            Inst::Ljmp(..) => 10,
            Inst::Mark(_) => 2,
        }
    }

    /// Appends the binary encoding of the instruction to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Inst::Nop => out.push(OP_NOP),
            Inst::Hlt => out.push(OP_HLT),
            Inst::Ret => out.push(OP_RET),
            Inst::MovRR(d, s) => out.extend_from_slice(&[OP_MOV_RR, d.0, s.0]),
            Inst::MovRI(d, imm) => {
                out.extend_from_slice(&[OP_MOV_RI, d.0]);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Inst::AluRR(alu, d, s) => {
                out.extend_from_slice(&[OP_ALU_RR_BASE + alu_code(alu), d.0, s.0]);
            }
            Inst::AluRI(alu, d, imm) => {
                out.extend_from_slice(&[OP_ALU_RI_BASE + alu_code(alu), d.0]);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Inst::Neg(r) => out.extend_from_slice(&[OP_NEG, r.0]),
            Inst::Not(r) => out.extend_from_slice(&[OP_NOT, r.0]),
            Inst::CmpRR(a, b) => out.extend_from_slice(&[OP_CMP_RR, a.0, b.0]),
            Inst::CmpRI(a, imm) => {
                out.extend_from_slice(&[OP_CMP_RI, a.0]);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Inst::Jmp(rel) => {
                out.push(OP_JMP);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Inst::Jcc(c, rel) => {
                out.extend_from_slice(&[OP_JCC, c.encode()]);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Inst::Call(rel) => {
                out.push(OP_CALL);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Inst::CallR(r) => out.extend_from_slice(&[OP_CALL_R, r.0]),
            Inst::JmpR(r) => out.extend_from_slice(&[OP_JMP_R, r.0]),
            Inst::Push(r) => out.extend_from_slice(&[OP_PUSH, r.0]),
            Inst::Pop(r) => out.extend_from_slice(&[OP_POP, r.0]),
            Inst::Load(w, dst, base, off) => {
                let op = match w {
                    Width::B => OP_LOAD_B,
                    Width::W => OP_LOAD_W,
                    Width::D => OP_LOAD_D,
                    Width::Q => OP_LOAD_Q,
                };
                out.extend_from_slice(&[op, dst.0, base.0]);
                out.extend_from_slice(&off.to_le_bytes());
            }
            Inst::Store(w, base, off, src) => {
                let op = match w {
                    Width::B => OP_STORE_B,
                    Width::W => OP_STORE_W,
                    Width::D => OP_STORE_D,
                    Width::Q => OP_STORE_Q,
                };
                out.extend_from_slice(&[op, base.0, src.0]);
                out.extend_from_slice(&off.to_le_bytes());
            }
            Inst::In(dst, port) => {
                out.extend_from_slice(&[OP_IN, dst.0]);
                out.extend_from_slice(&port.to_le_bytes());
            }
            Inst::Out(port, src) => {
                out.extend_from_slice(&[OP_OUT, src.0]);
                out.extend_from_slice(&port.to_le_bytes());
            }
            Inst::Lgdt(addr) => {
                out.push(OP_LGDT);
                out.extend_from_slice(&addr.to_le_bytes());
            }
            Inst::MovCr(cr, src) => out.extend_from_slice(&[OP_MOV_CR, cr.encode(), src.0]),
            Inst::MovRCr(dst, cr) => out.extend_from_slice(&[OP_MOV_RCR, dst.0, cr.encode()]),
            Inst::Wrmsr(msr, src) => {
                out.extend_from_slice(&[OP_WRMSR, src.0]);
                out.extend_from_slice(&msr.to_le_bytes());
            }
            Inst::Ljmp(mode, target) => {
                out.extend_from_slice(&[OP_LJMP, mode.encode()]);
                out.extend_from_slice(&target.to_le_bytes());
            }
            Inst::Mark(id) => out.extend_from_slice(&[OP_MARK, id]),
        }
    }

    /// Longest encoding [`Inst::decode`] consumes (an opcode, a register and
    /// a 64-bit immediate): a fetch window this long always holds a whole
    /// instruction.
    pub(crate) const MAX_LEN: usize = 10;

    /// Decodes one instruction from the start of `bytes`.
    ///
    /// Returns the instruction and its encoded length.
    pub fn decode(bytes: &[u8]) -> Result<(Inst, u64), DecodeError> {
        fn need(bytes: &[u8], n: usize) -> Result<(), DecodeError> {
            if bytes.len() < n {
                Err(DecodeError::Truncated)
            } else {
                Ok(())
            }
        }
        fn reg(b: u8) -> Result<Reg, DecodeError> {
            Reg::new(b)
        }
        fn imm64(bytes: &[u8]) -> u64 {
            u64::from_le_bytes(bytes[..8].try_into().expect("length checked"))
        }
        fn rel32(bytes: &[u8]) -> i32 {
            i32::from_le_bytes(bytes[..4].try_into().expect("length checked"))
        }
        fn port16(bytes: &[u8]) -> u16 {
            u16::from_le_bytes(bytes[..2].try_into().expect("length checked"))
        }

        need(bytes, 1)?;
        let op = bytes[0];
        let inst = match op {
            OP_NOP => Inst::Nop,
            OP_HLT => Inst::Hlt,
            OP_RET => Inst::Ret,
            OP_MOV_RR => {
                need(bytes, 3)?;
                Inst::MovRR(reg(bytes[1])?, reg(bytes[2])?)
            }
            OP_MOV_RI => {
                need(bytes, 10)?;
                Inst::MovRI(reg(bytes[1])?, imm64(&bytes[2..]))
            }
            op if (OP_ALU_RR_BASE..OP_ALU_RR_BASE + 11).contains(&op) => {
                need(bytes, 3)?;
                let alu = alu_from_code(op - OP_ALU_RR_BASE).expect("range checked");
                Inst::AluRR(alu, reg(bytes[1])?, reg(bytes[2])?)
            }
            op if (OP_ALU_RI_BASE..OP_ALU_RI_BASE + 11).contains(&op) => {
                need(bytes, 10)?;
                let alu = alu_from_code(op - OP_ALU_RI_BASE).expect("range checked");
                Inst::AluRI(alu, reg(bytes[1])?, imm64(&bytes[2..]))
            }
            OP_NEG => {
                need(bytes, 2)?;
                Inst::Neg(reg(bytes[1])?)
            }
            OP_NOT => {
                need(bytes, 2)?;
                Inst::Not(reg(bytes[1])?)
            }
            OP_CMP_RR => {
                need(bytes, 3)?;
                Inst::CmpRR(reg(bytes[1])?, reg(bytes[2])?)
            }
            OP_CMP_RI => {
                need(bytes, 10)?;
                Inst::CmpRI(reg(bytes[1])?, imm64(&bytes[2..]))
            }
            OP_JMP => {
                need(bytes, 5)?;
                Inst::Jmp(rel32(&bytes[1..]))
            }
            OP_JCC => {
                need(bytes, 6)?;
                Inst::Jcc(Cond::decode(bytes[1])?, rel32(&bytes[2..]))
            }
            OP_CALL => {
                need(bytes, 5)?;
                Inst::Call(rel32(&bytes[1..]))
            }
            OP_CALL_R => {
                need(bytes, 2)?;
                Inst::CallR(reg(bytes[1])?)
            }
            OP_JMP_R => {
                need(bytes, 2)?;
                Inst::JmpR(reg(bytes[1])?)
            }
            OP_PUSH => {
                need(bytes, 2)?;
                Inst::Push(reg(bytes[1])?)
            }
            OP_POP => {
                need(bytes, 2)?;
                Inst::Pop(reg(bytes[1])?)
            }
            OP_LOAD_B | OP_LOAD_W | OP_LOAD_D | OP_LOAD_Q => {
                need(bytes, 7)?;
                let w = match op {
                    OP_LOAD_B => Width::B,
                    OP_LOAD_W => Width::W,
                    OP_LOAD_D => Width::D,
                    _ => Width::Q,
                };
                Inst::Load(w, reg(bytes[1])?, reg(bytes[2])?, rel32(&bytes[3..]))
            }
            OP_STORE_B | OP_STORE_W | OP_STORE_D | OP_STORE_Q => {
                need(bytes, 7)?;
                let w = match op {
                    OP_STORE_B => Width::B,
                    OP_STORE_W => Width::W,
                    OP_STORE_D => Width::D,
                    _ => Width::Q,
                };
                Inst::Store(w, reg(bytes[1])?, rel32(&bytes[3..]), reg(bytes[2])?)
            }
            OP_IN => {
                need(bytes, 4)?;
                Inst::In(reg(bytes[1])?, port16(&bytes[2..]))
            }
            OP_OUT => {
                need(bytes, 4)?;
                Inst::Out(port16(&bytes[2..]), reg(bytes[1])?)
            }
            OP_LGDT => {
                need(bytes, 9)?;
                Inst::Lgdt(imm64(&bytes[1..]))
            }
            OP_MOV_CR => {
                need(bytes, 3)?;
                Inst::MovCr(CrReg::decode(bytes[1])?, reg(bytes[2])?)
            }
            OP_MOV_RCR => {
                need(bytes, 3)?;
                Inst::MovRCr(reg(bytes[1])?, CrReg::decode(bytes[2])?)
            }
            OP_WRMSR => {
                need(bytes, 6)?;
                let msr = u32::from_le_bytes(bytes[2..6].try_into().expect("length checked"));
                Inst::Wrmsr(msr, reg(bytes[1])?)
            }
            OP_LJMP => {
                need(bytes, 10)?;
                Inst::Ljmp(JmpMode::decode(bytes[1])?, imm64(&bytes[2..]))
            }
            OP_MARK => {
                need(bytes, 2)?;
                Inst::Mark(bytes[1])
            }
            other => return Err(DecodeError::BadOpcode(other)),
        };
        Ok((inst, inst.len()))
    }
}

/// Coarse execution class of an instruction — the "decode split" consumed
/// by the predecoded interpreter ([`crate::pred`]).
///
/// Each class maps to one base cycle cost in
/// [`vclock::costs::GUEST_CLASS_BASE`]; the discriminant is the index into
/// that table. Classes whose timing is charged inside a helper (memory
/// accesses tick [`vclock::costs::GUEST_MEM`] in the load/store path) or is
/// mode-dependent (`System`) carry a base cost of zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpClass {
    /// Simple single-cycle ALU work: `nop`, `mov`, add/sub/logic/shifts,
    /// `neg`, `not`, `cmp`, and control-register reads.
    Alu = 0,
    /// Integer multiply.
    Mul = 1,
    /// Integer divide / remainder.
    Div = 2,
    /// Memory loads and stores (cost charged by the access helper).
    Mem = 3,
    /// Branches: `jmp`, conditional jumps, indirect jumps.
    Branch = 4,
    /// `call` / `ret`.
    CallRet = 5,
    /// `push` / `pop`.
    Stack = 6,
    /// Port I/O (`in` / `out`).
    Pio = 7,
    /// `hlt`.
    Halt = 8,
    /// Mode-transition machinery: `lgdt`, control-register writes, `wrmsr`,
    /// far jumps. Costs depend on mode and the bits written.
    System = 9,
    /// `mark` — the free rdtsc stand-in.
    Mark = 10,
}

impl OpClass {
    /// Number of classes (the length of the cost table).
    pub const COUNT: usize = 11;
}

impl Inst {
    /// The execution class of this instruction.
    pub fn class(&self) -> OpClass {
        match self {
            Inst::Nop
            | Inst::MovRR(..)
            | Inst::MovRI(..)
            | Inst::Neg(_)
            | Inst::Not(_)
            | Inst::CmpRR(..)
            | Inst::CmpRI(..)
            | Inst::MovRCr(..) => OpClass::Alu,
            Inst::AluRR(op, ..) | Inst::AluRI(op, ..) => match op {
                Alu::Mul => OpClass::Mul,
                Alu::Div | Alu::Mod => OpClass::Div,
                _ => OpClass::Alu,
            },
            Inst::Load(..) | Inst::Store(..) => OpClass::Mem,
            Inst::Jmp(_) | Inst::Jcc(..) | Inst::JmpR(_) => OpClass::Branch,
            Inst::Call(_) | Inst::CallR(_) | Inst::Ret => OpClass::CallRet,
            Inst::Push(_) | Inst::Pop(_) => OpClass::Stack,
            Inst::In(..) | Inst::Out(..) => OpClass::Pio,
            Inst::Hlt => OpClass::Halt,
            Inst::Lgdt(_) | Inst::MovCr(..) | Inst::Wrmsr(..) | Inst::Ljmp(..) => OpClass::System,
            Inst::Mark(_) => OpClass::Mark,
        }
    }
}

/// The model-specific register number for EFER (matches x86).
pub const MSR_EFER: u32 = 0xC000_0080;

/// EFER.LME: long-mode enable.
pub const EFER_LME: u64 = 1 << 8;

/// CR0.PE: protection enable.
pub const CR0_PE: u64 = 1 << 0;

/// CR0.PG: paging enable.
pub const CR0_PG: u64 = 1 << 31;

/// CR4.PAE: physical address extension.
pub const CR4_PAE: u64 = 1 << 5;

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(inst: Inst) {
        let mut buf = Vec::new();
        inst.encode(&mut buf);
        assert_eq!(buf.len() as u64, inst.len(), "length mismatch for {inst:?}");
        let (decoded, len) = Inst::decode(&buf).expect("decode");
        assert_eq!(decoded, inst);
        assert_eq!(len, inst.len());
    }

    /// One instance of every instruction form, widest operands included.
    fn every_form() -> Vec<Inst> {
        let r = |n| Reg(n);
        vec![
            Inst::Nop,
            Inst::Hlt,
            Inst::Ret,
            Inst::MovRR(r(0), r(15)),
            Inst::MovRI(r(3), 0xDEAD_BEEF_CAFE_F00D),
            Inst::AluRR(Alu::Add, r(1), r(2)),
            Inst::AluRI(Alu::Shr, r(9), 63),
            Inst::AluRI(Alu::Div, r(4), u64::MAX),
            Inst::Neg(r(5)),
            Inst::Not(r(6)),
            Inst::CmpRR(r(7), r(8)),
            Inst::CmpRI(r(1), 2),
            Inst::Jmp(-12345),
            Inst::Jcc(Cond::Lt, 77),
            Inst::Call(0),
            Inst::CallR(r(11)),
            Inst::JmpR(r(12)),
            Inst::Push(r(13)),
            Inst::Pop(r(14)),
            Inst::Load(Width::B, r(0), r(1), -4),
            Inst::Load(Width::Q, r(2), r(3), 1 << 20),
            Inst::Store(Width::W, r(4), 16, r(5)),
            Inst::Store(Width::D, r(6), -8, r(7)),
            Inst::In(r(0), 0xF00D),
            Inst::Out(0x0001, r(1)),
            Inst::Lgdt(0x8000),
            Inst::MovCr(CrReg::Cr0, r(2)),
            Inst::MovRCr(r(3), CrReg::Cr4),
            Inst::Wrmsr(MSR_EFER, r(4)),
            Inst::Ljmp(JmpMode::Long64, 0x9000),
            Inst::Mark(250),
        ]
    }

    #[test]
    fn all_instruction_forms_round_trip() {
        for inst in every_form() {
            round_trip(inst);
        }
    }

    #[test]
    fn max_len_is_the_longest_encoding() {
        let longest = every_form().into_iter().map(|inst| {
            let mut buf = Vec::new();
            inst.encode(&mut buf);
            buf.len()
        });
        assert_eq!(longest.max(), Some(Inst::MAX_LEN));
    }

    #[test]
    fn every_alu_op_round_trips() {
        for alu in [
            Alu::Add,
            Alu::Sub,
            Alu::Mul,
            Alu::Div,
            Alu::Mod,
            Alu::And,
            Alu::Or,
            Alu::Xor,
            Alu::Shl,
            Alu::Shr,
            Alu::Sar,
        ] {
            round_trip(Inst::AluRR(alu, Reg(1), Reg(2)));
            round_trip(Inst::AluRI(alu, Reg(3), 42));
        }
    }

    #[test]
    fn every_condition_round_trips() {
        for c in [
            Cond::Eq,
            Cond::Ne,
            Cond::Lt,
            Cond::Le,
            Cond::Gt,
            Cond::Ge,
            Cond::B,
            Cond::Be,
            Cond::A,
            Cond::Ae,
        ] {
            assert_eq!(Cond::decode(c.encode()).unwrap(), c);
            round_trip(Inst::Jcc(c, -1));
        }
    }

    #[test]
    fn bad_opcode_is_rejected() {
        assert_eq!(
            Inst::decode(&[0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(DecodeError::BadOpcode(0xFF))
        );
    }

    #[test]
    fn bad_register_is_rejected() {
        assert_eq!(
            Inst::decode(&[0x02, 16, 0]),
            Err(DecodeError::BadRegister(16))
        );
    }

    #[test]
    fn truncated_instruction_is_rejected() {
        let mut buf = Vec::new();
        Inst::MovRI(Reg(0), 7).encode(&mut buf);
        assert_eq!(Inst::decode(&buf[..5]), Err(DecodeError::Truncated));
        assert_eq!(Inst::decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn register_aliases_display() {
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::FP.to_string(), "fp");
        assert_eq!(Reg(3).to_string(), "r3");
    }
}
