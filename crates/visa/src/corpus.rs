//! Seeded random guest-program generation.
//!
//! Three generators, all deterministic from a [`vclock::rng::Rng`] seed:
//!
//! * [`random_inst`] — one instruction of any form with random operands,
//!   for encode/decode round-trip property tests.
//! * [`random_source`] / [`random_source_paged`] — a whole assemblable
//!   program exercising the instruction mix `vcc` emits plus the awkward
//!   cases (divide faults, self-modifying stores, port I/O, wild indirect
//!   jumps, wild stack pointers, illegal system instructions), for the fast-vs-reference
//!   differential harness and the `diff_fuzz` binary. Programs are *allowed* to fault, loop forever, or
//!   scribble on themselves — the differential contract is that both
//!   engines do exactly the same thing, not that the program is sensible.
//! * [`random_loop_source`] — a counted loop, the block shape the fast
//!   engine fast-forwards, aimed at the edges where it must stop.

use vclock::rng::Rng;

use crate::inst::{Alu, Cond, CrReg, Inst, JmpMode, Reg, Width};

const ALUS: [Alu; 11] = [
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
];

const CONDS: [Cond; 10] = [
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
];

const WIDTHS: [Width; 4] = [Width::B, Width::W, Width::D, Width::Q];

fn reg(rng: &mut Rng) -> Reg {
    Reg(rng.below(16) as u8)
}

fn alu(rng: &mut Rng) -> Alu {
    ALUS[rng.below(ALUS.len())]
}

fn cond(rng: &mut Rng) -> Cond {
    CONDS[rng.below(CONDS.len())]
}

fn width(rng: &mut Rng) -> Width {
    WIDTHS[rng.below(WIDTHS.len())]
}

/// A random instruction of any form, with operands drawn from the full
/// encodable ranges. Every call site (register indices, conditions, widths,
/// modes) stays within the decodable alphabet, so
/// `encode → decode → encode` must be the identity.
pub fn random_inst(rng: &mut Rng) -> Inst {
    match rng.below(27) {
        0 => Inst::Nop,
        1 => Inst::Hlt,
        2 => Inst::MovRR(reg(rng), reg(rng)),
        3 => Inst::MovRI(reg(rng), rng.next_u64()),
        4 => Inst::AluRR(alu(rng), reg(rng), reg(rng)),
        5 => Inst::AluRI(alu(rng), reg(rng), rng.next_u64()),
        6 => Inst::Neg(reg(rng)),
        7 => Inst::Not(reg(rng)),
        8 => Inst::CmpRR(reg(rng), reg(rng)),
        9 => Inst::CmpRI(reg(rng), rng.next_u64()),
        10 => Inst::Jmp(rng.next_u64() as i32),
        11 => Inst::Jcc(cond(rng), rng.next_u64() as i32),
        12 => Inst::Call(rng.next_u64() as i32),
        13 => Inst::CallR(reg(rng)),
        14 => Inst::JmpR(reg(rng)),
        15 => Inst::Ret,
        16 => Inst::Push(reg(rng)),
        17 => Inst::Pop(reg(rng)),
        18 => Inst::Load(width(rng), reg(rng), reg(rng), rng.next_u64() as i32),
        19 => Inst::Store(width(rng), reg(rng), rng.next_u64() as i32, reg(rng)),
        20 => Inst::In(reg(rng), rng.next_u64() as u16),
        21 => Inst::Out(rng.next_u64() as u16, reg(rng)),
        22 => Inst::Lgdt(rng.next_u64()),
        23 => {
            let cr = [CrReg::Cr0, CrReg::Cr3, CrReg::Cr4][rng.below(3)];
            if rng.bool(0.5) {
                Inst::MovCr(cr, reg(rng))
            } else {
                Inst::MovRCr(reg(rng), cr)
            }
        }
        24 => Inst::Wrmsr(rng.next_u64() as u32, reg(rng)),
        25 => {
            let mode = [JmpMode::Real16, JmpMode::Prot32, JmpMode::Long64][rng.below(3)];
            Inst::Ljmp(mode, rng.next_u64())
        }
        _ => Inst::Mark(rng.next_u64() as u8),
    }
}

/// A register name for generated source; data generation sticks to
/// `r0`–`r11`, leaving `r12` (data base), `r13` (code base), `fp`, and `sp`
/// with stable roles (but for the occasional wild `sp`).
fn data_reg(rng: &mut Rng) -> String {
    format!("r{}", rng.below(12))
}

const JCC_NAMES: [&str; 10] = [
    "je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae",
];

/// Label for a branch target: usually forward (guaranteeing progress),
/// occasionally backward (loops, bounded by the caller's step budget).
fn target_label(rng: &mut Rng, i: usize, n: usize) -> String {
    if i > 0 && rng.bool(0.1) {
        format!("L{}", rng.below(i))
    } else {
        format!("L{}", rng.range_u64(i as u64 + 1, n as u64 + 1))
    }
}

/// One random body line of a generated program.
fn random_line(rng: &mut Rng, i: usize, n: usize) -> String {
    match rng.below(100) {
        // Straight-line ALU mix — the bulk, so predecoded blocks get long.
        0..=29 => {
            let names = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr", "sar"];
            let op = names[rng.below(names.len())];
            if rng.bool(0.5) {
                format!("{op} {}, {}", data_reg(rng), data_reg(rng))
            } else {
                format!("{op} {}, {}", data_reg(rng), rng.below(1 << 16))
            }
        }
        // Divide / remainder; sometimes by zero to pin fault identity.
        30..=34 => {
            let op = if rng.bool(0.5) { "div" } else { "mod" };
            if rng.bool(0.8) {
                format!("{op} {}, {}", data_reg(rng), rng.range_u64(1, 1000))
            } else {
                format!("{op} {}, {}", data_reg(rng), data_reg(rng))
            }
        }
        35..=42 => match rng.below(4) {
            0 => format!(
                "mov {}, {}",
                data_reg(rng),
                // The assembler parses decimal literals as i64: stay positive.
                rng.next_u64() >> (1 + rng.below(60))
            ),
            1 => format!("mov {}, {}", data_reg(rng), data_reg(rng)),
            2 => format!("neg {}", data_reg(rng)),
            _ => format!("not {}", data_reg(rng)),
        },
        // cmp, often immediately followed by jcc at the next slot — but
        // also emitted alone so unfused cmp stays covered.
        43..=50 => {
            if rng.bool(0.5) {
                format!("cmp {}, {}", data_reg(rng), data_reg(rng))
            } else {
                format!("cmp {}, {}", data_reg(rng), rng.below(1 << 12))
            }
        }
        51..=60 => format!(
            "{} {}",
            JCC_NAMES[rng.below(JCC_NAMES.len())],
            target_label(rng, i, n)
        ),
        61..=63 => format!("jmp {}", target_label(rng, i, n)),
        64..=67 => format!("push {}", data_reg(rng)),
        68..=71 => format!("pop {}", data_reg(rng)),
        // Loads and stores through the data base register (usually in
        // bounds; the offset occasionally runs past the buffer).
        72..=79 => {
            let w = ["b", "w", "d", "q"][rng.below(4)];
            let off = rng.below(288);
            if rng.bool(0.5) {
                format!("load.{w} {}, [r12 + {off}]", data_reg(rng))
            } else {
                format!("store.{w} [r12 + {off}], {}", data_reg(rng))
            }
        }
        // Self-modifying store into the code region (r13 = start).
        80..=81 => format!("store.b [r13 + {}], {}", rng.below(64), data_reg(rng)),
        82..=83 => format!("mark {}", rng.below(256)),
        84..=85 => format!("out {}, {}", rng.below(4), data_reg(rng)),
        86 => format!("in {}, {}", data_reg(rng), rng.below(4)),
        87..=88 => format!("call {}", target_label(rng, i, n)),
        89 => "ret".to_string(),
        90 => format!("jmp {}", data_reg(rng)),
        91 => "hlt".to_string(),
        // Mostly-illegal system instructions: fault identity coverage.
        92..=93 => match rng.below(5) {
            0 => format!("lgdt {}", rng.below(1 << 16)),
            1 => format!("mov cr0, {}", data_reg(rng)),
            2 => format!("mov {}, cr0", data_reg(rng)),
            3 => format!("wrmsr 0xC0000080, {}", data_reg(rng)),
            _ => format!("ljmp32 {}", rng.below(1 << 16)),
        },
        // A wild stack pointer, so that the next stack access faults — in
        // either half of a fused pair too: near 0 (a push wraps), at the end
        // of a 1 MiB memory and of real mode's reach, or past protected
        // mode's.
        94 => {
            let near = [0, 1 << 20, 1 << 32][rng.below(3)];
            format!(
                "mov sp, {:#x}",
                (near + rng.below(16) as u64).saturating_sub(8)
            )
        }
        _ => format!("add {}, {}", data_reg(rng), rng.below(256)),
    }
}

/// A complete random program of `n` body instructions, as assembler source.
///
/// The prologue gives the stack, data, and code-base registers stable
/// values; the body is a labelled slot per instruction so branches can
/// target any slot; the epilogue halts and reserves a data buffer.
pub fn random_source(rng: &mut Rng, n: usize) -> String {
    source(rng, n, "")
}

/// [`random_source`] with the data buffer on a 4 KiB page of its own. The
/// program's own data stores then never re-dirty its code page, so whether a
/// cached block is revalidated after a snapshot restore depends only on what
/// the restore marked — the case the lifecycle scripts exist to pin.
pub fn random_source_paged(rng: &mut Rng, n: usize) -> String {
    source(rng, n, "  .align 4096\n")
}

fn source(rng: &mut Rng, n: usize, before_data: &str) -> String {
    use std::fmt::Write as _;
    let mut s = String::from(
        ".org 0x1000\n\
         start:\n  mov sp, 0xFF00\n  mov r12, data\n  mov r13, start\n",
    );
    for i in 0..n {
        let line = random_line(rng, i, n);
        let _ = writeln!(s, "L{i}:\n  {line}");
    }
    let _ = writeln!(s, "L{n}:\n  hlt\n{before_data}data:\n  .space 256");
    s
}

/// A counted loop — `add`/`sub r, imm` and one to three stores of mixed
/// widths, closed by `cmp` + `jcc` — in real, protected or long mode, as
/// assembler source for a `mem_size`-byte memory. The strides are negative,
/// zero or positive, the condition signed, unsigned or `ne`, the trip count
/// 0 to 10 000, and each store's base is set to cross, at some iteration,
/// the end of memory, the mode's identity window (long mode maps 2–4 MiB to
/// frame 0, so crossing it is legal but walks), the loop's own bytes or a
/// data buffer. Now and then the body gains an instruction the fast
/// engine's loop fast-forward does not take, or the back edge lands
/// mid-block.
pub fn random_loop_source(rng: &mut Rng, mem_size: u64) -> String {
    use std::fmt::Write as _;
    let mode = rng.below(3);
    let mut s = String::from(".org 0x1000\n mov sp, 0xFF00\n");
    if mode > 0 {
        s.push_str(" lgdt 0x200\n mov r0, cr0\n or r0, 1\n mov cr0, r0\n ljmp32 p\np:\n");
    }
    if mode == 2 {
        s.push_str(
            " mov r1, 0x10000\n mov r2, 0x11003\n store.q [r1 + 0], r2\n\
             \x20mov r2, 0x12003\n store.q [r1 + 0x1000], r2\n mov r2, 0x83\n\
             \x20store.q [r1 + 0x2000], r2\n store.q [r1 + 0x2008], r2\n mov cr3, r1\n\
             \x20mov r2, 0x20\n mov cr4, r2\n mov r2, 0x100\n wrmsr 0xC0000080, r2\n\
             \x20mov r2, 0x80000001\n mov cr0, r2\n ljmp64 l\nl:\n",
        );
    }
    // Past a page too (8 KiB, and three pages and 8 bytes), where a store's
    // writes skip pages.
    let strides: [i64; 13] = [0, 1, 2, 3, 8, 16, 4096, 12296, 8192, -1, -8, -4096, -8192];
    let stride = |rng: &mut Rng| strides[rng.below(strides.len())] as u64;
    // The counter: `trips` turns from `init` by `step`, then `cmp` to `end`;
    // the stores' bases are the registers after it.
    let (counter, step) = (rng.below(12), stride(rng));
    let trips = 10 << rng.below(11);
    let trips = rng.range_u64(0, trips).min(10_000);
    let init = [0, rng.below(100) as u64, 1 << 63, 0u64.wrapping_sub(16)][rng.below(4)];
    let end = init.wrapping_add(trips.wrapping_mul(step));
    let _ = writeln!(s, " mov r{counter}, {init:#x}");
    let mut body = vec![format!("add r{counter}, {step:#x}")];
    let identity: u64 = [1 << 20, 1 << 32, 2 << 20][mode];
    let (mem, id) = (mem_size.to_string(), identity.to_string());
    let targets = ["data", "lp", &mem, &id];
    let floors = [0x1000, 0x1000, mem_size, identity];
    for base in (1..rng.range_u64(2, 5) as usize).map(|i| (counter + i) % 12) {
        // `base` crosses `target`, or moves away from it, at iteration `at`.
        let (stride, t) = (stride(rng), rng.below(4));
        let (target, floor) = (targets[t], floors[t]);
        let stride_bytes = (stride as i64).unsigned_abs();
        let at = rng.range_u64(0, trips + 2).min(floor / stride_bytes.max(1));
        let delta = (rng.below(17) as u64).wrapping_sub(8 + at * stride_bytes);
        let _ = writeln!(s, " mov r{base}, {target}\n add r{base}, {delta:#x}");
        let w = ["b", "w", "d", "q"][rng.below(4)];
        let (off, src) = (rng.below(16), rng.below(12));
        body.push(format!("store.{w} [r{base} + {off}], r{src}"));
        body.push(format!("add r{base}, {stride:#x}"));
    }
    let extra: Vec<_> = "sub r{}, 3|add r{}, 1|mark 1|load.q r{}, [r12]|mul r{}, 3"
        .split('|')
        .collect();
    for _ in 0..rng.below(3) {
        let kinds = if rng.bool(0.8) { 2 } else { extra.len() };
        let pick = extra[rng.below(kinds)];
        body.push(pick.replace("{}", &rng.below(12).to_string()));
    }
    for i in (1..body.len()).rev() {
        body.swap(i, rng.below(i + 1));
    }
    let back = usize::from(rng.bool(0.1)) * rng.below(body.len());
    s.push_str("lp:\n");
    for (i, line) in body.iter().enumerate() {
        let _ = writeln!(s, "{}  {line}", if i == back { "back:\n" } else { "" });
    }
    // Mostly a condition that holds for `trips` turns; now and then any.
    let toward = [["jne", "jl", "jb"], ["jne", "jg", "ja"]][usize::from((step as i64) < 0)];
    let cond = [toward[rng.below(3)], JCC_NAMES[rng.below(10)]][usize::from(rng.bool(0.4))];
    let _ = writeln!(s, "  cmp r{counter}, {end:#x}\n  {cond} back");
    s.push_str("  hlt\ndata:\n  .space 256\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_sources_assemble() {
        let mut rng = Rng::seeded(7);
        for _ in 0..32 {
            let src = random_source(&mut rng, 40);
            crate::asm::assemble(&src).expect("generated program must assemble");
        }
    }

    #[test]
    fn random_insts_cover_every_form_eventually() {
        let mut rng = Rng::seeded(11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4096 {
            seen.insert(std::mem::discriminant(&random_inst(&mut rng)));
        }
        // 27 generator arms over 28 Inst variants (MovCr/MovRCr share one).
        assert!(seen.len() >= 28, "only {} variants seen", seen.len());
    }
}
