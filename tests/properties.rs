//! Property-style tests over the core invariants.
//!
//! The container image carries no external crates, so instead of
//! `proptest` these run each property over many inputs drawn from the
//! repository's seeded PRNG (`vclock::rng::Rng`) — deterministic across
//! runs, shrinking traded for a printed failing seed/case.

use virtines::vclock::rng::Rng;
use virtines::visa::inst::{Alu, Cond, CrReg, Inst, JmpMode, Reg, Width};
use virtines::visa::mem::Memory;

fn arb_reg(r: &mut Rng) -> Reg {
    Reg(r.below(16) as u8)
}

fn arb_alu(r: &mut Rng) -> Alu {
    [
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
    ][r.below(11)]
}

fn arb_cond(r: &mut Rng) -> Cond {
    [
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
    ][r.below(10)]
}

fn arb_width(r: &mut Rng) -> Width {
    [Width::B, Width::W, Width::D, Width::Q][r.below(4)]
}

fn arb_cr(r: &mut Rng) -> CrReg {
    [CrReg::Cr0, CrReg::Cr3, CrReg::Cr4][r.below(3)]
}

fn arb_i32(r: &mut Rng) -> i32 {
    r.next_u64() as u32 as i32
}

fn arb_inst(r: &mut Rng) -> Inst {
    match r.below(27) {
        0 => Inst::Nop,
        1 => Inst::Hlt,
        2 => Inst::Ret,
        3 => Inst::MovRR(arb_reg(r), arb_reg(r)),
        4 => Inst::MovRI(arb_reg(r), r.next_u64()),
        5 => Inst::AluRR(arb_alu(r), arb_reg(r), arb_reg(r)),
        6 => Inst::AluRI(arb_alu(r), arb_reg(r), r.next_u64()),
        7 => Inst::Neg(arb_reg(r)),
        8 => Inst::Not(arb_reg(r)),
        9 => Inst::CmpRR(arb_reg(r), arb_reg(r)),
        10 => Inst::CmpRI(arb_reg(r), r.next_u64()),
        11 => Inst::Jmp(arb_i32(r)),
        12 => Inst::Jcc(arb_cond(r), arb_i32(r)),
        13 => Inst::Call(arb_i32(r)),
        14 => Inst::CallR(arb_reg(r)),
        15 => Inst::JmpR(arb_reg(r)),
        16 => Inst::Push(arb_reg(r)),
        17 => Inst::Pop(arb_reg(r)),
        18 => Inst::Load(arb_width(r), arb_reg(r), arb_reg(r), arb_i32(r)),
        19 => Inst::Store(arb_width(r), arb_reg(r), arb_i32(r), arb_reg(r)),
        20 => Inst::In(arb_reg(r), r.next_u64() as u16),
        21 => Inst::Out(r.next_u64() as u16, arb_reg(r)),
        22 => Inst::Lgdt(r.next_u64()),
        23 => Inst::MovCr(arb_cr(r), arb_reg(r)),
        24 => Inst::MovRCr(arb_reg(r), arb_cr(r)),
        25 => {
            let m = if r.bool(0.5) {
                JmpMode::Prot32
            } else {
                JmpMode::Long64
            };
            Inst::Ljmp(m, r.next_u64())
        }
        _ => Inst::Mark(r.next_u64() as u8),
    }
}

/// Instruction encoding round-trips through decode for arbitrary
/// instruction streams, and lengths are consistent.
#[test]
fn inst_encode_decode_round_trip() {
    let mut rng = Rng::seeded(0x15a);
    for case in 0..300 {
        let insts: Vec<Inst> = (0..rng.below(39) + 1).map(|_| arb_inst(&mut rng)).collect();
        let mut blob = Vec::new();
        for i in &insts {
            i.encode(&mut blob);
        }
        let mut off = 0;
        for expected in &insts {
            let (got, len) = Inst::decode(&blob[off..]).expect("decode");
            assert_eq!(&got, expected, "case {case}");
            assert_eq!(len, expected.len(), "case {case}");
            off += len as usize;
        }
        assert_eq!(off, blob.len(), "case {case}");
    }
}

/// Memory writes are always covered by the dirty extent: after any write
/// sequence, clearing produces all-zero memory.
#[test]
fn dirty_extent_covers_all_writes() {
    let mut rng = Rng::seeded(0xd1e7);
    for case in 0..200 {
        let mut m = Memory::new(4096);
        for _ in 0..rng.below(32) {
            let len = rng.below(63) + 1;
            let data = rng.bytes(len);
            let addr = rng.range_u64(0, 4000).min(4096 - data.len() as u64);
            m.write_bytes(addr, &data).expect("in bounds");
        }
        m.clear();
        assert!(
            m.as_slice().iter().all(|&b| b == 0),
            "case {case}: clear left residue"
        );
        assert!(m.is_clean(), "case {case}");
    }
}

/// Sparse snapshots restore the exact memory contents regardless of what
/// the shell contained before.
#[test]
fn sparse_snapshot_total_restore() {
    let mut rng = Rng::seeded(0x54a9);
    for case in 0..200 {
        let mut m = Memory::new(2048);
        for _ in 0..rng.below(24) + 1 {
            let addr = rng.range_u64(0, 2000).min(2048 - 8);
            m.write(addr, Width::Q, rng.next_u64()).expect("write");
        }
        let full = m.as_slice().to_vec();
        let image = m.snapshot_sparse();

        let mut shell = Memory::new(2048);
        for _ in 0..rng.below(24) {
            let addr = rng.range_u64(0, 2000).min(2048 - 8);
            shell.write(addr, Width::Q, rng.next_u64()).expect("write");
        }
        shell.restore_sparse(&image);
        assert_eq!(shell.as_slice(), full.as_slice(), "case {case}");
    }
}

/// Argument marshalling is a faithful little-endian encoding.
#[test]
fn marshalling_round_trips() {
    let mut rng = Rng::seeded(0xa6);
    for _ in 0..200 {
        let args: Vec<i64> = (0..rng.below(8)).map(|_| rng.next_u64() as i64).collect();
        let bytes = virtines::vcc::marshal_args(&args);
        assert_eq!(bytes.len(), args.len() * 8);
        for (i, a) in args.iter().enumerate() {
            let got = i64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
            assert_eq!(got, *a);
        }
    }
}

/// The guest base64 implementation agrees with the host reference on
/// arbitrary inputs (executed natively for speed).
#[test]
fn guest_base64_matches_reference() {
    static SRC: &str = r#"
int b64_main() {
    char buf[512];
    int n = vget_data(buf, 512);
    char out[1024];
    int m = base64_encode(buf, n, out);
    vreturn_data(out, m);
    vexit(0);
    return 0;
}
"#;
    let v = virtines::vcc::compile_raw(SRC, "b64_main", &virtines::vcc::CompileOptions::default())
        .expect("compile");
    let mut rng = Rng::seeded(0xb64);
    for case in 0..60 {
        let len = rng.below(199) + 1;
        let data = rng.bytes(len);
        let expected = virtines::vjs::base64_ref(&data);
        let clock = virtines::vclock::Clock::new();
        let kernel = virtines::hostsim::HostKernel::new(clock, None);
        let runner = virtines::wasp::NativeRunner::new(kernel);
        let out = runner.run(
            &v.image,
            v.image.entry,
            &[],
            virtines::wasp::Invocation::with_payload(data.clone()),
            v.mem_size,
        );
        assert!(
            matches!(out.exit, virtines::wasp::NativeExit::Exited(0)),
            "case {case}: {:?}",
            out.exit
        );
        assert_eq!(out.invocation.result, expected, "case {case}");
    }
}

/// Compiled mini-C arithmetic agrees with Rust evaluation for random
/// operand values (executed in real virtines).
#[test]
fn compiled_arithmetic_matches_rust() {
    let src = "
virtine int calc(int a, int b, int c) {
    int t1 = a * b + c;
    int t2 = (a - b) / c;
    int t3 = (a & 255) ^ (b | 3);
    int t4 = a % c;
    if (t1 > t2) {
        return t1 + t3 - t4;
    }
    return t2 * 2 + t3 + t4;
}
";
    let unit = virtines::vcc::compile(src).expect("compile");
    let wasp = virtines::wasp::Wasp::new_kvm_default();
    let id = unit.virtine("calc").unwrap().register(&wasp).unwrap();
    let mut rng = Rng::seeded(0xca1c);
    for case in 0..12 {
        let a = rng.range_u64(0, 2000) as i64 - 1000;
        let b = rng.range_u64(0, 2000) as i64 - 1000;
        let c = rng.range_u64(1, 100) as i64;
        let expected = {
            let t1 = a.wrapping_mul(b).wrapping_add(c);
            let t2 = (a - b) / c;
            let t3 = (a & 255) ^ (b | 3);
            let t4 = a % c;
            if t1 > t2 {
                t1 + t3 - t4
            } else {
                t2 * 2 + t3 + t4
            }
        };
        let out = virtines::vcc::invoke(&wasp, id, &[a, b, c]).expect("invoke");
        assert!(out.exit.is_normal(), "case {case}: {:?}", out.exit);
        assert_eq!(out.ret as i64, expected, "case {case}: calc({a},{b},{c})");
    }
}

/// Guest AES agrees with the host reference for random keys/plaintexts.
#[test]
fn guest_aes_matches_reference_random() {
    let v = virtines::vaes::compile_aes_virtine().expect("compile");
    let mut rng = Rng::seeded(0xae5);
    for case in 0..12 {
        let mut key = [0u8; 16];
        let mut iv = [0u8; 16];
        key.copy_from_slice(&rng.bytes(16));
        iv.copy_from_slice(&rng.bytes(16));
        let blocks = rng.below(3) + 1;
        let seed = rng.next_u64() as u8;
        let data: Vec<u8> = (0..blocks * 16)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect();
        let mut expected = data.clone();
        virtines::vaes::cbc_encrypt(&key, &iv, &mut expected);

        let clock = virtines::vclock::Clock::new();
        let kernel = virtines::hostsim::HostKernel::new(clock, None);
        let runner = virtines::wasp::NativeRunner::new(kernel);
        let out = runner.run(
            &v.image,
            v.image.entry,
            &[],
            virtines::wasp::Invocation::with_payload(virtines::vaes::payload(&key, &iv, &data)),
            v.mem_size,
        );
        assert!(
            matches!(out.exit, virtines::wasp::NativeExit::Exited(0)),
            "case {case}: {:?}",
            out.exit
        );
        assert_eq!(out.invocation.result, expected, "case {case}");
    }
}
