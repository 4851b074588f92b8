//! Differential tests: the predecoded fast engine must be byte- and
//! cycle-identical to the reference interpreter.

use vclock::rng::Rng;
use vclock::{Clock, Cycles};
use visa::cpu::{CpuConfig, CpuExit, Engine, Machine};
use visa::diff::Step;
use visa::{assemble, corpus, diff};

const MEM: usize = 1 << 20;

fn check(src: &str, budget: u64) {
    let img = assemble(src).expect("assemble");
    if let Err(d) = diff::compare(&img, MEM, budget, 0xD1FF) {
        panic!("{d}\nsource:\n{src}");
    }
}

#[test]
fn random_programs_are_engine_identical() {
    let mut rng = Rng::seeded(0x5EED_0001);
    for case in 0..200 {
        let src = corpus::random_source(&mut rng, 60);
        let img = assemble(&src).expect("assemble");
        if let Err(d) = diff::compare(&img, MEM, 20_000, case) {
            panic!("case {case}: {d}\nsource:\n{src}");
        }
    }
}

#[test]
fn longer_random_programs_with_tiny_budgets() {
    // Small budgets stress the StepLimit boundary, including budgets that
    // land in the middle of a fused superinstruction.
    let mut rng = Rng::seeded(0x5EED_0002);
    for case in 0..50 {
        let src = corpus::random_source(&mut rng, 30);
        let img = assemble(&src).expect("assemble");
        for budget in [1, 2, 3, 5, 7, 11, 17] {
            if let Err(d) = diff::compare(&img, MEM, budget, case) {
                panic!("case {case} budget {budget}: {d}\nsource:\n{src}");
            }
        }
    }
}

#[test]
fn fib_loop_is_engine_identical() {
    check(
        ".org 0x100\n\
         \x20 mov sp, 0xF000\n\
         \x20 mov r0, 0\n mov r1, 1\n mov r2, 25\n\
         loop:\n\
         \x20 mov r3, r0\n add r3, r1\n mov r0, r1\n mov r1, r3\n\
         \x20 sub r2, 1\n cmp r2, 0\n jne loop\n\
         \x20 mark 1\n hlt\n",
        100_000,
    );
}

#[test]
fn call_ret_and_stack_are_engine_identical() {
    check(
        ".org 0x100\n\
         \x20 mov sp, 0xF000\n\
         \x20 mov r0, 5\n\
         \x20 call double\n\
         \x20 call double\n\
         \x20 hlt\n\
         double:\n\
         \x20 push fp\n mov fp, sp\n\
         \x20 add r0, r0\n\
         \x20 pop fp\n ret\n",
        100_000,
    );
}

#[test]
fn faults_are_engine_identical() {
    // Divide by zero, decode fault, out-of-mode access: all must match in
    // kind, payload, clock, and retired count.
    check(
        ".org 0x100\n mov r0, 9\n mov r1, 0\n div r0, r1\n hlt\n",
        100,
    );
    check(
        ".org 0x100\n mov r0, 77\n jmp r0\n .dq 0xFFFFFFFFFFFFFFFF\n",
        100,
    );
    check(
        ".org 0x100\n mov r0, 2000000\n load.q r1, [r0 + 0]\n hlt\n",
        100,
    );
}

// ---------------------------------------------------------------------------
// Early block exits. The fast engine charges a block's static cycles and
// retired count once, at its end, or through the instruction it stopped in;
// a `mark` adds its own prefix to the clock. Every case below stops a block
// early behind a `mark` in the same block, and both engines must agree on
// the clock, the retired count, `pc` and the marks.

/// Runs `src` on both engines in `mem` bytes of memory, demands identity,
/// and returns the fast engine's fault.
fn early_exit(src: &str, mem: usize) -> visa::Fault {
    let img = assemble(src).expect("assemble");
    if let Err(d) = diff::compare(&img, mem, 1_000, 0xD1FF) {
        panic!("{d}\nsource:\n{src}");
    }
    let fast = diff::run_one(Engine::Fast, &img, mem, 1_000, 0xD1FF);
    assert!(!fast.marks.is_empty(), "no mark ran:\n{src}");
    match &fast.events[..] {
        [diff::Event::Fault(fault)] => fault.clone(),
        other => panic!("expected one fault, got {other:?}:\n{src}"),
    }
}

/// Real mode from 0x100: `setup`, a `mark`, then `body`, all one block.
fn real16(setup: &str, body: &str) -> String {
    format!(
        ".org 0x100\n mov sp, 0xF000\n mov r1, 5\n mov r4, 0x3000\n{setup}\n\
         \x20 mark 1\n add r0, 1\n{body}\n add r0, 2\n hlt\n"
    )
}

/// Protected mode (limit 4 GiB, past the 1 MiB memory), likewise.
fn prot32(setup: &str, body: &str) -> String {
    format!(
        ".org 0x1000\n .equ GDT, 0x200\n lgdt GDT\n mov r1, cr0\n or r1, 1\n mov cr0, r1\n\
         \x20 ljmp32 prot\n prot:\n mov sp, 0xF000\n mov r1, 5\n mov r4, 0x3000\n{setup}\n\
         \x20 mark 1\n add r0, 1\n\
         {body}\n add r0, 2\n hlt\n"
    )
}

/// Which limit a guest access fault crossed: the mode's reach or memory's.
fn crossed(fault: &visa::Fault) -> &'static str {
    match fault {
        visa::Fault::AddressBeyondMode { .. } => "mode",
        visa::Fault::PhysOutOfBounds { .. } => "memory",
        _ => "neither",
    }
}

#[test]
fn a_fault_in_either_half_of_a_fused_pair_charges_through_that_half() {
    // Real mode's 1 MiB reach is the test memory's size, so past one is past
    // the other; a 64 KiB memory, or protected mode, separates them. `pop` +
    // `push` cannot fault in its second half (the push writes where the pop
    // read), nor can `pop` + `alu`; `mov` + `pop` and `alu` + `call` fault
    // only in theirs.
    const SMALL: usize = 64 << 10;
    let first_half = [
        ("mov sp, 0x100000", "pop r2\n push r1", MEM, "mode"),
        ("mov sp, 0x10000", "pop r2\n push r1", SMALL, "memory"),
        ("mov sp, 0xFFFFC", "pop r2\n add r3, r1", MEM, "mode"),
        ("mov sp, 0x10004", "pop r2\n add r3, r1", SMALL, "memory"),
        ("mov sp, 0", "push r1\n load.q r2, [r4 + 8]", MEM, "mode"),
        (
            "mov sp, 0x10008",
            "push r1\n load.q r2, [r4 + 8]",
            SMALL,
            "memory",
        ),
    ];
    let second_half = [
        (
            "mov r4, 0xFFFFC",
            "push r1\n load.q r2, [r4 + 0]",
            MEM,
            "mode",
        ),
        (
            "mov r4, 0xFFFC",
            "push r1\n load.q r2, [r4 + 0]",
            SMALL,
            "memory",
        ),
        ("mov sp, 0x100000", "mov r2, r1\n pop r3", MEM, "mode"),
        ("mov sp, 0x10000", "mov r2, r1\n pop r3", SMALL, "memory"),
        ("mov sp, 4", "add r1, 3\n call 0x100", MEM, "mode"),
        ("mov sp, 0x10008", "add r1, 3\n call 0x100", SMALL, "memory"),
    ];
    for (setup, pair, mem, limit) in first_half.into_iter().chain(second_half) {
        let src = real16(setup, pair);
        assert_eq!(crossed(&early_exit(&src, mem)), limit, "{src}");
    }
    // Protected mode: past its 4 GiB reach, and past memory inside it.
    for (setup, pair, limit) in [
        ("mov sp, 0x100000000", "pop r2\n push r1", "mode"),
        ("mov sp, 0x200000", "pop r2\n push r1", "memory"),
        (
            "mov sp, 0x100000004",
            "push r1\n load.q r2, [r4 + 8]",
            "mode",
        ),
        ("mov sp, 0x100000000", "mov r2, r1\n pop r3", "mode"),
        ("mov sp, 0x200000", "add r1, 3\n call 0x1000", "memory"),
    ] {
        let src = prot32(setup, pair);
        assert_eq!(crossed(&early_exit(&src, MEM)), limit, "{src}");
    }
}

#[test]
fn a_divide_by_zero_mid_block_charges_through_the_divide() {
    let src = real16("mov r3, 0", "mul r1, 3\n div r1, r3");
    assert!(matches!(
        early_exit(&src, MEM),
        visa::Fault::DivideByZero { .. }
    ));
}

#[test]
fn a_self_modifying_store_mid_block_charges_through_the_store() {
    // The store rewrites the immediate of the `add` right behind it, in the
    // same block: the block stops after the store, and the rest runs from the
    // new bytes.
    let src = ".org 0x100\n mov sp, 0xF000\n mov r5, patch\n mov r6, 9\n\
               \x20 mark 1\n add r0, 1\n store.b [r5 + 2], r6\n\
               patch:\n add r0, 1\n mark 2\n add r0, 2\n hlt\n";
    check(src, 1_000);
    let fast = diff::run_one(Engine::Fast, &assemble(src).unwrap(), MEM, 1_000, 1);
    assert_eq!(fast.state.regs[0], 1 + 9 + 2);
    assert_eq!(fast.marks.len(), 2);
}

#[test]
fn a_push_that_rewrites_the_load_fused_behind_it_runs_the_new_bytes() {
    // `push` + `load` dispatch as one pair, but the push's eight zero bytes
    // land on the load and the `nop` after it: the reference fetches eight
    // `nop`s there, and the pair must stop after its first half to do the
    // same instead of running the load it was decoded with.
    let src = ".org 0x1000\n mov sp, pair + 10\n mov r8, 0\n mov r3, 5\n mov r12, pair\n\
               pair:\n push r8\n load.q r3, [r12 + 0]\n nop\n hlt\n";
    let img = assemble(src).unwrap();
    let pair = img.label("pair").unwrap();
    let hlt = assemble(".org 0\n hlt\n").unwrap().bytes;
    assert_eq!(img.bytes[(pair + 10 - img.base) as usize..], hlt, "layout");
    check(src, 1_000);
    let fast = diff::run_one(Engine::Fast, &img, MEM, 1_000, 1);
    assert_eq!(fast.state.regs[3], 5, "ran the overwritten load");
    assert_eq!(fast.events, [diff::Event::Hlt]);
}

#[test]
fn a_long_mode_mark_after_a_walk_in_its_block_sees_the_walk() {
    // Virtual page 1 aliases frame 0. The load misses the TLB and walks,
    // ticking the clock in the middle of a cached block; the `mark` after it
    // must see that tick and only its own prefix of the block's static cost.
    let src = LONG_MODE_LOOP.replace(
        "long:\n",
        "long:\n\
         \x20 mov r1, PT_BASE + 0x2008\n mov r2, 0x83\n store.q [r1 + 0], r2\n\
         \x20 mov r1, 0x200000\n\
         \x20 add r0, 1\n load.q r2, [r1 + 0x100]\n mark 7\n add r0, 1\n mark 8\n add r0, 1\n hlt\n",
    );
    check(&src, 10_000);
    let img = assemble(&src).unwrap();
    let fast = diff::run_one(Engine::Fast, &img, MEM, 10_000, 1);
    assert_eq!(fast.state.mode, visa::Mode::Long64);
    let walk = vclock::costs::GUEST_TLB_MISS_WALK + 3 * vclock::costs::GUEST_MEM;
    let [.., (7, at7), (8, at8)] = fast.marks[..] else {
        panic!("{:?}", fast.marks);
    };
    assert_eq!((at8 - at7).get(), vclock::costs::GUEST_ALU);
    assert!(at7.get() > walk);
}

#[test]
fn self_modifying_code_is_engine_identical() {
    // Overwrite the `add r0, 1` (0x20 opcode region) in the loop body with
    // a nop-like encoding mid-run; both engines must see the new bytes.
    check(
        ".org 0x100\n\
         \x20 mov sp, 0xF000\n\
         \x20 mov r5, patch\n\
         \x20 mov r6, 0\n\
         loop:\n\
         patch:\n\
         \x20 add r0, 1\n\
         \x20 add r6, 1\n\
         \x20 cmp r6, 6\n\
         \x20 je done\n\
         \x20 cmp r6, 3\n\
         \x20 jne loop\n\
         \x20 store.b [r5 + 0], r6\n\
         \x20 jmp loop\n\
         done:\n\
         \x20 mark 2\n\
         \x20 hlt\n",
        100_000,
    );
}

#[test]
fn io_round_trips_are_engine_identical() {
    check(
        ".org 0x100\n\
         \x20 mov sp, 0xF000\n\
         \x20 in r0, 1\n\
         \x20 and r0, 0xFF\n\
         \x20 out 2, r0\n\
         \x20 in r1, 1\n\
         \x20 add r1, r0\n\
         \x20 out 2, r1\n\
         \x20 hlt\n",
        100_000,
    );
}

#[test]
fn mode_bringup_is_engine_identical() {
    // The full real → protected → long bring-up: system instructions run on
    // the reference path inside the fast engine, and long mode falls back
    // entirely — clock and state must still match exactly.
    let src = "\
        .org 0x1000\n\
        .equ GDT, 0x200\n\
        .equ PT_BASE, 0x10000\n\
        start:\n\
        \x20 mov sp, 0xF000\n\
        \x20 lgdt GDT\n\
        \x20 mov r0, cr0\n\
        \x20 or r0, 1\n\
        \x20 mov cr0, r0\n\
        \x20 ljmp32 prot\n\
        prot:\n\
        \x20 mov r1, PT_BASE\n\
        \x20 mov r2, PT_BASE + 0x1000\n\
        \x20 or r2, 1\n\
        \x20 store.q [r1 + 0], r2\n\
        \x20 mov r3, PT_BASE + 0x2000\n\
        \x20 or r3, 1\n\
        \x20 mov r4, PT_BASE + 0x1000\n\
        \x20 store.q [r4 + 0], r3\n\
        \x20 mov r5, 0x83\n\
        \x20 mov r6, PT_BASE + 0x2000\n\
        \x20 store.q [r6 + 0], r5\n\
        \x20 mov r7, PT_BASE\n\
        \x20 mov cr3, r7\n\
        \x20 mov r8, cr4\n\
        \x20 or r8, 0x20\n\
        \x20 mov cr4, r8\n\
        \x20 mov r9, 0x100\n\
        \x20 wrmsr 0xC0000080, r9\n\
        \x20 mov r10, cr0\n\
        \x20 or r10, 0x80000000\n\
        \x20 mov cr0, r10\n\
        \x20 ljmp64 long\n\
        long:\n\
        \x20 mov r0, 40\n\
        \x20 add r0, 2\n\
        \x20 mark 3\n\
        \x20 hlt\n";
    check(src, 100_000);
}

#[test]
fn fast_engine_is_default_and_env_overridable() {
    // The default is fixed; `Cpu::set_engine` is the one override.
    let img = assemble(".org 0x100\n mov r0, 1\n hlt\n").expect("assemble");
    let mut m = Machine::new(Clock::new(), CpuConfig::default(), MEM, img.entry);
    m.load_image(&img);
    assert_eq!(m.cpu.engine(), Engine::Fast);
    assert_eq!(m.run(10).unwrap(), CpuExit::Hlt);
}

#[test]
fn fast_engine_populates_block_and_fusion_counters() {
    let before = visa::pred::counters();
    let img = assemble(
        ".org 0x100\n mov sp, 0xF000\n mov r0, 0\n\
         loop:\n add r0, 1\n cmp r0, 50\n jne loop\n hlt\n",
    )
    .expect("assemble");
    let mut m = Machine::new(Clock::new(), CpuConfig::default(), MEM, img.entry);
    m.load_image(&img);
    m.cpu.set_engine(Engine::Fast);
    assert_eq!(m.run(10_000).unwrap(), CpuExit::Hlt);
    let after = visa::pred::counters();
    assert!(after.blocks_built > before.blocks_built, "no blocks built");
    assert!(
        after.superinsts_fused > before.superinsts_fused,
        "cmp+jne did not fuse"
    );
    assert!(after.retired_fast > before.retired_fast);
}

#[test]
fn snapshot_restore_redecodes_from_restored_bytes() {
    // Build blocks, snapshot, mutate code, restore: the blocks survive the
    // restore, and the fast engine must still execute the restored bytes,
    // identically to the reference.
    let src = ".org 0x100\n mov sp, 0xF000\n mov r0, 0\n\
               loop:\n add r0, 7\n cmp r0, 70\n jne loop\n hlt\n";
    let img = assemble(src).expect("assemble");
    for engine in [Engine::Fast, Engine::Reference] {
        let mut m = Machine::new(Clock::new(), CpuConfig::default(), MEM, img.entry);
        m.load_image(&img);
        m.cpu.set_engine(engine);
        assert_eq!(m.run(10_000).unwrap(), CpuExit::Hlt);
        let snap_cpu = m.cpu.save_state();
        let snap_mem = m.mem.as_slice().to_vec();
        // Wreck the code, then restore and re-run from the entry point.
        m.mem.write_bytes(0x100, &[0xFF; 16]).unwrap();
        let mut restored = snap_cpu.clone();
        restored.pc = img.entry;
        restored.regs = [0; visa::Reg::COUNT];
        m.cpu.restore_state(&restored);
        m.mem.restore_from(&snap_mem);
        assert_eq!(m.run(10_000).unwrap(), CpuExit::Hlt);
        assert_eq!(m.cpu.reg(visa::Reg(0)), 70);
    }
}

#[test]
fn marks_observe_identical_mid_run_clocks() {
    let src = ".org 0x100\n mov sp, 0xF000\n mov r0, 0\n\
               loop:\n mark 9\n add r0, 1\n mul r0, 3\n div r0, 3\n\
               \x20 cmp r0, 40\n jl loop\n hlt\n";
    let img = assemble(src).expect("assemble");
    let fast = diff::run_one(Engine::Fast, &img, MEM, 100_000, 1);
    let reference = diff::run_one(Engine::Reference, &img, MEM, 100_000, 1);
    assert!(!fast.marks.is_empty());
    assert_eq!(fast.marks, reference.marks);
    assert_eq!(fast.clock, reference.clock);
    assert_ne!(fast.clock, Cycles(0));
}

#[test]
fn a_recycled_arena_slot_is_never_reached_through_its_old_pc() {
    // Every turn of `body`: the block at `body` patches its own `add`
    // immediate and is dropped; the block built next — from the instruction
    // after the store — takes over its arena slot; the `jl` then re-enters
    // `body`, whose bytes have changed. A front-cache pair left behind by
    // the drop would run the new block's instructions at the old one's pc,
    // skipping the `add` and the store.
    let src = ".org 0x1000\n\
         \x20 mov sp, 0xF000\n mov r5, body\n mov r6, 9\n mov r0, 0\n mov r7, 0\n\
         \x20 jmp body\n\
         body:\n\
         \x20 add r0, 1\n\
         \x20 store.b [r5 + 2], r6\n\
         \x20 add r7, 1\n\
         \x20 cmp r7, 3\n jl body\n\
         \x20 hlt\n";
    check(src, 10_000);
    let img = assemble(src).expect("assemble");
    let fast = diff::run_one(Engine::Fast, &img, MEM, 10_000, 1);
    assert_eq!(fast.state.regs[0], 1 + 9 + 9);
}

#[test]
fn a_pc_above_the_mode_limit_never_reaches_a_cached_block() {
    // `jmp r` loads all 64 bits into pc. Each target below is out of the
    // mode's range — the reference faults fetching from it — but names a
    // cached block under a lookup that looks at fewer bits than that: the
    // first is `body` with a bit set above any address a block can have,
    // the second is the value an empty front-cache entry holds.
    let prot32 = ".org 0x1000\n\
         .equ GDT, 0x200\n\
         \x20 mov sp, 0xF000\n\
         \x20 lgdt GDT\n\
         \x20 mov r1, cr0\n or r1, 1\n mov cr0, r1\n\
         \x20 ljmp32 prot\n\
         prot:\n\
         \x20 call body\n call body\n\
         \x20 mov r1, body + 0x100000000000000\n jmp r1\n\
         body:\n\
         \x20 add r0, 7\n ret\n";
    let real16 = ".org 0x1000\n\
         \x20 mov sp, 0xF000\n\
         \x20 call body\n call body\n\
         \x20 mov r1, -1\n jmp r1\n\
         body:\n\
         \x20 add r0, 7\n ret\n";
    for (src, mode) in [(prot32, visa::Mode::Prot32), (real16, visa::Mode::Real16)] {
        check(src, 1_000);
        let fast = diff::run_one(Engine::Fast, &assemble(src).unwrap(), MEM, 1_000, 1);
        assert_eq!(fast.state.regs[0], 14);
        let [diff::Event::Fault(visa::Fault::AddressBeyondMode { vaddr, mode: m })] =
            fast.events[..]
        else {
            panic!("{:?}", fast.events);
        };
        assert!(vaddr >> 56 != 0 && m == mode);
    }
}

/// The Figure 3/9 recursive kernel: call/ret, stack traffic and a fused
/// pair of every shape hand-written code produces.
const FIB: &str = ".org 0x8000\n\
     \x20 mov sp, 0x8000\n mov r1, 10\n call fib\n hlt\n\
     fib:\n\
     \x20 cmp r1, 2\n jl .base\n\
     \x20 push r1\n sub r1, 1\n call fib\n\
     \x20 pop r1\n push r0\n sub r1, 2\n call fib\n\
     \x20 pop r2\n add r0, r2\n ret\n\
     .base:\n\
     \x20 mov r0, r1\n ret\n";

#[test]
fn every_budget_stops_and_resumes_identically() {
    // The tail of a step budget runs on the reference path: whatever `k`
    // is — the middle of a block, either half of a fused pair — both
    // engines stop on the same instruction, and resuming ends the same way.
    let images = [assemble(FIB).expect("assemble")];
    let run = |steps: &[Step]| {
        diff::compare_script(&images, 64 * 1024, steps, 0xD1FF).unwrap_or_else(|d| panic!("{d}"))
    };
    let whole = run(&[Step::Load(0), Step::Run(100_000)]).pop().unwrap();
    assert_eq!(whole.state.regs[0], 55);
    for k in 1..=300 {
        let trace = run(&[Step::Load(0), Step::Run(k), Step::Run(100_000)]);
        assert_eq!(trace[1].retired, k);
        assert_eq!(trace[1].events, [diff::Event::StepLimit]);
        assert_eq!(trace[2].state, whole.state, "budget {k}");
        assert_eq!(trace[2].retired, whole.retired, "budget {k}");
        // Entering the guest a second time charges the first instruction's
        // pipeline fill again, and nothing else.
        let reentry = Cycles(vclock::costs::GUEST_FIRST_INSTRUCTION);
        assert_eq!(trace[2].clock, whole.clock + reentry, "budget {k}");
    }
}

// ---------------------------------------------------------------------------
// Shell-lifecycle scripts: the block cache outlives every step below, so
// each scenario is one way a block could outlive the bytes it was decoded
// from. Both engines are compared after *every* step.

/// Runs `steps` over the assembled `srcs` on both engines, demands
/// identity at every observation point, and returns the fast engine's trace
/// for scenario-specific checks.
fn check_script(srcs: &[&str], steps: &[Step]) -> Vec<diff::Outcome> {
    let images: Vec<_> = srcs
        .iter()
        .map(|src| assemble(src).expect("assemble"))
        .collect();
    diff::compare_script(&images, MEM, steps, 0xD1FF).unwrap_or_else(|d| panic!("{d}"))
}

/// Counts to 20 in steps of `add r0, 1`, patches that immediate to 7 (a
/// self-modifying store into a block that is cached and hot), counts on to
/// 50 — overshooting to 55 — and halts.
const SELF_PATCHING: &str = ".org 0x1000\n\
     \x20 mov sp, 0xF000\n mov r5, body\n mov r6, 7\n mov r0, 0\n mov r7, 0\n\
     body:\n\
     \x20 add r0, 1\n\
     \x20 cmp r7, 1\n je patched\n\
     \x20 cmp r0, 20\n jl body\n\
     \x20 mov r7, 1\n\
     \x20 store.b [r5 + 2], r6\n\
     patched:\n\
     \x20 cmp r0, 50\n jl body\n\
     \x20 hlt\n";

#[test]
fn restore_undoes_a_self_modifying_store_into_cached_code() {
    let trace = check_script(
        &[SELF_PATCHING],
        &[
            Step::Load(0),
            Step::Run(12),
            Step::Snapshot,
            Step::Run(10_000),
            Step::Restore(0),
            Step::Run(10_000),
            Step::RestoreDelta,
            Step::Run(10_000),
        ],
    );
    // Each re-armed run replays the first one exactly: same final state,
    // same instruction count, same number of cycles.
    let cycles = |i: usize| trace[i].clock - trace[i - 1].clock;
    for rerun in [5, 7] {
        assert_eq!(trace[rerun].state, trace[3].state);
        assert_eq!(trace[rerun].mem, trace[3].mem);
        assert_eq!(cycles(rerun), cycles(3));
    }
    assert_eq!(trace[3].state.regs[0], 55);
}

#[test]
fn delta_rearm_with_and_without_a_code_page_in_the_dirty_set() {
    // The loop's data and stack live on pages 3 and 15, its code on page 1.
    let src = ".org 0x1000\n\
         \x20 mov sp, 0xF000\n mov r12, 0x3000\n mov r0, 0\n\
         loop:\n\
         \x20 add r0, 5\n push r0\n store.q [r12 + 8], r0\n pop r1\n\
         \x20 cmp r0, 100\n jl loop\n\
         \x20 hlt\n";
    let img = assemble(src).expect("assemble");
    // The `add r0, 5` immediate: third instruction's third byte onward.
    let add_imm = img.base
        + img
            .bytes
            .windows(2)
            .position(|w| w == [0, 5])
            .map(|at| at as u64 + 1)
            .expect("add r0, 5 encodes its register then its immediate");
    let trace = check_script(
        &[src],
        &[
            Step::Load(0),
            Step::Run(3),
            Step::Snapshot,
            // Dirty set = data + stack pages only: nothing to revalidate.
            Step::Run(10_000),
            Step::RestoreDelta,
            Step::Run(10_000),
            // Dirty set includes the code page: the host rewrites the
            // immediate, the guest runs the patched loop (caching it), and
            // the delta re-arm must bring the original back.
            Step::RestoreDelta,
            Step::Poke(add_imm, vec![50]),
            Step::Run(10_000),
            Step::RestoreDelta,
            Step::Run(10_000),
        ],
    );
    let retired = |i: usize| trace[i].retired - trace[i - 1].retired;
    assert_eq!(trace[3].state.regs[0], 100);
    assert_eq!(trace[5].state, trace[3].state);
    assert_eq!(trace[8].state.regs[0], 100, "patched loop: two steps of 50");
    assert!(retired(8) < retired(5));
    assert_eq!(trace[10].state, trace[3].state, "original loop is back");
    assert_eq!(retired(10), retired(5));
}

#[test]
fn a_block_straddling_a_4k_boundary_revalidates_when_only_its_second_page_is_restored() {
    // `f` starts 12 bytes before 0x3000 and runs past it as one block.
    let src = ".org 0x1000\n\
         \x20 mov sp, 0xF000\n\
         \x20 call f\n call f\n hlt\n\
         \x20 .space 0x2FF4 - 0x1000 - 21\n\
         f:\n\
         \x20 mov r1, 1\n mov r2, 2\n mov r3, 3\n add r0, r3\n ret\n";
    let img = assemble(src).expect("assemble");
    let f = 0x2FF4u64;
    assert_eq!(
        img.bytes[(f - img.base) as usize..][..2],
        assemble(".org 0\n mov r1, 1\n").unwrap().bytes[..2],
        "f must sit where the test thinks it does"
    );
    // `mov r3, 3` is the third 10-byte instruction: wholly on page 3.
    let r3_imm = f + 20 + 2;
    assert!(f / 4096 == 2 && r3_imm / 4096 == 3);
    let trace = check_script(
        &[src],
        &[
            Step::Load(0),
            Step::Run(1),
            Step::Snapshot,
            Step::Poke(r3_imm, vec![40]),
            Step::Run(1_000),
            // Pages 3 (the poke) and 15 (the stack) come back; page 2, where
            // the block starts and under which it is keyed, is untouched.
            Step::RestoreDelta,
            Step::Run(1_000),
        ],
    );
    assert_eq!(trace[4].state.regs[0], 80);
    assert_eq!(trace[6].state.regs[0], 6);
}

#[test]
fn a_clean_revalidates_blocks_on_a_wiped_page_the_next_load_does_not_rewrite() {
    // The image is a trampoline on page 1 into a routine the host pokes onto
    // page 5, where no image load reaches. After the clean, page 5 is zeroes
    // again and the reloaded trampoline jumps into them; the routine's block,
    // cached and hot from the first run, may only be found stale if the wipe
    // marked the page it zeroed — the load will not do it for it.
    let src = ".org 0x1000\n mov sp, 0xF000\n mov r0, 0\n mov r1, 0x5000\n jmp r1\n";
    let routine = assemble(".org 0x5000\n add r0, 7\n add r0, 7\n hlt\n").unwrap();
    let trace = check_script(
        &[src],
        &[
            Step::Load(0),
            Step::Poke(0x5000, routine.bytes.clone()),
            Step::Run(100),
            Step::Clean(0x1000),
            Step::Load(0),
            Step::Run(100),
            // The same through a destroyed and re-created VM, which revives
            // the retired shell with its cache: the routine runs where it is
            // poked again, and is gone, with its page, after the next
            // re-create — its block came along and must be found stale.
            Step::Recreate(0x1000),
            Step::Load(0),
            Step::Poke(0x5000, routine.bytes),
            Step::Run(100),
            Step::Recreate(0x1000),
            Step::Load(0),
            Step::Run(100),
        ],
    );
    for ran in [2, 9] {
        assert_eq!(trace[ran].state.regs[0], 14);
        assert_eq!(trace[ran].events, [diff::Event::Hlt]);
    }
    for rerun in [5, 12] {
        assert_ne!(trace[rerun].state.regs[0], 14, "ran the wiped routine");
        assert!(trace[rerun].mem[0x5000..0x6000].iter().all(|&b| b == 0));
    }
}

#[test]
fn a_cache_revived_onto_a_page_the_next_image_rewrites_differently_re_decodes() {
    // Two images with one layout at one base and entry, differing only in
    // the loop's immediate. A re-created VM revives the retired shell with
    // the loop's cached blocks; loading the other image rewrites their page
    // with other bytes, so the loop must be decoded again from those.
    let program = |step: u64| {
        format!(
            ".org 0x1000\n mov sp, 0xF000\n mov r0, 0\n mov r1, 0\n\
             loop:\n add r0, {step}\n add r1, 1\n cmp r1, 20\n jl loop\n hlt\n"
        )
    };
    let (x, y) = (program(3), program(5));
    let trace = check_script(
        &[&x, &y],
        &[
            Step::Load(0),
            Step::Run(1_000),
            Step::Recreate(0x1000),
            Step::Load(1),
            Step::Run(1_000),
            Step::Recreate(0x1000),
            Step::Load(0),
            Step::Run(1_000),
        ],
    );
    let ran = |i: usize| (trace[i].state.regs[0], trace[i].events.clone());
    assert_eq!(ran(1), (60, vec![diff::Event::Hlt]));
    assert_eq!(ran(4), (100, vec![diff::Event::Hlt]), "ran x's loop");
    assert_eq!(ran(7), ran(1));
}

/// Real mode → protected mode, calling one helper from both.
const TWO_MODES: &str = ".org 0x1000\n\
     .equ GDT, 0x200\n\
     \x20 mov sp, 0xF000\n\
     \x20 mov r0, 0\n\
     \x20 call bump\n call bump\n\
     \x20 lgdt GDT\n\
     \x20 mov r1, cr0\n or r1, 1\n mov cr0, r1\n\
     \x20 ljmp32 prot\n\
     prot:\n\
     \x20 call bump\n call bump\n call bump\n\
     \x20 hlt\n\
     bump:\n\
     \x20 add r0, 7\n mark 4\n ret\n";

#[test]
fn restore_into_a_mode_the_cache_was_not_built_in() {
    let trace = check_script(
        &[TWO_MODES],
        &[
            Step::Load(0),
            Step::Run(3),
            Step::Snapshot, // Real mode, before any call.
            Step::Run(1_000),
            Step::Snapshot, // Protected mode, halted.
            // Back to real mode with protected-mode blocks of `bump` cached…
            Step::Restore(0),
            Step::Run(6),
            // …to protected mode with the real-mode ones…
            Step::Restore(1),
            Step::Run(10),
            // …and once more all the way through.
            Step::Restore(0),
            Step::Run(1_000),
        ],
    );
    assert_eq!(trace[3].state.mode, visa::Mode::Prot32);
    assert_eq!(trace[5].state.mode, visa::Mode::Real16);
    assert_eq!(trace[10].state, trace[3].state);
    assert_eq!(trace[10].state.regs[0], 35);
}

/// The bring-up of `mode_bringup_is_engine_identical`, then a counted loop
/// in long mode.
const LONG_MODE_LOOP: &str = ".org 0x1000\n\
     .equ GDT, 0x200\n\
     .equ PT_BASE, 0x10000\n\
     \x20 mov sp, 0xF000\n\
     \x20 lgdt GDT\n\
     \x20 mov r0, cr0\n or r0, 1\n mov cr0, r0\n\
     \x20 ljmp32 prot\n\
     prot:\n\
     \x20 mov r1, PT_BASE\n mov r2, PT_BASE + 0x1000\n or r2, 1\n store.q [r1 + 0], r2\n\
     \x20 mov r3, PT_BASE + 0x2000\n or r3, 1\n mov r4, PT_BASE + 0x1000\n store.q [r4 + 0], r3\n\
     \x20 mov r5, 0x83\n mov r6, PT_BASE + 0x2000\n store.q [r6 + 0], r5\n\
     \x20 mov r7, PT_BASE\n mov cr3, r7\n\
     \x20 mov r8, cr4\n or r8, 0x20\n mov cr4, r8\n\
     \x20 mov r9, 0x100\n wrmsr 0xC0000080, r9\n\
     \x20 mov r10, cr0\n or r10, 0x80000000\n mov cr0, r10\n\
     \x20 ljmp64 long\n\
     long:\n\
     \x20 mov r0, 0\n\
     spin:\n\
     \x20 add r0, 1\n push r0\n pop r1\n mark 5\n cmp r0, 40\n jl spin\n\
     \x20 hlt\n";

#[test]
fn a_long_mode_restore_pays_the_walk_before_any_retained_block_runs() {
    let trace = check_script(
        &[LONG_MODE_LOOP],
        &[
            Step::Load(0),
            Step::Run(60), // Through the bring-up and a few loop turns.
            Step::Snapshot,
            Step::Run(10_000), // The loop's blocks are cached and hot.
            Step::Restore(0),
            Step::Run(10_000),
            Step::RestoreDelta,
            Step::Run(10_000),
        ],
    );
    assert_eq!(trace[2].state.mode, visa::Mode::Long64);
    // A restore clears the TLB, so the re-armed run's first fetch must take
    // the reference path and pay the page walk; with the loop's blocks
    // retained, the fast engine is the only one that could skip it. Engine
    // identity at every step (above) says it did not; and re-armed runs cost
    // *more* than the run that continued with a warm TLB, by exactly the
    // walks.
    let cycles = |i: usize| (trace[i].clock - trace[i - 1].clock).get();
    let walk = vclock::costs::GUEST_TLB_MISS_WALK + 3 * vclock::costs::GUEST_MEM;
    assert_eq!(cycles(5), cycles(7));
    assert_eq!(cycles(5), cycles(3) + walk, "one 2 MiB page: one walk");
    assert_eq!(
        trace[5].marks.len(),
        trace[3].marks.len() * 2 - trace[1].marks.len()
    );
}

#[test]
fn hitting_the_block_capacity_mid_run_flushes_and_carries_on() {
    // 4 500 one-instruction blocks chained by jumps, walked twice: the
    // cache holds 4 096, so the bound trips in the middle of each lap, while
    // the run loop has the cache detached from the CPU.
    use std::fmt::Write as _;
    let hops = 4_500;
    let mut src = String::from(".org 0x1000\n mov sp, 0xF000\n mov r0, 0\nlap:\n add r0, 1\n");
    for i in 0..hops {
        let _ = writeln!(src, "  jmp H{i}\n  hlt\nH{i}:");
    }
    src.push_str("  cmp r0, 2\n jl lap\n hlt\n");
    let before = visa::pred::counters().blocks_invalidated;
    let trace = check_script(
        &[&src],
        &[
            Step::Load(0),
            Step::Run(3_000),
            Step::Snapshot,
            Step::Run(20_000),
            Step::Restore(0),
            Step::Run(20_000),
        ],
    );
    assert_eq!(trace[3].state.regs[0], 2);
    assert_eq!(trace[5].state, trace[3].state);
    // Other tests in this process only ever add to the counter.
    let flushed = visa::pred::counters().blocks_invalidated - before;
    assert!(flushed >= 2 * 4096, "capacity flushes dropped {flushed}");
}

#[test]
fn random_lifecycle_scripts_are_engine_identical() {
    let mut rng = Rng::seeded(0x5EED_0003);
    for case in 0..60 {
        let program = |rng: &mut Rng| {
            let src = if rng.bool(0.5) {
                corpus::random_source_paged(rng, 60)
            } else {
                corpus::random_source(rng, 60)
            };
            assemble(&src).expect("assemble")
        };
        let images = [program(&mut rng), program(&mut rng)];
        let steps = diff::random_script(&mut rng, &images);
        if let Err(d) = diff::compare_script(&images, MEM, &steps, case) {
            panic!("case {case}: {d}");
        }
    }
}

// ---------------------------------------------------------------------------
// Counted loops. A block of `add`/`sub r, imm` and stores closed by `cmp` +
// `jcc` back to its own start is fast-forwarded many iterations per
// dispatch; each case below is one way those iterations could stop short
// of, or run past, where the reference stops.

/// `crt0`'s identity-map loop, entered by a jump so that its block holds
/// only the body: `trips` stores of an advancing entry, one per iteration.
fn table_loop(setup: &str, trips: u64) -> String {
    format!(
        ".org 0x1000\n mov sp, 0xF000\n mov r3, 0\n mov r4, 0x83\n mov r5, 0x3000\n{setup}\n\
         \x20 jmp lp\n\
         lp:\n store.q [r5 + 0], r4\n add r5, 8\n add r4, 0x200000\n add r3, 1\n\
         \x20 cmp r3, {trips}\n jl lp\n\
         \x20 mark 1\n hlt\n"
    )
}

/// Runs `src` on both engines in `mem` bytes to its end (at most `LOOP_RUN`
/// instructions), then again stopped after every budget from 1 to 300
/// that ends before it and resumed to the same total — budgets that end
/// before the loop, inside an iteration, and after any number of whole
/// iterations. The engines must agree after every step, and every cut run
/// must end where the whole one did, ledger included; returns the fast
/// engine's whole run.
fn stops_and_resumes_at_every_budget(src: &str, mem: usize) -> diff::Outcome {
    let images = [assemble(src).expect("assemble")];
    let run = |steps: &[Step]| {
        diff::compare_script(&images, mem, steps, 0xD1FF)
            .unwrap_or_else(|d| panic!("{d}\nsource:\n{src}"))
    };
    let whole = run(&[Step::Load(0), Step::Run(LOOP_RUN)]).pop().unwrap();
    for k in 1..whole.retired.min(301) {
        let trace = run(&[Step::Load(0), Step::Run(k), Step::Run(LOOP_RUN - k)]);
        assert_eq!(trace[1].retired, k);
        assert_eq!(trace[2].state, whole.state, "budget {k}\n{src}");
        assert_eq!(trace[2].mem, whole.mem, "budget {k}\n{src}");
        assert_eq!(trace[2].ledger, whole.ledger, "budget {k}\n{src}");
        let reentry = Cycles(vclock::costs::GUEST_FIRST_INSTRUCTION);
        assert_eq!(trace[2].clock, whole.clock + reentry, "budget {k}\n{src}");
    }
    whole
}

/// The step budget of a whole run in [`stops_and_resumes_at_every_budget`].
const LOOP_RUN: u64 = 100_000;

#[test]
fn a_counted_loop_stops_and_resumes_identically_at_every_budget() {
    let whole = stops_and_resumes_at_every_budget(&table_loop("", 64), MEM);
    assert_eq!(whole.state.regs[3], 64);
    assert_eq!(whole.events, [diff::Event::Hlt]);
}

/// Memory for the loops below: page tables at 64 KiB in long mode, data
/// from 96 KiB, and the extents' midpoint at 128 KiB for a progression to
/// cross.
const LOOP_MEM: usize = 256 << 10;

/// `setup`, a jump to `lp:` and `body` (which ends in its `cmp` and the
/// `jcc` back to `lp`), then `mark 1` and `hlt`: in real, protected and
/// long mode, each checked by [`stops_and_resumes_at_every_budget`] in
/// `mem` bytes. Returns the three fast runs.
fn loop_in_every_mode(mem: usize, setup: &str, body: &str) -> Vec<diff::Outcome> {
    let tail = format!("{setup}\n jmp lp\nlp:\n{body}\n mark 1\n hlt\n");
    let real = format!(".org 0x1000\n mov sp, 0xF000\n{tail}");
    let prot = format!(
        ".org 0x1000\n lgdt 0x200\n mov r1, cr0\n or r1, 1\n mov cr0, r1\n ljmp32 prot\n\
         prot:\n mov sp, 0xF000\n{tail}"
    );
    let long = LONG_MODE_LOOP.replace("long:\n", &format!("long:\n{tail}"));
    [real, prot, long]
        .iter()
        .map(|src| stops_and_resumes_at_every_budget(src, mem))
        .collect()
}

#[test]
fn a_fixed_store_the_moving_store_overwrites_early_is_written_last() {
    // The moving store runs over the fixed one's bytes at iteration 10 of
    // 40; the fixed store, before or after it in the body, has the last
    // word there.
    let setup = " mov r3, 0\n mov r4, 0x1111\n mov r5, 0x18000\n mov r6, 0x18053\n mov r7, 0xABCD";
    let (fixed, moving) = (" store.w [r6 + 0], r7", " store.q [r5 + 0], r4");
    let rest = " add r5, 8\n add r4, 0x10001\n add r3, 1\n cmp r3, 40\n jl lp";
    for body in [[fixed, moving], [moving, fixed]] {
        let body = format!("{}\n{}\n{rest}", body[0], body[1]);
        for run in loop_in_every_mode(LOOP_MEM, setup, &body) {
            assert_eq!(run.mem[0x18053..0x18055], [0xCD, 0xAB], "{body}");
        }
    }
}

#[test]
fn a_fixed_store_whose_value_register_moves_writes_its_last_value() {
    // Two fixed stores overlapping each other, each with a moving value,
    // one of them seeing an add ahead of it.
    let setup = " mov r3, 0\n mov r6, 0x18100\n mov r7, 5";
    let body = " add r7, 3\n store.d [r6 + 0], r7\n store.b [r6 + 2], r3\n add r3, 1\n\
                \x20cmp r3, 50\n jl lp";
    for run in loop_in_every_mode(LOOP_MEM, setup, body) {
        assert_eq!(run.mem[0x18100..0x18104], [5 + 150, 0, 49, 0]);
    }
}

#[test]
fn a_store_whose_stride_is_under_its_width_overlaps_itself() {
    // Up by 3 with 8-byte writes, down by 1 with 4-byte ones, up by 1 with
    // 2-byte ones: each write lands partly on the one before it.
    for (w, stride) in [("q", "add r5, 3"), ("d", "sub r5, 1"), ("w", "add r5, 1")] {
        let setup = " mov r3, 0\n mov r4, 0x0102030405060708\n mov r5, 0x18800";
        let body = format!(
            " store.{w} [r5 + 0], r4\n {stride}\n add r4, 0x1111\n add r3, 1\n cmp r3, 45\n jl lp"
        );
        loop_in_every_mode(LOOP_MEM, setup, &body);
    }
}

#[test]
fn a_store_striding_past_a_page_marks_only_the_pages_it_writes() {
    // Up by two pages and 8 bytes, starting one byte before a page end (so
    // the first write straddles it), and down by three pages and 8 bytes:
    // both cross the extents' midpoint, and leave the pages in between
    // unwritten.
    let cases = [
        (0x17FFF, "add r5, 0x2008", 16, 0x19),
        (0x3F000, "sub r5, 0x3008", 12, 0x3D),
    ];
    for (from, stride, turns, skipped) in cases {
        let setup = format!(" mov r3, 0\n mov r4, 7\n mov r5, {from:#x}");
        let body = format!(
            " store.w [r5 + 0], r4\n {stride}\n add r4, 1\n add r3, 1\n cmp r3, {turns}\n jl lp"
        );
        for run in loop_in_every_mode(LOOP_MEM, &setup, &body) {
            assert!(!run.ledger.dirty_pages.contains(&skipped), "{body}");
        }
    }
}

#[test]
fn two_moving_stores_run_apart_when_their_ranges_are_disjoint_and_interleaved_when_not() {
    // Crossing each other, overlapping 4 bytes into each other's writes,
    // then far apart.
    let pairs = [
        (
            0x18000,
            "store.q [r5 + 0], r4",
            0x18140,
            "store.q [r6 + 0], r3",
            "sub r6, 8",
        ),
        (
            0x18000,
            "store.q [r5 + 0], r4",
            0x18004,
            "store.d [r6 + 0], r3",
            "add r6, 8",
        ),
        (
            0x18000,
            "store.q [r5 + 0], r4",
            0x1A000,
            "store.d [r6 + 0], r3",
            "add r6, 16",
        ),
    ];
    for (a, store_a, b, store_b, step_b) in pairs {
        let setup = format!(" mov r3, 0\n mov r4, 0x5A5A\n mov r5, {a:#x}\n mov r6, {b:#x}");
        let body = format!(
            " {store_a}\n {store_b}\n add r5, 8\n {step_b}\n add r4, 0x101\n add r3, 1\n\
             \x20cmp r3, 40\n jl lp"
        );
        loop_in_every_mode(LOOP_MEM, &setup, &body);
    }
}

#[test]
fn trip_counts_at_the_counter_s_wrap_edges_match_the_reference() {
    // From the signed and the unsigned wrap edge, by ±1 and ±4 096, against
    // the bound 20 turns on under every condition: some stop there, some
    // at once, some wrap on the way, and the rest fault at the end of
    // memory, 100 turns in. The page tables' 76 KiB and the store are all
    // these need; a smaller memory is quicker to compare 240 times.
    let mem = 96 << 10;
    let jccs = [
        "je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae",
    ];
    for init in [1u64 << 63, u64::MAX - 16] {
        for step in [1i64, -1, 4096, -4096] {
            let end = init.wrapping_add((step as u64).wrapping_mul(20));
            for jcc in jccs {
                let setup = format!(" mov r3, {init:#x}\n mov r5, {:#x}", mem - 800);
                let body = format!(
                    " store.q [r5 + 0], r3\n add r5, 8\n add r3, {:#x}\n cmp r3, {end:#x}\n {jcc} lp",
                    step as u64
                );
                loop_in_every_mode(mem, &setup, &body);
            }
        }
    }
}

#[test]
fn a_loop_store_leaving_memory_at_iteration_j_faults_there() {
    // Real mode crosses its 1 MiB reach, protected mode the end of a 1 MiB
    // memory: the same store, two different faults, both at iteration `j`.
    for j in [0, 1, 37, 500] {
        let setup = format!(" mov r5, {}", 0x10_0000 - 8 * j);
        let real = table_loop(&setup, 1_000);
        let prot = real.replacen(
            " mov sp, 0xF000\n",
            " mov sp, 0xF000\n lgdt 0x200\n mov r1, cr0\n or r1, 1\n mov cr0, r1\n ljmp32 prot\nprot:\n",
            1,
        );
        for (src, want) in [
            (
                real,
                visa::Fault::AddressBeyondMode {
                    vaddr: 0x10_0000,
                    mode: visa::Mode::Real16,
                },
            ),
            (prot, visa::Fault::PhysOutOfBounds { paddr: 0x10_0000 }),
        ] {
            check(&src, 100_000);
            let fast = diff::run_one(Engine::Fast, &assemble(&src).unwrap(), MEM, 100_000, 1);
            assert_eq!(fast.events, [diff::Event::Fault(want)], "j = {j}\n{src}");
            assert_eq!(fast.state.regs[3], j, "faulted at iteration {j}");
        }
    }
}

#[test]
fn a_loop_store_into_its_own_bytes_at_iteration_j() {
    // Down from above the block one byte per iteration: iteration `j` writes
    // the last byte of the `jl` (already 0xFF), the next few the rest of its
    // displacement, and then the loop jumps into what it wrote.
    let src = |j: u64| {
        format!(
            ".org 0x1000\n mov sp, 0xF000\n mov r3, 0\n mov r5, after + {j} - 1\n mov r6, -1\n\
             \x20 jmp lp\n\
             lp:\n store.b [r5 + 0], r6\n sub r5, 1\n add r3, 1\n cmp r3, 1000\n jl lp\n\
             after:\n mark 1\n hlt\n"
        )
    };
    for j in [1, 2, 7, 100] {
        let src = src(j);
        check(&src, 100_000);
        let img = assemble(&src).unwrap();
        let fast = diff::run_one(Engine::Fast, &img, MEM, 100_000, 1);
        let after = img.label("after").unwrap() as usize;
        assert!(fast.state.regs[3] > j, "ran past iteration {j}");
        assert_eq!(fast.mem[after - 4..after], [0xFF; 4], "rewrote the `jl`");
    }
}

#[test]
fn a_long_mode_loop_store_past_the_identity_window_walks_where_the_reference_does() {
    // 4 MiB of memory, both 2 MiB pages identity-mapped: at iteration `j`
    // the store leaves the window the fast-forward may use, and its first
    // access to page 1 walks the page tables.
    for j in [0, 1, 100] {
        let src = LONG_MODE_LOOP.replace(
            "long:\n",
            &format!(
                "long:\n\
                 \x20 mov r1, PT_BASE + 0x2008\n mov r2, 0x200083\n store.q [r1 + 0], r2\n\
                 \x20 mov r3, 0\n mov r4, 7\n mov r5, {}\n\
                 lp:\n store.q [r5 + 0], r4\n add r5, 8\n add r3, 1\n cmp r3, 300\n jl lp\n\
                 \x20 mark 2\n hlt\n",
                0x20_0000 - 8 * j
            ),
        );
        let img = assemble(&src).expect("assemble");
        if let Err(d) = diff::compare(&img, 4 << 20, 100_000, 1) {
            panic!("j = {j}: {d}");
        }
        let fast = diff::run_one(Engine::Fast, &img, 4 << 20, 100_000, 1);
        assert_eq!(fast.events, [diff::Event::Hlt]);
        assert_eq!(fast.mem[0x20_0000 + 8 * (299 - j as usize)], 7);
    }
}

#[test]
fn a_wrapping_induction_register_counts_like_the_reference() {
    // (start, step, bound, jcc): across zero unsigned, across the sign bit
    // signed, and down through zero under an unsigned bound. The store
    // follows both adds, so it sees them mid-iteration.
    for (start, step, bound, jcc) in [
        ("0xFFFFFFFFFFFFFFF0", "add r3, 1", "0x10", "jne"),
        ("0x7FFFFFFFFFFFFFF0", "add r3, 1", "0", "jg"),
        ("0xF", "sub r3, 1", "0xFFFFFFFFFFFFFFF8", "jb"),
    ] {
        let src = format!(
            ".org 0x1000\n mov sp, 0xF000\n mov r3, {start}\n mov r5, data\n jmp lp\n\
             lp:\n add r5, 8\n {step}\n store.q [r5 - 8], r3\n cmp r3, {bound}\n {jcc} lp\n\
             \x20 hlt\n\
             data:\n .space 256\n"
        );
        check(&src, 100_000);
        let img = assemble(&src).unwrap();
        let fast = diff::run_one(Engine::Fast, &img, MEM, 100_000, 1);
        let turns = (fast.state.regs[5] - img.label("data").unwrap()) / 8;
        assert!((16..=32).contains(&turns), "{jcc}: {turns} turns");
    }
}

#[test]
fn a_loop_whose_back_edge_is_never_taken_runs_once() {
    // Entered by a jump, so the loop's block runs its body first: once, with
    // the condition already false, both with and without a store.
    for body in ["store.q [r5 + 0], r3\n add r5, 8", "add r5, 8"] {
        let src = format!(
            ".org 0x1000\n mov sp, 0xF000\n mov r3, 5\n mov r5, 0x3000\n jmp lp\n\
             lp:\n {body}\n add r3, 1\n cmp r3, 5\n jl lp\n mark 1\n hlt\n"
        );
        check(&src, 1_000);
        let fast = diff::run_one(Engine::Fast, &assemble(&src).unwrap(), MEM, 1_000, 1);
        assert_eq!((fast.state.regs[3], fast.state.regs[5]), (6, 0x3008));
    }
}

#[test]
fn a_back_edge_into_the_middle_of_its_block_is_not_a_counted_loop() {
    // The block at `top` ends in a `jl` to `mid`, past its first
    // instruction: fast-forwarding it would repeat the `add r7, 1`.
    let src = ".org 0x1000\n mov sp, 0xF000\n mov r3, 0\n mov r5, 0x3000\n mov r7, 0\n jmp top\n\
               top:\n add r7, 1\n\
               mid:\n store.q [r5 + 0], r3\n add r5, 8\n add r3, 1\n cmp r3, 20\n jl mid\n\
               \x20 hlt\n";
    check(src, 10_000);
    let fast = diff::run_one(Engine::Fast, &assemble(src).unwrap(), MEM, 10_000, 1);
    assert_eq!((fast.state.regs[3], fast.state.regs[7]), (20, 1));
}

#[test]
fn random_counted_loops_are_engine_identical() {
    let mut rng = Rng::seeded(0x5EED_0004);
    for case in 0..150 {
        let src = corpus::random_loop_source(&mut rng, 4 << 20);
        let img = assemble(&src).expect("assemble");
        if let Err(d) = diff::compare(&img, 4 << 20, 50_000, case) {
            panic!("case {case}: {d}\nsource:\n{src}");
        }
    }
}
