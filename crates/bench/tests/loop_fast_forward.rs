//! The fast engine's counted-loop fast-forward, counted on the guests it
//! exists for: a `vcc` virtine's cold boot, whose `crt0` writes the 2 MiB
//! identity map in a 512-turn loop, and the scenario mix's functions.
//! `visa::pred::counters()` is process-wide, so the tests take turns.

use std::sync::Mutex;

use vclock::Clock;
use visa::cpu::{CpuConfig, CpuExit, Machine};
use visa::{Engine, Image};
use wasp::hypercall::{nr, HYPERCALL_PORT};

static TURN: Mutex<()> = Mutex::new(());

/// Runs `image` from a cold machine on `engine` to its first exit; returns
/// the exit and the loop fast-forwards and iterations it took.
fn loops_to_first_exit(image: &Image, mem: usize, engine: Engine) -> (CpuExit, [u64; 2]) {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut m = Machine::new(Clock::new(), CpuConfig::default(), mem, image.entry);
    m.load_image(image);
    m.cpu.set_engine(engine);
    let before = visa::pred::counters();
    let exit = m.run(10_000_000).expect("no fault");
    let after = visa::pred::counters();
    let loops = [
        after.dispatch_loop - before.dispatch_loop,
        after.loop_iterations - before.loop_iterations,
    ];
    (exit, loops)
}

const SNAPSHOT: CpuExit = CpuExit::IoOut {
    port: HYPERCALL_PORT,
    value: nr::SNAPSHOT,
};

#[test]
fn a_cold_boot_fast_forwards_all_but_the_first_turn_of_the_identity_map_loop() {
    // The loop's first turn runs in the block that enters it (`mark 2`
    // onwards); its own block then takes the other 511 in one dispatch, and
    // nothing else up to the snapshot point is a counted loop.
    let unit = vcc::compile("virtine int touch(int n) { return n + 1; }").expect("compiles");
    let v = &unit.virtines[0];
    let boot = |engine| loops_to_first_exit(&v.image, v.mem_size, engine);
    assert_eq!(boot(Engine::Fast), (SNAPSHOT, [1, 511]));
    assert_eq!(boot(Engine::Reference), (SNAPSHOT, [0, 0]));
}

#[test]
fn the_scenario_mix_fast_forwards_its_fill_and_its_spin() {
    let mem = bench::scenarios::mix::MEM;
    let fill = bench::scenarios::mix::snap_image();
    assert_eq!(
        loops_to_first_exit(&fill, mem, Engine::Fast),
        (SNAPSHOT, [1, 511])
    );
    let spin = bench::scenarios::mix::slow_image();
    assert_eq!(
        loops_to_first_exit(&spin, mem, Engine::Fast),
        (CpuExit::Hlt, [1, 39_999])
    );
    assert_eq!(
        loops_to_first_exit(&spin, mem, Engine::Reference),
        (CpuExit::Hlt, [0, 0])
    );
}
