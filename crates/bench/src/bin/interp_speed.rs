//! Interpreter speed: the predecoded fast engine vs the reference
//! decode-dispatch loop.
//!
//! `visa::cpu` is the cycle floor under every bench and serving scenario;
//! this bench measures what one retired guest instruction costs the *host*
//! on each engine, over the kernels `vperf`'s `guest_compute` runs plus the
//! store pattern a block cache is most sensitive to:
//!
//! * **fib** — the recursive fib(20) of Figure 3/9 in hand-written asm:
//!   call/ret, stack traffic, `cmp`+`jcc` at every node.
//! * **http** — a `vcc`-compiled request-handler shape: itoa/strlen byte
//!   loops, constant-operand ALU, and a checksum loop over the response.
//! * **js** — the `vjs` engine base64-encoding 1 KiB (Figure 14): byte
//!   loads, table lookups, shifts, byte stores.
//! * **aes** — `vaes` AES-128-CBC over 256 B (§6.4): S-box loads and xor
//!   chains over a 16-byte state.
//! * **global_store** — a `vcc` loop that stores to a global every
//!   iteration. `vcc` places data right after text, so each store marks the
//!   loop's own code page dirty and the next block entry revalidates.
//!
//! Each engine runs every kernel to completion `--trials` times; the
//! min-of-reps wall time yields host ns/inst and guest MIPS. The two
//! engines must agree *exactly* on retired instructions, virtual cycles,
//! and the computed result (the cycle-identity contract,
//! `docs/interpreter.md`); `check_regression` gates that identity and the
//! fast-over-reference speedup floor on every kernel. Writes
//! `BENCH_interp_speed.json`.

use std::time::Instant;

use bench::json::Obj;
use vclock::Clock;
use visa::cpu::{CpuConfig, CpuExit, Machine};
use visa::{assemble, Engine, Image, Reg};
use wasp::hypercall::{nr, HYPERCALL_PORT};

/// An http-handler-shaped virtine: format a status body, then checksum a
/// synthetic response buffer — string byte loops plus ALU-heavy scanning.
const HTTP_SRC: &str = "
virtine int handle(int n) {
    char body[32];
    itoa(n * 37 % 100000, body);
    int len = strlen(body);
    int acc = 521;
    int i = 0;
    while (i < 5000) {
        acc = acc + (i * 31 + len) % 97;
        acc = acc % 1000000007;
        i = i + 1;
    }
    return acc + len;
}
";

/// A loop whose every iteration stores to a global sitting on the loop's
/// own code page.
const GLOBAL_STORE_SRC: &str = "
int total;
virtine int bump(int n) {
    int i = 0;
    while (i < n) {
        total = total + i;
        i = i + 1;
    }
    return total;
}
";

/// A guest ready to run on a bare [`Machine`]: image, machine shape, what
/// the host places in memory or hands over through `get_data`, and the
/// result it must produce.
struct Kernel {
    name: &'static str,
    image: Image,
    mem_size: usize,
    config: CpuConfig,
    /// Marshalled arguments, written at [`wasp::ARGS_ADDR`].
    args: Vec<u8>,
    /// The invocation payload `get_data` copies in.
    payload: Vec<u8>,
    /// `r0` at `hlt`, or the bytes handed to `return_data` when non-empty.
    expect_r0: Option<u64>,
    expect_bytes: Vec<u8>,
}

impl Kernel {
    fn new(name: &'static str, image: Image, mem_size: usize, config: CpuConfig) -> Kernel {
        Kernel {
            name,
            image,
            mem_size,
            config,
            args: Vec::new(),
            payload: Vec::new(),
            expect_r0: None,
            expect_bytes: Vec::new(),
        }
    }

    fn compiled(name: &'static str, v: &vcc::CompiledVirtine) -> Kernel {
        Kernel::new(name, v.image.clone(), v.mem_size, CpuConfig::default())
    }
}

fn kernels() -> Vec<Kernel> {
    let fib_src = format!(".org 0x8000\n  mov sp, 0x8000\n{}", bench::FIB20_ASM);
    let fib = assemble(&fib_src).expect("fib kernel assembles");
    let fib = Kernel {
        expect_r0: Some(6765),
        ..Kernel::new("fib", fib, 64 * 1024, CpuConfig::native())
    };

    let unit = vcc::compile(HTTP_SRC).expect("http kernel compiles");
    let http = Kernel {
        args: vcc::marshal_args(&[4217]),
        ..Kernel::compiled("http", &unit.virtines[0])
    };

    // Fixed pseudo-random inputs: the kernels' instruction counts depend on
    // the data only through its length.
    let data: Vec<u8> = (0..1024u32).map(|i| (i * 197 + 13) as u8).collect();
    let engine = vjs::compile_engine(vjs::BASE64_HANDLER, false).expect("js engine compiles");
    let js = Kernel {
        expect_bytes: vjs::base64_ref(&data),
        payload: data.clone(),
        ..Kernel::compiled("js", &engine)
    };

    let (key, iv) = ([0x2Bu8; 16], [0x7Eu8; 16]);
    let mut cipher = data[..256].to_vec();
    vaes::cbc_encrypt(&key, &iv, &mut cipher);
    let aes = Kernel {
        payload: vaes::payload(&key, &iv, &data[..256]),
        expect_bytes: cipher,
        ..Kernel::compiled(
            "aes",
            &vaes::compile_aes_virtine().expect("aes kernel compiles"),
        )
    };

    let unit = vcc::compile(GLOBAL_STORE_SRC).expect("global_store kernel compiles");
    let n = 20_000;
    let global_store = Kernel {
        args: vcc::marshal_args(&[n]),
        expect_r0: Some((n * (n - 1) / 2) as u64),
        ..Kernel::compiled("global_store", &unit.virtines[0])
    };

    vec![fib, http, js, aes, global_store]
}

/// One timed engine run: min-of-reps wall time plus the deterministic
/// guest-side observables every rep must reproduce exactly.
struct Run {
    wall_ns: f64,
    insts: u64,
    virt_cycles: u64,
    result: u64,
}

impl Run {
    fn ns_per_inst(&self) -> f64 {
        self.wall_ns / self.insts as f64
    }

    /// Million guest instructions retired per host second.
    fn mips(&self) -> f64 {
        self.insts as f64 / (self.wall_ns / 1e3)
    }
}

/// Interleaves fast and reference reps — host noise (a scheduler burst, a
/// frequency excursion) then degrades both engines' samples alike instead of
/// skewing whichever engine happened to own that window — and keeps the
/// minimum of each.
fn min_interleaved(reps: usize, mut one: impl FnMut(Engine) -> Run) -> (Run, Run) {
    let keep_min = |best: &mut Run, r: Run| {
        assert_eq!(r.insts, best.insts, "reps must retire identically");
        assert_eq!(
            r.virt_cycles, best.virt_cycles,
            "reps must tick identically"
        );
        assert_eq!(r.result, best.result, "reps must compute identically");
        if r.wall_ns < best.wall_ns {
            *best = r;
        }
    };
    let mut fast = one(Engine::Fast);
    let mut reference = one(Engine::Reference);
    for _ in 1..reps {
        keep_min(&mut fast, one(Engine::Fast));
        keep_min(&mut reference, one(Engine::Reference));
    }
    (fast, reference)
}

/// Runs `k` to `hlt` on a fresh machine, serving the two data hypercalls
/// the way `wasp` does and resuming every other `out` untouched.
fn run(k: &Kernel, engine: Engine) -> Run {
    let clock = Clock::new();
    let mut m = Machine::new(clock.clone(), k.config.clone(), k.mem_size, k.image.entry);
    m.load_image(&k.image);
    m.mem
        .write_bytes(wasp::ARGS_ADDR, &k.args)
        .expect("args fit");
    m.cpu.set_engine(engine);
    m.cpu.note_vmentry();
    let mut returned = Vec::new();
    let t = Instant::now();
    loop {
        match m.run(50_000_000).expect("kernel must not fault") {
            CpuExit::Hlt => break,
            CpuExit::IoOut {
                port: HYPERCALL_PORT,
                value: nr::GET_DATA,
            } => {
                let n = k.payload.len().min(m.cpu.reg(Reg(2)) as usize);
                let put = m.mem.write_bytes(m.cpu.reg(Reg(1)), &k.payload[..n]);
                put.expect("guest buffer in range");
                m.cpu.set_reg(Reg(0), n as u64);
            }
            CpuExit::IoOut {
                port: HYPERCALL_PORT,
                value: nr::RETURN_DATA,
            } => {
                let (at, len) = (m.cpu.reg(Reg(1)), m.cpu.reg(Reg(2)));
                returned = m.mem.slice(at, len).expect("in range").to_vec();
                m.cpu.set_reg(Reg(0), len);
            }
            CpuExit::IoOut { .. } => {}
            exit => panic!("{}: unexpected {exit:?}", k.name),
        }
    }
    let wall_ns = t.elapsed().as_nanos() as f64;
    let result = m.cpu.reg(Reg(0));
    if let Some(r0) = k.expect_r0 {
        assert_eq!(result, r0, "{} result", k.name);
    }
    assert_eq!(returned, k.expect_bytes, "{} returned bytes", k.name);
    Run {
        wall_ns,
        insts: m.cpu.insts_retired(),
        virt_cycles: clock.now().get(),
        result,
    }
}

fn main() {
    let host = bench::HostTimer::start();
    let reps = bench::trials(9);
    bench::header(
        "Interpreter speed: predecoded fast engine vs reference",
        "the simulation substrate must not be the slow part — host ns/inst \
         drops >=3x while virtual time stays bit-identical",
    );
    println!("# min of {reps} reps per engine per kernel");
    println!("#");
    println!(
        "# {:<12} {:>12} {:>14} {:>14} {:>10} {:>10} {:>9} {:>6} {:>7}",
        "kernel", "insts", "virt_cycles", "engine", "ns/inst", "MIPS", "speedup", "ident", "front%"
    );

    let mut rows = Vec::new();
    for k in &kernels() {
        let name = k.name;
        let before = visa::pred::counters();
        let (fast, reference) = min_interleaved(reps, |engine| run(k, engine));
        // Share of the fast engine's block entries the front cache served
        // (the reference engine enters no blocks).
        let after = visa::pred::counters();
        let sum = |c: &visa::pred::Counters| c.dispatch_front + c.dispatch_map + c.dispatch_built;
        let front = (after.dispatch_front - before.dispatch_front) as f64;
        let front_pct = 100.0 * front / (sum(&after) - sum(&before)).max(1) as f64;
        let identical = fast.insts == reference.insts
            && fast.virt_cycles == reference.virt_cycles
            && fast.result == reference.result;
        let speedup = reference.ns_per_inst() / fast.ns_per_inst();
        let fast_cols = [format!("{speedup:.2}x"), format!("{front_pct:.2}")];
        let ref_cols = ["-".to_string(), "-".to_string()];
        for (engine, r, cols) in [("fast", &fast, &fast_cols), ("ref", &reference, &ref_cols)] {
            println!(
                "# {:<12} {:>12} {:>14} {:>14} {:>10.1} {:>10.1} {:>9} {:>6} {:>7}",
                name,
                r.insts,
                r.virt_cycles,
                engine,
                r.ns_per_inst(),
                r.mips(),
                cols[0],
                if identical { "yes" } else { "NO" },
                cols[1],
            );
        }
        assert!(
            identical,
            "{name}: engines diverged — run the differential fuzzer"
        );
        rows.push(
            Obj::new()
                .str("kernel", name)
                .val("insts", fast.insts)
                .val("virt_cycles", fast.virt_cycles)
                .val("cycle_identical", u8::from(identical))
                .num("speedup", speedup, 3)
                .num("fast_ns_per_inst", fast.ns_per_inst(), 2)
                .num("ref_ns_per_inst", reference.ns_per_inst(), 2)
                .num("fast_mips", fast.mips(), 1)
                .num("ref_mips", reference.mips(), 1),
        );
    }
    println!("#");
    let doc = Obj::new()
        .rows("kernels", rows)
        .val("config", Obj::new().val("reps", reps));
    bench::write_artifact("interp_speed", doc, &host);
}
