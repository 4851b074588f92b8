//! Differential tests over `vcc`-compiled programs: every compiled virtine
//! must behave byte- and cycle-identically on the fast and reference
//! interpreter engines.
//!
//! These complement the random-stream tests in `visa/tests/differential.rs`
//! with real compiler output — prologue push sequences, `cmp`+`jcc` pairs,
//! constant-operand ALU patterns, recursion, loops, and hypercall I/O —
//! exactly the shapes the predecoder fuses.

use vcc::{compile, marshal_args};
use visa::diff;

/// Compiles `src`, then runs each virtine on both engines with marshalled
/// `args` and seeded hypercall responses, demanding identity.
fn diff_all(src: &str, args: &[i64]) {
    let unit = compile(src).expect("compile");
    assert!(!unit.virtines.is_empty());
    for v in &unit.virtines {
        let prewrites = vec![(wasp::ARGS_ADDR, marshal_args(args))];
        if let Err(report) = diff::compare_with(&v.image, v.mem_size, 5_000_000, 0xC0DE, &prewrites)
        {
            panic!("virtine `{}` diverged:\n{report}", v.name);
        }
    }
}

#[test]
fn fib_is_engine_identical() {
    // The paper's flagship example (Figure 9): deep recursion, call/ret,
    // stack traffic, cmp+jcc fusion.
    let src = "
virtine int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
";
    for n in [0, 1, 2, 10, 15] {
        diff_all(src, &[n]);
    }
}

#[test]
fn arithmetic_mix_is_engine_identical() {
    // mul/div/mod in a loop: the non-uniform-cost ALU classes.
    let src = "
virtine int mix(int n) {
    int acc = 7;
    int i = 1;
    while (i < n) {
        acc = acc * 3 + i;
        acc = acc / 2;
        acc = acc % 100000;
        i = i + 1;
    }
    return acc;
}
";
    diff_all(src, &[500]);
}

#[test]
fn memory_traffic_is_engine_identical() {
    // Array writes and reads: load/store through computed addresses.
    let src = "
virtine int sums(int n) {
    int buf[64];
    int i = 0;
    while (i < 64) {
        buf[i] = i * i + n;
        i = i + 1;
    }
    int acc = 0;
    for (i = 0; i < 64; i = i + 1) {
        acc = acc + buf[i];
    }
    return acc;
}
";
    diff_all(src, &[3]);
}

#[test]
fn string_routines_are_engine_identical() {
    // The in-guest libc: itoa/strlen byte loops.
    let src = "
virtine int fmt(int n) {
    char msg[24];
    itoa(n, msg);
    return strlen(msg);
}
";
    diff_all(src, &[-1234567]);
}

#[test]
fn hypercall_io_is_engine_identical() {
    // libc's I/O wrappers drive `out` hypercalls; the harness answers both
    // engines with identical seeded values, so even nonsense responses must
    // produce identical guest behaviour.
    let src = r#"
virtine_permissive int echo(int n) {
    char msg[16];
    itoa(n, msg);
    if (vget_data(msg, 16) < 0) return 0 - 1;
    int len = strlen(msg);
    if (vsend(msg, len) != len) return 0 - 2;
    char back[16];
    int got = vtryrecv(back, 16);
    vreturn_data(back, 8);
    return got;
}
"#;
    diff_all(src, &[42]);
}

#[test]
fn every_budget_inside_compiled_code_stops_and_resumes_identically() {
    // Compiler output is where the fused pairs are dense (`mov`+`pop`
    // operand shuffles, `push`+`load`, `cmp`+`jcc`, `pop`+`alu`). A step
    // budget that runs out anywhere in it — the tail runs on the reference
    // path — must stop both engines on the same instruction, and resuming
    // must end the same way.
    use visa::diff::Step;
    let src = "
int sq(int x) { return x * x + 1; }
virtine int dense(int n) {
    int buf[8];
    for (int j = 0; j < 8; j = j + 1) buf[j] = j;
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
        buf[i % 8] = sq(i) + acc;
        acc = acc + buf[(i + 3) % 8] % 7;
    }
    return acc;
}
";
    let unit = compile(src).expect("compile");
    let v = &unit.virtines[0];
    let images = [v.image.clone()];
    let args = Step::Poke(wasp::ARGS_ADDR, marshal_args(&[40]));
    let run = |budgets: &[u64]| {
        let mut steps = vec![Step::Load(0), args.clone()];
        steps.extend(budgets.iter().map(|&b| Step::Run(b)));
        diff::compare_script(&images, v.mem_size, &steps, 0xC0DE)
            .unwrap_or_else(|report| panic!("budgets {budgets:?}:\n{report}"))
            .pop()
            .expect("one outcome per step")
    };
    let whole = run(&[5_000_000]);
    let (mut buf, mut acc) = ([0, 1, 2, 3, 4, 5, 6, 7], 0);
    for i in 0..40 {
        buf[i % 8] = (i * i + 1) as i64 + acc;
        acc += buf[(i + 3) % 8] % 7;
    }
    assert_eq!(whole.state.regs[0], acc as u64);
    // Half way: past the boot (under 3 000 instructions) and well inside
    // the loop (a hundred instructions a turn).
    let inside = whole.retired / 2;
    assert!(inside > 3_000);
    for k in 1..=300 {
        let resumed = run(&[inside + k, 5_000_000]);
        assert_eq!(resumed.state, whole.state, "budget {k}");
        assert_eq!(resumed.retired, whole.retired, "budget {k}");
    }
}
