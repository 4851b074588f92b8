//! # vcc — the virtine C language extensions
//!
//! The paper extends C with a `virtine` keyword: "the compiler pass detects
//! C functions annotated with the `virtine` keyword … and automatically
//! generates code that invokes a pre-compiled virtine binary whenever the
//! function is called" (§5.3). `vcc` is that toolchain rebuilt from scratch
//! for the VISA machine:
//!
//! 1. the user's mini-C translation unit is combined with the `vlibc`
//!    library (the newlib port of §5.3) — mirroring the paper's
//!    same-compilation-unit restriction (§7.2);
//! 2. for every annotated function, the call graph is cut at the annotation
//!    and everything reachable is compiled and linked with a crt0 boot stub
//!    into a standalone binary [`Image`];
//! 3. the host side gets a [`CompiledVirtine`] that registers with a
//!    [`wasp::Wasp`] runtime and marshals `i64` arguments to guest address
//!    0x0 on each call.
//!
//! Annotations map to hypercall policies: `virtine` → default-deny,
//! `virtine_permissive` → allow-all, `virtine_config(name)` → a mask the
//! client supplies under `name` (§5.3).

pub mod ast;
pub mod codegen;
pub mod lex;
pub mod parse;

use std::collections::HashMap;

use visa::asm::Image;
use vlibc::{crt0_with_heap, layout, Crt0Kind, HYPERCALL_ASM, LIBC_C};
use wasp::{HypercallMask, Invocation, RunOutcome, VirtineId, VirtineSpec, Wasp, WaspError};

pub use ast::{Annotation, Program, Type};
pub use lex::CError;

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Guest-physical memory per virtine context. Determines the stack top
    /// and bounds the heap.
    pub mem_size: usize,
    /// Maximum image size; the heap begins at `IMAGE_BASE + image_budget`.
    pub image_budget: usize,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            mem_size: 512 * 1024,
            image_budget: 128 * 1024,
        }
    }
}

impl CompileOptions {
    fn heap_base(&self) -> u64 {
        layout::IMAGE_BASE + self.image_budget as u64
    }

    fn validate(&self) -> Result<(), CError> {
        let need = self.heap_base() + layout::STACK_RESERVE + 4096;
        if (self.mem_size as u64) < need {
            return Err(CError {
                line: 0,
                msg: format!(
                    "mem_size {:#x} too small for image budget (need at least {need:#x})",
                    self.mem_size
                ),
            });
        }
        Ok(())
    }
}

/// A compiled, packageable virtine: the product of one `virtine` annotation.
#[derive(Debug, Clone)]
pub struct CompiledVirtine {
    /// The annotated function's name.
    pub name: String,
    /// Number of integer parameters (for marshalling).
    pub arity: usize,
    /// The bootable binary image.
    pub image: Image,
    /// The annotation that produced this virtine.
    pub annotation: Annotation,
    /// Guest memory size the image was linked for.
    pub mem_size: usize,
    /// Full assembly listing (diagnostics; the paper's `-S` analogue).
    pub listing: String,
}

impl CompiledVirtine {
    /// Resolves the hypercall policy, looking `virtine_config` names up in
    /// `configs` (missing names fall back to default-deny).
    pub fn policy(&self, configs: &HashMap<String, HypercallMask>) -> HypercallMask {
        match &self.annotation {
            Annotation::None | Annotation::Virtine => HypercallMask::DENY_ALL,
            Annotation::VirtinePermissive => HypercallMask::ALLOW_ALL,
            Annotation::VirtineConfig(name) => configs
                .get(name)
                .copied()
                .unwrap_or(HypercallMask::DENY_ALL),
        }
    }

    /// Registers this virtine with a Wasp runtime (default-deny / annotated
    /// policy, snapshotting on — the §5.3 defaults).
    pub fn register(&self, wasp: &Wasp) -> Result<VirtineId, WaspError> {
        self.register_with(wasp, &HashMap::new())
    }

    /// Registers with explicit `virtine_config` policies.
    pub fn register_with(
        &self,
        wasp: &Wasp,
        configs: &HashMap<String, HypercallMask>,
    ) -> Result<VirtineId, WaspError> {
        let spec = VirtineSpec::new(self.name.clone(), self.image.clone(), self.mem_size)
            .with_policy(self.policy(configs));
        wasp.register(spec)
    }
}

/// Marshals integer arguments into the guest ABI (little-endian `i64`s at
/// address 0x0, §6.1).
pub fn marshal_args(args: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(args.len() * 8);
    for a in args {
        out.extend_from_slice(&a.to_le_bytes());
    }
    out
}

/// Invokes a registered virtine with integer arguments, returning the run
/// outcome (the return value is `outcome.ret` as `i64`).
pub fn invoke(wasp: &Wasp, id: VirtineId, args: &[i64]) -> Result<RunOutcome, WaspError> {
    wasp.run(id, &marshal_args(args), Invocation::default())
}

/// The result of compiling a translation unit.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    /// One compiled image per annotated function.
    pub virtines: Vec<CompiledVirtine>,
}

impl CompiledUnit {
    /// Finds a virtine by function name.
    pub fn virtine(&self, name: &str) -> Option<&CompiledVirtine> {
        self.virtines.iter().find(|v| v.name == name)
    }
}

/// Compiles a mini-C translation unit with default options.
pub fn compile(source: &str) -> Result<CompiledUnit, CError> {
    compile_with(source, &CompileOptions::default())
}

/// Compiles a mini-C translation unit, producing one image per annotated
/// function.
pub fn compile_with(source: &str, opts: &CompileOptions) -> Result<CompiledUnit, CError> {
    opts.validate()?;
    let program = parse_unit(source)?;
    let roots = program.virtine_roots();
    if roots.is_empty() {
        return Err(CError {
            line: 0,
            msg: "no `virtine`-annotated functions in the translation unit".into(),
        });
    }
    let mut virtines = Vec::new();
    for f in roots {
        let arity = f.params.len();
        let kind = Crt0Kind::Full { arity };
        let cv = link_one(&program, &f.name, f.annotation.clone(), kind, opts)?;
        virtines.push(cv);
    }
    Ok(CompiledUnit { virtines })
}

/// Compiles a translation unit into a single *raw-environment* image
/// (Figure 10 B): boot and libc init, then `entry_fn()` with no automatic
/// snapshot and no marshalled call — the program drives hypercalls itself,
/// as the Duktape engine of §6.5 does via the direct runtime API.
pub fn compile_raw(
    source: &str,
    entry_fn: &str,
    opts: &CompileOptions,
) -> Result<CompiledVirtine, CError> {
    opts.validate()?;
    let program = parse_unit(source)?;
    if program.func(entry_fn).is_none() {
        return Err(CError {
            line: 0,
            msg: format!("raw entry function `{entry_fn}` is not defined"),
        });
    }
    link_one(&program, entry_fn, Annotation::None, Crt0Kind::Raw, opts)
}

fn parse_unit(source: &str) -> Result<Program, CError> {
    // User code first so its diagnostics keep their line numbers; the
    // library follows in the same translation unit (§7.2's restriction).
    let combined = format!("{source}\n{LIBC_C}");
    parse::parse(&combined)
}

fn link_one(
    program: &Program,
    root: &str,
    annotation: Annotation,
    kind: Crt0Kind,
    opts: &CompileOptions,
) -> Result<CompiledVirtine, CError> {
    let gen = codegen::generate(program, &[root, "__libc_init"])?;
    for ext in &gen.externs {
        if ext != "hypercall" {
            return Err(CError {
                line: 0,
                msg: format!("unresolved external function `{ext}`"),
            });
        }
    }
    // The hypercall names (`HC_PORT`, `HC_SNAPSHOT`, ...) crt0 and the
    // trampoline use, read off `wasp::hypercall::TABLE`.
    let mut listing = wasp::hypercall::asm_prelude();
    listing.push_str(&crt0_with_heap(root, kind, opts.mem_size, opts.heap_base()));
    listing.push_str(&gen.text);
    if gen.externs.contains("hypercall") {
        listing.push_str(HYPERCALL_ASM);
    }
    listing.push_str(&gen.data);

    let image = visa::assemble(&listing).map_err(|e| CError {
        line: 0,
        msg: format!("internal: generated assembly failed to assemble: {e}"),
    })?;
    if image.size() > opts.image_budget {
        return Err(CError {
            line: 0,
            msg: format!(
                "image for `{root}` is {} bytes, over the {}-byte budget",
                image.size(),
                opts.image_budget
            ),
        });
    }
    let arity = match kind {
        Crt0Kind::Full { arity } => arity,
        Crt0Kind::Raw => 0,
    };
    Ok(CompiledVirtine {
        name: root.to_string(),
        arity,
        image,
        annotation,
        mem_size: opts.mem_size,
        listing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasp::ExitKind;

    /// The paper's flagship example (Figure 9).
    const FIB_C: &str = "
virtine int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
";

    fn rust_fib(n: i64) -> i64 {
        if n < 2 {
            n
        } else {
            rust_fib(n - 1) + rust_fib(n - 2)
        }
    }

    #[test]
    fn figure_9_fib_compiles_and_runs() {
        let unit = compile(FIB_C).unwrap();
        assert_eq!(unit.virtines.len(), 1);
        let v = unit.virtine("fib").unwrap();
        assert_eq!(v.arity, 1);
        assert_eq!(v.annotation, Annotation::Virtine);

        let wasp = Wasp::new_kvm_default();
        let id = v.register(&wasp).unwrap();
        for n in [0, 1, 2, 7, 12] {
            let out = invoke(&wasp, id, &[n]).unwrap();
            assert!(out.exit.is_normal(), "fib({n}) exited {:?}", out.exit);
            assert_eq!(out.ret as i64, rust_fib(n), "fib({n})");
        }
    }

    #[test]
    fn snapshot_accelerates_repeat_invocations() {
        let unit = compile(FIB_C).unwrap();
        let wasp = Wasp::new_kvm_default();
        let id = unit.virtine("fib").unwrap().register(&wasp).unwrap();
        let cold = invoke(&wasp, id, &[5]).unwrap();
        let warm = invoke(&wasp, id, &[5]).unwrap();
        assert!(!cold.breakdown.restored_snapshot);
        assert!(warm.breakdown.restored_snapshot);
        assert!(
            warm.breakdown.total < cold.breakdown.total,
            "snapshot run {} !< cold run {}",
            warm.breakdown.total,
            cold.breakdown.total
        );
        assert_eq!(warm.ret, cold.ret);
    }

    #[test]
    fn library_functions_work_in_guest() {
        let src = r#"
virtine int work(int n) {
    char buf[32];
    char* msg = "hello";
    strcpy(buf, msg);
    if (strcmp(buf, "hello") != 0) return -1;
    if (strlen(buf) != 5) return -2;
    char num[24];
    itoa(12345, num);
    return atoi(num) + n;
}
"#;
        let unit = compile(src).unwrap();
        let wasp = Wasp::new_kvm_default();
        let id = unit.virtine("work").unwrap().register(&wasp).unwrap();
        let out = invoke(&wasp, id, &[55]).unwrap();
        assert!(out.exit.is_normal(), "{:?}", out.exit);
        assert_eq!(out.ret as i64, 12400);
    }

    #[test]
    fn malloc_and_structs_in_guest() {
        let src = r#"
struct node {
    int value;
    struct node* next;
};

virtine int sum_list(int n) {
    struct node* head = 0;
    int i;
    for (i = 0; i < n; i = i + 1) {
        struct node* nd = (struct node*)malloc(sizeof(struct node));
        if (nd == 0) return -1;
        nd->value = i;
        nd->next = head;
        head = nd;
    }
    int sum = 0;
    while (head != 0) {
        sum = sum + head->value;
        head = head->next;
    }
    return sum;
}
"#;
        let unit = compile(src).unwrap();
        let wasp = Wasp::new_kvm_default();
        let id = unit.virtine("sum_list").unwrap().register(&wasp).unwrap();
        let out = invoke(&wasp, id, &[10]).unwrap();
        assert!(out.exit.is_normal(), "{:?}", out.exit);
        assert_eq!(out.ret, 45);
    }

    #[test]
    fn base64_matches_reference() {
        let src = r#"
virtine int encode(int n) {
    char src[8];
    char dst[16];
    src[0] = 'M'; src[1] = 'a'; src[2] = 'n';
    base64_encode(src, 3, dst);
    if (strcmp(dst, "TWFu") != 0) return 0;
    return 1;
}
"#;
        let unit = compile(src).unwrap();
        let wasp = Wasp::new_kvm_default();
        let id = unit.virtine("encode").unwrap().register(&wasp).unwrap();
        assert_eq!(invoke(&wasp, id, &[0]).unwrap().ret, 1);
    }

    #[test]
    fn permissive_annotation_allows_stdout_writes() {
        let src = r#"
virtine_permissive int shout(int n) {
    puts("virtine says hi");
    return n * 2;
}
"#;
        let unit = compile(src).unwrap();
        let v = unit.virtine("shout").unwrap();
        assert_eq!(v.annotation, Annotation::VirtinePermissive);
        let wasp = Wasp::new_kvm_default();
        let id = v.register(&wasp).unwrap();
        let out = invoke(&wasp, id, &[21]).unwrap();
        assert_eq!(out.ret, 42);
        assert_eq!(out.invocation.stdout, b"virtine says hi");
    }

    #[test]
    fn plain_virtine_denies_io_hypercalls() {
        let src = r#"
virtine int sneaky(int n) {
    puts("exfiltrate!");
    return n;
}
"#;
        let unit = compile(src).unwrap();
        let wasp = Wasp::new_kvm_default();
        let id = unit.virtine("sneaky").unwrap().register(&wasp).unwrap();
        let out = invoke(&wasp, id, &[1]).unwrap();
        assert!(
            matches!(out.exit, ExitKind::Denied { nr: 1 }),
            "write must be denied under default-deny, got {:?}",
            out.exit
        );
        assert!(out.invocation.stdout.is_empty());
    }

    #[test]
    fn virtine_config_resolves_client_policies() {
        let src = r#"
virtine_config(io_only) int writer(int n) {
    puts("ok");
    return n;
}
"#;
        let unit = compile(src).unwrap();
        let v = unit.virtine("writer").unwrap();
        assert_eq!(v.annotation, Annotation::VirtineConfig("io_only".into()));

        let mut configs = HashMap::new();
        configs.insert(
            "io_only".to_string(),
            HypercallMask::allowing(&[wasp::nr::WRITE]),
        );
        let wasp = Wasp::new_kvm_default();
        let id = v.register_with(&wasp, &configs).unwrap();
        let out = invoke(&wasp, id, &[3]).unwrap();
        assert!(out.exit.is_normal());
        assert_eq!(out.invocation.stdout, b"ok");

        // Without the config the same virtine is default-deny.
        let id2 = v.register(&wasp).unwrap();
        let out2 = invoke(&wasp, id2, &[3]).unwrap();
        assert!(matches!(out2.exit, ExitKind::Denied { .. }));
    }

    #[test]
    fn call_graph_cut_keeps_images_small() {
        let src = r#"
int used(int x) { return x + 1; }
int heavy_unused(int x) {
    char big[4096];
    big[0] = x;
    return big[0];
}
virtine int lean(int n) { return used(n); }
"#;
        let unit = compile(src).unwrap();
        let v = unit.virtine("lean").unwrap();
        assert!(v.image.label("used").is_some());
        assert!(v.image.label("heavy_unused").is_none());
        // Small, as §2 promises: a minimal virtine is tens of KB at most.
        assert!(v.image.size() < 16 * 1024, "image is {}", v.image.size());
    }

    #[test]
    fn multiple_virtines_in_one_unit() {
        let src = "
virtine int double(int x) { return x * 2; }
virtine int triple(int x) { return x * 3; }
";
        let unit = compile(src).unwrap();
        assert_eq!(unit.virtines.len(), 2);
        let wasp = Wasp::new_kvm_default();
        let d = unit.virtine("double").unwrap().register(&wasp).unwrap();
        let t = unit.virtine("triple").unwrap().register(&wasp).unwrap();
        assert_eq!(invoke(&wasp, d, &[7]).unwrap().ret, 14);
        assert_eq!(invoke(&wasp, t, &[7]).unwrap().ret, 21);
    }

    #[test]
    fn no_annotation_is_an_error() {
        let err = compile("int f(int x) { return x; }").unwrap_err();
        assert!(err.msg.contains("no `virtine`"));
    }

    #[test]
    fn raw_environment_compiles_and_runs() {
        let src = r#"
int main_entry() {
    char buf[64];
    int n = vget_data(buf, 64);
    char out[128];
    int m = base64_encode(buf, n, out);
    vreturn_data(out, m);
    vexit(0);
    return 0;
}
"#;
        let v = compile_raw(src, "main_entry", &CompileOptions::default()).unwrap();
        let wasp = Wasp::new_kvm_default();
        let spec = wasp::VirtineSpec::new("b64", v.image.clone(), v.mem_size)
            .with_policy(HypercallMask::ALLOW_ALL)
            .with_snapshot(false);
        let id = wasp.register(spec).unwrap();
        let out = wasp
            .run(id, &[], Invocation::with_payload(b"Man".to_vec()))
            .unwrap();
        assert!(matches!(out.exit, ExitKind::Exited(0)), "{:?}", out.exit);
        assert_eq!(out.result_bytes(), b"TWFu");
    }

    #[test]
    fn compile_errors_surface_with_lines() {
        let err = compile("virtine int f(int n) {\n  return n +;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn options_validation_rejects_tiny_memories() {
        let opts = CompileOptions {
            mem_size: 64 * 1024,
            image_budget: 128 * 1024,
        };
        assert!(compile_with(FIB_C, &opts).is_err());
    }

    /// `crt0` calling `work`, with a stub `__libc_init`, behind the
    /// hypercall prelude every listing starts with.
    fn crt0_listing(kind: Crt0Kind, work: &str) -> String {
        let crt0 = crt0_with_heap("work", kind, 4 * 1024 * 1024, layout::HEAP_BASE);
        let prelude = wasp::hypercall::asm_prelude();
        format!("{prelude}{crt0}\nwork:\n{work}\n  ret\n__libc_init:\n  ret\n")
    }

    #[test]
    fn crt0_full_assembles() {
        let src = crt0_listing(Crt0Kind::Full { arity: 2 }, "  mov r0, 1");
        let img = visa::assemble(&src).expect("crt0 must assemble");
        assert_eq!(img.base, layout::IMAGE_BASE);
        assert!(img.label("__start").is_some());
        assert!(img.label("__gdt").is_some());
    }

    #[test]
    fn hypercall_stub_assembles_with_port_equ() {
        let src = format!(".org 0\n{HYPERCALL_ASM}");
        wasp::hypercall::assemble(&src).expect("hypercall stub must assemble");
    }

    #[test]
    fn boot_reaches_long_mode_and_calls_entry() {
        use visa::{CpuConfig, Machine, Mode, Reg};

        let src = crt0_listing(Crt0Kind::Full { arity: 0 }, "  mov r0, 4242");
        let img = visa::assemble(&src).unwrap();
        let clock = Wasp::new_kvm_default().clock();
        let mut m = Machine::new(clock, CpuConfig::default(), 4 * 1024 * 1024, img.entry);
        m.load_image(&img);
        // First exit is the automatic snapshot hypercall.
        let exit = m.run(100_000).unwrap();
        let snapshot = wasp::nr::SNAPSHOT;
        let port = wasp::HYPERCALL_PORT;
        assert_eq!(
            exit,
            visa::CpuExit::IoOut {
                port,
                value: snapshot
            },
            "expected the automatic snapshot out"
        );
        assert_eq!(m.cpu.mode(), Mode::Long64);
        // Resume through to the hlt.
        let exit = m.run(100_000).unwrap();
        assert_eq!(exit, visa::CpuExit::Hlt);
        assert_eq!(m.cpu.reg(Reg(0)), 4242);
        // All four boot milestones fired in order.
        let ids: Vec<u8> = m.cpu.marks.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    /// `vlibc`'s C wrappers pass literal numbers (mini-C has no named
    /// constants): each must be the number of the row its name names
    /// (`vrecv` and `vtryrecv` → `recv`, and so on), and every row needs
    /// a wrapper.
    #[test]
    fn every_libc_wrapper_passes_its_rows_number() {
        let mut wrapped = std::collections::BTreeSet::new();
        let mut current = "";
        for line in LIBC_C.lines() {
            if let Some(sig) = line.split_once('(').filter(|_| !line.starts_with(' ')) {
                current = sig.0.rsplit([' ', '*']).next().unwrap_or("");
            }
            let Some((_, call)) = line.trim().split_once("hypercall(") else {
                continue;
            };
            let Ok(n) = call.split(',').next().unwrap().parse::<u64>() else {
                continue; // the trampoline's own declaration
            };
            let name = current.trim_start_matches('v').trim_start_matches("try");
            assert_eq!(wasp::hypercall::name(n), name, "{current} passes {n}");
            wrapped.insert(n);
        }
        let rows: std::collections::BTreeSet<u64> =
            wasp::hypercall::TABLE.iter().map(|c| c.nr).collect();
        assert_eq!(wrapped, rows, "a row without a wrapper, or the reverse");
    }
}
