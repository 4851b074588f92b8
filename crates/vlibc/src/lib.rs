//! # vlibc — the virtine guest runtime environments
//!
//! The paper's virtines need an in-guest software layer: boot code that
//! brings the machine up from real mode, and a small C library ("we created
//! a virtine-specific port of newlib", §5.3) whose system calls forward to
//! the hypervisor as hypercalls. This crate carries those pieces as source
//! text — VISA assembly for the boot stubs and mini-C for the library —
//! which the `vcc` compiler packages into each virtine image, pruning
//! whatever the call graph doesn't need (§2: "a virtine image contains only
//! the software that a function needs").
//!
//! Two execution environments mirror Figure 10:
//!
//! * **Full** (environment A, language extensions): boot → libc/CRT init →
//!   automatic `snapshot` hypercall → argument marshalling → workload.
//! * **Raw** (environment B, direct runtime API): boot → libc init →
//!   workload; the guest decides if/when to snapshot (as the Duktape
//!   engine of §6.5 does with its explicit `snapshot()` call).

/// Guest physical layout constants shared between crt0 and the runtime.
pub mod layout {
    /// Where marshalled arguments live (§6.1).
    pub const ARGS_BASE: u64 = 0x0;
    /// First page-table page (PML4); tables occupy 0x1000–0x3FFF.
    pub const PT_BASE: u64 = 0x1000;
    /// Image load/entry address (§5.1).
    pub const IMAGE_BASE: u64 = 0x8000;
    /// Heap base for `malloc` (well above any realistic image).
    pub const HEAP_BASE: u64 = 0x10_0000;
    /// Stack reservation below the top of guest memory.
    pub const STACK_RESERVE: u64 = 64 * 1024;
}

/// Which Figure 10 environment a crt0 targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crt0Kind {
    /// Environment A: automatic snapshot + marshalled call of the virtine
    /// function with `arity` integer arguments.
    Full {
        /// Number of 8-byte arguments to unmarshal from [`layout::ARGS_BASE`].
        arity: usize,
    },
    /// Environment B: boot straight into `main`-style code; no automatic
    /// snapshot, no marshalling.
    Raw,
}

/// Generates the crt0 boot stub for a virtine image.
///
/// The stub is the classic bring-up of §4.2 Table 1: `lgdt`, CR0.PE, far
/// jump to 32-bit, a 512-entry 2 MiB identity map of the first 1 GiB,
/// CR3/CR4.PAE/EFER.LME/CR0.PG, far jump to 64-bit, stack setup, then
/// library initialization and the workload call.
///
/// `entry_fn` is the symbol to call; `mem_size` fixes the stack top and
/// heap limit; `heap_base` (usually [`layout::HEAP_BASE`]) must lie above
/// the image and below the stack reservation.
///
/// The stub names hypercalls (`HC_PORT`, `HC_SNAPSHOT`) without defining
/// them: `vcc` puts Wasp's `.equ` prelude, read off its hypercall table,
/// in front of every listing.
pub fn crt0_with_heap(entry_fn: &str, kind: Crt0Kind, mem_size: usize, heap_base: u64) -> String {
    let stack_top = (mem_size as u64) & !0xF;
    let heap_limit = stack_top.saturating_sub(layout::STACK_RESERVE);
    let image_base = layout::IMAGE_BASE;

    let mut s = String::new();
    s.push_str(&format!(
        "\
.org {image_base:#x}
__start:
  mark 1                 ; boot begin
  lgdt __gdt
  mov r0, 1
  mov cr0, r0            ; CR0.PE: protected transition
  ljmp32 __p32
__p32:
  mark 2                 ; protected mode reached
  mov r1, 0x1000         ; PML4 -> PDPT
  mov r2, 0x2003
  store.q [r1], r2
  mov r1, 0x2000         ; PDPT -> PD
  mov r2, 0x3003
  store.q [r1], r2
  mov r3, 0              ; 512 x 2MB identity map
  mov r4, 0x83
  mov r5, 0x3000
__ptloop:
  store.q [r5], r4
  add r5, 8
  add r4, 0x200000
  add r3, 1
  cmp r3, 512
  jl __ptloop
  mov r7, 0x1000
  mov cr3, r7
  mov r7, 0x20
  mov cr4, r7            ; PAE
  mov r7, 0x100
  wrmsr 0xC0000080, r7   ; EFER.LME
  mov r7, 0x80000001
  mov cr0, r7            ; CR0.PG (+PE)
  ljmp64 __l64
__l64:
  mark 3                 ; long mode reached
  mov sp, {stack_top:#x}
  mov r8, {heap_limit:#x}
  push r8
  mov r8, {heap_base:#x}
  push r8
  call __libc_init
  add sp, 16
  mark 4                 ; CRT/libc init done
"
    ));
    match kind {
        Crt0Kind::Full { arity } => {
            s.push_str(
                "  mov r6, HC_SNAPSHOT\n  out HC_PORT, r6      ; automatic snapshot (env A)\n  mark 5\n",
            );
            // Marshal: push arguments right-to-left from ARGS_BASE.
            s.push_str("  mov r9, 0\n");
            for i in (0..arity).rev() {
                s.push_str(&format!("  load.q r8, [r9 + {}]\n  push r8\n", 8 * i));
            }
            s.push_str(&format!("  call {entry_fn}\n"));
            if arity > 0 {
                s.push_str(&format!("  add sp, {}\n", 8 * arity));
            }
            s.push_str("  hlt\n");
        }
        Crt0Kind::Raw => {
            s.push_str(&format!("  call {entry_fn}\n  hlt\n"));
        }
    }
    s.push_str("__gdt: .dq 0\n");
    s
}

/// The hypercall trampoline, callable from mini-C as
/// `int hypercall(int nr, int a, int b, int c)`.
///
/// Wasp's ABI: the hypercall number is written to the port (`HC_PORT`, from
/// the same prelude as [`crt0_with_heap`]); arguments ride in `r1`–`r3`;
/// the handler's return value appears in `r0` (§5.1, one exit per call).
pub const HYPERCALL_ASM: &str = "\
hypercall:
  push fp
  mov fp, sp
  load.q r6, [fp + 16]   ; nr
  load.q r1, [fp + 24]
  load.q r2, [fp + 32]
  load.q r3, [fp + 40]
  out HC_PORT, r6
  pop fp
  ret
";

/// The mini-C library source: the "newlib port" of §5.3. Compiled into the
/// same translation unit as user code, so the call-graph cut of §2 prunes
/// unused routines from the image.
pub const LIBC_C: &str = r#"
int hypercall(int nr, int a, int b, int c);

int __heap_ptr;
int __heap_limit;

void __libc_init(int base, int limit) {
    __heap_ptr = base;
    __heap_limit = limit;
}

/* Bump allocator with no reclamation: the shell is wiped after every
   invocation anyway, so free() is a no-op. */
char* malloc(int n) {
    n = (n + 15) & ~15;
    if (__heap_ptr + n > __heap_limit) {
        return 0;
    }
    int p = __heap_ptr;
    __heap_ptr = __heap_ptr + n;
    return (char*)p;
}

void free(char* p) {
}

int heap_used() {
    return __heap_ptr;
}

void* memcpy(char* dst, char* src, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        dst[i] = src[i];
    }
    return dst;
}

void* memset(char* dst, int c, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        dst[i] = c;
    }
    return dst;
}

int strlen(char* s) {
    int n;
    n = 0;
    while (s[n] != 0) {
        n = n + 1;
    }
    return n;
}

char* strcpy(char* dst, char* src) {
    int i;
    i = 0;
    while (src[i] != 0) {
        dst[i] = src[i];
        i = i + 1;
    }
    dst[i] = 0;
    return dst;
}

int strcmp(char* a, char* b) {
    int i;
    i = 0;
    while (a[i] != 0 && a[i] == b[i]) {
        i = i + 1;
    }
    return a[i] - b[i];
}

int strncmp(char* a, char* b, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        if (a[i] != b[i]) {
            return a[i] - b[i];
        }
        if (a[i] == 0) {
            return 0;
        }
    }
    return 0;
}

/* Renders v in decimal into buf; returns the length. */
int itoa(int v, char* buf) {
    int i;
    int j;
    int neg;
    char tmp[24];
    neg = 0;
    if (v < 0) {
        neg = 1;
        v = 0 - v;
    }
    i = 0;
    if (v == 0) {
        tmp[0] = '0';
        i = 1;
    }
    while (v > 0) {
        tmp[i] = '0' + v % 10;
        v = v / 10;
        i = i + 1;
    }
    j = 0;
    if (neg) {
        buf[0] = '-';
        j = 1;
    }
    while (i > 0) {
        i = i - 1;
        buf[j] = tmp[i];
        j = j + 1;
    }
    buf[j] = 0;
    return j;
}

int atoi(char* s) {
    int v;
    int sign;
    int i;
    v = 0;
    sign = 1;
    i = 0;
    if (s[0] == '-') {
        sign = 0 - 1;
        i = 1;
    }
    while (s[i] >= '0' && s[i] <= '9') {
        v = v * 10 + (s[i] - '0');
        i = i + 1;
    }
    return v * sign;
}

/* ---- System calls: forwarded to the hypervisor (§5.3: "Newlib allows
   developers to provide their own system call implementations; we simply
   forward them to the hypervisor as a hypercall.") Mini-C has no named
   constants, so each wrapper passes its row's number of Wasp's hypercall
   table; vcc's tests check each against the row its name names. ---- */

void vexit(int code) {
    hypercall(0, code, 0, 0);
}

int vwrite(int fd, char* buf, int len) {
    return hypercall(1, fd, (int)buf, len);
}

int vread(int fd, char* buf, int len) {
    return hypercall(2, fd, (int)buf, len);
}

int vopen(char* path) {
    return hypercall(3, (int)path, strlen(path), 0);
}

int vclose(int fd) {
    return hypercall(4, fd, 0, 0);
}

int vstat(char* path, int* size_out) {
    return hypercall(5, (int)path, strlen(path), (int)size_out);
}

int vsend(char* buf, int len) {
    return hypercall(6, (int)buf, len, 0);
}

/* Blocking: parks the virtine until data (or EOF) arrives. Returns the
   byte count, 0 at end-of-stream, -1 with no connection bound. */
int vrecv(char* buf, int maxlen) {
    return hypercall(7, (int)buf, maxlen, 0);
}

/* Non-blocking: -2 (WOULD_BLOCK) when the connection is open but empty,
   otherwise as vrecv. */
int vtryrecv(char* buf, int maxlen) {
    return hypercall(7, (int)buf, maxlen, 1);
}

int vsnapshot() {
    return hypercall(8, 0, 0, 0);
}

int vget_data(char* buf, int maxlen) {
    return hypercall(9, (int)buf, maxlen, 0);
}

int vreturn_data(char* buf, int len) {
    return hypercall(10, (int)buf, len, 0);
}

int puts(char* s) {
    return vwrite(1, s, strlen(s));
}

/* ---- base64 (the §6.5 workload) ---- */

int base64_encode(char* src, int n, char* dst) {
    char* tab;
    int i;
    int o;
    int b0;
    int b1;
    int b2;
    tab = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    i = 0;
    o = 0;
    while (i + 2 < n) {
        b0 = src[i];
        b1 = src[i + 1];
        b2 = src[i + 2];
        dst[o] = tab[(b0 >> 2) & 63];
        dst[o + 1] = tab[((b0 << 4) | (b1 >> 4)) & 63];
        dst[o + 2] = tab[((b1 << 2) | (b2 >> 6)) & 63];
        dst[o + 3] = tab[b2 & 63];
        i = i + 3;
        o = o + 4;
    }
    if (i + 1 == n) {
        b0 = src[i];
        dst[o] = tab[(b0 >> 2) & 63];
        dst[o + 1] = tab[(b0 << 4) & 63];
        dst[o + 2] = '=';
        dst[o + 3] = '=';
        o = o + 4;
    }
    if (i + 2 == n) {
        b0 = src[i];
        b1 = src[i + 1];
        dst[o] = tab[(b0 >> 2) & 63];
        dst[o + 1] = tab[((b0 << 4) | (b1 >> 4)) & 63];
        dst[o + 2] = tab[(b1 << 2) & 63];
        dst[o + 3] = '=';
        o = o + 4;
    }
    dst[o] = 0;
    return o;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crt0_raw_has_no_snapshot_out() {
        let raw = crt0_with_heap("main", Crt0Kind::Raw, 1 << 20, layout::HEAP_BASE);
        assert!(!raw.contains("out HC_PORT, r6"));
        let full = crt0_with_heap(
            "main",
            Crt0Kind::Full { arity: 0 },
            1 << 20,
            layout::HEAP_BASE,
        );
        assert!(full.contains("out HC_PORT, r6"));
    }

    #[test]
    fn crt0_marshals_args_right_to_left() {
        let s = crt0_with_heap("f", Crt0Kind::Full { arity: 3 }, 1 << 20, layout::HEAP_BASE);
        let first = s.find("[r9 + 16]").expect("arg 2 first");
        let last = s.find("[r9 + 0]").expect("arg 0 last");
        assert!(first < last);
        assert!(s.contains("add sp, 24"));
    }
}
