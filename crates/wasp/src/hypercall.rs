//! The Wasp hypercall interface: one table of calls, their decoder, the
//! policy mask, and the canned handlers.
//!
//! "Hypercalls in Wasp are not meant to emulate low-level virtual devices,
//! but are instead designed to provide high-level hypervisor services with
//! as few exits as possible" (§5.1). A guest issues a hypercall with a
//! single `out` to [`HYPERCALL_PORT`]: the written value is the hypercall
//! number, arguments travel in registers `r1`–`r5`, and the handler's return
//! value is placed in `r0` before the guest resumes — one exit per call.
//!
//! [`TABLE`] is the interface: one row per call, with its number, name,
//! argument kinds, whether it may block and whether it survives
//! [`HypercallMask::DENY_ALL`]. The [`nr`] constants, [`name`], the
//! deny-all mask and the guest's `.equ HC_*` names ([`asm_prelude`]) are
//! all read off it. Every argument is checked against its row before any
//! handler runs, so a handler sees checked bytes, a UTF-8 path, a
//! descriptor or a bounded output buffer, never a raw guest pointer.
//!
//! Virtines live in a default-deny environment: "Wasp provides no externally
//! observable behavior through hypercalls other than the ability to exit the
//! virtual context" (§5.1). The [`HypercallMask`] is the client-specified
//! bitmask policy of `virtine_config(cfg)` (§5.3), and a tenant profile can
//! narrow it further ([`HypercallMask::intersect`]).

use std::collections::HashMap;

pub use hostsim::WaitTarget;
use hostsim::{Fd, HostKernel, IoClass, SockId};
use visa::asm::{AsmError, Image};
use visa::cpu::Fault;
use visa::mem::{Memory, PhysAccessError};

/// The I/O port virtines issue hypercalls on.
pub const HYPERCALL_PORT: u16 = 0x1;

/// `recv` flag: return [`WOULD_BLOCK`] instead of blocking when no data is
/// queued (the guest ABI's `MSG_DONTWAIT`). Rides in the hypercall's third
/// argument register.
pub const RECV_NONBLOCK: u64 = 1;

/// Sentinel a *non-blocking* `recv` returns when the socket is open but
/// empty. Distinct from `0` (EOF: peer closed and drained) and from the
/// errno-style `-1` error (no connection bound); as a signed integer it
/// reads as -2, mirroring the contract guests already check with
/// `n <= 0`.
pub const WOULD_BLOCK: u64 = u64::MAX - 1;

/// Longest path `open` and `stat` accept; a longer one kills the virtine
/// before any guest byte is copied.
pub const PATH_MAX: u64 = 4096;

/// What a hypercall argument is, and so how the decoder checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgKind {
    /// One register, passed through (`exit`'s code).
    Value,
    /// One register naming a guest descriptor. Guests never see host
    /// descriptors: a handler resolves it in the invocation's own table.
    Fd,
    /// A pointer and a length register: bytes the call reads. The decoder
    /// copies them out; a range outside guest memory faults.
    In,
    /// A pointer and a length register: where the call writes at most
    /// that many bytes. The pointer must lie in guest memory; each write
    /// is checked at the length it actually writes.
    Out,
    /// A pointer register: where the call writes one little-endian `u64`.
    OutU64,
    /// A pointer and a length register: a path of at most [`PATH_MAX`]
    /// bytes. Longer kills the virtine; not UTF-8 is `-1`.
    Path,
    /// One register of flags; a bit outside the mask is `-1`.
    Flags(u64),
}

impl ArgKind {
    /// Registers the argument takes.
    fn regs(self) -> usize {
        1 + usize::from(matches!(self, ArgKind::In | ArgKind::Out | ArgKind::Path))
    }
}

/// One row of [`TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercall {
    /// The value the guest writes to [`HYPERCALL_PORT`], and the row's
    /// index in [`TABLE`].
    pub nr: u64,
    /// The call's name; guests spell it `HC_` and upper case.
    pub name: &'static str,
    /// Its arguments, in register order from `r1`.
    pub args: &'static [ArgKind],
    /// Whether it may park the virtine on a host object.
    pub blocks: bool,
    /// Whether [`HypercallMask::DENY_ALL`] admits it.
    pub deny_all: bool,
}

/// Most arguments any row takes.
const MAX_ARGS: usize = 2;

macro_rules! hypercalls {
    ($($nr:literal $konst:ident $name:literal [$($arg:expr),*] $blocks:literal $deny:literal;)*) => {
        /// Hypercall numbers, one per [`TABLE`] row (§5.1: clients "can
        /// also choose from a variety of general-purpose handlers that Wasp
        /// provides out-of-the-box").
        pub mod nr {
            $(#[doc = concat!("`", $name, "`: see [`TABLE`](super::TABLE).")]
            pub const $konst: u64 = $nr;)*
            /// Number of defined hypercalls.
            pub const COUNT: u64 = super::TABLE.len() as u64;
        }

        /// Every hypercall, row *i* numbered *i*.
        pub const TABLE: &[Hypercall] = {
            use ArgKind::*;
            &[$(Hypercall {
                nr: $nr,
                name: $name,
                args: &[$($arg),*],
                blocks: $blocks,
                deny_all: $deny,
            }),*]
        };

        /// Each row's `nr` constant beside its name, for the test that
        /// they spell the same call.
        #[cfg(test)]
        const CONSTANTS: &[(&str, &str)] = &[$((stringify!($konst), $name)),*];
    };
}

hypercalls! {
    // nr constant     name           arguments from r1            blocks deny-all
    0  EXIT         "exit"         [Value]                      false  true;
    1  WRITE        "write"        [Fd, In]                     false  false;
    2  READ         "read"         [Fd, Out]                    true   false;
    3  OPEN         "open"         [Path]                       false  false;
    4  CLOSE        "close"        [Fd]                         false  false;
    5  STAT         "stat"         [Path, OutU64]               false  false;
    6  SEND         "send"         [In]                         false  false;
    7  RECV         "recv"         [Out, Flags(RECV_NONBLOCK)]  true   false;
    8  SNAPSHOT     "snapshot"     []                           false  true;
    9  GET_DATA     "get_data"     [Out]                        false  false;
    10 RETURN_DATA  "return_data"  [In]                         false  false;
}

/// The row numbered `n`, if any.
fn row(n: u64) -> Option<&'static Hypercall> {
    usize::try_from(n).ok().and_then(|i| TABLE.get(i))
}

/// Returns a human-readable name for a hypercall number.
pub fn name(n: u64) -> &'static str {
    row(n).map_or("unknown", |call| call.name)
}

/// The guest side of [`TABLE`]: one `.equ` line for the port
/// (`HC_PORT`) and one per call (`HC_EXIT`, `HC_WRITE`, …), for guest
/// assembly to name each call by.
pub fn asm_prelude() -> String {
    let equ = |c: &Hypercall| format!(".equ HC_{}, {}\n", c.name.to_ascii_uppercase(), c.nr);
    format!(".equ HC_PORT, {HYPERCALL_PORT:#x}\n") + &TABLE.iter().map(equ).collect::<String>()
}

/// Assembles a guest source that names its hypercalls through
/// [`asm_prelude`].
pub fn assemble(src: &str) -> Result<Image, AsmError> {
    visa::assemble(&(asm_prelude() + src))
}

/// A bitmask of permitted hypercalls — the `virtine_config(cfg)` policy
/// object of §5.3 ("a configuration structure that contains a bit mask of
/// allowed hypercalls").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HypercallMask(u64);

impl HypercallMask {
    /// The default-deny policy: the rows of [`TABLE`] marked `deny_all`.
    /// §5.1: "Wasp provides no externally observable behavior through
    /// hypercalls other than the ability to exit the virtual context", so
    /// those are `exit` and the runtime-internal `snapshot` (which observes
    /// nothing outside the virtine and is one-shot).
    pub const DENY_ALL: HypercallMask = {
        let (mut bits, mut i) = (0, 0);
        while i < TABLE.len() {
            if TABLE[i].deny_all {
                bits |= 1 << TABLE[i].nr;
            }
            i += 1;
        }
        HypercallMask(bits)
    };

    /// The `virtine_permissive` policy: everything allowed (§5.3).
    pub const ALLOW_ALL: HypercallMask = HypercallMask(u64::MAX);

    /// Builds a mask allowing exactly the listed hypercalls (plus `exit`,
    /// which cannot be revoked — a virtine must always be able to die).
    pub fn allowing(calls: &[u64]) -> HypercallMask {
        let mut m = HypercallMask::DENY_ALL;
        for &c in calls {
            m.0 |= 1 << c;
        }
        m
    }

    /// Whether hypercall `n` is permitted.
    pub fn allows(self, n: u64) -> bool {
        n < 64 && self.0 & (1 << n) != 0
    }

    /// Intersects two policies: a call survives only if both masks allow
    /// it. Used by multi-tenant dispatch, where a tenant profile can only
    /// *narrow* what a virtine spec already permits — never widen it.
    /// `exit` (and the runtime-internal `snapshot`) remain allowed, since
    /// both operands always carry them.
    pub fn intersect(self, other: HypercallMask) -> HypercallMask {
        HypercallMask(self.0 & other.0)
    }
}

/// Per-invocation state a virtine's hypercalls operate on: its payload,
/// result buffer, optional bound connection, captured stdout, and the
/// private guest-fd table (guests never see host descriptors).
#[derive(Debug, Default)]
pub struct Invocation {
    /// Data handed to the virtine (`get_data`).
    pub payload: Vec<u8>,
    /// Data the virtine returned (`return_data`).
    pub result: Vec<u8>,
    /// Host socket bound as the virtine's connection (guest fd 0/1 and
    /// `send`/`recv`), e.g. the accepted HTTP connection of §6.3.
    pub conn: Option<SockId>,
    /// Bytes the virtine wrote to fd 1 with no connection bound.
    pub stdout: Vec<u8>,
    /// Guest fd → host fd translation for files opened by this invocation.
    open_fds: HashMap<u64, Fd>,
    next_guest_fd: u64,
    /// Number of `snapshot` requests seen (the JS co-design of §6.5 rejects
    /// repeats: "snapshot and get_data cannot be called more than once").
    pub snapshot_requests: u32,
    /// Number of `get_data` requests seen.
    pub get_data_requests: u32,
}

impl Invocation {
    /// Creates an invocation delivering `payload` to the guest.
    pub fn with_payload(payload: Vec<u8>) -> Invocation {
        Invocation {
            payload,
            ..Invocation::default()
        }
    }

    /// Creates an invocation bound to a host connection.
    pub fn with_conn(conn: SockId) -> Invocation {
        Invocation {
            conn: Some(conn),
            ..Invocation::default()
        }
    }

    /// A fresh invocation carrying the same *inputs* — payload and bound
    /// connection — with virgin runtime state (no result, no stdout, no
    /// open fds). This is
    /// the seed a dispatcher-level retry or hedge re-submits: `Invocation`
    /// is deliberately not `Clone` (mid-run state must not be duplicated),
    /// but its input half can be re-issued for an idempotent re-run.
    pub fn respawn(&self) -> Invocation {
        Invocation {
            payload: self.payload.clone(),
            conn: self.conn,
            ..Invocation::default()
        }
    }

    fn register_fd(&mut self, host: Fd) -> u64 {
        // Guest fds start at 3 (0/1/2 are the conventional std streams).
        let fd = self.next_guest_fd.max(3);
        self.next_guest_fd = fd + 1;
        self.open_fds.insert(fd, host);
        fd
    }
}

/// The fault a guest-memory access outside memory raises.
fn out_of_bounds(e: PhysAccessError) -> Fault {
    Fault::PhysOutOfBounds { paddr: e.paddr }
}

/// A checked [`ArgKind::Out`] buffer: where a call may write, and at most
/// how much.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutBuf {
    addr: u64,
    cap: usize,
}

impl OutBuf {
    /// Writes the first `cap` bytes of `data` and returns how many it
    /// wrote. A range outside guest memory faults.
    fn write(self, mem: &mut Memory, data: &[u8]) -> Result<u64, Fault> {
        let data = &data[..data.len().min(self.cap)];
        mem.write_bytes(self.addr, data).map_err(out_of_bounds)?;
        Ok(data.len() as u64)
    }
}

/// Why a virtine cannot make progress: the parked hypercall a blocked run
/// completes once its wait ends, carried by a blocking call's outcome and held
/// by a suspended run until the scheduler sees the wake and resumes it.
///
/// `hostsim` owns the half that names the host object and says when the
/// wait is over ([`WaitTarget`]); this is the guest half — the checked
/// buffer the completion writes. A receive (`recv`, `read(0)`) delivers up
/// to the buffer's length with the count in `r0`: the one charged syscall
/// the blocking call is, performed exactly where the hypercall faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitReason {
    /// The host object whose readiness ends the wait.
    pub target: WaitTarget,
    /// Where the completion writes.
    out: OutBuf,
}

/// What the runtime should do after a handled hypercall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HcOutcome {
    /// Place the value in `r0` and resume the guest.
    Resume(u64),
    /// The guest requested termination with an exit code.
    Exit(u64),
    /// The guest asked for a snapshot at this point.
    TakeSnapshot,
    /// A blocking operation cannot complete yet. A resumable runner
    /// suspends the virtine here (the exit-not-busy-wait contract); a
    /// non-resumable runner degrades the call to its non-blocking form and
    /// hands the guest [`WOULD_BLOCK`].
    Block(WaitReason),
    /// The virtine must die (an unknown call, an unreasonable argument,
    /// a repeated one-shot call, ...).
    Kill(&'static str),
}

/// Error code returned to guests for failed operations (as `u64`, it is the
/// two's-complement of -1).
pub(crate) const GUEST_ERR: u64 = u64::MAX;

/// One rule for every host I/O failure, keyed by the shared
/// [`IoClass`] taxonomy: end-of-stream is the clean `0` guests already
/// check for, and everything else — bad handle, closed, refused, busy,
/// missing — is the errno-style `-1`. `fs` and `net` failures both map
/// here, so no layer can alias "you closed this" into a success or EOF
/// into an error.
pub(crate) fn guest_ret(class: IoClass) -> u64 {
    match class {
        IoClass::Eof => 0,
        _ => GUEST_ERR,
    }
}

/// A decoded argument: what a handler receives for each [`ArgKind`].
#[derive(Debug)]
enum Arg {
    Value(u64),
    Fd(u64),
    In(Vec<u8>),
    Out(OutBuf),
    Path(String),
    Flags(u64),
    /// Past the row's last argument.
    None,
}

/// Checks the registers of call `call` against its row — §3.2's "assume
/// inputs have not been properly sanitized", written once. A bad range
/// faults; an unreasonable or malformed argument is the outcome the
/// guest gets instead of the call (`Err`).
fn decode(
    call: &Hypercall,
    regs: [u64; 5],
    mem: &Memory,
) -> Result<Result<[Arg; MAX_ARGS], HcOutcome>, Fault> {
    let bytes = |a, len| mem.slice(a, len).map(<[u8]>::to_vec).map_err(out_of_bounds);
    let mut args = [Arg::None, Arg::None];
    let mut r = 0;
    for (slot, &kind) in args.iter_mut().zip(call.args) {
        let (a, b) = (regs[r], regs.get(r + 1).copied().unwrap_or(0));
        r += kind.regs();
        *slot = match kind {
            ArgKind::Value => Arg::Value(a),
            ArgKind::Fd => Arg::Fd(a),
            ArgKind::In => Arg::In(bytes(a, b)?),
            ArgKind::Out | ArgKind::OutU64 => {
                // The pointer itself must be in memory, so a hostile buffer
                // faults here rather than after a wait.
                bytes(a, 0)?;
                let cap = if kind == ArgKind::Out { b as usize } else { 8 };
                Arg::Out(OutBuf { addr: a, cap })
            }
            ArgKind::Path if b > PATH_MAX => {
                return Ok(Err(HcOutcome::Kill("unreasonable path length")))
            }
            ArgKind::Path => match String::from_utf8(bytes(a, b)?) {
                Ok(path) => Arg::Path(path),
                Err(_) => return Ok(Err(HcOutcome::Resume(GUEST_ERR))),
            },
            ArgKind::Flags(valid) if a & !valid != 0 => {
                return Ok(Err(HcOutcome::Resume(GUEST_ERR)))
            }
            ArgKind::Flags(_) => Arg::Flags(a),
        };
    }
    Ok(Ok(args))
}

/// Dispatches one canned hypercall: looks its number up in [`TABLE`],
/// decodes its arguments, and runs its handler on checked values. An
/// unknown number kills the virtine rather than touching host state.
pub(crate) fn handle_canned(
    n: u64,
    regs: [u64; 5],
    mem: &mut Memory,
    kernel: &HostKernel,
    inv: &mut Invocation,
) -> Result<HcOutcome, Fault> {
    use Arg::{Fd, Flags, In, Out, Path, Value};
    use HcOutcome::Resume;
    let Some(call) = row(n) else {
        return Ok(HcOutcome::Kill("unknown hypercall"));
    };
    let args = match decode(call, regs, mem)? {
        Ok(args) => args,
        Err(refused) => return Ok(refused),
    };
    let sent = |r: Result<(), _>, len: usize| Resume(r.map_or(GUEST_ERR, |()| len as u64));
    Ok(match (call.nr, args) {
        (nr::EXIT, [Value(code), _]) => HcOutcome::Exit(code),
        (nr::WRITE, [Fd(fd), In(data)]) => match (fd, inv.conn) {
            (0 | 1, Some(conn)) => sent(kernel.net_send(conn, &data), data.len()),
            (1 | 2, None) => {
                inv.stdout.extend_from_slice(&data);
                Resume(data.len() as u64)
            }
            _ => Resume(GUEST_ERR),
        },
        (nr::READ, [Fd(fd), Out(out)]) => match (fd, inv.conn) {
            // Reading "fd 0" with a bound connection is a socket recv.
            // Always blocking: `read` has no flags argument (and the
            // register that would carry one holds caller garbage).
            (0, Some(conn)) => {
                let target = WaitTarget::Sock(conn);
                return complete_or_wait(mem, kernel, WaitReason { target, out }, false);
            }
            _ => match inv.open_fds.get(&fd).map(|&h| kernel.sys_read(h, out.cap)) {
                Some(Ok(data)) => Resume(out.write(mem, &data)?),
                // End-of-file is the clean 0; a closed or bad descriptor
                // is -1 — the classes never alias.
                Some(Err(e)) => Resume(guest_ret(e.class())),
                None => Resume(GUEST_ERR),
            },
        },
        (nr::OPEN, [Path(path), _]) => Resume(
            kernel
                .sys_open(&path)
                .map_or(GUEST_ERR, |h| inv.register_fd(h)),
        ),
        (nr::CLOSE, [Fd(fd), _]) => match inv.open_fds.remove(&fd) {
            Some(host_fd) => {
                let _ = kernel.sys_close(host_fd);
                Resume(0)
            }
            None => Resume(GUEST_ERR),
        },
        (nr::STAT, [Path(path), Out(out)]) => match kernel.sys_stat(&path) {
            Ok(st) => Resume(out.write(mem, &st.size.to_le_bytes()).map(|_| 0)?),
            Err(_) => Resume(GUEST_ERR),
        },
        (nr::SEND, [In(data), _]) => match inv.conn {
            Some(conn) => sent(kernel.net_send(conn, &data), data.len()),
            None => Resume(GUEST_ERR),
        },
        (nr::RECV, [Out(out), Flags(flags)]) => match inv.conn {
            Some(conn) => {
                let (target, nonblock) = (WaitTarget::Sock(conn), flags & RECV_NONBLOCK != 0);
                return complete_or_wait(mem, kernel, WaitReason { target, out }, nonblock);
            }
            None => Resume(GUEST_ERR),
        },
        (nr::SNAPSHOT, _) => {
            inv.snapshot_requests += 1;
            // One-shot by co-design (§6.5).
            match inv.snapshot_requests {
                1 => HcOutcome::TakeSnapshot,
                _ => HcOutcome::Kill("repeated snapshot hypercall"),
            }
        }
        (nr::GET_DATA, [Out(out), _]) => {
            inv.get_data_requests += 1;
            match inv.get_data_requests {
                1 => Resume(out.write(mem, &inv.payload)?),
                _ => HcOutcome::Kill("repeated get_data hypercall"),
            }
        }
        (nr::RETURN_DATA, [In(data), _]) => {
            let len = data.len() as u64;
            inv.result = data;
            Resume(len)
        }
        (_, args) => unreachable!("{} decoded to {args:?}, not its row", call.name),
    })
}

/// The blocking-I/O contract, written once for `recv` and `read(0)` (all
/// outcomes guest-distinguishable):
///
/// * the wait is over → [`complete`] the call: deliver the queued bytes
///   (or the clean `0` of end-of-stream);
/// * it would block → [`HcOutcome::Block`] carrying `wait` (blocking) or
///   the [`WOULD_BLOCK`] sentinel (non-blocking);
/// * the object is gone or refuses → the error's guest encoding.
///
/// The would-it-block probe is an uncharged kernel-internal poll: a
/// blocking call is *one* syscall whose cost is paid when it completes
/// (here, or by the resume step for a suspended run), so a
/// blocked-then-resumed run charges exactly the cycles an unblocked one
/// does.
fn complete_or_wait(
    mem: &mut Memory,
    kernel: &HostKernel,
    wait: WaitReason,
    nonblock: bool,
) -> Result<HcOutcome, Fault> {
    match kernel.wait_pending(wait.target) {
        Ok(true) if nonblock => {
            // The probe-and-fail is still a syscall round trip.
            kernel.syscall_overhead();
            Ok(HcOutcome::Resume(WOULD_BLOCK))
        }
        Ok(true) => Ok(HcOutcome::Block(wait)),
        Ok(false) => complete(mem, kernel, wait).map(HcOutcome::Resume),
        Err(class) => Ok(HcOutcome::Resume(guest_ret(class))),
    }
}

/// Completes the hypercall `wait` describes now that its wait is over —
/// the one charged syscall — and returns the guest's `r0`: the byte count
/// (0 at end-of-stream: the other side drained and closed), or the
/// error's guest encoding.
pub(crate) fn complete(
    mem: &mut Memory,
    kernel: &HostKernel,
    wait: WaitReason,
) -> Result<u64, Fault> {
    let WaitTarget::Sock(sock) = wait.target;
    match kernel.net_recv(sock, wait.out.cap) {
        Ok(Some(data)) => wait.out.write(mem, &data),
        Ok(None) => Ok(0),
        Err(e) => Ok(guest_ret(e.class())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vclock::Clock;

    /// Guest memory for the handler tests.
    type Buf = Memory;

    fn setup() -> (HostKernel, Buf, Invocation) {
        let kernel = HostKernel::new(Clock::new(), None);
        (kernel, Buf::new(4096), Invocation::default())
    }

    #[test]
    fn row_i_is_numbered_i_and_fits_the_decoder() {
        for (i, call) in TABLE.iter().enumerate() {
            assert_eq!(call.nr, i as u64, "{}", call.name);
            assert_eq!(name(call.nr), call.name);
            assert!(call.args.len() <= MAX_ARGS, "{}", call.name);
            let regs: usize = call.args.iter().map(|k| k.regs()).sum();
            assert!(regs <= 5, "{} takes {regs} registers", call.name);
        }
        assert_eq!(nr::COUNT, TABLE.len() as u64);
        for (i, (konst, name)) in CONSTANTS.iter().enumerate() {
            assert_eq!(
                konst.to_ascii_lowercase(),
                *name,
                "nr::{konst} names row {i}"
            );
        }
        // The guest names every row: `HC_<NAME>` assembles to its number.
        for call in TABLE {
            let hc = format!("HC_{}", call.name.to_ascii_uppercase());
            let img = assemble(&format!(".org 0\n mov r0, {hc}\n out HC_PORT, r0\n")).unwrap();
            let decoded = visa::Inst::decode(&img.bytes).unwrap().0;
            assert_eq!(decoded, visa::Inst::MovRI(visa::Reg(0), call.nr), "{hc}");
        }
    }

    /// The `out`s of the guest assembly in `text` that write to a literal
    /// port, or to `HC_PORT` from a register last loaded with a literal.
    fn literal_hypercalls(text: &str) -> Vec<String> {
        let literal =
            |s: &str| s.parse::<u64>().is_ok() || s.starts_with("0x") || s.starts_with("0X");
        let mut loaded = std::collections::HashSet::new();
        let mut found = Vec::new();
        for line in text.lines() {
            let code = line.split(';').next().unwrap_or("");
            let code = code
                .trim_start_matches([' ', '\t', '"'])
                .trim_start_matches("\\x20");
            let Some((op, rest)) = code.trim().split_once(' ') else {
                continue;
            };
            let mut operands = rest
                .split(',')
                .map(|o| o.trim().trim_end_matches('"').trim());
            let (dst, src) = (operands.next().unwrap_or(""), operands.next());
            match op {
                ".org" => loaded.clear(),
                "out"
                    if literal(dst)
                        || (dst == "HC_PORT" && src.is_some_and(|r| loaded.contains(r))) =>
                {
                    found.push(line.trim().to_string())
                }
                "mov" if src.is_some_and(literal) => drop(loaded.insert(dst.to_string())),
                _ => drop(loaded.remove(dst)),
            }
        }
        found
    }

    /// Every guest source above Wasp names its calls (`mov r0, HC_RECV`,
    /// `out HC_PORT, r0`). `visa` and `kvmsim` sit below it: their `out`s
    /// are the raw port exits of ISA and VM tests, with no table to name.
    #[test]
    fn guest_sources_name_every_call_and_the_port() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let below = [root.join("crates/visa"), root.join("crates/kvmsim")];
        let mut dirs = vec![
            root.join("crates"),
            root.join("examples"),
            root.join("tests"),
        ];
        let mut found = Vec::new();
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if below.iter().any(|b| path.starts_with(b)) {
                    continue;
                } else if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    // One-line sources spell their line breaks `\n`.
                    let text = std::fs::read_to_string(&path).unwrap().replace("\\n", "\n");
                    let here = literal_hypercalls(&text).into_iter();
                    found.extend(here.map(|l| format!("{}: {l}", path.display())));
                }
            }
        }
        assert!(
            found.is_empty(),
            "literal hypercall sites:\n{}",
            found.join("\n")
        );
        // The scanner itself: both literal forms are caught.
        assert_eq!(
            literal_hypercalls(" mov r0, 8\n out HC_PORT, r0\n").len(),
            1
        );
        assert_eq!(literal_hypercalls("\\x20 out 1, r0").len(), 1);
        assert!(literal_hypercalls(" mov r0, HC_EXIT\n out HC_PORT, r0\n").is_empty());
    }

    #[test]
    fn masks_enforce_default_deny() {
        let deny = HypercallMask::DENY_ALL;
        for call in TABLE {
            assert_eq!(deny.allows(call.nr), call.deny_all, "{}", call.name);
        }
        assert!(deny.allows(nr::EXIT) && deny.allows(nr::SNAPSHOT));
        let allow = HypercallMask::ALLOW_ALL;
        for n in 0..nr::COUNT {
            assert!(allow.allows(n));
        }
        let some = HypercallMask::allowing(&[nr::SEND, nr::RECV]);
        assert!(some.allows(nr::EXIT) && some.allows(nr::SEND) && some.allows(nr::RECV));
        assert!(!some.allows(nr::OPEN));
    }

    /// The catalog in docs/reliability.md, one line per row of [`TABLE`].
    #[test]
    fn the_docs_catalog_is_the_table() {
        let kind = |k: &ArgKind| match k {
            ArgKind::Value => "value".to_string(),
            ArgKind::Fd => "descriptor".to_string(),
            ArgKind::In => "in buffer".to_string(),
            ArgKind::Out => "out buffer".to_string(),
            ArgKind::OutU64 => "out `u64`".to_string(),
            ArgKind::Path => "path".to_string(),
            ArgKind::Flags(mask) => format!("flags `{mask:#x}`"),
        };
        let yes = |b: bool| if b { "yes" } else { "no" };
        let mut catalog =
            "| nr | name | arguments, from `r1` | may block | under `DENY_ALL` |\n".to_string();
        catalog += "|---|---|---|---|---|\n";
        for call in TABLE {
            let args: Vec<_> = call.args.iter().map(kind).collect();
            catalog += &format!(
                "| {} | `{}` | {} | {} | {} |\n",
                call.nr,
                call.name,
                if args.is_empty() {
                    "—".to_string()
                } else {
                    args.join(", ")
                },
                yes(call.blocks),
                if call.deny_all { "runs" } else { "denied" },
            );
        }
        let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/reliability.md");
        let doc = std::fs::read_to_string(doc).unwrap();
        assert!(
            doc.contains(&catalog),
            "docs/reliability.md must carry the catalog of wasp::hypercall::TABLE:\n{catalog}"
        );
    }

    #[test]
    fn exit_carries_the_code() {
        let (k, mut m, mut inv) = setup();
        let out = handle_canned(nr::EXIT, [42, 0, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Exit(42));
    }

    #[test]
    fn write_to_stdout_is_captured() {
        let (k, mut m, mut inv) = setup();
        m.write_bytes(100, b"hi there").unwrap();
        let out = handle_canned(nr::WRITE, [1, 100, 8, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(8));
        assert_eq!(inv.stdout, b"hi there");
    }

    #[test]
    fn file_open_read_close_through_hypercalls() {
        let (k, mut m, mut inv) = setup();
        k.fs_add_file("/data.txt", b"filedata".to_vec());
        m.write_bytes(0, b"/data.txt").unwrap();

        let fd = match handle_canned(nr::OPEN, [0, 9, 0, 0, 0], &mut m, &k, &mut inv).unwrap() {
            HcOutcome::Resume(fd) => fd,
            other => panic!("open failed: {other:?}"),
        };
        assert!(fd >= 3, "guest fds start at 3, got {fd}");

        let out = handle_canned(nr::READ, [fd, 512, 64, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(8));
        assert_eq!(m.slice(512, 8).unwrap(), b"filedata");

        let out = handle_canned(nr::CLOSE, [fd, 0, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(0));
        // Double close fails.
        let out = handle_canned(nr::CLOSE, [fd, 0, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(GUEST_ERR));
    }

    #[test]
    fn a_read_of_u64_max_bytes_reads_the_rest_of_the_file() {
        let (k, mut m, mut inv) = setup();
        k.fs_add_file("/data.txt", b"filedata".to_vec());
        m.write_bytes(0, b"/data.txt").unwrap();
        let HcOutcome::Resume(fd) =
            handle_canned(nr::OPEN, [0, 9, 0, 0, 0], &mut m, &k, &mut inv).unwrap()
        else {
            panic!("open failed")
        };
        let out = handle_canned(nr::READ, [fd, 512, 1, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(1));
        // The guest's length is a cap, taken as given, and must not
        // overflow the cursor arithmetic underneath.
        let out = handle_canned(nr::READ, [fd, 600, u64::MAX, 0, 0], &mut m, &k, &mut inv);
        assert_eq!(out.unwrap(), HcOutcome::Resume(7));
        assert_eq!(m.slice(600, 7).unwrap(), b"iledata");
    }

    #[test]
    fn stat_writes_size_into_guest_memory() {
        let (k, mut m, mut inv) = setup();
        k.fs_add_file("/f", vec![0; 777]);
        m.write_bytes(0, b"/f").unwrap();
        let out = handle_canned(nr::STAT, [0, 2, 256, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(0));
        let size = u64::from_le_bytes(m.slice(256, 8).unwrap().try_into().unwrap());
        assert_eq!(size, 777);
    }

    #[test]
    fn guest_cannot_use_raw_host_fds() {
        let (k, mut m, mut inv) = setup();
        k.fs_add_file("/secret", b"s3cr3t".to_vec());
        // Open on the host side, bypassing the virtine's fd table.
        let host_fd = k.sys_open("/secret").unwrap();
        // The guest tries to read using the *host* fd number directly; the
        // per-invocation table does not know it, so the read is refused.
        let out = handle_canned(nr::READ, [host_fd.0, 0, 64, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(GUEST_ERR));
    }

    #[test]
    fn send_recv_flow_over_bound_connection() {
        let (k, mut m, _) = setup();
        k.net_listen(80).unwrap();
        let client = k.net_connect(80).unwrap();
        let server = k.net_accept(80).unwrap().unwrap();
        let mut inv = Invocation::with_conn(server);

        k.net_send(client, b"ping").unwrap();
        let out = handle_canned(nr::RECV, [0, 64, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(4));
        assert_eq!(m.slice(0, 4).unwrap(), b"ping");

        m.write_bytes(128, b"pong").unwrap();
        let out = handle_canned(nr::SEND, [128, 4, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(4));
        assert_eq!(k.net_recv(client, 64).unwrap().unwrap(), b"pong");
    }

    #[test]
    fn recv_distinguishes_data_wouldblock_and_eof() {
        let (k, mut m, _) = setup();
        k.net_listen(80).unwrap();
        let client = k.net_connect(80).unwrap();
        let server = k.net_accept(80).unwrap().unwrap();
        let mut inv = Invocation::with_conn(server);

        // Open but empty, blocking (flags = 0): an exit, not a busy-wait.
        let out = handle_canned(nr::RECV, [0, 64, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        let out_buf = OutBuf { addr: 0, cap: 64 };
        let target = WaitTarget::Sock(server);
        assert_eq!(
            out,
            HcOutcome::Block(WaitReason {
                target,
                out: out_buf
            })
        );

        // Open but empty, non-blocking: the WOULD_BLOCK sentinel, distinct
        // from both EOF (0) and error (-1).
        let out =
            handle_canned(nr::RECV, [0, 64, RECV_NONBLOCK, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(WOULD_BLOCK));
        assert_ne!(WOULD_BLOCK, 0);
        assert_ne!(WOULD_BLOCK, GUEST_ERR);

        // Data queued: delivered regardless of flags.
        k.net_send(client, b"data").unwrap();
        let out =
            handle_canned(nr::RECV, [0, 64, RECV_NONBLOCK, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(4));
        assert_eq!(m.slice(0, 4).unwrap(), b"data");

        // Peer closed and drained: a clean 0 EOF on both paths.
        k.net_close(client).unwrap();
        let out = handle_canned(nr::RECV, [0, 64, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(0), "blocking recv sees EOF");
        let out =
            handle_canned(nr::RECV, [0, 64, RECV_NONBLOCK, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(0), "non-blocking recv sees EOF");
    }

    #[test]
    fn read_on_bound_connection_blocks_when_empty() {
        let (k, mut m, _) = setup();
        k.net_listen(81).unwrap();
        let client = k.net_connect(81).unwrap();
        let server = k.net_accept(81).unwrap().unwrap();
        let mut inv = Invocation::with_conn(server);
        // `read(0, ...)` on the bound connection takes the same blocking
        // path as `recv` (no flags argument: always blocking).
        let out = handle_canned(nr::READ, [0, 256, 64, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert!(matches!(out, HcOutcome::Block(_)));
        k.net_send(client, b"hi").unwrap();
        let out = handle_canned(nr::READ, [0, 256, 64, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(2));
    }

    #[test]
    fn send_without_connection_fails_cleanly() {
        let (k, mut m, mut inv) = setup();
        let out = handle_canned(nr::SEND, [0, 4, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(GUEST_ERR));
    }

    #[test]
    fn get_and_return_data_round_trip() {
        let (k, mut m, _) = setup();
        let mut inv = Invocation::with_payload(b"input!".to_vec());
        let out = handle_canned(nr::GET_DATA, [0, 64, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(6));
        assert_eq!(m.slice(0, 6).unwrap(), b"input!");

        m.write_bytes(100, b"output").unwrap();
        let out = handle_canned(nr::RETURN_DATA, [100, 6, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(6));
        assert_eq!(inv.result, b"output");
    }

    #[test]
    fn wait_targets_name_the_object_that_ends_the_wait() {
        // The scheduler's `park` span detail is the target's `Debug`
        // output: this string is part of the trace format.
        let shown = format!("{:?}", WaitTarget::Sock(SockId(3)));
        assert_eq!(shown, "Sock(SockId(3))");
    }

    /// The two blocking hypercall forms, and the one fixture they are
    /// both driven on: a connection bound as fd 0.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Recv,
        Read0,
    }

    struct Fixture {
        k: HostKernel,
        m: Buf,
        inv: Invocation,
        client: SockId,
        server: SockId,
    }

    const MSG: [u8; 100] = [0x5A; 100];
    const BUF: u64 = 512;

    impl Fixture {
        /// A fixture on which either call would block.
        fn blocked() -> Fixture {
            let (k, m, _) = setup();
            k.net_listen(80).unwrap();
            let client = k.net_connect(80).unwrap();
            let server = k.net_accept(80).unwrap().unwrap();
            let inv = Invocation::with_conn(server);
            Fixture {
                k,
                m,
                inv,
                client,
                server,
            }
        }

        /// Ends the wait the way `state` says, from outside the guest.
        fn end_wait(&self, state: &str) {
            match state {
                "ready" => self.k.net_send(self.client, &MSG).unwrap(),
                "closed" => self.k.net_close(self.client).unwrap(),
                // The guest's own end goes away under it.
                "gone" => self.k.net_close(self.server).unwrap(),
                _ => unreachable!("{state}"),
            }
        }

        fn wait(&self) -> WaitReason {
            WaitReason {
                target: WaitTarget::Sock(self.server),
                out: OutBuf {
                    addr: BUF,
                    cap: MSG.len(),
                },
            }
        }

        /// Issues `kind`'s hypercall at `buf`; returns the outcome and
        /// the cycles the call charged.
        fn call(
            &mut self,
            kind: Kind,
            buf: u64,
            nonblock: bool,
        ) -> (Result<HcOutcome, Fault>, u64) {
            let (flag, len) = (u64::from(nonblock), MSG.len() as u64);
            let (n, args) = match kind {
                Kind::Recv => (nr::RECV, [buf, len, flag, 0, 0]),
                Kind::Read0 => (nr::READ, [0, buf, len, 0, 0]),
            };
            let t0 = self.k.now();
            let out = handle_canned(n, args, &mut self.m, &self.k, &mut self.inv);
            (out, (self.k.now() - t0).get())
        }

        /// What `Wasp::resume_on_shell` does with a parked `wait`: `None`
        /// while it is still pending (a free probe), else the completion
        /// and the cycles it charged.
        fn resume(&mut self, wait: WaitReason) -> Option<(Result<u64, Fault>, u64)> {
            let t0 = self.k.now();
            let pending = self.k.wait_pending(wait.target) == Ok(true);
            let done = (!pending).then(|| complete(&mut self.m, &self.k, wait));
            done.map(|r0| (r0, (self.k.now() - t0).get()))
        }
    }

    #[test]
    fn every_wait_kind_takes_the_one_path_through_all_four_states() {
        use vclock::costs;
        // The charges: one syscall round trip, plus — when bytes move —
        // the socket stack and the copy.
        const SYS: u64 = 2 * costs::HOST_RING_TRANSITION + costs::HOST_SYSCALL_BASE;
        let copy = MSG.len() as u64 * costs::HOST_COPY_PER_BYTE_X1000 / 1_000;
        let moved = SYS + costs::HOST_NET_STACK + copy;
        let n = MSG.len() as u64;

        for kind in [Kind::Recv, Kind::Read0] {
            // Would block. Blocking: parks on the connection, free.
            let mut f = Fixture::blocked();
            let wait = f.wait();
            assert_eq!(f.call(kind, BUF, false), (Ok(HcOutcome::Block(wait)), 0));
            // Non-blocking (`read` has no such form): the sentinel, and
            // the probe-and-fail is one syscall round trip.
            if kind != Kind::Read0 {
                let would_block = Ok(HcOutcome::Resume(WOULD_BLOCK));
                assert_eq!(f.call(kind, BUF, true), (would_block, SYS), "{kind:?}");
            }
            // A spurious resume re-parks without charging anything.
            assert_eq!(f.resume(wait), None, "{kind:?}");

            // Ready: the same r0 and the same charge whether the call
            // found it ready or a resume completes it after a park.
            let mut unblocked = Fixture::blocked();
            unblocked.end_wait("ready");
            let at_block = unblocked.call(kind, BUF, false);
            assert_eq!(at_block, (Ok(HcOutcome::Resume(n)), moved), "{kind:?}");
            f.end_wait("ready");
            assert_eq!(f.resume(wait), Some((Ok(n), moved)), "{kind:?}");
            assert_eq!(f.m.slice(BUF, MSG.len() as u64).unwrap(), MSG, "{kind:?}");

            // EOF: the clean 0 for one syscall on both paths.
            let mut closed = Fixture::blocked();
            closed.end_wait("closed");
            let got = closed.call(kind, BUF, false);
            assert_eq!(got, (Ok(HcOutcome::Resume(0)), SYS), "{kind:?}");
            let mut parked = Fixture::blocked();
            parked.end_wait("closed");
            let wait = parked.wait();
            assert_eq!(parked.resume(wait), Some((Ok(0), SYS)));

            // Bad handle: -1, free at the call (the probe refuses it);
            // one failed syscall when a resume finds the object gone.
            let mut bad = Fixture::blocked();
            bad.inv.conn = Some(SockId(999));
            let got = bad.call(kind, BUF, false);
            assert_eq!(got, (Ok(HcOutcome::Resume(GUEST_ERR)), 0), "{kind:?}");
            let mut gone = Fixture::blocked();
            gone.end_wait("gone");
            let wait = gone.wait();
            assert_eq!(gone.resume(wait), Some((Ok(GUEST_ERR), SYS)), "{kind:?}");

            // A hostile buffer faults at the call, free, whether or not
            // the wait is over: it never parks.
            const HOSTILE: u64 = 0xFFFF_0000;
            for state in ["ready", "pending"] {
                let mut f = Fixture::blocked();
                if state == "ready" {
                    f.end_wait("ready");
                }
                let (out, cycles) = f.call(kind, HOSTILE, false);
                let fault = Fault::PhysOutOfBounds { paddr: HOSTILE };
                assert_eq!((out, cycles), (Err(fault), 0), "{kind:?} {state}");
            }
        }
    }

    #[test]
    fn one_shot_hypercalls_kill_on_repeat() {
        let (k, mut m, mut inv) = setup();
        assert_eq!(
            handle_canned(nr::SNAPSHOT, [0; 5], &mut m, &k, &mut inv).unwrap(),
            HcOutcome::TakeSnapshot
        );
        assert!(matches!(
            handle_canned(nr::SNAPSHOT, [0; 5], &mut m, &k, &mut inv).unwrap(),
            HcOutcome::Kill(_)
        ));
        handle_canned(nr::GET_DATA, [0, 0, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert!(matches!(
            handle_canned(nr::GET_DATA, [0, 0, 0, 0, 0], &mut m, &k, &mut inv).unwrap(),
            HcOutcome::Kill(_)
        ));
    }

    #[test]
    fn hostile_pointers_fault_instead_of_touching_host_state() {
        let (k, mut m, mut inv) = setup();
        // Buffer far outside guest memory.
        let err = handle_canned(nr::WRITE, [1, 0xFFFF_FFFF, 100, 0, 0], &mut m, &k, &mut inv);
        assert!(err.is_err());
        // Unreasonable path length is a kill, not a host allocation.
        let out = handle_canned(nr::OPEN, [0, 1 << 20, 0, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert!(matches!(out, HcOutcome::Kill(_)));
    }

    /// The outcomes the decoder changed for malformed calls: it checks
    /// every argument before the call's own logic runs.
    #[test]
    fn the_decoder_refuses_malformed_arguments_before_the_call_runs() {
        const FAR: u64 = 0xFFFF_0000;
        let far = Err(Fault::PhysOutOfBounds { paddr: FAR });
        let (k, mut m, mut inv) = setup();
        let mut call = |n, regs| handle_canned(n, regs, &mut m, &k, &mut inv);
        // A bad out pointer faults even where the call would have failed
        // (no connection, unknown descriptor, missing file) with -1.
        assert_eq!(call(nr::RECV, [FAR, 64, 0, 0, 0]), far);
        assert_eq!(call(nr::READ, [7, FAR, 64, 0, 0]), far);
        k.fs_add_file("/f", vec![1; 3]);
        assert_eq!(call(nr::STAT, [0, 0, FAR, 0, 0]), far);
        // A bad in buffer faults even where there is no connection.
        assert_eq!(call(nr::SEND, [FAR, 4, 0, 0, 0]), far);
        // A flag bit outside the row's mask is -1.
        assert_eq!(
            call(nr::RECV, [0, 64, 2, 0, 0]),
            Ok(HcOutcome::Resume(GUEST_ERR))
        );
        // `open` and `stat` refuse a long path with one reason.
        let kill = Ok(HcOutcome::Kill("unreasonable path length"));
        assert_eq!(call(nr::OPEN, [0, PATH_MAX + 1, 0, 0, 0]), kill);
        assert_eq!(call(nr::STAT, [0, PATH_MAX + 1, 0, 0, 0]), kill);
        // A repeated `get_data` with a bad pointer faults before it is
        // counted as a repeat.
        assert_eq!(
            call(nr::GET_DATA, [0, 8, 0, 0, 0]),
            Ok(HcOutcome::Resume(0))
        );
        assert_eq!(call(nr::GET_DATA, [FAR, 8, 0, 0, 0]), far);
    }

    /// Every row, every argument kind, hostile values: never a panic, never
    /// a guest byte written outside the row's out buffer, and a value that
    /// no well-formed call passes ends in `-1`, a fault or a kill.
    #[test]
    fn hostile_arguments_end_cleanly_and_write_only_inside_the_out_buffer() {
        const MEM: u64 = 4096;
        const PATH: u64 = 0x300;
        // Benign registers for each kind: a readable buffer, a writable
        // one, the path of a file that exists, an open descriptor.
        let benign = |kind: ArgKind| match kind {
            ArgKind::Value | ArgKind::Flags(_) => [0, 0],
            ArgKind::Fd => [3, 0],
            ArgKind::In => [0x100, 16],
            ArgKind::Out => [0x400, 64],
            ArgKind::OutU64 => [0x400, 0],
            ArgKind::Path => [PATH, 2],
        };
        for call in TABLE {
            let mut base = [0u64; 5];
            let mut at = 0;
            let mut slots = Vec::new();
            for &kind in call.args {
                base[at..at + kind.regs()].copy_from_slice(&benign(kind)[..kind.regs()]);
                slots.push((at, kind));
                at += kind.regs();
            }
            for &(at, kind) in &slots {
                // (registers at `at`, whether a well-formed call could pass them)
                let mut cases: Vec<(Vec<u64>, bool)> = Vec::new();
                let ptr_len = matches!(kind, ArgKind::In | ArgKind::Out | ArgKind::Path);
                if ptr_len || kind == ArgKind::OutU64 {
                    let len = benign(kind)[1];
                    for ptr in [0, MEM - 1, u64::MAX] {
                        let fine = ptr == 0;
                        cases.push((if ptr_len { vec![ptr, len] } else { vec![ptr] }, fine));
                    }
                }
                if ptr_len {
                    // Wraps past 2^64, and the largest length: only an out
                    // buffer may take them, as a cap.
                    let out = kind == ArgKind::Out;
                    cases.push((vec![0x100, u64::MAX - 0x80], out));
                    cases.push((vec![0x100, u64::MAX], out));
                    // A cap below what the call has to give.
                    cases.push((vec![0x400, 1], true));
                }
                if kind == ArgKind::Path {
                    cases.push((vec![PATH, PATH_MAX + 1], false));
                    cases.push((vec![0x380, 2], false)); // not UTF-8
                }
                if let ArgKind::Flags(valid) = kind {
                    cases.extend((0..64).map(|b| (vec![1 << b], valid & 1 << b != 0)));
                }
                if matches!(kind, ArgKind::Value | ArgKind::Fd) {
                    cases.extend([(vec![0], true), (vec![u64::MAX], true)]);
                }
                for (regs, fine) in cases {
                    let mut args = base;
                    args[at..at + regs.len()].copy_from_slice(&regs);
                    let (k, mut m, mut inv) = setup();
                    k.fs_add_file("/f", b"filedata".to_vec());
                    m.write_bytes(PATH, b"/f").unwrap();
                    m.write_bytes(0x380, &[0xFF, 0xFE]).unwrap();
                    let fd = inv.register_fd(k.sys_open("/f").unwrap());
                    assert_eq!(fd, 3);
                    k.net_listen(80).unwrap();
                    let client = k.net_connect(80).unwrap();
                    inv.conn = Some(k.net_accept(80).unwrap().unwrap());
                    k.net_send(client, b"queued bytes").unwrap();
                    inv.payload = b"payload bytes".to_vec();

                    let before = m.slice(0, MEM).unwrap().to_vec();
                    let out = handle_canned(call.nr, args, &mut m, &k, &mut inv);
                    let after = m.slice(0, MEM).unwrap();
                    let what = format!("{} {args:x?}: {out:?}", call.name);
                    let failed = matches!(
                        out,
                        Err(_) | Ok(HcOutcome::Resume(GUEST_ERR) | HcOutcome::Kill(_))
                    );
                    assert!(fine || failed, "{what}");
                    // Where the row lets the call write, and how much.
                    let window = slots.iter().find_map(|&(at, kind)| match kind {
                        ArgKind::Out => Some((args[at], args[at + 1])),
                        ArgKind::OutU64 => Some((args[at], 8)),
                        _ => None,
                    });
                    for (i, (b, a)) in before.iter().zip(after).enumerate() {
                        let i = i as u64;
                        let inside = window.is_some_and(|(p, cap)| i >= p && i - p < cap);
                        assert!(b == a || inside, "{what}: byte {i:#x} changed");
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_hypercall_kills() {
        let (k, mut m, mut inv) = setup();
        let out = handle_canned(999, [0; 5], &mut m, &k, &mut inv).unwrap();
        assert!(matches!(out, HcOutcome::Kill(_)));
    }

    #[test]
    fn the_numbers_past_return_data_are_unknown() {
        // `return_data` is the last call; no number past it names one.
        assert_eq!(nr::COUNT, 11);
        assert_eq!(nr::RETURN_DATA, nr::COUNT - 1);
        for n in nr::COUNT..15 {
            assert_eq!(name(n), "unknown", "{n}");
            let (k, mut m, mut inv) = setup();
            let out = handle_canned(n, [0; 5], &mut m, &k, &mut inv).unwrap();
            assert_eq!(out, HcOutcome::Kill("unknown hypercall"), "{n}");
        }
    }
}
