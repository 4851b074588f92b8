//! The Wasp hypercall interface: numbers, policies, and canned handlers.
//!
//! "Hypercalls in Wasp are not meant to emulate low-level virtual devices,
//! but are instead designed to provide high-level hypervisor services with
//! as few exits as possible" (§5.1). A guest issues a hypercall with a
//! single `out` to [`HYPERCALL_PORT`]: the written value is the hypercall
//! number, arguments travel in registers `r1`–`r5`, and the handler's return
//! value is placed in `r0` before the guest resumes — one exit per call.
//!
//! Virtines live in a default-deny environment: "Wasp provides no externally
//! observable behavior through hypercalls other than the ability to exit the
//! virtual context" (§5.1). The [`HypercallMask`] is the client-specified
//! bitmask policy of `virtine_config(cfg)` (§5.3); clients may further
//! interpose a custom filter or full custom handlers.

use std::collections::HashMap;

pub use hostsim::WaitTarget;
use hostsim::{Fd, HostKernel, IoClass, SockId};
use visa::cpu::Fault;

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

/// Hypercall numbers for Wasp's canned, general-purpose handlers (§5.1:
/// clients "can also choose from a variety of general-purpose handlers that
/// Wasp provides out-of-the-box; these canned hypercalls are used by our
/// language extensions").
pub mod nr {
    /// `exit(code)` — always permitted; the only default-allowed call.
    pub const EXIT: u64 = 0;
    /// `write(fd, buf, len)`.
    pub const WRITE: u64 = 1;
    /// `read(fd, buf, max_len)`.
    pub const READ: u64 = 2;
    /// `open(path_ptr, path_len) -> fd`.
    pub const OPEN: u64 = 3;
    /// `close(fd)`.
    pub const CLOSE: u64 = 4;
    /// `stat(path_ptr, path_len, out_ptr)` — writes the size as a `u64`.
    pub const STAT: u64 = 5;
    /// `send(buf, len)` on the bound connection.
    pub const SEND: u64 = 6;
    /// `recv(buf, max_len) -> len` on the bound connection.
    pub const RECV: u64 = 7;
    /// `snapshot()` — asks the runtime to checkpoint the virtine here.
    pub const SNAPSHOT: u64 = 8;
    /// `get_data(buf, max_len) -> len` — copies the invocation payload in.
    pub const GET_DATA: u64 = 9;
    /// `return_data(buf, len)` — copies the invocation result out.
    pub const RETURN_DATA: u64 = 10;
    /// Number of defined hypercalls.
    pub const COUNT: u64 = 11;
}

/// Returns a human-readable name for a hypercall number.
pub fn name(n: u64) -> &'static str {
    match n {
        nr::EXIT => "exit",
        nr::WRITE => "write",
        nr::READ => "read",
        nr::OPEN => "open",
        nr::CLOSE => "close",
        nr::STAT => "stat",
        nr::SEND => "send",
        nr::RECV => "recv",
        nr::SNAPSHOT => "snapshot",
        nr::GET_DATA => "get_data",
        nr::RETURN_DATA => "return_data",
        _ => "unknown",
    }
}

/// A bitmask of permitted hypercalls — the `virtine_config(cfg)` policy
/// object of §5.3 ("a configuration structure that contains a bit mask of
/// allowed hypercalls").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HypercallMask(u64);

impl HypercallMask {
    /// The default-deny policy. §5.1: "Wasp provides no externally
    /// observable behavior through hypercalls other than the ability to
    /// exit the virtual context." `exit` and the runtime-internal
    /// `snapshot` (which observes nothing outside the virtine and is
    /// one-shot) are therefore the only calls that survive deny-all.
    pub const DENY_ALL: HypercallMask = HypercallMask((1 << nr::EXIT) | (1 << nr::SNAPSHOT));

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

impl Default for HypercallMask {
    fn default() -> HypercallMask {
        HypercallMask::DENY_ALL
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

/// Access to guest memory, abstracting over a virtualized context
/// (`kvmsim::VmFd`) and native execution (`wasp::native`).
pub trait GuestMem {
    /// Reads `len` bytes at guest address `addr`.
    fn read_guest(&self, addr: u64, len: usize) -> Result<Vec<u8>, Fault>;
    /// Writes bytes at guest address `addr`.
    fn write_guest(&mut self, addr: u64, data: &[u8]) -> Result<(), Fault>;
}

/// Why a virtine cannot make progress: the parked hypercall a blocked run
/// completes once its wait ends, carried by [`HcOutcome::Block`] and held
/// by a suspended run until the scheduler sees the wake and resumes it.
///
/// `hostsim` owns the half that names the host object and says when the
/// wait is over ([`WaitTarget`]); this is the guest half — where the
/// completion writes guest memory. A receive (`recv`, `read(0)`) delivers
/// up to `len` bytes at `buf` with the count in `r0`: the one charged
/// syscall the blocking call is, performed exactly where the hypercall
/// faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitReason {
    /// The host object whose readiness ends the wait.
    pub target: WaitTarget,
    /// Guest address the completion writes to.
    pub buf: u64,
    /// Guest-supplied bound on the delivery.
    pub len: usize,
}

/// What the runtime should do after a handled hypercall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HcOutcome {
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
    /// The handler decided the virtine must die (bad arguments, repeated
    /// one-shot calls, ...).
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

/// Dispatches one canned hypercall.
///
/// Handlers follow the threat model of §3.2: they "take care to assume that
/// inputs have not been properly sanitized" — every pointer/length pair is
/// bounds-checked against guest memory before use, and paths must be UTF-8.
/// A malformed request kills the virtine rather than touching host state.
pub fn handle_canned(
    n: u64,
    args: [u64; 5],
    mem: &mut dyn GuestMem,
    kernel: &HostKernel,
    inv: &mut Invocation,
) -> Result<HcOutcome, Fault> {
    match n {
        nr::EXIT => Ok(HcOutcome::Exit(args[0])),
        nr::WRITE => {
            let (fd, buf, len) = (args[0], args[1], args[2] as usize);
            let data = mem.read_guest(buf, len)?;
            match (fd, inv.conn) {
                (0 | 1, Some(conn)) => match kernel.net_send(conn, &data) {
                    Ok(()) => Ok(HcOutcome::Resume(len as u64)),
                    Err(_) => Ok(HcOutcome::Resume(GUEST_ERR)),
                },
                (1 | 2, None) => {
                    inv.stdout.extend_from_slice(&data);
                    Ok(HcOutcome::Resume(len as u64))
                }
                _ => Ok(HcOutcome::Resume(GUEST_ERR)),
            }
        }
        nr::READ => {
            let (fd, buf, len) = (args[0], args[1], args[2] as usize);
            if let (0, Some(conn)) = (fd, inv.conn) {
                // Reading "fd 0" with a bound connection is a socket recv.
                // Always blocking: `read` has no flags argument (and the
                // register that would carry one holds caller garbage).
                let target = WaitTarget::Sock(conn);
                return complete_or_wait(mem, kernel, WaitReason { target, buf, len }, false);
            }
            let Some(&host_fd) = inv.open_fds.get(&fd) else {
                return Ok(HcOutcome::Resume(GUEST_ERR));
            };
            match kernel.sys_read(host_fd, len) {
                Ok(data) => {
                    mem.write_guest(buf, &data)?;
                    Ok(HcOutcome::Resume(data.len() as u64))
                }
                // End-of-file is the clean 0; a closed or bad descriptor
                // is -1 — the classes never alias.
                Err(e) => Ok(HcOutcome::Resume(guest_ret(e.class()))),
            }
        }
        nr::OPEN => {
            let (ptr, len) = (args[0], args[1] as usize);
            if len > 4096 {
                return Ok(HcOutcome::Kill("open: unreasonable path length"));
            }
            let raw = mem.read_guest(ptr, len)?;
            let Ok(path) = String::from_utf8(raw) else {
                return Ok(HcOutcome::Resume(GUEST_ERR));
            };
            match kernel.sys_open(&path) {
                Ok(host_fd) => Ok(HcOutcome::Resume(inv.register_fd(host_fd))),
                Err(_) => Ok(HcOutcome::Resume(GUEST_ERR)),
            }
        }
        nr::CLOSE => {
            let fd = args[0];
            match inv.open_fds.remove(&fd) {
                Some(host_fd) => {
                    let _ = kernel.sys_close(host_fd);
                    Ok(HcOutcome::Resume(0))
                }
                None => Ok(HcOutcome::Resume(GUEST_ERR)),
            }
        }
        nr::STAT => {
            let (ptr, len, out) = (args[0], args[1] as usize, args[2]);
            if len > 4096 {
                return Ok(HcOutcome::Kill("stat: unreasonable path length"));
            }
            let raw = mem.read_guest(ptr, len)?;
            let Ok(path) = String::from_utf8(raw) else {
                return Ok(HcOutcome::Resume(GUEST_ERR));
            };
            match kernel.sys_stat(&path) {
                Ok(st) => {
                    mem.write_guest(out, &st.size.to_le_bytes())?;
                    Ok(HcOutcome::Resume(0))
                }
                Err(_) => Ok(HcOutcome::Resume(GUEST_ERR)),
            }
        }
        nr::SEND => {
            let (buf, len) = (args[0], args[1] as usize);
            let Some(conn) = inv.conn else {
                return Ok(HcOutcome::Resume(GUEST_ERR));
            };
            let data = mem.read_guest(buf, len)?;
            match kernel.net_send(conn, &data) {
                Ok(()) => Ok(HcOutcome::Resume(len as u64)),
                Err(_) => Ok(HcOutcome::Resume(GUEST_ERR)),
            }
        }
        nr::RECV => {
            let (buf, len) = (args[0], args[1] as usize);
            let nonblock = args[2] & RECV_NONBLOCK != 0;
            let Some(conn) = inv.conn else {
                return Ok(HcOutcome::Resume(GUEST_ERR));
            };
            let target = WaitTarget::Sock(conn);
            complete_or_wait(mem, kernel, WaitReason { target, buf, len }, nonblock)
        }
        nr::SNAPSHOT => {
            inv.snapshot_requests += 1;
            if inv.snapshot_requests > 1 {
                // One-shot by co-design (§6.5).
                return Ok(HcOutcome::Kill("repeated snapshot hypercall"));
            }
            Ok(HcOutcome::TakeSnapshot)
        }
        nr::GET_DATA => {
            inv.get_data_requests += 1;
            if inv.get_data_requests > 1 {
                return Ok(HcOutcome::Kill("repeated get_data hypercall"));
            }
            let (buf, max_len) = (args[0], args[1] as usize);
            let n = inv.payload.len().min(max_len);
            let data = inv.payload[..n].to_vec();
            mem.write_guest(buf, &data)?;
            Ok(HcOutcome::Resume(n as u64))
        }
        nr::RETURN_DATA => {
            let (buf, len) = (args[0], args[1] as usize);
            let data = mem.read_guest(buf, len)?;
            inv.result = data;
            Ok(HcOutcome::Resume(len as u64))
        }
        _ => Ok(HcOutcome::Kill("unknown hypercall")),
    }
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
    mem: &mut dyn GuestMem,
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
/// error's guest encoding. A hostile `buf` faults here, on the blocked and
/// the unblocked path alike.
pub(crate) fn complete(
    mem: &mut dyn GuestMem,
    kernel: &HostKernel,
    wait: WaitReason,
) -> Result<u64, Fault> {
    let WaitTarget::Sock(sock) = wait.target;
    match kernel.net_recv(sock, wait.len) {
        Ok(Some(data)) => {
            mem.write_guest(wait.buf, &data)?;
            Ok(data.len() as u64)
        }
        Ok(None) => Ok(0),
        Err(e) => Ok(guest_ret(e.class())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vclock::Clock;

    /// A plain byte buffer standing in for guest memory.
    struct Buf(Vec<u8>);

    impl GuestMem for Buf {
        fn read_guest(&self, addr: u64, len: usize) -> Result<Vec<u8>, Fault> {
            let a = addr as usize;
            if a + len > self.0.len() {
                return Err(Fault::PhysOutOfBounds { paddr: addr });
            }
            Ok(self.0[a..a + len].to_vec())
        }
        fn write_guest(&mut self, addr: u64, data: &[u8]) -> Result<(), Fault> {
            let a = addr as usize;
            if a + data.len() > self.0.len() {
                return Err(Fault::PhysOutOfBounds { paddr: addr });
            }
            self.0[a..a + data.len()].copy_from_slice(data);
            Ok(())
        }
    }

    fn setup() -> (HostKernel, Buf, Invocation) {
        let kernel = HostKernel::new(Clock::new(), None);
        (kernel, Buf(vec![0; 4096]), Invocation::default())
    }

    #[test]
    fn masks_enforce_default_deny() {
        let deny = HypercallMask::DENY_ALL;
        assert!(deny.allows(nr::EXIT));
        assert!(deny.allows(nr::SNAPSHOT));
        for n in 1..nr::COUNT {
            if n == nr::SNAPSHOT {
                continue;
            }
            assert!(!deny.allows(n), "{} leaked through deny-all", name(n));
        }
        let allow = HypercallMask::ALLOW_ALL;
        for n in 0..nr::COUNT {
            assert!(allow.allows(n));
        }
        let some = HypercallMask::allowing(&[nr::SEND, nr::RECV]);
        assert!(some.allows(nr::EXIT) && some.allows(nr::SEND) && some.allows(nr::RECV));
        assert!(!some.allows(nr::OPEN));
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
        m.write_guest(100, b"hi there").unwrap();
        let out = handle_canned(nr::WRITE, [1, 100, 8, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(8));
        assert_eq!(inv.stdout, b"hi there");
    }

    #[test]
    fn file_open_read_close_through_hypercalls() {
        let (k, mut m, mut inv) = setup();
        k.fs_add_file("/data.txt", b"filedata".to_vec());
        m.write_guest(0, b"/data.txt").unwrap();

        let fd = match handle_canned(nr::OPEN, [0, 9, 0, 0, 0], &mut m, &k, &mut inv).unwrap() {
            HcOutcome::Resume(fd) => fd,
            other => panic!("open failed: {other:?}"),
        };
        assert!(fd >= 3, "guest fds start at 3, got {fd}");

        let out = handle_canned(nr::READ, [fd, 512, 64, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(8));
        assert_eq!(m.read_guest(512, 8).unwrap(), b"filedata");

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
        m.write_guest(0, b"/data.txt").unwrap();
        let HcOutcome::Resume(fd) =
            handle_canned(nr::OPEN, [0, 9, 0, 0, 0], &mut m, &k, &mut inv).unwrap()
        else {
            panic!("open failed")
        };
        let out = handle_canned(nr::READ, [fd, 512, 1, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(1));
        // The guest's length is taken as given, and must not overflow the
        // cursor arithmetic underneath.
        let out = handle_canned(nr::READ, [fd, 600, u64::MAX, 0, 0], &mut m, &k, &mut inv);
        assert_eq!(out.unwrap(), HcOutcome::Resume(7));
        assert_eq!(m.read_guest(600, 7).unwrap(), b"iledata");
    }

    #[test]
    fn stat_writes_size_into_guest_memory() {
        let (k, mut m, mut inv) = setup();
        k.fs_add_file("/f", vec![0; 777]);
        m.write_guest(0, b"/f").unwrap();
        let out = handle_canned(nr::STAT, [0, 2, 256, 0, 0], &mut m, &k, &mut inv).unwrap();
        assert_eq!(out, HcOutcome::Resume(0));
        let size = u64::from_le_bytes(m.read_guest(256, 8).unwrap().try_into().unwrap());
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
        assert_eq!(m.read_guest(0, 4).unwrap(), b"ping");

        m.write_guest(128, b"pong").unwrap();
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
        assert_eq!(
            out,
            HcOutcome::Block(WaitReason {
                target: WaitTarget::Sock(server),
                buf: 0,
                len: 64
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
        assert_eq!(m.read_guest(0, 4).unwrap(), b"data");

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
        assert_eq!(m.read_guest(0, 6).unwrap(), b"input!");

        m.write_guest(100, b"output").unwrap();
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
                buf: BUF,
                len: MSG.len(),
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
            assert_eq!(f.m.read_guest(BUF, MSG.len()).unwrap(), MSG, "{kind:?}");

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

            // A hostile buffer faults identically on both paths.
            const HOSTILE: u64 = 0xFFFF_0000;
            let mut direct = Fixture::blocked();
            direct.end_wait("ready");
            let (fault, _) = direct.call(kind, HOSTILE, false);
            let fault = fault.expect_err("hostile buf must fault");
            let mut parked = Fixture::blocked();
            let (out, _) = parked.call(kind, HOSTILE, false);
            let Ok(HcOutcome::Block(wait)) = out else {
                panic!("{kind:?}: parks first, faults at the completion: {out:?}");
            };
            parked.end_wait("ready");
            let (resumed, _) = parked.resume(wait).expect("the wait is over");
            assert_eq!(resumed, Err(fault), "{kind:?}");
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
