//! # hostsim — the simulated host operating system
//!
//! The virtines paper measures its abstractions *relative to* host-OS
//! primitives: null function calls, `pthread_create`/`join`, process spawns
//! (Figures 2 and 8), POSIX file I/O re-created from hypercalls (§6.3), the
//! loopback network stack (Figure 4), and SGX enclaves (Figure 8). This
//! crate provides those primitives as cost-charging operations over the
//! shared virtual [`Clock`], plus small functional models (an in-memory
//! filesystem, a loopback socket layer) for the experiments that actually
//! move bytes.
//!
//! The kernel object is cheaply cloneable and single-threaded, mirroring the
//! deterministic discrete simulation used across the workspace.

pub mod fs;
pub mod net;

use std::cell::RefCell;
use std::rc::Rc;

use vclock::noise::NoiseModel;
use vclock::{costs, Clock, Cycles};

pub use fs::{Fd, FileStat, FsError};
pub use net::{NetError, SockId};

/// What a non-destructive probe of a socket's receive side says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvReady {
    /// At least one message is queued; a `recv` returns data.
    Readable,
    /// Nothing queued but the other side is still open: a `recv` would
    /// block.
    WouldBlock,
    /// Nothing queued and the other side closed: a `recv` returns EOF.
    Eof,
}

/// A wait: the host object a blocked run waits on, and the state change
/// that ends the wait. This crate owns the objects, so it owns the
/// definition; [`HostKernel::wait_pending`], [`HostKernel::wait_register`],
/// [`HostKernel::wait_clear`] and [`HostKernel::take_woken`] are everything
/// a runtime or scheduler above needs to park a run on one and wake it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitTarget {
    /// A socket becoming readable (data or EOF).
    Sock(SockId),
}

/// A provider-independent classification of host I/O failures, shared by
/// the [`fs`] and [`net`] layers. Wasp maps every hypercall failure to a
/// guest return code by *class*, so "end of stream", "you closed this",
/// and "never existed" keep their meanings across files and sockets
/// instead of each layer inventing its own aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// The handle was never issued (a caller bug).
    BadHandle,
    /// The handle (or its connection) was closed.
    Closed,
    /// Clean end-of-stream: not an error; guests see `0`.
    Eof,
    /// The named object does not exist.
    NotFound,
    /// The operation was refused (no listener, not listening).
    Refused,
    /// A resource is busy (address in use, waiter slot taken).
    Busy,
}

impl FsError {
    /// This error's [`IoClass`].
    pub fn class(&self) -> IoClass {
        match self {
            FsError::NotFound(_) => IoClass::NotFound,
            FsError::BadFd(_) => IoClass::BadHandle,
            FsError::Closed(_) => IoClass::Closed,
            FsError::Eof(_) => IoClass::Eof,
        }
    }
}

impl NetError {
    /// This error's [`IoClass`].
    pub fn class(&self) -> IoClass {
        match self {
            NetError::ConnectionRefused(_) | NetError::NotListening(_) => IoClass::Refused,
            NetError::AddrInUse(_) | NetError::WaiterBusy(_) => IoClass::Busy,
            NetError::BadSocket(_) => IoClass::BadHandle,
            NetError::Closed(_) => IoClass::Closed,
        }
    }
}

struct Inner {
    clock: Clock,
    noise: RefCell<NoiseModel>,
    fs: RefCell<fs::InMemFs>,
    net: RefCell<net::LoopbackNet>,
}

/// A handle to the simulated host kernel.
///
/// # Examples
///
/// ```
/// use vclock::Clock;
/// use hostsim::HostKernel;
///
/// let clock = Clock::new();
/// let kernel = HostKernel::new(clock.clone(), None);
/// let t0 = clock.now();
/// kernel.pthread_create_join();
/// assert!(clock.now() > t0);
/// ```
#[derive(Clone)]
pub struct HostKernel {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for HostKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HostKernel(t={})", self.inner.clock.now())
    }
}

impl HostKernel {
    /// Creates a kernel charging to `clock`. With `noise_seed = None` the
    /// kernel is noise-free (exact minimum latencies, as in Table 1); with a
    /// seed it reproduces the jitter texture of the paper's error bars.
    pub fn new(clock: Clock, noise_seed: Option<u64>) -> HostKernel {
        let noise = match noise_seed {
            Some(seed) => NoiseModel::seeded(seed),
            None => NoiseModel::disabled(),
        };
        HostKernel {
            inner: Rc::new(Inner {
                clock,
                noise: RefCell::new(noise),
                fs: RefCell::new(fs::InMemFs::default()),
                net: RefCell::new(net::LoopbackNet::default()),
            }),
        }
    }

    /// The clock this kernel charges.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> Cycles {
        self.inner.clock.now()
    }

    fn charge(&self, cycles: u64) {
        self.inner.clock.tick(cycles);
    }

    fn charge_jittered(&self, cycles: u64, spread: f64) {
        let c = self.inner.noise.borrow_mut().jitter(cycles, spread);
        self.charge(c);
    }

    // -- Host execution primitives (Figures 2 and 8 baselines). ----------

    /// A null function call and return ("function" bar of Figure 2).
    pub fn function_call(&self) {
        self.charge(costs::HOST_FUNCTION_CALL);
    }

    /// One user/kernel ring transition.
    pub fn ring_transition(&self) {
        self.charge(costs::HOST_RING_TRANSITION);
    }

    /// A full system-call round trip, excluding any operation-specific work.
    pub fn syscall_overhead(&self) {
        self.charge_jittered(
            2 * costs::HOST_RING_TRANSITION + costs::HOST_SYSCALL_BASE,
            0.02,
        );
    }

    /// `pthread_create` immediately followed by `pthread_join`
    /// ("Linux pthread" of Figure 2).
    pub fn pthread_create_join(&self) {
        self.charge_jittered(costs::HOST_PTHREAD_CREATE_JOIN, 0.04);
    }

    /// `fork`+`exec`+`wait` of a minimal process (Figure 8 "process").
    pub fn process_spawn(&self) {
        self.charge_jittered(costs::HOST_PROCESS_SPAWN, 0.05);
    }

    /// Copies `bytes` at the measured 6.7 GB/s memcpy bandwidth (§6.2).
    pub fn memcpy(&self, bytes: usize) {
        self.charge(costs::memcpy_cycles(bytes));
    }

    /// Zeroes `bytes` at memset bandwidth (virtine shell cleaning, §5.2).
    pub fn memset(&self, bytes: usize) {
        self.charge(costs::memset_cycles(bytes));
    }

    /// Per-byte user/kernel copy cost for I/O system calls.
    fn copy_cost(&self, bytes: usize) -> u64 {
        (bytes as u64 * costs::HOST_COPY_PER_BYTE_X1000) / 1_000
    }

    // -- SGX comparison points (Figure 8). --------------------------------

    /// Creates an SGX enclave ("SGX Create", Figure 8).
    pub fn sgx_create_enclave(&self) {
        self.charge_jittered(costs::SGX_CREATE, 0.03);
    }

    /// Enters a previously created enclave ("ECALL", Figure 8).
    pub fn sgx_ecall(&self) {
        self.charge_jittered(costs::SGX_ECALL, 0.03);
    }

    // -- Filesystem (the 7-hypercall request path of §6.3). ---------------

    /// Installs a file in the in-memory filesystem (no cost; test setup).
    pub fn fs_add_file(&self, path: &str, content: Vec<u8>) {
        self.inner.fs.borrow_mut().add_file(path, content);
    }

    /// `open(2)`.
    pub fn sys_open(&self, path: &str) -> Result<Fd, FsError> {
        self.syscall_overhead();
        self.inner.fs.borrow_mut().open(path)
    }

    /// `stat(2)`.
    pub fn sys_stat(&self, path: &str) -> Result<FileStat, FsError> {
        self.syscall_overhead();
        self.inner.fs.borrow().stat(path)
    }

    /// `read(2)`: reads up to `len` bytes from the descriptor's cursor.
    pub fn sys_read(&self, fd: Fd, len: usize) -> Result<Vec<u8>, FsError> {
        self.syscall_overhead();
        let data = self.inner.fs.borrow_mut().read(fd, len)?;
        self.charge(self.copy_cost(data.len()));
        Ok(data)
    }

    /// `close(2)`.
    pub fn sys_close(&self, fd: Fd) -> Result<(), FsError> {
        self.syscall_overhead();
        self.inner.fs.borrow_mut().close(fd)
    }

    // -- Loopback sockets (Figures 4 and 13). ------------------------------

    /// Binds a listener on `port`.
    pub fn net_listen(&self, port: u16) -> Result<(), NetError> {
        self.syscall_overhead();
        self.inner.net.borrow_mut().listen(port)
    }

    /// Connects to a listening port; returns the client socket.
    pub fn net_connect(&self, port: u16) -> Result<SockId, NetError> {
        self.syscall_overhead();
        let base = costs::HOST_NET_STACK;
        let jittered = self.inner.noise.borrow_mut().net_jitter(base);
        self.charge(jittered);
        self.inner.net.borrow_mut().connect(port)
    }

    /// Accepts a pending connection; `None` if none is queued.
    pub fn net_accept(&self, port: u16) -> Result<Option<SockId>, NetError> {
        self.syscall_overhead();
        let got = self.inner.net.borrow_mut().accept(port)?;
        if got.is_some() {
            let jittered = self
                .inner
                .noise
                .borrow_mut()
                .net_jitter(costs::HOST_NET_ACCEPT);
            self.charge(jittered);
        }
        Ok(got)
    }

    /// `send(2)` on a loopback socket.
    pub fn net_send(&self, sock: SockId, data: &[u8]) -> Result<(), NetError> {
        self.syscall_overhead();
        let base = costs::HOST_NET_STACK + self.copy_cost(data.len());
        let jittered = self.inner.noise.borrow_mut().net_jitter(base);
        self.charge(jittered);
        self.inner.net.borrow_mut().send(sock, data)
    }

    /// `recv(2)` on a loopback socket; `None` if the peer queue is empty.
    pub fn net_recv(&self, sock: SockId, max_len: usize) -> Result<Option<Vec<u8>>, NetError> {
        self.syscall_overhead();
        let got = self.inner.net.borrow_mut().recv(sock, max_len)?;
        if let Some(data) = &got {
            let base = costs::HOST_NET_STACK + self.copy_cost(data.len());
            let jittered = self.inner.noise.borrow_mut().net_jitter(base);
            self.charge(jittered);
        }
        Ok(got)
    }

    /// Closes a socket.
    pub fn net_close(&self, sock: SockId) -> Result<(), NetError> {
        self.syscall_overhead();
        self.inner.net.borrow_mut().close(sock)
    }

    /// Socket endpoints currently open in the loopback network (free
    /// bookkeeping, like `now`: a leak check, not a syscall).
    pub fn net_open_sockets(&self) -> usize {
        self.inner.net.borrow().open_sockets()
    }

    // -- Waits: readiness machinery for event-driven blocked I/O. ----------
    //
    // Kernel-internal bookkeeping, not guest-visible system calls: a
    // blocking `recv` is *one* syscall that parks in the kernel and
    // completes when its socket turns readable, so probing, registration,
    // and wake delivery charge nothing. The data-moving call at wake time
    // carries the full syscall + copy cost, exactly once. The per-socket
    // rule (one waiter per socket) lives in [`net`].

    /// Free probe: would a run waiting on `target` still block? `Ok(false)`
    /// when the awaited `recv` would complete now, with data or with a
    /// clean EOF.
    pub fn wait_pending(&self, target: WaitTarget) -> Result<bool, IoClass> {
        let WaitTarget::Sock(sock) = target;
        let ready = self.inner.net.borrow().poll(sock);
        ready
            .map(|r| r == RecvReady::WouldBlock)
            .map_err(|e| e.class())
    }

    /// Registers one-shot `token`, woken when the wait on `target` ends. A
    /// wait that has already ended wakes the token immediately, so
    /// registration never loses a wake that raced the block decision.
    pub fn wait_register(&self, target: WaitTarget, token: u64) -> Result<(), IoClass> {
        let WaitTarget::Sock(sock) = target;
        let mut net = self.inner.net.borrow_mut();
        net.register_waiter(sock, token).map_err(|e| e.class())
    }

    /// Drops the registration on `target` (the parked run was woken,
    /// moved, or killed): a later readiness event wakes nobody.
    pub fn wait_clear(&self, target: WaitTarget) {
        let WaitTarget::Sock(sock) = target;
        self.inner.net.borrow_mut().clear_waiter(sock);
    }

    /// Drains the tokens whose waits ended since the last call, in wake
    /// order.
    pub fn take_woken(&self) -> Vec<u64> {
        self.inner.net.borrow_mut().take_woken()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> (Clock, HostKernel) {
        let clock = Clock::new();
        let k = HostKernel::new(clock.clone(), None);
        (clock, k)
    }

    #[test]
    fn primitive_costs_follow_figure_2_ordering() {
        let (clock, k) = kernel();
        let (_, f) = clock.time(|| k.function_call());
        let (_, t) = clock.time(|| k.pthread_create_join());
        let (_, p) = clock.time(|| k.process_spawn());
        assert!(f < t && t < p, "f={f} t={t} p={p}");
    }

    #[test]
    fn noise_free_kernel_is_deterministic() {
        let (c1, k1) = kernel();
        let (c2, k2) = kernel();
        k1.pthread_create_join();
        k2.pthread_create_join();
        assert_eq!(c1.now(), c2.now());
    }

    #[test]
    fn seeded_kernels_reproduce_each_other() {
        let ca = Clock::new();
        let ka = HostKernel::new(ca.clone(), Some(11));
        let cb = Clock::new();
        let kb = HostKernel::new(cb.clone(), Some(11));
        for _ in 0..10 {
            ka.process_spawn();
            kb.process_spawn();
        }
        assert_eq!(ca.now(), cb.now());
    }

    #[test]
    fn file_io_round_trip_charges_per_byte() {
        let (clock, k) = kernel();
        k.fs_add_file("/www/index.html", b"hello world".to_vec());

        let st = k.sys_stat("/www/index.html").unwrap();
        assert_eq!(st.size, 11);

        let fd = k.sys_open("/www/index.html").unwrap();
        let t0 = clock.now();
        let data = k.sys_read(fd, 1024).unwrap();
        let small_read = clock.now() - t0;
        assert_eq!(data, b"hello world");
        // Subsequent read hits EOF — the distinct condition, not an error
        // and not an empty read.
        assert_eq!(k.sys_read(fd, 1024), Err(FsError::Eof(fd)));
        k.sys_close(fd).unwrap();

        // A bigger file costs more to read.
        k.fs_add_file("/big", vec![7u8; 1 << 20]);
        let fd = k.sys_open("/big").unwrap();
        let t0 = clock.now();
        let data = k.sys_read(fd, 1 << 20).unwrap();
        let big_read = clock.now() - t0;
        assert_eq!(data.len(), 1 << 20);
        assert!(big_read > small_read);
    }

    #[test]
    fn missing_file_is_an_error() {
        let (_, k) = kernel();
        assert!(k.sys_open("/nope").is_err());
        assert!(k.sys_stat("/nope").is_err());
    }

    #[test]
    fn sockets_pass_messages_in_order() {
        let (_, k) = kernel();
        k.net_listen(80).unwrap();
        let client = k.net_connect(80).unwrap();
        let server = k.net_accept(80).unwrap().expect("pending connection");

        k.net_send(client, b"GET / HTTP/1.0\r\n\r\n").unwrap();
        let got = k.net_recv(server, 4096).unwrap().expect("data");
        assert_eq!(got, b"GET / HTTP/1.0\r\n\r\n");

        k.net_send(server, b"200 OK").unwrap();
        assert_eq!(k.net_recv(client, 4096).unwrap().unwrap(), b"200 OK");

        // Empty queue reads as None (would block).
        assert!(k.net_recv(client, 4096).unwrap().is_none());
        k.net_close(client).unwrap();
        k.net_close(server).unwrap();
    }

    #[test]
    fn accept_without_connection_is_none() {
        let (_, k) = kernel();
        k.net_listen(8080).unwrap();
        assert!(k.net_accept(8080).unwrap().is_none());
    }

    #[test]
    fn sgx_costs_dwarf_everything_else() {
        let (clock, k) = kernel();
        let (_, create) = clock.time(|| k.sgx_create_enclave());
        let (_, ecall) = clock.time(|| k.sgx_ecall());
        let (_, thread) = clock.time(|| k.pthread_create_join());
        assert!(create > Cycles(10_000_000));
        assert!(ecall < thread);
    }

    #[test]
    fn error_classes_unify_across_fs_and_net() {
        let (_, k) = kernel();
        // Closed means closed, everywhere.
        k.net_listen(4).unwrap();
        let s = k.net_connect(4).unwrap();
        k.net_close(s).unwrap();
        assert_eq!(k.net_recv(s, 8).unwrap_err().class(), IoClass::Closed);
        k.fs_add_file("/f", b"z".to_vec());
        let fd = k.sys_open("/f").unwrap();
        k.sys_close(fd).unwrap();
        assert_eq!(k.sys_read(fd, 8).unwrap_err().class(), IoClass::Closed);
        // Bad handles and EOF keep their own classes.
        assert_eq!(
            k.net_recv(SockId(99), 8).unwrap_err().class(),
            IoClass::BadHandle
        );
        let fd = k.sys_open("/f").unwrap();
        k.sys_read(fd, 8).unwrap();
        assert_eq!(k.sys_read(fd, 8).unwrap_err().class(), IoClass::Eof);
    }

    #[test]
    fn memcpy_charges_at_measured_bandwidth() {
        let (clock, k) = kernel();
        let (_, d) = clock.time(|| k.memcpy(16 * 1024 * 1024));
        let ms = d.as_millis();
        assert!((2.0..2.8).contains(&ms), "16MB memcpy = {ms} ms");
    }
}
