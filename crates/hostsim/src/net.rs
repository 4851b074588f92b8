//! Loopback socket layer.
//!
//! The paper's network experiments (the §4.2 echo server, the §6.3 HTTP
//! server) generate requests "from localhost"; this module is the
//! deterministic loopback fabric those bytes travel over. Message-oriented
//! FIFO queues per direction are sufficient for the request/response
//! patterns the experiments use.
//!
//! ## Readiness and waiters
//!
//! Event-driven dispatch (a virtine parked in a blocking `recv` yields its
//! shard worker) needs the socket layer to say *when* a socket becomes
//! readable. Each endpoint can register one opaque waiter token
//! ([`LoopbackNet::register_waiter`]); a `send` to the socket — or a peer
//! `close`, which makes EOF readable — moves the token to a wake queue the
//! scheduler drains with [`LoopbackNet::take_woken`]. Waiters are
//! edge-triggered and one-shot: delivery clears the registration, and a
//! blocked consumer re-registers if it blocks again.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::RecvReady;

/// A socket handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockId(pub u64);

/// Socket-layer errors (mapped to guest return codes by Wasp via
/// [`crate::IoClass`], the error taxonomy shared with `fs` and `chan`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No listener on the port.
    ConnectionRefused(u16),
    /// Port already has a listener.
    AddrInUse(u16),
    /// Socket id was never issued.
    BadSocket(SockId),
    /// Socket was open once but has been locally closed — distinct from
    /// [`NetError::BadSocket`]: a use-after-close and a never-opened
    /// handle are different caller bugs and must not alias.
    Closed(SockId),
    /// Accept on a port that is not listening.
    NotListening(u16),
    /// A waiter is already registered on the socket. One blocked consumer
    /// per socket: silently replacing the first token would orphan its
    /// parked run forever.
    WaiterBusy(SockId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::ConnectionRefused(p) => write!(f, "connection refused on port {p}"),
            NetError::AddrInUse(p) => write!(f, "address in use: port {p}"),
            NetError::BadSocket(s) => write!(f, "bad socket {}", s.0),
            NetError::Closed(s) => write!(f, "socket {} is closed", s.0),
            NetError::NotListening(p) => write!(f, "port {p} is not listening"),
            NetError::WaiterBusy(s) => write!(f, "socket {} already has a waiter", s.0),
        }
    }
}

impl std::error::Error for NetError {}

#[derive(Debug, Default)]
struct Endpoint {
    /// Messages waiting to be received by this endpoint.
    rx: VecDeque<Vec<u8>>,
    /// The other end of the connection, if still open.
    peer: Option<SockId>,
    /// One-shot waiter woken when this endpoint becomes readable.
    waiter: Option<u64>,
}

/// The loopback network: listeners, accept queues, and per-socket queues.
#[derive(Debug, Default)]
pub struct LoopbackNet {
    listeners: HashMap<u16, VecDeque<SockId>>,
    sockets: HashMap<SockId, Endpoint>,
    next_id: u64,
    /// Waiter tokens whose sockets became readable, in wake order.
    woken: Vec<u64>,
}

impl LoopbackNet {
    fn fresh(&mut self) -> SockId {
        self.next_id += 1;
        SockId(self.next_id)
    }

    /// Maps an unknown socket to the precise error: closed-once is
    /// [`NetError::Closed`], never-issued is [`NetError::BadSocket`].
    /// Ids are allocated monotonically, so "issued once but no longer
    /// open" needs no retained history.
    fn missing(&self, sock: SockId) -> NetError {
        if sock.0 >= 1 && sock.0 <= self.next_id {
            NetError::Closed(sock)
        } else {
            NetError::BadSocket(sock)
        }
    }

    /// Binds a listener to `port`.
    pub fn listen(&mut self, port: u16) -> Result<(), NetError> {
        if self.listeners.contains_key(&port) {
            return Err(NetError::AddrInUse(port));
        }
        self.listeners.insert(port, VecDeque::new());
        Ok(())
    }

    /// Creates a connection to `port`; the peer socket waits in the
    /// listener's accept queue.
    pub fn connect(&mut self, port: u16) -> Result<SockId, NetError> {
        if !self.listeners.contains_key(&port) {
            return Err(NetError::ConnectionRefused(port));
        }
        let client = self.fresh();
        let server = self.fresh();
        self.sockets.insert(
            client,
            Endpoint {
                peer: Some(server),
                ..Endpoint::default()
            },
        );
        self.sockets.insert(
            server,
            Endpoint {
                peer: Some(client),
                ..Endpoint::default()
            },
        );
        self.listeners
            .get_mut(&port)
            .expect("checked above")
            .push_back(server);
        Ok(client)
    }

    /// Pops one pending connection off the accept queue.
    pub fn accept(&mut self, port: u16) -> Result<Option<SockId>, NetError> {
        let q = self
            .listeners
            .get_mut(&port)
            .ok_or(NetError::NotListening(port))?;
        Ok(q.pop_front())
    }

    /// Sends one message to the peer, waking its registered waiter if any.
    /// Sending on a connection whose peer closed reports
    /// [`NetError::Closed`] (the EPIPE of this fabric), not a bad handle.
    pub fn send(&mut self, sock: SockId, data: &[u8]) -> Result<(), NetError> {
        let Some(ep) = self.sockets.get(&sock) else {
            return Err(self.missing(sock));
        };
        let peer = ep.peer.ok_or(NetError::Closed(sock))?;
        let peer_ep = self
            .sockets
            .get_mut(&peer)
            .ok_or(NetError::BadSocket(peer))?;
        peer_ep.rx.push_back(data.to_vec());
        if let Some(token) = peer_ep.waiter.take() {
            self.woken.push(token);
        }
        Ok(())
    }

    /// Receives one message (truncated to `max_len`); `None` would block
    /// *or* is EOF — use [`LoopbackNet::poll`] to tell the two apart.
    pub fn recv(&mut self, sock: SockId, max_len: usize) -> Result<Option<Vec<u8>>, NetError> {
        let Some(ep) = self.sockets.get_mut(&sock) else {
            return Err(self.missing(sock));
        };
        Ok(ep.rx.pop_front().map(|mut m| {
            m.truncate(max_len);
            m
        }))
    }

    /// Probes the receive side without consuming anything.
    pub fn poll(&self, sock: SockId) -> Result<RecvReady, NetError> {
        let ep = self.sockets.get(&sock).ok_or_else(|| self.missing(sock))?;
        Ok(if !ep.rx.is_empty() {
            RecvReady::Readable
        } else if ep.peer.is_some() {
            RecvReady::WouldBlock
        } else {
            RecvReady::Eof
        })
    }

    /// Registers `token` to be woken when `sock` becomes readable. If the
    /// socket is *already* readable (data queued, or EOF pending), the
    /// token goes straight to the wake queue — registration never loses a
    /// wake that raced the block decision. At most one waiter per socket:
    /// a second registration is refused ([`NetError::WaiterBusy`]) rather
    /// than silently orphaning the first.
    pub fn register_waiter(&mut self, sock: SockId, token: u64) -> Result<(), NetError> {
        let ready = self.poll(sock)? != RecvReady::WouldBlock;
        let ep = self
            .sockets
            .get_mut(&sock)
            .expect("poll above verified the socket exists");
        if ep.waiter.is_some() {
            return Err(NetError::WaiterBusy(sock));
        }
        if ready {
            self.woken.push(token);
        } else {
            ep.waiter = Some(token);
        }
        Ok(())
    }

    /// Drops any waiter registered on `sock` (e.g. the blocked run was
    /// killed). Missing sockets are fine: close already cleared it.
    pub fn clear_waiter(&mut self, sock: SockId) {
        if let Some(ep) = self.sockets.get_mut(&sock) {
            ep.waiter = None;
        }
    }

    /// Endpoints currently open, either side of a connection counting
    /// one: what the network is holding queues for.
    pub fn open_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// Drains the tokens whose sockets became readable since the last call.
    pub fn take_woken(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.woken)
    }

    /// Closes a socket; the peer keeps its queued data but loses the link.
    /// EOF is readable, so a waiter parked on the peer is woken.
    pub fn close(&mut self, sock: SockId) -> Result<(), NetError> {
        let Some(ep) = self.sockets.remove(&sock) else {
            return Err(self.missing(sock));
        };
        if let Some(peer) = ep.peer {
            if let Some(pe) = self.sockets.get_mut(&peer) {
                pe.peer = None;
                if let Some(token) = pe.waiter.take() {
                    self.woken.push(token);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_requires_listener() {
        let mut n = LoopbackNet::default();
        assert_eq!(n.connect(80), Err(NetError::ConnectionRefused(80)));
        n.listen(80).unwrap();
        assert!(n.connect(80).is_ok());
    }

    #[test]
    fn double_listen_is_refused() {
        let mut n = LoopbackNet::default();
        n.listen(80).unwrap();
        assert_eq!(n.listen(80), Err(NetError::AddrInUse(80)));
    }

    #[test]
    fn messages_flow_both_ways_in_order() {
        let mut n = LoopbackNet::default();
        n.listen(80).unwrap();
        let c = n.connect(80).unwrap();
        let s = n.accept(80).unwrap().unwrap();

        n.send(c, b"one").unwrap();
        n.send(c, b"two").unwrap();
        assert_eq!(n.recv(s, 64).unwrap().unwrap(), b"one");
        assert_eq!(n.recv(s, 64).unwrap().unwrap(), b"two");
        assert_eq!(n.recv(s, 64).unwrap(), None);

        n.send(s, b"reply").unwrap();
        assert_eq!(n.recv(c, 64).unwrap().unwrap(), b"reply");
    }

    #[test]
    fn recv_truncates_to_max_len() {
        let mut n = LoopbackNet::default();
        n.listen(1).unwrap();
        let c = n.connect(1).unwrap();
        let s = n.accept(1).unwrap().unwrap();
        n.send(c, b"0123456789").unwrap();
        assert_eq!(n.recv(s, 4).unwrap().unwrap(), b"0123");
    }

    #[test]
    fn multiple_pending_connections_queue_up() {
        let mut n = LoopbackNet::default();
        n.listen(7).unwrap();
        let c1 = n.connect(7).unwrap();
        let c2 = n.connect(7).unwrap();
        assert_ne!(c1, c2);
        assert!(n.accept(7).unwrap().is_some());
        assert!(n.accept(7).unwrap().is_some());
        assert!(n.accept(7).unwrap().is_none());
    }

    #[test]
    fn poll_distinguishes_data_wouldblock_and_eof() {
        let mut n = LoopbackNet::default();
        n.listen(5).unwrap();
        let c = n.connect(5).unwrap();
        let s = n.accept(5).unwrap().unwrap();
        assert_eq!(n.poll(s).unwrap(), RecvReady::WouldBlock);
        n.send(c, b"x").unwrap();
        assert_eq!(n.poll(s).unwrap(), RecvReady::Readable);
        n.recv(s, 8).unwrap().unwrap();
        assert_eq!(n.poll(s).unwrap(), RecvReady::WouldBlock);
        n.close(c).unwrap();
        assert_eq!(n.poll(s).unwrap(), RecvReady::Eof);
        assert!(n.poll(c).is_err(), "closed socket has no readiness");
    }

    #[test]
    fn send_wakes_registered_waiter_once() {
        let mut n = LoopbackNet::default();
        n.listen(5).unwrap();
        let c = n.connect(5).unwrap();
        let s = n.accept(5).unwrap().unwrap();
        n.register_waiter(s, 42).unwrap();
        assert!(n.take_woken().is_empty(), "nothing readable yet");
        n.send(c, b"a").unwrap();
        assert_eq!(n.take_woken(), vec![42]);
        // One-shot: a second send with no registration wakes nobody.
        n.send(c, b"b").unwrap();
        assert!(n.take_woken().is_empty());
    }

    #[test]
    fn registering_on_an_already_readable_socket_wakes_immediately() {
        let mut n = LoopbackNet::default();
        n.listen(5).unwrap();
        let c = n.connect(5).unwrap();
        let s = n.accept(5).unwrap().unwrap();
        n.send(c, b"early").unwrap();
        n.register_waiter(s, 7).unwrap();
        assert_eq!(n.take_woken(), vec![7], "no lost wake-up");
        // EOF is readable too.
        n.recv(s, 64).unwrap().unwrap();
        n.close(c).unwrap();
        n.register_waiter(s, 8).unwrap();
        assert_eq!(n.take_woken(), vec![8]);
    }

    #[test]
    fn peer_close_wakes_waiter_for_eof() {
        let mut n = LoopbackNet::default();
        n.listen(5).unwrap();
        let c = n.connect(5).unwrap();
        let s = n.accept(5).unwrap().unwrap();
        n.register_waiter(s, 9).unwrap();
        n.close(c).unwrap();
        assert_eq!(n.take_woken(), vec![9]);
        assert_eq!(n.poll(s).unwrap(), RecvReady::Eof);
    }

    #[test]
    fn second_waiter_registration_is_refused_not_overwritten() {
        let mut n = LoopbackNet::default();
        n.listen(5).unwrap();
        let c = n.connect(5).unwrap();
        let s = n.accept(5).unwrap().unwrap();
        n.register_waiter(s, 1).unwrap();
        assert_eq!(n.register_waiter(s, 2), Err(NetError::WaiterBusy(s)));
        // The first registration survives and is the one woken.
        n.send(c, b"x").unwrap();
        assert_eq!(n.take_woken(), vec![1]);
    }

    #[test]
    fn clear_waiter_prevents_wake() {
        let mut n = LoopbackNet::default();
        n.listen(5).unwrap();
        let c = n.connect(5).unwrap();
        let s = n.accept(5).unwrap().unwrap();
        n.register_waiter(s, 1).unwrap();
        n.clear_waiter(s);
        n.send(c, b"z").unwrap();
        assert!(n.take_woken().is_empty());
    }

    #[test]
    fn close_detaches_peer() {
        let mut n = LoopbackNet::default();
        n.listen(9).unwrap();
        let c = n.connect(9).unwrap();
        let s = n.accept(9).unwrap().unwrap();
        n.send(c, b"x").unwrap();
        n.close(c).unwrap();
        // Peer can still drain queued data but cannot send back; the
        // failure names the closed connection, not a bad handle.
        assert_eq!(n.recv(s, 8).unwrap().unwrap(), b"x");
        assert_eq!(n.send(s, b"y"), Err(NetError::Closed(s)));
        // Recv after *local* close is the distinct Closed error, never a
        // BadSocket alias — and a never-issued id stays BadSocket.
        assert_eq!(n.recv(c, 8), Err(NetError::Closed(c)));
        assert_eq!(
            n.recv(SockId(999), 8),
            Err(NetError::BadSocket(SockId(999)))
        );
    }
}
