//! Host-mediated cross-virtine channels.
//!
//! The paper's hypercall model makes every guest interaction an exit the
//! host mediates (§5.1); composing virtines into pipelines — the FaaS
//! chaining pattern of Catalyzer (ASPLOS '20) and SEUSS (EuroSys '20) —
//! needs a primitive two virtines can exchange bytes over *without* ever
//! sharing memory. This module is that primitive: bounded, message-oriented
//! byte queues living entirely in the host, reachable from guests only
//! through the `chan_*` hypercalls, each one a mediated exit checked
//! against the `HypercallMask` like any other.
//!
//! ## Readiness and waiters
//!
//! The channel layer mirrors [`crate::net`]'s poll contract so the same
//! event-driven block/park/resume machinery drives both:
//!
//! * the **receive side** is [`RecvReady::Readable`] when a message is
//!   queued, [`RecvReady::WouldBlock`] when empty but open, and
//!   [`RecvReady::Eof`] when empty and closed;
//! * the **send side** is probed per message ([`ChanTable::send_fits`]):
//!   a send is admitted while it fits under the byte bound, blocks when
//!   it would overrun it (backpressure), and is refused after close.
//!
//! Waiter tokens are edge-triggered and one-shot, exactly as in `net` —
//! but unlike a socket, a channel may have **many** waiters per side
//! (several consumers can park on one queue; a close must wake the whole
//! storm). A `send` wakes every registered receive-side waiter, a `recv`
//! that frees capacity wakes every send-side waiter, and `close` wakes
//! both sides. Spurious wake-ups are therefore possible by design; the
//! resume path re-parks a run whose condition evaporated before it ran.

use std::collections::HashMap;
use std::fmt;

use crate::RecvReady;

/// A channel handle. Host-global: the dispatcher binds the same id into
/// the producer's and the consumer's invocation to wire a pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChanId(pub u64);

/// Channel-layer errors. `Closed` is distinct from `BadChan` for the same
/// reason [`crate::fs::FsError::Closed`] is distinct from `BadFd`: "you
/// closed this" and "this never existed" are different bugs, and aliasing
/// them costs exactly the diagnostic a guest (or a test) needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChanError {
    /// The id was never issued.
    BadChan(ChanId),
    /// The channel was closed (send refused, or an operation on a fully
    /// torn-down channel).
    Closed(ChanId),
    /// The send would overrun the byte bound; retry after a recv drains
    /// capacity (or park until [`ChanTable::send_fits`] holds).
    Full(ChanId),
}

impl fmt::Display for ChanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChanError::BadChan(c) => write!(f, "bad channel {}", c.0),
            ChanError::Closed(c) => write!(f, "channel {} is closed", c.0),
            ChanError::Full(c) => write!(f, "channel {} is full", c.0),
        }
    }
}

impl std::error::Error for ChanError {}

#[derive(Debug)]
struct Channel {
    /// Queued messages, FIFO.
    queue: std::collections::VecDeque<Vec<u8>>,
    /// Bytes across all queued messages.
    queued_bytes: usize,
    /// Byte bound on `queued_bytes`.
    capacity: usize,
    /// Closed channels refuse sends; recv drains then reports EOF.
    closed: bool,
    /// One-shot tokens woken when the receive side becomes readable.
    recv_waiters: Vec<u64>,
    /// One-shot tokens woken when send capacity frees up (or on close).
    send_waiters: Vec<u64>,
}

impl Channel {
    fn recv_ready(&self) -> RecvReady {
        if !self.queue.is_empty() {
            RecvReady::Readable
        } else if self.closed {
            RecvReady::Eof
        } else {
            RecvReady::WouldBlock
        }
    }
}

/// The channel table: all live channels plus the shared wake queue.
///
/// Closed channels are *reaped* once drained: the entry is dropped
/// entirely (monotonic id allocation makes "issued but gone" derivable
/// with zero retained state), so a long-running host that opens a
/// channel per request holds memory proportional to *live* channels,
/// not to history. A reaped id still answers exactly like a drained
/// closed channel — recv is EOF, send is refused, waiters wake
/// immediately — so no caller can observe the reclamation.
#[derive(Debug, Default)]
pub struct ChanTable {
    chans: HashMap<ChanId, Channel>,
    next_id: u64,
    /// Tokens whose wait condition became true, in wake order.
    woken: Vec<u64>,
}

impl ChanTable {
    /// Creates a channel bounded to `capacity` queued bytes (at least one
    /// byte: a zero-capacity channel could never pass a message).
    pub fn open(&mut self, capacity: usize) -> ChanId {
        self.next_id += 1;
        let id = ChanId(self.next_id);
        self.chans.insert(
            id,
            Channel {
                queue: std::collections::VecDeque::new(),
                queued_bytes: 0,
                capacity: capacity.max(1),
                closed: false,
                recv_waiters: Vec::new(),
                send_waiters: Vec::new(),
            },
        );
        id
    }

    fn chan(&self, id: ChanId) -> Result<&Channel, ChanError> {
        self.chans.get(&id).ok_or(ChanError::BadChan(id))
    }

    fn chan_mut(&mut self, id: ChanId) -> Result<&mut Channel, ChanError> {
        self.chans.get_mut(&id).ok_or(ChanError::BadChan(id))
    }

    /// Whether `id` was closed, drained, and reaped. Ids are allocated
    /// monotonically, so "issued once but no longer live" is derivable
    /// with zero retained state — no per-closed-channel history grows.
    fn reaped(&self, id: ChanId) -> bool {
        id.0 >= 1 && id.0 <= self.next_id && !self.chans.contains_key(&id)
    }

    /// Drops a channel's entry once it is closed with nothing left to
    /// drain (close already woke every waiter, and registration on a
    /// closed channel wakes immediately, so no waiter can be parked).
    fn reap_if_drained(&mut self, id: ChanId) {
        if self
            .chans
            .get(&id)
            .is_some_and(|ch| ch.closed && ch.queue.is_empty())
        {
            self.chans.remove(&id);
        }
    }

    /// Queues one message, waking every receive-side waiter. Refused with
    /// [`ChanError::Closed`] after close and [`ChanError::Full`] when the
    /// byte bound would be overrun — except that a message larger than the
    /// whole capacity is admitted into an *empty* queue (it could never
    /// fit otherwise, and refusing it forever would deadlock the pipeline).
    pub fn send(&mut self, id: ChanId, data: &[u8]) -> Result<(), ChanError> {
        if !self.send_fits(id, data.len())? {
            return Err(ChanError::Full(id));
        }
        debug_assert!(!self.reaped(id), "send_fits refuses reaped channels");
        let ch = self.chan_mut(id)?;
        ch.queued_bytes += data.len();
        ch.queue.push_back(data.to_vec());
        let woken = std::mem::take(&mut ch.recv_waiters);
        self.woken.extend(woken);
        Ok(())
    }

    /// Pops one message (truncated to `max_len`), waking every send-side
    /// waiter when capacity frees up; `None` means would-block *or* EOF —
    /// use [`ChanTable::poll_recv`] to tell the two apart. Truncation
    /// discards the tail, as datagram reads do; the capacity accounting
    /// releases the full message.
    pub fn recv(&mut self, id: ChanId, max_len: usize) -> Result<Option<Vec<u8>>, ChanError> {
        if self.reaped(id) {
            // Closed and drained: permanently at end-of-stream.
            return Ok(None);
        }
        let ch = self.chan_mut(id)?;
        let Some(mut msg) = ch.queue.pop_front() else {
            return Ok(None);
        };
        ch.queued_bytes -= msg.len();
        msg.truncate(max_len);
        let woken = std::mem::take(&mut ch.send_waiters);
        self.woken.extend(woken);
        self.reap_if_drained(id);
        Ok(Some(msg))
    }

    /// Probes the receive side without consuming anything.
    pub fn poll_recv(&self, id: ChanId) -> Result<RecvReady, ChanError> {
        if self.reaped(id) {
            return Ok(RecvReady::Eof);
        }
        Ok(self.chan(id)?.recv_ready())
    }

    /// Whether a send of `len` bytes would be admitted right now — the
    /// exact predicate [`ChanTable::send`] applies, as a free probe so a
    /// blocking sender can decide park-or-deliver without charging the
    /// failed attempt. `len` is guest-controlled upstream, so the
    /// capacity check must not trust it: the addition saturates instead
    /// of overflowing.
    pub fn send_fits(&self, id: ChanId, len: usize) -> Result<bool, ChanError> {
        if self.reaped(id) {
            return Err(ChanError::Closed(id));
        }
        let ch = self.chan(id)?;
        if ch.closed {
            return Err(ChanError::Closed(id));
        }
        Ok(ch.queued_bytes.saturating_add(len) <= ch.capacity
            || (ch.queue.is_empty() && len > ch.capacity))
    }

    /// Registers `token` to be woken when `id` becomes readable. A channel
    /// that is *already* readable (or at EOF) wakes the token immediately —
    /// registration never loses a wake that raced the block decision.
    /// Unlike sockets, any number of waiters may park on one channel.
    pub fn register_recv_waiter(&mut self, id: ChanId, token: u64) -> Result<(), ChanError> {
        if self.reaped(id) {
            // EOF is readable: the wake is immediate.
            self.woken.push(token);
            return Ok(());
        }
        let ch = self.chan_mut(id)?;
        if ch.recv_ready() == RecvReady::WouldBlock {
            ch.recv_waiters.push(token);
        } else {
            self.woken.push(token);
        }
        Ok(())
    }

    /// Registers `token` to be woken when a send of `len` bytes to `id`
    /// would be admitted (or the channel closes, which ends the wait with
    /// a refusal rather than forever). The registration predicate is
    /// exactly [`ChanTable::send_fits`] for the *pending message*, not a
    /// queue-is-completely-full test: a 3-byte send into a 6-of-8-full
    /// queue must park, and a waiter woken the instant it registered
    /// would spin the scheduler's park/wake loop forever.
    pub fn register_send_waiter(
        &mut self,
        id: ChanId,
        token: u64,
        len: usize,
    ) -> Result<(), ChanError> {
        match self.send_fits(id, len) {
            // Closed ends the wait immediately: the resume delivers the
            // refusal instead of parking a sender no recv can ever free.
            Ok(true) | Err(ChanError::Closed(_)) => {
                self.woken.push(token);
                Ok(())
            }
            Ok(false) => {
                self.chan_mut(id)?.send_waiters.push(token);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Drops `token` from both waiter lists of `id` (e.g. the parked run
    /// was killed). Missing channels are fine: close already cleared it.
    pub fn clear_waiter(&mut self, id: ChanId, token: u64) {
        if let Some(ch) = self.chans.get_mut(&id) {
            ch.recv_waiters.retain(|&t| t != token);
            ch.send_waiters.retain(|&t| t != token);
        }
    }

    /// Drains the tokens whose wait conditions became true.
    pub fn take_woken(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.woken)
    }

    /// Closes a channel: sends are refused from here on, queued messages
    /// remain drainable, and *every* waiter on both sides wakes (receivers
    /// observe EOF once drained; senders observe the refusal). Double
    /// close is an error — the caller's handle was already dead.
    pub fn close(&mut self, id: ChanId) -> Result<(), ChanError> {
        if self.reaped(id) {
            return Err(ChanError::Closed(id));
        }
        let ch = self.chan_mut(id)?;
        if ch.closed {
            return Err(ChanError::Closed(id));
        }
        ch.closed = true;
        let mut woken = std::mem::take(&mut ch.recv_waiters);
        woken.append(&mut ch.send_waiters);
        self.woken.extend(woken);
        self.reap_if_drained(id);
        Ok(())
    }

    /// Number of live (unreaped) channels (leak checks in tests).
    pub fn len(&self) -> usize {
        self.chans.len()
    }

    /// Whether no channels exist.
    pub fn is_empty(&self) -> bool {
        self.chans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ChanTable {
        ChanTable::default()
    }

    #[test]
    fn messages_flow_in_order_within_capacity() {
        let mut t = table();
        let c = t.open(64);
        t.send(c, b"one").unwrap();
        t.send(c, b"two").unwrap();
        assert_eq!(t.recv(c, 16).unwrap().unwrap(), b"one");
        assert_eq!(t.recv(c, 16).unwrap().unwrap(), b"two");
        assert_eq!(t.recv(c, 16).unwrap(), None);
    }

    #[test]
    fn recv_truncates_but_releases_full_capacity() {
        let mut t = table();
        let c = t.open(8);
        t.send(c, b"12345678").unwrap();
        assert_eq!(t.send_fits(c, 1), Ok(false), "at the byte bound");
        assert_eq!(t.recv(c, 4).unwrap().unwrap(), b"1234");
        // The whole 8 bytes were released, not just the 4 delivered.
        assert_eq!(t.send_fits(c, 1), Ok(true));
        t.send(c, b"12345678").unwrap();
    }

    #[test]
    fn full_queue_applies_backpressure() {
        let mut t = table();
        let c = t.open(8);
        t.send(c, b"123456").unwrap();
        assert_eq!(t.send(c, b"789"), Err(ChanError::Full(c)));
        assert_eq!(t.send(c, b"78"), Ok(()));
        assert_eq!(t.send_fits(c, 1), Ok(false), "at the byte bound");
    }

    #[test]
    fn oversized_message_admits_into_an_empty_queue_only() {
        let mut t = table();
        let c = t.open(4);
        // Larger than the whole capacity, empty queue: admitted (otherwise
        // it could never pass and the pipeline would deadlock).
        t.send(c, b"123456789").unwrap();
        assert_eq!(t.send(c, b"x"), Err(ChanError::Full(c)));
        assert_eq!(t.recv(c, 64).unwrap().unwrap(), b"123456789");
        t.send(c, b"x").unwrap();
    }

    #[test]
    fn poll_recv_distinguishes_data_wouldblock_and_eof() {
        let mut t = table();
        let c = t.open(64);
        assert_eq!(t.poll_recv(c).unwrap(), RecvReady::WouldBlock);
        t.send(c, b"x").unwrap();
        assert_eq!(t.poll_recv(c).unwrap(), RecvReady::Readable);
        t.recv(c, 8).unwrap().unwrap();
        assert_eq!(t.poll_recv(c).unwrap(), RecvReady::WouldBlock);
        t.close(c).unwrap();
        assert_eq!(t.poll_recv(c).unwrap(), RecvReady::Eof);
    }

    #[test]
    fn send_wakes_every_parked_receiver() {
        let mut t = table();
        let c = t.open(64);
        t.register_recv_waiter(c, 1).unwrap();
        t.register_recv_waiter(c, 2).unwrap();
        t.register_recv_waiter(c, 3).unwrap();
        assert!(t.take_woken().is_empty(), "nothing readable yet");
        t.send(c, b"go").unwrap();
        assert_eq!(t.take_woken(), vec![1, 2, 3]);
        // One-shot: another send with no registrations wakes nobody.
        t.send(c, b"again").unwrap();
        assert!(t.take_woken().is_empty());
    }

    #[test]
    fn recv_wakes_parked_senders_when_capacity_frees() {
        let mut t = table();
        let c = t.open(4);
        t.send(c, b"1234").unwrap();
        t.register_send_waiter(c, 7, 1).unwrap();
        assert!(t.take_woken().is_empty(), "still full");
        t.recv(c, 64).unwrap().unwrap();
        assert_eq!(t.take_woken(), vec![7]);
    }

    #[test]
    fn send_waiter_on_a_partially_full_queue_parks_until_its_message_fits() {
        // The livelock regression: 6 of 8 bytes used is not "Full", but a
        // 3-byte send still cannot proceed — registering its waiter must
        // PARK it (an immediate wake would spin the park/wake loop
        // forever), and the wake must fire only once enough drains.
        let mut t = table();
        let c = t.open(8);
        t.send(c, b"12").unwrap();
        t.send(c, b"3456").unwrap(); // 6 of 8 used.
        t.register_send_waiter(c, 9, 3).unwrap();
        assert!(
            t.take_woken().is_empty(),
            "a send that doesn't fit must park even though the queue \
             isn't at capacity"
        );
        // Draining the 2-byte message leaves 4 used; 4 + 3 fits, and the
        // recv wakes the waiter.
        t.recv(c, 64).unwrap().unwrap();
        assert_eq!(t.take_woken(), vec![9]);
        assert!(t.send_fits(c, 3).unwrap(), "and the send now proceeds");
        // A send that fits registers straight to the wake queue.
        t.register_send_waiter(c, 10, 1).unwrap();
        assert_eq!(t.take_woken(), vec![10]);
    }

    #[test]
    fn close_wakes_parked_senders_and_refuses_further_sends() {
        let mut t = table();
        let c = t.open(2);
        t.send(c, b"xx").unwrap(); // Full.
        t.register_send_waiter(c, 10, 1).unwrap();
        t.close(c).unwrap();
        assert_eq!(t.take_woken(), vec![10], "close ends the send wait");
        assert_eq!(t.send(c, b"y"), Err(ChanError::Closed(c)));
        // Queued data drains, then EOF.
        assert_eq!(t.recv(c, 8).unwrap().unwrap(), b"xx");
        assert_eq!(t.poll_recv(c).unwrap(), RecvReady::Eof);
        assert_eq!(t.close(c), Err(ChanError::Closed(c)), "double close");
    }

    #[test]
    fn close_wakes_the_whole_parked_receiver_storm() {
        let mut t = table();
        let c = t.open(16);
        for token in 0..10 {
            t.register_recv_waiter(c, token).unwrap();
        }
        assert!(t.take_woken().is_empty());
        t.close(c).unwrap();
        assert_eq!(t.take_woken(), (0..10).collect::<Vec<u64>>());
        assert_eq!(t.poll_recv(c).unwrap(), RecvReady::Eof);
    }

    #[test]
    fn registering_on_a_ready_channel_wakes_immediately() {
        let mut t = table();
        let c = t.open(64);
        t.send(c, b"early").unwrap();
        t.register_recv_waiter(c, 5).unwrap();
        assert_eq!(t.take_woken(), vec![5], "no lost wake-up");
        // EOF is readable too.
        t.recv(c, 64).unwrap().unwrap();
        t.close(c).unwrap();
        t.register_recv_waiter(c, 6).unwrap();
        assert_eq!(t.take_woken(), vec![6]);
        // A closed channel also ends a send wait immediately.
        t.register_send_waiter(c, 8, 1).unwrap();
        assert_eq!(t.take_woken(), vec![8]);
    }

    #[test]
    fn clear_waiter_prevents_wake() {
        let mut t = table();
        let c = t.open(64);
        t.register_recv_waiter(c, 1).unwrap();
        t.register_recv_waiter(c, 2).unwrap();
        t.clear_waiter(c, 1);
        t.send(c, b"z").unwrap();
        assert_eq!(t.take_woken(), vec![2]);
    }

    #[test]
    fn closed_and_drained_channels_are_reaped_but_keep_their_semantics() {
        let mut t = table();
        // Close-then-drain: the entry survives until the last message is
        // consumed, then only the id remains.
        let c = t.open(64);
        t.send(c, b"tail").unwrap();
        t.close(c).unwrap();
        assert_eq!(t.len(), 1, "undrained channel must not be reaped");
        assert_eq!(t.recv(c, 64).unwrap().unwrap(), b"tail");
        assert_eq!(t.len(), 0, "drained closed channel is reaped");
        // Every observable behavior of a drained closed channel holds.
        assert_eq!(t.poll_recv(c).unwrap(), RecvReady::Eof);
        assert_eq!(t.recv(c, 8).unwrap(), None, "EOF, not an error");
        assert_eq!(t.send(c, b"x"), Err(ChanError::Closed(c)));
        assert_eq!(t.send_fits(c, 1), Err(ChanError::Closed(c)));
        assert_eq!(t.close(c), Err(ChanError::Closed(c)));
        t.register_recv_waiter(c, 1).unwrap();
        t.register_send_waiter(c, 2, 1).unwrap();
        assert_eq!(t.take_woken(), vec![1, 2], "waits end immediately");
        // Close on an already-empty channel reaps on the spot.
        let e = t.open(8);
        t.close(e).unwrap();
        assert_eq!(t.len(), 0);
        // And the ids stay distinct from never-issued ones.
        assert_eq!(t.recv(ChanId(99), 8), Err(ChanError::BadChan(ChanId(99))));
    }

    #[test]
    fn oversized_send_length_cannot_overflow_the_capacity_check() {
        let mut t = table();
        let c = t.open(8);
        t.send(c, b"123456").unwrap();
        // queued_bytes + usize::MAX must saturate, not wrap into "fits".
        assert!(!t.send_fits(c, usize::MAX).unwrap());
        assert_eq!(
            t.send(c, &[0u8; 3]).unwrap_err(),
            ChanError::Full(c),
            "the queue is still intact after the probe"
        );
    }

    #[test]
    fn bad_channel_is_distinct_from_closed() {
        let mut t = table();
        let c = t.open(8);
        t.close(c).unwrap();
        assert_eq!(t.send(c, b"x"), Err(ChanError::Closed(c)));
        let never = ChanId(999);
        assert_eq!(t.send(never, b"x"), Err(ChanError::BadChan(never)));
        assert!(matches!(t.poll_recv(never), Err(ChanError::BadChan(_))));
    }
}
