//! Shard topology: the socket/CCX grouping that turns "cross-shard" into
//! a *distance* with a price.
//!
//! The paper's latency wins come from keeping shell acquisition on the
//! hardware fast path (§5, Figure 15); at platform scale the shards that
//! pool those shells sit on real cores, and moving a shell (a steal) or a
//! suspended run (a resume-time migration) between them moves cache lines
//! a physical distance. A flat dispatcher treats every sibling as equally
//! close and happily pulls a shell across the socket interconnect while a
//! same-L3 neighbor holds one — the exact mistake NUMA-aware runtimes
//! (Faasm's state sharing, Firecracker-style snapshot pools; see
//! PAPERS.md) are built to avoid.
//!
//! [`Topology`] maps each shard to a (socket, CCX) pair and prices every
//! ordered shard pair with a [`Hop`] class backed by the calibrated
//! per-hop transfer costs in [`vclock::costs`]:
//!
//! ```text
//!   socket 0                      socket 1
//!   ┌─────────────┬─────────────┐ ┌─────────────┬─────────────┐
//!   │ CCX 0       │ CCX 1       │ │ CCX 2       │ CCX 3       │
//!   │ shard 0 · 1 │ shard 2 · 3 │ │ shard 4 · 5 │ shard 6 · 7 │
//!   └─────────────┴─────────────┘ └─────────────┴─────────────┘
//!      SameCcx        SameSocket          CrossSocket
//!      (shared L3)    (on-die fabric)     (interconnect)
//! ```
//!
//! The topology itself is pure data: *which* hop a decision accepts and
//! what it trades against queue depth is the placement engine's job (see
//! [`crate::placement`] for the decision-point diagram). [`Topology::flat`]
//! — everything in one CCX — reproduces the pre-topology dispatcher
//! bit-for-bit, since every cross-shard hop then costs the historical
//! [`vclock::costs::VSCHED_STEAL_TRANSFER`].

use vclock::costs;

/// Distance class between two shards, ordered near to far. The `Ord`
/// instance is meaningful: placement policies compare hops directly
/// ("a same-CCX donor always beats a cross-socket one at equal load").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Hop {
    /// The same shard: no transfer at all.
    Local,
    /// Different shard, same core complex (shared L3 slice).
    SameCcx,
    /// Same socket, different CCX (on-die fabric crossing).
    SameSocket,
    /// Different socket (inter-socket interconnect, NUMA-remote).
    CrossSocket,
    /// Different *node*: the run leaves shared memory entirely and
    /// crosses the cluster network. [`Topology::hop`] never returns this
    /// — a single dispatcher's shards all share one node — it exists so
    /// the cluster layer ([`crate::cluster`]) can price node-to-node
    /// evacuation through the same [`crate::placement::Candidate`]
    /// machinery as any other hop.
    CrossNode,
}

impl Hop {
    /// Cycles to move a shell or suspended run across this distance
    /// (the per-hop constants of `vclock::costs`).
    pub fn transfer_cost(self) -> u64 {
        match self {
            Hop::Local => 0,
            Hop::SameCcx => costs::VSCHED_TRANSFER_SAME_CCX,
            Hop::SameSocket => costs::VSCHED_TRANSFER_CROSS_CCX,
            Hop::CrossSocket => costs::VSCHED_TRANSFER_CROSS_SOCKET,
            Hop::CrossNode => costs::VSCHED_TRANSFER_CROSS_NODE,
        }
    }

    /// Stable label for stats surfaces (Prometheus series, bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            Hop::Local => "local",
            Hop::SameCcx => "same_ccx",
            Hop::SameSocket => "cross_ccx",
            Hop::CrossSocket => "cross_socket",
            Hop::CrossNode => "cross_node",
        }
    }
}

/// The shard→CCX→socket grouping of a dispatcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// CCX index per shard (globally numbered across sockets).
    ccx: Vec<usize>,
    /// Socket index per shard.
    socket: Vec<usize>,
    sockets: usize,
    ccxs: usize,
}

impl Topology {
    /// A flat topology: every shard in one CCX on one socket. Every
    /// cross-shard hop is [`Hop::SameCcx`], so costs and orderings match
    /// the pre-topology dispatcher exactly.
    ///
    /// # Panics
    ///
    /// Panics on zero shards.
    pub fn flat(shards: usize) -> Topology {
        Topology::grouped(1, 1, shards)
    }

    /// A regular grouped topology: `sockets` sockets, each holding
    /// `ccxs_per_socket` CCXs of `shards_per_ccx` shards. Shards are
    /// numbered CCX-major: shard `i` lives in CCX `i / shards_per_ccx`
    /// and socket `i / (shards_per_ccx * ccxs_per_socket)`.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    pub fn grouped(sockets: usize, ccxs_per_socket: usize, shards_per_ccx: usize) -> Topology {
        assert!(sockets >= 1, "need at least one socket");
        assert!(ccxs_per_socket >= 1, "need at least one CCX per socket");
        assert!(shards_per_ccx >= 1, "need at least one shard per CCX");
        let shards = sockets * ccxs_per_socket * shards_per_ccx;
        let ccx = (0..shards).map(|i| i / shards_per_ccx).collect();
        let socket = (0..shards)
            .map(|i| i / (shards_per_ccx * ccxs_per_socket))
            .collect();
        Topology {
            ccx,
            socket,
            sockets,
            ccxs: sockets * ccxs_per_socket,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.ccx.len()
    }

    /// Number of sockets.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Number of CCXs across all sockets.
    pub fn ccxs(&self) -> usize {
        self.ccxs
    }

    /// Distance class between shards `a` and `b`.
    pub fn hop(&self, a: usize, b: usize) -> Hop {
        if a == b {
            Hop::Local
        } else if self.ccx[a] == self.ccx[b] {
            Hop::SameCcx
        } else if self.socket[a] == self.socket[b] {
            Hop::SameSocket
        } else {
            Hop::CrossSocket
        }
    }

    /// Cycles to move a shell or suspended run from shard `a` to `b`
    /// ([`Hop::transfer_cost`] of their distance).
    pub fn transfer_cost(&self, a: usize, b: usize) -> u64 {
        self.hop(a, b).transfer_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_is_one_ccx() {
        let t = Topology::flat(4);
        assert_eq!(t.shards(), 4);
        assert_eq!((t.sockets(), t.ccxs()), (1, 1));
        for a in 0..4 {
            for b in 0..4 {
                let hop = t.hop(a, b);
                if a == b {
                    assert_eq!(hop, Hop::Local);
                    assert_eq!(t.transfer_cost(a, b), 0);
                } else {
                    assert_eq!(hop, Hop::SameCcx);
                    assert_eq!(t.transfer_cost(a, b), costs::VSCHED_STEAL_TRANSFER);
                }
            }
        }
    }

    #[test]
    fn grouped_topology_classifies_every_hop() {
        // 2 sockets x 2 CCXs x 2 shards: the doc-comment diagram.
        let t = Topology::grouped(2, 2, 2);
        assert_eq!(t.shards(), 8);
        assert_eq!((t.sockets(), t.ccxs()), (2, 4));
        assert_eq!(t.hop(0, 0), Hop::Local);
        assert_eq!(t.hop(0, 1), Hop::SameCcx);
        assert_eq!(t.hop(0, 2), Hop::SameSocket);
        assert_eq!(t.hop(0, 3), Hop::SameSocket);
        assert_eq!(t.hop(0, 4), Hop::CrossSocket);
        assert_eq!(t.hop(0, 7), Hop::CrossSocket);
        assert_eq!(t.hop(6, 7), Hop::SameCcx);
        assert_eq!(t.hop(4, 6), Hop::SameSocket);
        // Symmetric.
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(t.hop(a, b), t.hop(b, a));
            }
        }
    }

    #[test]
    fn hop_order_is_near_to_far_and_costs_agree() {
        assert!(Hop::Local < Hop::SameCcx);
        assert!(Hop::SameCcx < Hop::SameSocket);
        assert!(Hop::SameSocket < Hop::CrossSocket);
        assert!(Hop::CrossSocket < Hop::CrossNode);
        let costs: Vec<u64> = [
            Hop::Local,
            Hop::SameCcx,
            Hop::SameSocket,
            Hop::CrossSocket,
            Hop::CrossNode,
        ]
        .iter()
        .map(|h| h.transfer_cost())
        .collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Topology::grouped(1, 1, 0);
    }
}
