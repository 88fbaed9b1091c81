//! Empirical complexity accounting.
//!
//! Each rank records, per round, the size of the largest message it sent;
//! after the run these per-rank series fold into the paper's global
//! measures: `C1` = number of rounds, `C2` = Σ over rounds of the largest
//! message over *all* ports of *all* processors (§1.2).

use bruck_model::calibrate::LinearFit;
use bruck_model::complexity::Complexity;

use crate::membership::MembershipStats;
use crate::pool::PoolStats;

/// Counters from the wire sublayers (fault injection and reliability),
/// per rank, folded into [`RankMetrics`] after the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Retransmissions the reliability layer performed after an ack
    /// deadline expired.
    pub retransmits: u64,
    /// Acknowledgements sent by the reliability layer.
    pub acks_sent: u64,
    /// Duplicate data messages the reliability layer discarded.
    pub dups_dropped: u64,
    /// Checksum-failing data messages the reliability layer discarded
    /// (healed by the sender's retransmission).
    pub corrupt_dropped: u64,
    /// Data transmissions the fault injector silently discarded. Each
    /// one owes a retransmission; control-frame drops count under
    /// [`injected_ack_losses`](Self::injected_ack_losses) instead.
    pub injected_losses: u64,
    /// Transmissions the fault injector duplicated.
    pub injected_dups: u64,
    /// Transmissions the fault injector corrupted.
    pub injected_corruptions: u64,
    /// Transmissions the fault injector delayed in virtual time.
    pub injected_delays: u64,
    /// Acknowledgements conveyed by piggybacking on reverse-path data
    /// frames (window-opening information that cost zero extra frames).
    pub piggyback_acks: u64,
    /// Selective-ack entries sent on dedicated ack frames.
    pub sack_entries_sent: u64,
    /// Sum over data transmissions of the link's in-flight frame count
    /// at transmit time (numerator of the average window occupancy).
    pub window_occupancy_sum: u64,
    /// Number of data transmissions sampled into
    /// [`window_occupancy_sum`](Self::window_occupancy_sum).
    pub window_samples: u64,
    /// Explicit watchdog probe frames sent when a watched link idled.
    pub probes_sent: u64,
    /// Probe replies this rank sent back to a probing peer.
    pub probe_replies: u64,
    /// Watchdog escalations honoured by the failure detector: a watched
    /// peer exhausted its probe budget and was declared unreachable.
    pub stall_escalations: u64,
    /// Transmissions the fault injector cut on a severed link or across
    /// an active partition (data, ack, and retransmission frames alike).
    pub partition_cuts: u64,
    /// Control frames (dedicated acks, watchdog probes and probe
    /// replies) the fault injector silently discarded, by ack-path
    /// injection or a general wire-loss verdict. A later cumulative ack
    /// or probe covers them, so no retransmission is owed.
    pub injected_ack_losses: u64,
}

impl LinkStats {
    /// Field-wise sum of two stat sets (stacked wrappers, or folding
    /// ranks into run totals).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            retransmits: self.retransmits + other.retransmits,
            acks_sent: self.acks_sent + other.acks_sent,
            dups_dropped: self.dups_dropped + other.dups_dropped,
            corrupt_dropped: self.corrupt_dropped + other.corrupt_dropped,
            injected_losses: self.injected_losses + other.injected_losses,
            injected_dups: self.injected_dups + other.injected_dups,
            injected_corruptions: self.injected_corruptions + other.injected_corruptions,
            injected_delays: self.injected_delays + other.injected_delays,
            piggyback_acks: self.piggyback_acks + other.piggyback_acks,
            sack_entries_sent: self.sack_entries_sent + other.sack_entries_sent,
            window_occupancy_sum: self.window_occupancy_sum + other.window_occupancy_sum,
            window_samples: self.window_samples + other.window_samples,
            probes_sent: self.probes_sent + other.probes_sent,
            probe_replies: self.probe_replies + other.probe_replies,
            stall_escalations: self.stall_escalations + other.stall_escalations,
            partition_cuts: self.partition_cuts + other.partition_cuts,
            injected_ack_losses: self.injected_ack_losses + other.injected_ack_losses,
        }
    }

    /// Mean in-flight frames per link at data-transmit time — how full
    /// the sliding window actually ran. `1.0` is stop-and-wait; values
    /// approaching the configured window mean the pipeline stayed fed.
    #[must_use]
    pub fn avg_window_occupancy(&self) -> f64 {
        if self.window_samples == 0 {
            return 0.0;
        }
        self.window_occupancy_sum as f64 / self.window_samples as f64
    }

    /// Fraction of acknowledgement information that rode on reverse-path
    /// data frames instead of dedicated ack frames.
    #[must_use]
    pub fn piggyback_ratio(&self) -> f64 {
        let total = self.piggyback_acks + self.acks_sent;
        if total == 0 {
            return 0.0;
        }
        self.piggyback_acks as f64 / total as f64
    }
}

/// Connection-lifecycle counters from a shared data plane (the TCP
/// fabric): healing, backoff, and fabric-level fault injection. One
/// instance per run — the fabric is shared, so unlike [`LinkStats`]
/// these are not per-rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Node-pair streams torn down by an I/O error, EOF, or an injected
    /// reset (each outage starts one reconnect cycle).
    pub link_failures: u64,
    /// Successful stream re-establishments (handshake completed and
    /// traffic resumed on the healed link).
    pub reconnects: u64,
    /// Reconnect attempts that failed (connect/handshake error, injected
    /// handshake drop, or handshake timeout) and fell back to backoff.
    pub reconnect_failures: u64,
    /// Node pairs whose per-outage reconnect budget was exhausted: the
    /// pair is declared dead and a node-level eviction is raised.
    pub pairs_evicted: u64,
    /// Total nanoseconds links spent down (from teardown to heal),
    /// summed over outages — the backoff/outage dwell time.
    pub backoff_ns: u64,
    /// Injected connection resets ([`FaultPlan`](crate::FaultPlan)
    /// socket events) the fabric executed.
    pub injected_resets: u64,
    /// Injected half-open stalls the fabric executed.
    pub injected_stalls: u64,
    /// Injected handshake drops consumed during reconnect attempts.
    pub injected_handshake_drops: u64,
    /// Bytes dropped by outbox backpressure: the per-stream outbox hit
    /// its byte cap (dead or wedged peer) and the frame was discarded
    /// for the ARQ layer to re-drive.
    pub outbox_shed_bytes: u64,
}

impl FabricStats {
    /// Field-wise sum (folding attempts of a resilient run).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            link_failures: self.link_failures + other.link_failures,
            reconnects: self.reconnects + other.reconnects,
            reconnect_failures: self.reconnect_failures + other.reconnect_failures,
            pairs_evicted: self.pairs_evicted + other.pairs_evicted,
            backoff_ns: self.backoff_ns + other.backoff_ns,
            injected_resets: self.injected_resets + other.injected_resets,
            injected_stalls: self.injected_stalls + other.injected_stalls,
            injected_handshake_drops: self.injected_handshake_drops
                + other.injected_handshake_drops,
            outbox_shed_bytes: self.outbox_shed_bytes + other.outbox_shed_bytes,
        }
    }
}

/// Counters owned by one rank (no sharing, no atomics — folded after the
/// run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankMetrics {
    /// Per-round maximum sent-message size in bytes (0 for idle rounds).
    pub round_send_max: Vec<u64>,
    /// Total messages sent.
    pub msgs_sent: u64,
    /// Total bytes sent.
    pub bytes_sent: u64,
    /// Total messages received.
    pub msgs_received: u64,
    /// Bytes physically copied by the data plane on this rank (payload
    /// staging into pooled buffers and `_into` copy-outs).
    pub bytes_copied: u64,
    /// Bytes staged through the gather fast path: span lists copied
    /// straight from algorithm scratch into the transport's pooled
    /// buffer, skipping the separate pack step (each such byte saved one
    /// whole memcpy relative to pack-then-stage).
    pub bytes_gathered: u64,
    /// Wall-clock nanoseconds this rank spent in the send phase of its
    /// rounds (staging + injecting all k sends).
    pub wall_send_ns: u64,
    /// Wall-clock nanoseconds this rank spent in the receive phase of
    /// its rounds (waiting for and collecting all k receives).
    pub wall_recv_ns: u64,
    /// Wire-sublayer counters (fault injection + reliability).
    pub link: LinkStats,
}

impl RankMetrics {
    /// Number of rounds this rank participated in.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.round_send_max.len() as u64
    }

    /// Record one round.
    pub fn record_round(&mut self, sent_sizes: &[u64], received: usize) {
        self.round_send_max
            .push(sent_sizes.iter().copied().max().unwrap_or(0));
        self.msgs_sent += sent_sizes.len() as u64;
        self.bytes_sent += sent_sizes.iter().sum::<u64>();
        self.msgs_received += received as u64;
    }
}

/// Folded metrics for a whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// One entry per rank.
    pub per_rank: Vec<RankMetrics>,
    /// Buffer-pool activity over the whole run (cluster-shared pool).
    pub pool: PoolStats,
    /// Membership-view counters (view changes, evictions, rejoins,
    /// quarantines). Zero for plain [`Cluster::run`](crate::cluster::Cluster::run);
    /// filled by [`Cluster::run_resilient`](crate::cluster::Cluster::run_resilient)
    /// from its view log.
    pub membership: MembershipStats,
    /// Connection-lifecycle counters from the shared TCP fabric
    /// (reconnects, evictions, backoff dwell, fabric-level fault
    /// injection). Zero on the thread-per-rank substrates, which have no
    /// shared data plane.
    pub fabric: FabricStats,
    /// The calibration fit the run was planned under, when the harness
    /// calibrated one (`None` for uncalibrated runs). Carrying it here
    /// keeps the fit quality — `r_squared` in particular — attached to
    /// the numbers it produced: a plan chosen under R² < 0.5 is a
    /// guess, and downstream consumers (bench JSON, `bruckctl`) must be
    /// able to see that without re-deriving the fit.
    pub fit: Option<LinearFit>,
}

impl RunMetrics {
    /// The global complexity, if all ranks executed the same number of
    /// rounds (required for the paper's synchronized-round measures to be
    /// well defined). `None` when ranks disagree on the round count.
    #[must_use]
    pub fn global_complexity(&self) -> Option<Complexity> {
        let rounds = self.per_rank.first().map_or(0, |r| r.round_send_max.len());
        if !self
            .per_rank
            .iter()
            .all(|r| r.round_send_max.len() == rounds)
        {
            return None;
        }
        let mut c2 = 0u64;
        for round in 0..rounds {
            c2 += self
                .per_rank
                .iter()
                .map(|r| r.round_send_max[round])
                .max()
                .unwrap_or(0);
        }
        Some(Complexity::new(rounds as u64, c2))
    }

    /// Total bytes moved across the whole cluster.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_sent).sum()
    }

    /// Total messages across the whole cluster.
    #[must_use]
    pub fn total_msgs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.msgs_sent).sum()
    }

    /// The maximum bytes any single rank sent — per-node load balance.
    #[must_use]
    pub fn max_rank_bytes(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.bytes_sent)
            .max()
            .unwrap_or(0)
    }

    /// Total bytes physically copied by the data plane across all ranks.
    #[must_use]
    pub fn total_bytes_copied(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_copied).sum()
    }

    /// Total bytes staged through the gather fast path across all ranks
    /// (see [`RankMetrics::bytes_gathered`]).
    #[must_use]
    pub fn total_bytes_gathered(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_gathered).sum()
    }

    /// Wire-sublayer counters summed over all ranks: retransmissions,
    /// acks, discarded duplicates/corruptions, and injected faults.
    #[must_use]
    pub fn link_totals(&self) -> LinkStats {
        self.per_rank
            .iter()
            .fold(LinkStats::default(), |acc, r| acc.merged(&r.link))
    }

    /// Total reliability-layer retransmissions across all ranks.
    #[must_use]
    pub fn total_retransmits(&self) -> u64 {
        self.link_totals().retransmits
    }

    /// Mean payload bytes the cluster moved per round (total bytes over
    /// the per-rank maximum round count) — the executed-round density the
    /// pipelining work is trying to keep high.
    #[must_use]
    pub fn bytes_per_round(&self) -> f64 {
        let rounds = self
            .per_rank
            .iter()
            .map(RankMetrics::rounds)
            .max()
            .unwrap_or(0);
        if rounds == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / rounds as f64
    }

    /// Wall-clock totals across ranks as `(send_phase, recv_phase)`
    /// nanoseconds — where executed rounds actually spent their time.
    #[must_use]
    pub fn wall_phase_ns(&self) -> (u64, u64) {
        self.per_rank
            .iter()
            .fold((0, 0), |(s, r), m| (s + m.wall_send_ns, r + m.wall_recv_ns))
    }

    /// Mean window occupancy over every rank's reliability sublayer.
    #[must_use]
    pub fn avg_window_occupancy(&self) -> f64 {
        self.link_totals().avg_window_occupancy()
    }

    /// Piggybacked-ack ratio over every rank's reliability sublayer.
    #[must_use]
    pub fn piggyback_ratio(&self) -> f64 {
        self.link_totals().piggyback_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_fold() {
        let mut a = RankMetrics::default();
        a.record_round(&[10, 20], 1);
        a.record_round(&[], 2);
        let mut b = RankMetrics::default();
        b.record_round(&[5], 0);
        b.record_round(&[30], 0);
        let run = RunMetrics {
            per_rank: vec![a, b],
            ..RunMetrics::default()
        };
        // Round 0 max = 20, round 1 max = 30.
        assert_eq!(run.global_complexity(), Some(Complexity::new(2, 50)));
        assert_eq!(run.total_bytes(), 65);
        assert_eq!(run.total_msgs(), 4);
        assert_eq!(run.max_rank_bytes(), 35);
    }

    #[test]
    fn misaligned_rounds_yield_none() {
        let mut a = RankMetrics::default();
        a.record_round(&[1], 0);
        let b = RankMetrics::default();
        let run = RunMetrics {
            per_rank: vec![a, b],
            ..RunMetrics::default()
        };
        assert_eq!(run.global_complexity(), None);
    }

    #[test]
    fn empty_run() {
        let run = RunMetrics::default();
        assert_eq!(run.global_complexity(), Some(Complexity::ZERO));
        assert_eq!(run.total_bytes(), 0);
        assert_eq!(run.bytes_per_round(), 0.0);
        assert_eq!(run.avg_window_occupancy(), 0.0);
        assert_eq!(run.piggyback_ratio(), 0.0);
    }

    #[test]
    fn window_and_piggyback_ratios() {
        let link = LinkStats {
            acks_sent: 3,
            piggyback_acks: 9,
            window_occupancy_sum: 24,
            window_samples: 8,
            ..LinkStats::default()
        };
        assert!((link.avg_window_occupancy() - 3.0).abs() < 1e-12);
        assert!((link.piggyback_ratio() - 0.75).abs() < 1e-12);
        let doubled = link.merged(&link);
        assert!((doubled.avg_window_occupancy() - 3.0).abs() < 1e-12);
        assert!((doubled.piggyback_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fabric_stats_merge_field_wise() {
        let a = FabricStats {
            link_failures: 2,
            reconnects: 1,
            reconnect_failures: 3,
            pairs_evicted: 1,
            backoff_ns: 500,
            injected_resets: 2,
            injected_stalls: 1,
            injected_handshake_drops: 4,
            outbox_shed_bytes: 128,
        };
        let sum = a.merged(&a);
        assert_eq!(sum.link_failures, 4);
        assert_eq!(sum.reconnects, 2);
        assert_eq!(sum.reconnect_failures, 6);
        assert_eq!(sum.pairs_evicted, 2);
        assert_eq!(sum.backoff_ns, 1000);
        assert_eq!(sum.injected_resets, 4);
        assert_eq!(sum.injected_stalls, 2);
        assert_eq!(sum.injected_handshake_drops, 8);
        assert_eq!(sum.outbox_shed_bytes, 256);
        assert_eq!(FabricStats::default().merged(&a), a);
    }

    #[test]
    fn bytes_per_round_and_wall_phases() {
        let mut a = RankMetrics::default();
        a.record_round(&[10, 20], 1);
        a.record_round(&[30], 0);
        a.wall_send_ns = 100;
        a.wall_recv_ns = 300;
        let mut b = RankMetrics::default();
        b.record_round(&[40], 1);
        b.wall_send_ns = 50;
        b.wall_recv_ns = 150;
        let run = RunMetrics {
            per_rank: vec![a, b],
            ..RunMetrics::default()
        };
        // 100 bytes over max(2, 1) = 2 rounds.
        assert!((run.bytes_per_round() - 50.0).abs() < 1e-12);
        assert_eq!(run.wall_phase_ns(), (150, 450));
    }
}
