//! Total ordering: delivery and verification.
//!
//! Several of the paper's schemes claim **total ordering**: all members of
//! a group receive the group's messages in the same order. The serialized
//! schemes stamp each multicast with a per-group sequence number, and
//! `InOrderDelivery` delivers locally in that order. This module also
//! checks the claim against a run's delivery log: for every pair of
//! members, the messages they both received must appear in the same
//! relative order.

use std::collections::{BTreeMap, HashMap};
use wormcast_sim::engine::HostId;
use wormcast_sim::network::MessageLog;
use wormcast_sim::protocol::{Destination, ProtocolCtx};
use wormcast_sim::worm::MessageId;

/// Receiver-side, sequence-ordered local delivery, held by the
/// Hamiltonian and tree protocols. Retransmissions can overtake each other,
/// so out-of-order arrivals wait until the gap before them closes.
#[derive(Debug, Default)]
pub(crate) struct InOrderDelivery {
    /// Next sequence number to deliver, per group.
    next: HashMap<u8, u32>,
    /// Out-of-order arrivals awaiting delivery: seq -> message (`None` for
    /// the host's own message coming around, which advances the cursor
    /// without a local delivery).
    pending: HashMap<u8, BTreeMap<u32, Option<MessageId>>>,
}

impl InOrderDelivery {
    /// Deliver `msg` respecting the serializer's sequence numbers.
    /// Unserialized worms (seq 0) deliver immediately; stale duplicates
    /// are dropped.
    pub(crate) fn deliver(
        &mut self,
        ctx: &mut ProtocolCtx,
        group: u8,
        seq: u32,
        msg: Option<MessageId>,
    ) {
        if seq == 0 {
            if let Some(m) = msg {
                ctx.deliver_local(m);
            }
            return;
        }
        let next = self.next.entry(group).or_insert(1);
        if seq < *next {
            return;
        }
        let pending = self.pending.entry(group).or_default();
        pending.insert(seq, msg);
        while let Some(entry) = pending.remove(&*next) {
            if let Some(m) = entry {
                ctx.deliver_local(m);
            }
            *next += 1;
        }
    }
}

/// A detected ordering violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderViolation {
    pub a: HostId,
    pub b: HostId,
    /// Messages delivered in opposite relative orders at `a` and `b`.
    pub first: MessageId,
    pub second: MessageId,
}

/// Per-host delivery sequences of one group's multicast messages, in
/// delivery-time order (ties broken by log order, which the simulator
/// records deterministically).
pub fn delivery_sequences(
    log: &MessageLog,
    group: u8,
    members: &[HostId],
) -> HashMap<HostId, Vec<MessageId>> {
    let group_msgs: std::collections::HashSet<MessageId> = log
        .created
        .iter()
        .filter(|r| matches!(r.dest, Destination::Multicast(g) if g == group))
        .map(|r| r.msg)
        .collect();
    let mut seqs: HashMap<HostId, Vec<MessageId>> = members.iter().map(|&h| (h, vec![])).collect();
    // Deliveries are logged in event order; stable sort by time keeps that
    // order for ties.
    let mut deliveries = log.deliveries.clone();
    deliveries.sort_by_key(|d| d.at);
    for d in deliveries {
        if group_msgs.contains(&d.msg) {
            if let Some(seq) = seqs.get_mut(&d.host) {
                seq.push(d.msg);
            }
        }
    }
    seqs
}

/// Check total ordering of `group`'s messages across `members`. Returns the
/// first violation found, or `None` if the ordering is total.
pub fn check_total_order(
    log: &MessageLog,
    group: u8,
    members: &[HostId],
) -> Option<OrderViolation> {
    let seqs = delivery_sequences(log, group, members);
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            let sa = &seqs[&a];
            let sb = &seqs[&b];
            // Position maps of the shorter sequence against the longer.
            let pos_b: HashMap<MessageId, usize> =
                sb.iter().enumerate().map(|(ix, &m)| (m, ix)).collect();
            let mut last: Option<(usize, MessageId)> = None;
            for &m in sa {
                if let Some(&ix) = pos_b.get(&m) {
                    if let Some((prev_ix, prev_m)) = last {
                        if ix < prev_ix {
                            return Some(OrderViolation {
                                a,
                                b,
                                first: prev_m,
                                second: m,
                            });
                        }
                    }
                    last = Some((ix, m));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_sim::network::{Delivery, MessageRecord};

    fn mklog(deliveries: &[(u64, u32, u64)]) -> MessageLog {
        // (msg, host, time); all messages are multicast group 0.
        let mut log = MessageLog::default();
        let mut seen = std::collections::HashSet::new();
        for &(m, _, _) in deliveries {
            if seen.insert(m) {
                log.created.push(MessageRecord {
                    msg: MessageId(m),
                    origin: HostId(99),
                    dest: Destination::Multicast(0),
                    payload_len: 1,
                    created: 0,
                });
            }
        }
        for &(m, h, t) in deliveries {
            log.deliveries.push(Delivery {
                msg: MessageId(m),
                host: HostId(h),
                at: t,
            });
        }
        log
    }

    #[test]
    fn consistent_order_passes() {
        let log = mklog(&[(1, 0, 10), (2, 0, 20), (1, 1, 15), (2, 1, 30)]);
        assert_eq!(check_total_order(&log, 0, &[HostId(0), HostId(1)]), None);
    }

    #[test]
    fn reversed_order_detected() {
        let log = mklog(&[(1, 0, 10), (2, 0, 20), (2, 1, 15), (1, 1, 30)]);
        let v = check_total_order(&log, 0, &[HostId(0), HostId(1)]).expect("violation");
        assert_eq!((v.a, v.b), (HostId(0), HostId(1)));
    }

    #[test]
    fn missing_messages_do_not_violate() {
        // Host 1 never got message 1; the common subsequence {2} is trivially
        // ordered.
        let log = mklog(&[(1, 0, 10), (2, 0, 20), (2, 1, 15)]);
        assert_eq!(check_total_order(&log, 0, &[HostId(0), HostId(1)]), None);
    }

    #[test]
    fn other_groups_ignored() {
        let mut log = mklog(&[(1, 0, 10), (2, 0, 20), (2, 1, 15), (1, 1, 30)]);
        // Re-tag message 1 as group 7: no common *group-0* ordering issue.
        log.created[0].dest = Destination::Multicast(7);
        assert_eq!(check_total_order(&log, 0, &[HostId(0), HostId(1)]), None);
    }

    #[test]
    fn sequences_are_time_ordered() {
        let log = mklog(&[(2, 0, 20), (1, 0, 10)]);
        let seqs = delivery_sequences(&log, 0, &[HostId(0)]);
        assert_eq!(seqs[&HostId(0)], vec![MessageId(1), MessageId(2)]);
    }
}
