//! A dynamic multicast group manager — the paper's stated next step.
//!
//! Section 8: "The control process, the multicast group manager, is
//! currently a stub process but it is expected to develop into a more
//! complex program that will interact with multicast group managers on
//! other hosts and with the IP group management protocol." This module
//! develops it: a designated manager host owns the authoritative member
//! list of each group; hosts send **JOIN**/**LEAVE** control worms; the
//! manager versions every change and disseminates **UPDATE** worms to all
//! affected hosts, which apply them strictly in version order. Each
//! adapter then derives, per group, exactly the triple the paper's driver
//! needed — *(group, next hop, hop count)* — from its current local view.
//!
//! The data path is the Section 5 Hamiltonian circuit (ascending IDs,
//! store-and-forward, class reversal at the wrap), running against the
//! live membership. Joins and leaves take one manager round trip plus one
//! dissemination hop to converge; worms in flight during a change follow
//! the forwarding tables of the hosts they traverse, like any routing
//! update in a real network.
//!
//! Control-worm encoding note: the simulator's worms carry a small
//! out-of-band header rather than payload bytes, so the update fields ride
//! in header fields (`stage` = group, `hops_left` = subject host,
//! `seq` = version, `frag_index` = join/leave). A production LANai
//! program would place them in the first payload bytes.

use crate::group::{circuit_successor, BROADCAST_GROUP};
use std::collections::{BTreeMap, HashMap};
use wormcast_sim::engine::HostId;
use wormcast_sim::protocol::{
    AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec,
};
use wormcast_sim::worm::{WormInstance, WormKind};

/// Control tags (continuing `crate::tags`' numbering).
pub const JOIN: u8 = 32;
pub const LEAVE: u8 = 33;
pub const UPDATE: u8 = 34;

/// A scripted membership operation, posted to the protocol through
/// [`wormcast_sim::Network::post_timer`] with the token from
/// [`ManagedHcProtocol::script`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupOp {
    Join(u8),
    Leave(u8),
}

/// One group's state at the manager.
#[derive(Clone, Debug, Default)]
struct ManagedGroup {
    members: Vec<HostId>, // sorted
    version: u32,
    /// Full change log; entry `i` is version `i + 1`. A joining host is
    /// brought up to date by replaying it (a production manager would send
    /// a snapshot; the log is equivalent and keeps updates uniform).
    log: Vec<(HostId, bool)>,
}

/// One group's state at a member (local view).
#[derive(Clone, Debug, Default)]
struct LocalGroup {
    members: Vec<HostId>, // sorted
    version: u32,
    /// Updates that arrived ahead of order, keyed by version.
    pending: BTreeMap<u32, (HostId, bool)>,
}

impl LocalGroup {
    fn apply(&mut self, version: u32, subject: HostId, joined: bool) {
        if version <= self.version {
            return; // duplicate / stale
        }
        self.pending.insert(version, (subject, joined));
        while let Some(&(subject, joined)) = self.pending.get(&(self.version + 1)) {
            self.pending.remove(&(self.version + 1));
            self.version += 1;
            match self.members.binary_search(&subject) {
                Ok(ix) if !joined => {
                    self.members.remove(ix);
                }
                Err(ix) if joined => {
                    self.members.insert(ix, subject);
                }
                _ => {} // idempotent
            }
        }
    }
}

/// Hamiltonian-circuit multicast over manager-maintained dynamic groups.
pub struct ManagedHcProtocol {
    host: HostId,
    manager: HostId,
    /// Scripted ops, fired by externally posted timers.
    script: HashMap<u64, GroupOp>,
    next_token: u64,
    /// Local membership views (updated by UPDATE worms).
    local: HashMap<u8, LocalGroup>,
    /// Authoritative state (manager host only).
    authority: HashMap<u8, ManagedGroup>,
    pub updates_applied: u64,
}

impl ManagedHcProtocol {
    pub fn new(host: HostId, manager: HostId) -> Self {
        ManagedHcProtocol {
            host,
            manager,
            script: HashMap::new(),
            next_token: 1,
            local: HashMap::new(),
            authority: HashMap::new(),
            updates_applied: 0,
        }
    }

    /// Register a membership operation and return the timer token to post
    /// via [`wormcast_sim::Network::post_timer`] at the desired time.
    pub fn script(&mut self, op: GroupOp) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.script.insert(token, op);
        token
    }

    /// The current local member view of a group (sorted).
    pub fn members(&self, group: u8) -> &[HostId] {
        self.local.get(&group).map_or(&[], |g| g.members.as_slice())
    }

    /// Manager side: apply an op, bump the version, disseminate.
    fn manage(&mut self, ctx: &mut ProtocolCtx, group: u8, subject: HostId, joined: bool) {
        debug_assert_eq!(self.host, self.manager);
        let g = self.authority.entry(group).or_default();
        match g.members.binary_search(&subject) {
            Ok(ix) if !joined => {
                g.members.remove(ix);
            }
            Err(ix) if joined => {
                g.members.insert(ix, subject);
            }
            _ => return, // no-op join of a member / leave of a non-member
        }
        g.version += 1;
        g.log.push((subject, joined));
        let version = g.version;
        // Disseminate the new version to everyone affected: current members
        // plus the subject (a leaver must learn its leave took effect). A
        // joiner additionally gets the whole log so its view starts from
        // version 1. The manager applies locally without a worm.
        let mut targets = g.members.clone();
        if let Err(ix) = targets.binary_search(&subject) {
            targets.insert(ix, subject);
        }
        let log = g.log.clone();
        self.local
            .entry(group)
            .or_default()
            .apply(version, subject, joined);
        self.updates_applied += 1;
        for t in targets {
            if t == self.host {
                continue;
            }
            let range = if joined && t == subject {
                1..=version // full history for the joiner
            } else {
                version..=version
            };
            for v in range {
                let (subj, j) = log[(v - 1) as usize];
                let mut upd = SendSpec::control(UPDATE, worm_msg_id(group, v), self.host, t);
                upd.stage = group;
                upd.seq = v;
                upd.hops_left = subj.0 as u16;
                upd.frag_index = u16::from(j);
                ctx.send(upd);
            }
        }
    }
}

/// Synthetic message ids for control worms (never delivered as messages).
fn worm_msg_id(group: u8, version: u32) -> wormcast_sim::worm::MessageId {
    wormcast_sim::worm::MessageId(((group as u64) << 40) | version as u64 | (1 << 60))
}

impl AdapterProtocol for ManagedHcProtocol {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        match msg.dest {
            Destination::Unicast(d) => {
                ctx.send(SendSpec::data(&msg, d, WormKind::Unicast));
            }
            Destination::Multicast(group) => {
                debug_assert_ne!(group, BROADCAST_GROUP);
                let members = self.members(group);
                let n = members.len();
                let is_member = members.binary_search(&self.host).is_ok();
                let receivers = if is_member { n.saturating_sub(1) } else { n };
                if receivers == 0 {
                    return;
                }
                let Some(succ) = circuit_successor(self.members(group), self.host) else {
                    return;
                };
                if succ == self.host {
                    return;
                }
                let mut spec = SendSpec::data(&msg, succ, WormKind::Multicast { group });
                spec.hops_left = receivers as u16;
                spec.buffer_class = if succ < self.host { 2 } else { 1 };
                ctx.send(spec);
            }
        }
    }

    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        match worm.meta.kind {
            WormKind::Unicast => ctx.deliver_local(worm.meta.msg),
            WormKind::Multicast { group } => {
                if worm.meta.origin != self.host {
                    ctx.deliver_local(worm.meta.msg);
                }
                if worm.meta.hops_left > 1 {
                    if let Some(succ) = circuit_successor(self.members(group), self.host) {
                        if succ != self.host {
                            let mut spec = SendSpec::forward(worm, succ);
                            spec.hops_left = worm.meta.hops_left - 1;
                            spec.buffer_class = if succ < self.host {
                                2
                            } else {
                                worm.meta.buffer_class
                            };
                            ctx.send(spec);
                        }
                    }
                }
            }
            WormKind::Control(JOIN) | WormKind::Control(LEAVE) => {
                let joined = matches!(worm.meta.kind, WormKind::Control(JOIN));
                let group = worm.meta.stage;
                let subject = worm.meta.injector;
                self.manage(ctx, group, subject, joined);
            }
            WormKind::Control(UPDATE) => {
                let group = worm.meta.stage;
                let subject = HostId(worm.meta.hops_left as u32);
                let joined = worm.meta.frag_index == 1;
                self.local
                    .entry(group)
                    .or_default()
                    .apply(worm.meta.seq, subject, joined);
                self.updates_applied += 1;
            }
            other => unreachable!("unexpected worm {other:?} at managed-HC host"),
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtocolCtx, token: u64) {
        let Some(op) = self.script.remove(&token) else {
            return; // stale or foreign token
        };
        let (group, joined) = match op {
            GroupOp::Join(g) => (g, true),
            GroupOp::Leave(g) => (g, false),
        };
        if self.host == self.manager {
            self.manage(ctx, group, self.host, joined);
        } else {
            let tag = if joined { JOIN } else { LEAVE };
            let mut req = SendSpec::control(tag, worm_msg_id(group, 0), self.host, self.manager);
            req.stage = group;
            ctx.send(req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wormcast_sim::protocol::Command;

    fn run_cb<F: FnOnce(&mut ManagedHcProtocol, &mut ProtocolCtx)>(
        p: &mut ManagedHcProtocol,
        f: F,
    ) -> Vec<Command> {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut cmds = Vec::new();
        let mut ctx = ProtocolCtx::new(0, p.host, 0, &mut rng, &mut cmds);
        f(p, &mut ctx);
        cmds
    }

    #[test]
    fn local_updates_apply_in_version_order() {
        let mut g = LocalGroup::default();
        // Version 2 arrives before version 1: held back.
        g.apply(2, HostId(5), true);
        assert!(g.members.is_empty());
        g.apply(1, HostId(3), true);
        assert_eq!(g.members, vec![HostId(3), HostId(5)]);
        assert_eq!(g.version, 2);
        // Duplicate and stale versions are ignored.
        g.apply(2, HostId(9), true);
        assert_eq!(g.members, vec![HostId(3), HostId(5)]);
        g.apply(3, HostId(3), false);
        assert_eq!(g.members, vec![HostId(5)]);
    }

    #[test]
    fn manager_versions_and_disseminates() {
        let mut mgr = ManagedHcProtocol::new(HostId(0), HostId(0));
        let t = mgr.script(GroupOp::Join(4));
        let cmds = run_cb(&mut mgr, |p, ctx| p.on_timer(ctx, t));
        // Manager joined its own group: no member needs an update worm yet.
        assert!(cmds.is_empty(), "{cmds:?}");
        assert_eq!(mgr.members(4), &[HostId(0)]);
        // A remote join triggers dissemination to the other member(s).
        let join = WormInstance {
            id: wormcast_sim::worm::WormId(0),
            sinks: 1,
            meta: wormcast_sim::worm::WormMeta {
                kind: WormKind::Control(JOIN),
                msg: worm_msg_id(4, 0),
                injector: HostId(3),
                origin: HostId(3),
                dest: HostId(0),
                seq: 0,
                hops_left: 0,
                buffer_class: 1,
                frag_index: 0,
                frag_last: true,
                advertised_size: 0,
                stage: 4,
            },
            route: vec![],
            route_len: 0,
            header_len: 8,
            payload_len: 4,
            created: 0,
            injected: 0,
        };
        let cmds = run_cb(&mut mgr, |p, ctx| p.on_worm_received(ctx, &join));
        assert_eq!(mgr.members(4), &[HostId(0), HostId(3)]);
        let updates: Vec<&SendSpec> = cmds
            .iter()
            .filter_map(|c| match c {
                Command::Send(s) if s.kind == WormKind::Control(UPDATE) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(updates.len(), 2, "the joiner gets the full log");
        assert!(updates.iter().all(|u| u.dest == HostId(3)));
        assert_eq!(updates[0].seq, 1);
        assert_eq!(updates[1].seq, 2, "its own join is the second version");
        assert_eq!(updates[1].frag_index, 1, "a join");
    }

    #[test]
    fn member_sends_join_to_manager() {
        let mut p = ManagedHcProtocol::new(HostId(7), HostId(0));
        let t = p.script(GroupOp::Join(2));
        let cmds = run_cb(&mut p, |p, ctx| p.on_timer(ctx, t));
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.kind, WormKind::Control(JOIN));
                assert_eq!(s.dest, HostId(0));
                assert_eq!(s.stage, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Stale token: no effect.
        let cmds = run_cb(&mut p, |p, ctx| p.on_timer(ctx, t));
        assert!(cmds.is_empty());
    }

    #[test]
    fn data_path_follows_local_view() {
        let mut p = ManagedHcProtocol::new(HostId(3), HostId(0));
        let g = p.local.entry(6).or_default();
        g.apply(1, HostId(1), true);
        g.apply(2, HostId(3), true);
        g.apply(3, HostId(8), true);
        let msg = AppMessage {
            msg: wormcast_sim::worm::MessageId(9),
            origin: HostId(3),
            dest: Destination::Multicast(6),
            payload_len: 200,
            created: 0,
        };
        let cmds = run_cb(&mut p, |p, ctx| p.on_generate(ctx, msg));
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.dest, HostId(8), "ascending successor");
                assert_eq!(s.hops_left, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
