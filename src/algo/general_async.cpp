#include "algo/general_async.hpp"

#include "algo/protocol_common.hpp"
#include "util/check.hpp"

namespace disp {

GeneralAsyncDispersion::GeneralAsyncDispersion(AsyncEngine& engine)
    : AsyncGrowth(engine, engine.agentCount(), stats_),  // probe up to min(δ(w), k)
      Merge(engine.agentCount(), engine.graph().maxDegree()),
      posIdx_(labelCount()),
      leadQueued_(engine.agentCount(), kNoGroup),
      anchorOf_(engine.agentCount(), kNoGroup) {
  // One group per initially occupied node (AsyncGrowth's starting labels),
  // led by its largest-ID member.
  initGroups(labelCount());
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    posIdx_.add(st_[a].label, engine_.positionOf(a));
  }
  for (const GroupCtx& ctx : groups_) leadQueued_[ctx.leader] = ctx.label;

  // Keep both indexes in lock-step with the world through the engine's
  // move hook; membership and label transitions are maintained at the
  // protocol sites.
  engine_.setMoveHook([this](AgentIx a, NodeId from, NodeId to) {
    proberIdx_.relocate(a, to);
    if (!st_[a].settled) posIdx_.move(st_[a].label, from, to);
  });
}

void GeneralAsyncDispersion::start() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.setAgentFiber(a, agentFiber(a));
  }
}

std::uint64_t GeneralAsyncDispersion::agentBits(AgentIx a) const {
  // id + 2 labels (label, reportMet) + 7 flags (settled, isGuest,
  // orderGoHome, needRegister, needReport, reportEmpty, reportGuest) +
  // 12 ports (tree record: parent + 3 child-chain; blackboard: checked,
  // nextFound; orders: probe, guestGoTo, chaperone, escort, follow; guest
  // entry) + 6 counters (probe/guest/see-off blackboard), plus the
  // leadership records of the groups `a` leads.
  return widths_.id + 2ULL * widths_.count + 7 + 12ULL * widths_.port +
         6ULL * widths_.count + leaderRecordBits(a);
}

// ------------------------------------------------------------- helpers

bool GeneralAsyncDispersion::groupConsolidatedAt(Label label, NodeId v) const {
  const bool consolidated = posIdx_.consolidatedAt(label, v);
#ifndef NDEBUG
  // Cross-check the fingerprint against the naive all-agent scan.
  bool any = false, naive = true;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (st_[a].label != label || st_[a].settled) continue;
    if (engine_.positionOf(a) != v) naive = false;
    any = true;
  }
  naive = naive && any;
  DISP_CHECK(consolidated == naive, "GroupPositionIndex drifted from the world");
#endif
  return consolidated;
}

// --------------------------------------------------------------- fibers

Task GeneralAsyncDispersion::agentFiber(AgentIx self) {
  for (;;) {
    // Idle (no lead to take, no anchor duty, no order): park until a
    // handoff or an order signals us.
    const bool idle =
        leadQueued_[self] == kNoGroup && anchorOf_[self] == kNoGroup && !hasOrder(self);
    if (idle) {
      co_await engine_.park(self);
    } else {
      co_await engine_.nextActivation(self);
    }
    if (leadQueued_[self] != kNoGroup) {
      const std::uint32_t gi = leadQueued_[self];
      leadQueued_[self] = kNoGroup;
      co_await leaderLoop(gi, self);
      continue;  // fall back to participant mode with a fresh activation
    }
    dormantDuties(self);
    if (hasOrder(self)) co_await participantStep(self);
  }
}

void GeneralAsyncDispersion::goDormant(std::uint32_t gi, AgentIx self) {
  // Marchers navigate to the anchor; dormantDuties absorbs them and hands
  // leadership on.
  groups_[gi].phase = "dormant";
  anchorOf_[self] = gi;
  if (unsettledTotal_ == 0) engine_.finish();
}

void GeneralAsyncDispersion::dormantDuties(AgentIx self) {
  const std::uint32_t gi = anchorOf_[self];
  if (gi == kNoGroup) return;
  GroupCtx& ctx = groups_[gi];
  if (ctx.dissolved || ctx.leader != self || !st_[self].settled ||
      st_[self].isGuest || st_[self].label != ctx.label) {
    anchorOf_[self] = kNoGroup;  // collapsed away or leadership moved on
    return;
  }
  if (unsettledTotal_ == 0) {
    engine_.finish();
    return;
  }
  if (ctx.frozen) return;  // a winner is collapsing this tree: hold still

  // Absorb fully arrived marcher groups aimed at us, then hand leadership
  // to the largest-ID newcomer (the SYNC version's leader re-election).
  const NodeId here = engine_.positionOf(self);
  for (std::uint32_t mi = 0; marchingCount_ > 0 && mi < groups_.size(); ++mi) {
    const GroupCtx& m = groups_[mi];
    if (!m.marching || m.dissolved || resolveGroup(m.marchTarget) != gi) continue;
    if (!groupConsolidatedAt(m.label, here)) continue;
    absorbGroup(gi, mi);
  }
  if (ctx.unsettled > 0) {
    const AgentIx fresh = maxIdAgentAt(engine_, here, [&](AgentIx a) {
      return st_[a].label == ctx.label && !st_[a].settled;
    });
    DISP_CHECK(fresh != kNoAgent, "no co-located candidate for leader handoff");
    setLeader(gi, fresh);
    leadQueued_[fresh] = gi;
    engine_.signal(fresh);
    anchorOf_[self] = kNoGroup;
    ++stats_.handoffs;
  }
}

// --------------------------------------------------------- leader moves

Task GeneralAsyncDispersion::moveGroup(std::uint32_t gi, Port p) {
  GroupCtx& ctx = groups_[gi];
  const AgentIx self = ctx.leader;
  const NodeId w = engine_.positionOf(self);
  for (const AgentIx a : engine_.agentsAt(w)) {
    if (a != self && !st_[a].settled && st_[a].label == ctx.label) {
      st_[a].orderFollow = p;
      engine_.signal(a);
    }
  }
  engine_.move(self, p);
  co_await engine_.nextActivation(self);
  // Reassemble fully before anything else: no collision/retreat decision
  // may strand a follower mid-edge.  A marching group can be absorbed by
  // its winner mid-hop (every member relabeled while this fiber sleeps);
  // the dissolved check lets the ex-leader unwind instead of waiting for a
  // label nobody carries any more.
  for (std::uint64_t guard = 0; guard < kWaitGuard; ++guard) {
    if (ctx.dissolved) co_return;
    if (groupConsolidatedAt(ctx.label, engine_.positionOf(self))) {
      ++stats_.collapseHops;  // generic hop counter (collapses and marches)
      co_return;
    }
    co_await engine_.nextActivation(self);
  }
  DISP_CHECK(false, "group move never reassembled");
}

Task GeneralAsyncDispersion::sideTripSetNextSibling(std::uint32_t gi, NodeId,
                                                    Port prevChildPort,
                                                    Port newChildPort) {
  // The leader hops to the previous child alone (the group idles at w) and
  // links the sibling chain used by future collapse walks.
  const AgentIx self = groups_[gi].leader;
  engine_.move(self, prevChildPort);
  co_await engine_.nextActivation(self);
  const AgentIx prev = homeSettlerAt(engine_.positionOf(self), groups_[gi].label);
  DISP_CHECK(prev != kNoAgent, "previous child lost its settler");
  chain_[prev].nextSiblingPort = newChildPort;
  engine_.move(self, engine_.pinOf(self));
  co_await engine_.nextActivation(self);
}

Task GeneralAsyncDispersion::growAt(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "probe";
  co_await probePhase(ctx.label, ctx.leader);
  ctx.phase = "seeOff";
  co_await seeOffPhase(ctx.label, ctx.leader);
}

// ----------------------------------------------------------------- main

Task GeneralAsyncDispersion::leaderLoop(std::uint32_t gi, AgentIx self) {
  GroupCtx& ctx = groups_[gi];

  // Settle the smallest-ID member at the start node (first lead only).
  if (ctx.treeSize == 0) {
    const NodeId s = engine_.positionOf(self);
    const AgentIx amin = minIdAgentAt(engine_, s, [&](AgentIx a) {
      return st_[a].label == ctx.label && !st_[a].settled;
    });
    DISP_CHECK(amin != kNoAgent, "no agent to settle at the start node");
    settle(gi, amin, s, kNoPort);
    ctx.treeSize = 1;
  }

  for (;;) {
    // Dormant / parked / absorbed handling (safe points).
    if (ctx.dissolved) co_return;
    if (ctx.frozen) {
      ctx.parked = true;
      co_return;  // fall back to participant mode; a winner collects us
    }
    co_await absorbMarchers(gi);
    if (ctx.dissolved || ctx.frozen) continue;
    co_await retryPending(gi);
    if (ctx.dissolved || ctx.frozen) continue;
    if (ctx.unsettled == 0) {
      goDormant(gi, self);
      co_return;
    }

    const NodeId w = engine_.positionOf(self);
    if (rescanFound_[gi]) {
      // A rescan stopped here because its probe found an empty port or a
      // meeting; consume those results directly.  Re-probing would clear
      // probeMet_ and exit at once (this node's `checked` is already
      // exhausted when only a meeting was found), silently discarding the
      // finding and rescanning forever.
      rescanFound_[gi] = 0;
    } else {
      co_await growAt(gi);
    }

    // Meetings discovered by this probe (report order).
    for (const auto& [label, port] : probeMet_[gi]) {
      co_await handleMeeting(gi, label, port);
      if (ctx.frozen || ctx.dissolved) break;
    }
    if (ctx.dissolved || ctx.frozen) continue;

    const Port next = probeNext_[gi];
    const AgentIx aw = homeSettlerAt(w, ctx.label);
    DISP_CHECK(aw != kNoAgent, "head lost its settler");

    if (next != kNoPort) {
      bool entered = false;
      co_await forwardStep(gi, w, aw, next, entered);
      if (!entered) continue;
      // Settle the smallest-ID follower; the leader settles itself only
      // when it is the last unsettled member of its group.
      const NodeId u = engine_.positionOf(self);
      AgentIx amin = minIdAgentAt(engine_, u, [&](AgentIx a) {
        return a != self && st_[a].label == ctx.label && !st_[a].settled;
      });
      if (amin == kNoAgent) amin = self;
      settle(gi, amin, u, engine_.pinOf(amin));
      if (ctx.unsettled == 0) {
        goDormant(gi, self);
        co_return;
      }
    } else {
      const Port pp = st_[aw].parentPort;
      if (pp == kNoPort) {
        co_await rescanOrPause(gi, 16);
        continue;
      }
      ++stats_.backtracks;
      co_await moveGroup(gi, pp);
    }
  }
}

}  // namespace disp
