#include "algo/general_async.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "algo/protocol_common.hpp"
#include "graph/graph_algos.hpp"
#include "util/check.hpp"

namespace disp {

namespace {
/// Guard bound for "eventually" wait loops; generous so only true deadlocks
/// (protocol bugs) trip it before the engine's own activation cap does.
constexpr std::uint64_t kWaitGuard = 1ULL << 26;
}  // namespace

GeneralAsyncDispersion::GeneralAsyncDispersion(AsyncEngine& engine)
    : engine_(engine),
      st_(engine.agentCount()),
      proberIdx_(engine.agentCount(), engine.graph().nodeCount()),
      posIdx_(0),  // resized below once the group count is known
      widths_(BitWidths::forRun(4ULL * engine.agentCount(), engine.graph().maxDegree(),
                                engine.agentCount())),
      leadQueued_(engine.agentCount(), kNoGroup),
      anchorOf_(engine.agentCount(), kNoGroup) {
  // One group per initially occupied node.
  std::set<NodeId> startNodes;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    startNodes.insert(engine_.positionOf(a));
  }
  for (const NodeId s : startNodes) {
    GroupCtx ctx;
    ctx.label = static_cast<Label>(groups_.size());
    for (const AgentIx a : engine_.agentsAt(s)) {
      st_[a].label = ctx.label;
      ++ctx.total;
      if (ctx.leader == kNoAgent || engine_.idOf(a) > engine_.idOf(ctx.leader)) {
        ctx.leader = a;
      }
    }
    ctx.unsettled = ctx.total;
    groups_.push_back(ctx);
  }
  for (const GroupCtx& ctx : groups_) leadQueued_[ctx.leader] = ctx.label;
  probeNext_.assign(groups_.size(), kNoPort);
  probeMet_.assign(groups_.size(), {});
  rescanFound_.assign(groups_.size(), 0);

  // Seed the probe indexes (everyone starts unsettled) and keep them in
  // lock-step with the world through the engine's move hook; membership
  // and label transitions are maintained at the protocol sites.
  posIdx_ = GroupPositionIndex(static_cast<std::uint32_t>(groups_.size()));
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    proberIdx_.insert(a, engine_.positionOf(a));
    posIdx_.add(st_[a].label, engine_.positionOf(a));
  }
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

bool GeneralAsyncDispersion::dispersed() const {
  std::vector<NodeId> where;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (!st_[a].settled || st_[a].isGuest) return false;
    if (engine_.positionOf(a) != st_[a].settledAt) return false;
    where.push_back(engine_.positionOf(a));
  }
  return isDispersed(where);
}

std::uint64_t GeneralAsyncDispersion::agentBits(AgentIx a) const {
  // id + 2 labels (label, reportMet) + 7 flags (settled, isGuest,
  // orderGoHome, needRegister, needReport, reportEmpty, reportGuest) +
  // 12 ports (tree record: parent + 3 child-chain; blackboard: checked,
  // nextFound; orders: probe, guestGoTo, chaperone, escort, follow; guest
  // entry) + 6 counters (probe/guest/see-off blackboard).
  std::uint64_t bits = widths_.id + 2ULL * widths_.count + 7 +
                       12ULL * widths_.port + 6ULL * widths_.count;
  for (const auto& g : groups_) {
    if (g.leader == a) bits += 2ULL * widths_.count + widths_.port;
  }
  return bits;
}

void GeneralAsyncDispersion::recordMemory() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.memory().record(a, agentBits(a));
  }
}

// ------------------------------------------------------------- helpers

std::uint32_t GeneralAsyncDispersion::resolveGroup(std::uint32_t g) const {
  while (groups_[g].dissolved) g = groups_[g].absorbedBy;
  return g;
}

AgentIx GeneralAsyncDispersion::homeSettlerAt(NodeId v, Label label) const {
  for (const AgentIx a : engine_.agentsAt(v)) {
    if (st_[a].settled && !st_[a].isGuest && st_[a].settledAt == v &&
        st_[a].label == label) {
      return a;
    }
  }
  return kNoAgent;
}

AgentIx GeneralAsyncDispersion::anySettlerAt(NodeId v) const {
  for (const AgentIx a : engine_.agentsAt(v)) {
    if (st_[a].settled && !st_[a].isGuest && st_[a].settledAt == v) return a;
  }
  return kNoAgent;
}

const std::vector<AgentIx>& GeneralAsyncDispersion::availableProbersAt(
    NodeId w, Label label) const {
  // Own-label unsettled agents and guest helpers, idle (no pending orders),
  // ascending by ID so the leader is drafted as late as its ID allows.
  // The index bucket already holds exactly the followers and guests at w;
  // the label and the fast-changing order flags are filtered here
  // (DESIGN.md §9).  Scratch reuse is safe: every caller consumes the
  // list before its next co_await (single-threaded engine), so no
  // interleaved call clobbers it.
  std::vector<AgentIx>& avail = probersScratch_;
  avail.clear();
  for (const AgentIx a : proberIdx_.membersAt(w)) {
    const AgentState& s = st_[a];
    if (s.label != label) continue;
    if (s.orderProbePort != kNoPort || s.needReport || s.needRegister) continue;
    if (s.orderGoHome || s.orderChaperone != kNoPort) continue;
    if (s.orderFollow != kNoPort) continue;
    avail.push_back(a);
  }
  std::sort(avail.begin(), avail.end(),
            [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
#ifndef NDEBUG
  // Cross-check the index against the naive occupant scan it replaced.
  std::vector<AgentIx> naive;
  for (const AgentIx a : engine_.agentsAt(w)) {
    const AgentState& s = st_[a];
    if (s.label != label) continue;
    const bool follower = !s.settled;
    const bool guest = s.settled && s.isGuest;
    if (!follower && !guest) continue;
    if (s.orderProbePort != kNoPort || s.needReport || s.needRegister) continue;
    if (s.orderGoHome || s.orderChaperone != kNoPort) continue;
    if (s.orderFollow != kNoPort) continue;
    naive.push_back(a);
  }
  std::sort(naive.begin(), naive.end(),
            [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
  DISP_CHECK(avail == naive, "IdleProberIndex drifted from the world");
#endif
  return avail;
}

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

std::uint32_t GeneralAsyncDispersion::globalUnsettled() const {
  std::uint32_t n = 0;
  for (const auto& g : groups_) n += g.unsettled;
  return n;
}

void GeneralAsyncDispersion::settle(std::uint32_t gi, AgentIx a, NodeId at,
                                    Port parentPort) {
  AgentState& s = st_[a];
  DISP_CHECK(!s.settled, "double settle");
  s.settled = true;
  s.settledAt = at;
  s.parentPort = parentPort;
  s.checked = 0;
  s.firstChildPort = s.latestChildPort = s.nextSiblingPort = kNoPort;
  proberIdx_.erase(a);  // settlers stop being prober-eligible
  posIdx_.remove(s.label, at);
  --groups_[gi].unsettled;
  engine_.traceSettle(a, groups_[gi].label);
  recordMemory();
}

void GeneralAsyncDispersion::absorbGroup(std::uint32_t gi, std::uint32_t mi) {
  // Takes a fully consolidated marcher group in: relabel every member,
  // move the counts, and dissolve it.  Shared by the active-leader path
  // (absorbMarchers) and the dormant-anchor path (dormantDuties).
  GroupCtx& ctx = groups_[gi];
  GroupCtx& m = groups_[mi];
  const NodeId here = engine_.positionOf(ctx.leader);
  std::uint32_t joined = 0;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (st_[a].label == m.label && !st_[a].settled) {
      DISP_CHECK(engine_.positionOf(a) == here,
                 "marcher group not consolidated at absorb time");
      st_[a].label = ctx.label;
      posIdx_.remove(m.label, here);
      posIdx_.add(ctx.label, here);
      ++joined;
    }
  }
  ctx.total += joined;
  ctx.unsettled += joined;
  m.total -= joined;
  m.unsettled -= joined;
  DISP_CHECK(m.total == 0 && m.unsettled == 0, "marcher left agents behind");
  m.dissolved = true;
  m.absorbedBy = gi;
  m.marching = false;
  recordMemory();
}

GeneralAsyncDispersion::ProbeSight GeneralAsyncDispersion::observeAndRecruit(
    AgentIx self, Label label) {
  // The communicate step of a probe, shared by participant probers and the
  // leader's own trips: classify the probed node and recruit an own-label
  // home settler as a guest helper, routed back through the prober's pin.
  const NodeId ui = engine_.positionOf(self);
  ProbeSight sight;
  sight.settler = homeSettlerAt(ui, label);
  for (const AgentIx b : engine_.agentsAt(ui)) {
    if (b != self && st_[b].label != label) {
      if (sight.met == kNoLabel || st_[b].label < sight.met) sight.met = st_[b].label;
    }
  }
  sight.empty = (engine_.countAt(ui) == 1);
  if (sight.settler != kNoAgent) {
    st_[sight.settler].orderGuestGoTo = engine_.pinOf(self);
    st_[sight.settler].isGuest = true;
    proberIdx_.insert(sight.settler, ui);  // guests are prober-eligible
  }
  return sight;
}

void GeneralAsyncDispersion::adoptAt(std::uint32_t gi, Label fromLabel, NodeId v) {
  if (fromLabel == groups_[gi].label) return;  // self-collapse: already ours
  for (const AgentIx a : engine_.agentsAt(v)) {
    if (st_[a].label == fromLabel && !st_[a].settled) {
      st_[a].label = groups_[gi].label;
      posIdx_.remove(fromLabel, v);
      posIdx_.add(groups_[gi].label, v);
      ++groups_[gi].total;
      ++groups_[gi].unsettled;
      --groups_[fromLabel].total;
      --groups_[fromLabel].unsettled;
    }
  }
}

// ---------------------------------------------------------- participant

Task GeneralAsyncDispersion::participantStep(AgentIx self) {
  AgentState& me = st_[self];

  // --- prober errand (followers and guests) ---
  if (me.orderProbePort != kNoPort) {
    const Port p = me.orderProbePort;
    me.orderProbePort = kNoPort;
    engine_.move(self, p);  // arrive at the neighbor u_i
    co_await engine_.nextActivation(self);
    const ProbeSight sight = observeAndRecruit(self, me.label);
    me.reportEmpty = sight.empty;
    me.reportGuest = (sight.settler != kNoAgent);
    me.reportMet = sight.met;
    engine_.move(self, engine_.pinOf(self));  // return to w
    me.needReport = true;
    co_return;
  }

  // --- report probe results at w (next activation after returning) ---
  if (me.needReport) {
    me.needReport = false;
    const NodeId w = engine_.positionOf(self);
    const AgentIx aw = homeSettlerAt(w, me.label);
    DISP_CHECK(aw != kNoAgent, "probe report: no settler at w");
    AgentState& bb = st_[aw];
    ++bb.retCount;
    if (me.reportEmpty) {
      // The port of w this prober was assigned is recoverable from its own
      // pin: it returned through the same edge.
      const Port portOfW = engine_.pinOf(self);
      if (bb.nextFound == kNoPort || portOfW < bb.nextFound) bb.nextFound = portOfW;
    }
    if (me.reportGuest) ++bb.guestExpected;
    if (me.reportMet != kNoLabel) {
      probeMet_[me.label].emplace_back(me.reportMet, engine_.pinOf(self));
    }
    me.reportEmpty = me.reportGuest = false;
    me.reportMet = kNoLabel;
    co_return;
  }

  // --- settled agent recruited as guest: travel to w ---
  if (me.orderGuestGoTo != kNoPort) {
    const Port p = me.orderGuestGoTo;
    me.orderGuestGoTo = kNoPort;
    me.needRegister = true;
    engine_.move(self, p);
    co_return;
  }
  if (me.needRegister) {
    me.needRegister = false;
    me.guestEntryPort = engine_.pinOf(self);  // port of w back toward home
    const AgentIx aw = homeSettlerAt(engine_.positionOf(self), me.label);
    DISP_CHECK(aw != kNoAgent, "guest registration: no settler at w");
    ++st_[aw].guestArrived;
    co_return;
  }

  // --- see-off: guest walking home ---
  if (me.orderGoHome) {
    me.orderGoHome = false;
    engine_.move(self, me.guestEntryPort);
    me.guestEntryPort = kNoPort;
    me.isGuest = false;  // home again (position == settledAt)
    proberIdx_.erase(self);
    co_return;
  }

  // --- see-off: guest chaperoning a partner to the partner's home ---
  if (me.orderChaperone != kNoPort) {
    const Port p = me.orderChaperone;
    me.orderChaperone = kNoPort;
    engine_.move(self, p);
    // Wait at the partner's home until the partner (a settled own-label
    // occupant) is present, then return to w and report.
    for (;;) {
      co_await engine_.nextActivation(self);
      const NodeId here = engine_.positionOf(self);
      if (homeSettlerAt(here, me.label) != kNoAgent) {
        engine_.move(self, engine_.pinOf(self));
        break;
      }
    }
    co_await engine_.nextActivation(self);
    const AgentIx aw = homeSettlerAt(engine_.positionOf(self), me.label);
    DISP_CHECK(aw != kNoAgent, "chaperone report: no settler at w");
    ++st_[aw].seeOffReturned;
    co_return;
  }

  // --- settler α(w) escorting the final guest home ---
  if (me.orderEscort != kNoPort) {
    const Port p = me.orderEscort;
    me.orderEscort = kNoPort;
    engine_.move(self, p);
    for (;;) {
      co_await engine_.nextActivation(self);
      const NodeId here = engine_.positionOf(self);
      if (homeSettlerAt(here, me.label) != kNoAgent) {
        engine_.move(self, engine_.pinOf(self));
        break;
      }
    }
    co_return;  // back at w; the leader detects the settler's presence
  }

  // --- plain group move order ---
  if (me.orderFollow != kNoPort) {
    const Port p = me.orderFollow;
    me.orderFollow = kNoPort;
    engine_.move(self, p);
    co_return;
  }
}

// --------------------------------------------------------------- fibers

Task GeneralAsyncDispersion::agentFiber(AgentIx self) {
  for (;;) {
    co_await engine_.nextActivation(self);
    if (leadQueued_[self] != kNoGroup) {
      const std::uint32_t gi = leadQueued_[self];
      leadQueued_[self] = kNoGroup;
      co_await leaderLoop(gi, self);
      continue;  // fall back to participant mode with a fresh activation
    }
    dormantDuties(self);
    co_await participantStep(self);
  }
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
  if (globalUnsettled() == 0) {
    engine_.finish();
    return;
  }
  if (ctx.frozen) return;  // a winner is collapsing this tree: hold still

  // Absorb fully arrived marcher groups aimed at us, then hand leadership
  // to the largest-ID newcomer (the SYNC version's leader re-election).
  const NodeId here = engine_.positionOf(self);
  for (std::uint32_t mi = 0; mi < groups_.size(); ++mi) {
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
    ctx.leader = fresh;
    leadQueued_[fresh] = gi;
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

Task GeneralAsyncDispersion::sideTripSetNextSibling(std::uint32_t gi, AgentIx self,
                                                    Port prevChildPort,
                                                    Port newChildPort) {
  // The leader hops to the previous child alone (the group idles at w) and
  // links the sibling chain used by future collapse walks.
  engine_.move(self, prevChildPort);
  co_await engine_.nextActivation(self);
  const AgentIx prev = homeSettlerAt(engine_.positionOf(self), groups_[gi].label);
  DISP_CHECK(prev != kNoAgent, "previous child lost its settler");
  st_[prev].nextSiblingPort = newChildPort;
  engine_.move(self, engine_.pinOf(self));
  co_await engine_.nextActivation(self);
}

// --------------------------------------------------------------- probe

Task GeneralAsyncDispersion::leaderProbeTrip(std::uint32_t gi, AgentIx self,
                                             Port port) {
  engine_.move(self, port);
  co_await engine_.nextActivation(self);
  const ProbeSight sight = observeAndRecruit(self, groups_[gi].label);
  engine_.move(self, engine_.pinOf(self));
  co_await engine_.nextActivation(self);
  // Report (the leader is back at w).
  const AgentIx aw = homeSettlerAt(engine_.positionOf(self), groups_[gi].label);
  DISP_CHECK(aw != kNoAgent, "leader probe report: no settler at w");
  AgentState& bb = st_[aw];
  ++bb.retCount;
  if (sight.empty) {
    const Port portOfW = engine_.pinOf(self);
    if (bb.nextFound == kNoPort || portOfW < bb.nextFound) bb.nextFound = portOfW;
  }
  if (sight.settler != kNoAgent) ++bb.guestExpected;
  if (sight.met != kNoLabel) probeMet_[gi].emplace_back(sight.met, engine_.pinOf(self));
}

Task GeneralAsyncDispersion::probePhase(std::uint32_t gi, AgentIx self) {
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "probe";
  ++stats_.probes;
  const Graph& g = engine_.graph();
  const NodeId w = engine_.positionOf(self);
  const AgentIx aw = homeSettlerAt(w, ctx.label);
  DISP_CHECK(aw != kNoAgent, "probe at a node without an own settler");
  const Port limit =
      static_cast<Port>(std::min<std::uint32_t>(g.degree(w), engine_.agentCount()));

  probeNext_[gi] = kNoPort;
  probeMet_[gi].clear();

  for (;;) {
    AgentState& bb = st_[aw];
    if (bb.checked >= limit) break;  // exhausted: probeNext_ stays ⊥

    const auto& avail = availableProbersAt(w, ctx.label);
    DISP_CHECK(!avail.empty(), "Async_Probe with no available agents");
    const Port delta = static_cast<Port>(std::min<std::uint32_t>(
        static_cast<std::uint32_t>(avail.size()), limit - bb.checked));
    ++stats_.probeIterations;

    bb.outCount = delta;
    bb.retCount = 0;
    bb.guestExpected = 0;
    bb.guestArrived = 0;
    bb.nextFound = kNoPort;

    bool selfProbes = false;
    Port selfPort = kNoPort;
    for (Port i = 0; i < delta; ++i) {
      const Port port = bb.checked + 1 + i;
      if (avail[i] == self) {
        selfProbes = true;
        selfPort = port;
      } else {
        st_[avail[i]].orderProbePort = port;
      }
    }
    if (selfProbes) co_await leaderProbeTrip(gi, self, selfPort);

    // Wait for every prober's report and every recruited guest's arrival.
    for (;;) {
      const AgentState& bbr = st_[aw];
      if (bbr.retCount == bbr.outCount && bbr.guestArrived == bbr.guestExpected) break;
      co_await engine_.nextActivation(self);
    }
    stats_.guestsRecruited += st_[aw].guestArrived;

    if (st_[aw].nextFound != kNoPort) {
      probeNext_[gi] = st_[aw].nextFound;
      break;  // checked intentionally not advanced (Algorithm 3 line 14–15)
    }
    st_[aw].checked = st_[aw].checked + delta;
  }
}

Task GeneralAsyncDispersion::seeOffPhase(std::uint32_t gi, AgentIx self) {
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "seeOff";
  const NodeId w = engine_.positionOf(self);
  for (;;) {
    // Collect co-located own-label guests, ascending by ID (Algorithm 4).
    std::vector<AgentIx> guests;
    for (const AgentIx a : engine_.agentsAt(w)) {
      if (st_[a].label == ctx.label && st_[a].settled && st_[a].isGuest) {
        guests.push_back(a);
      }
    }
    if (guests.empty()) co_return;
    std::sort(guests.begin(), guests.end(),
              [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
    ++stats_.seeOffSweeps;

    if (guests.size() == 1) {
      // α(w) escorts the last guest home (Algorithm 4 lines 2–4).
      const AgentIx g = guests.front();
      const AgentIx aw = homeSettlerAt(w, ctx.label);
      DISP_CHECK(aw != kNoAgent, "see-off without a settler at w");
      st_[aw].orderEscort = st_[g].guestEntryPort;
      st_[g].orderGoHome = true;
      // Wait until the guest is gone and the settler is back *with its
      // escort order consumed*.  Without the order check the guest can walk
      // home on its own before the settler ever leaves, the leader would
      // move on, and the stale escort order would later pull the settler
      // away from w mid-protocol — exactly the §4.3 in-transit hazard.
      for (;;) {
        co_await engine_.nextActivation(self);
        bool guestGone = true;
        for (const AgentIx a : engine_.agentsAt(w)) {
          guestGone &= !(st_[a].label == ctx.label && st_[a].settled && st_[a].isGuest);
        }
        const AgentIx back = homeSettlerAt(w, ctx.label);
        if (guestGone && back != kNoAgent && st_[back].orderEscort == kNoPort) co_return;
      }
    }

    // Pair (g1,g2), (g3,g4), ...: the pair walks to the odd member's home;
    // the even member chaperones and returns.  A trailing unpaired guest
    // waits for the next sweep.
    const AgentIx aw = homeSettlerAt(w, ctx.label);
    DISP_CHECK(aw != kNoAgent, "see-off without a settler at w");
    const auto pairs = static_cast<std::uint32_t>(guests.size() / 2);
    st_[aw].seeOffExpected = pairs;
    st_[aw].seeOffReturned = 0;
    for (std::uint32_t i = 0; i < pairs; ++i) {
      const AgentIx gHome = guests[2 * i];
      const AgentIx gBack = guests[2 * i + 1];
      st_[gBack].orderChaperone = st_[gHome].guestEntryPort;
      st_[gHome].orderGoHome = true;
    }
    for (;;) {
      if (st_[aw].seeOffReturned == st_[aw].seeOffExpected) break;
      co_await engine_.nextActivation(self);
    }
  }
}

// ---------------------------------------------------------- subsumption

Task GeneralAsyncDispersion::awaitParked(std::uint32_t gi, std::uint32_t loser) {
  const AgentIx self = groups_[gi].leader;
  // The loser acknowledges the freeze at its next safe point; a group whose
  // leader already settled everyone (dispersed) counts as parked — its
  // dormant anchor holds still once frozen.
  for (std::uint64_t guard = 0; guard < kWaitGuard; ++guard) {
    const GroupCtx& L = groups_[loser];
    if (L.parked || (L.unsettled == 0 && !L.marching)) co_return;
    co_await engine_.nextActivation(self);
  }
  DISP_CHECK(false, "loser never parked");
}

Task GeneralAsyncDispersion::collapseVisit(std::uint32_t gi, Label loserLabel,
                                           Port exclPort) {
  GroupCtx& ctx = groups_[gi];
  const NodeId cur = engine_.positionOf(ctx.leader);

  // Collect any parked loser-group agents stranded here (including the
  // loser's parked leader): they change allegiance and walk with us.
  adoptAt(gi, loserLabel, cur);

  const AgentIx ls = homeSettlerAt(cur, loserLabel);
  if (ls == kNoAgent) {
    std::string diag = "collapse walk: loser tree node without settler: node=" +
                       std::to_string(cur) + " loser=" + std::to_string(loserLabel) +
                       " walker=" + std::to_string(ctx.label) + " occupants:";
    for (const AgentIx b : engine_.agentsAt(cur)) {
      diag += " a" + std::to_string(b) + "(l" + std::to_string(st_[b].label) +
              (st_[b].settled ? ",s" : ",u") + (st_[b].isGuest ? ",g)" : ")");
    }
    DISP_CHECK(false, diag);
  }
  const Port parentPort = st_[ls].parentPort;
  const Port firstChild = st_[ls].firstChildPort;

  // Children chain (skipping the direction we came from; for that child we
  // only peek its sibling pointer to continue the chain).
  Port c = firstChild;
  while (c != kNoPort) {
    if (c == exclPort) {
      co_await moveGroup(gi, c);
      const AgentIx cs = homeSettlerAt(engine_.positionOf(ctx.leader), loserLabel);
      const Port sib = (cs != kNoAgent) ? st_[cs].nextSiblingPort : kNoPort;
      co_await moveGroup(gi, engine_.pinOf(ctx.leader));
      c = sib;
      continue;
    }
    co_await moveGroup(gi, c);
    const Port backUp = engine_.pinOf(ctx.leader);
    const AgentIx cs = homeSettlerAt(engine_.positionOf(ctx.leader), loserLabel);
    DISP_CHECK(cs != kNoAgent, "collapse walk: child without settler");
    const Port sib = st_[cs].nextSiblingPort;
    co_await collapseVisit(gi, loserLabel, backUp);
    co_await moveGroup(gi, backUp);
    c = sib;
  }

  // Parent direction (when we entered from a child or from outside).
  if (parentPort != kNoPort && parentPort != exclPort) {
    co_await moveGroup(gi, parentPort);
    const Port backDown = engine_.pinOf(ctx.leader);
    co_await collapseVisit(gi, loserLabel, backDown);
    co_await moveGroup(gi, backDown);
  }

  // Finally collect this node's settler; its record dies with it.
  AgentState& s = st_[ls];
  s.settled = false;
  s.settledAt = kInvalidNode;
  s.label = ctx.label;
  proberIdx_.insert(ls, engine_.positionOf(ls));  // unsettled again
  posIdx_.add(ctx.label, engine_.positionOf(ls));
  ++ctx.total;
  ++ctx.unsettled;
  --groups_[loserLabel].total;
  --groups_[loserLabel].treeSize;
  engine_.traceUnsettle(ls, loserLabel, ctx.label);
}

Task GeneralAsyncDispersion::marchToward(std::uint32_t gi, AgentIx anchor) {
  // BFS walk of the whole group toward the anchor agent's (possibly
  // moving) position; every hop is a real group move.
  for (std::uint64_t guard = 0; guard < kWaitGuard; ++guard) {
    const NodeId here = engine_.positionOf(groups_[gi].leader);
    const NodeId there = engine_.positionOf(anchor);
    if (here == there) co_return;
    const auto dist = bfsDistances(engine_.graph(), there);
    Port step = kNoPort;
    for (Port p = 1; p <= engine_.graph().degree(here); ++p) {
      if (dist[engine_.graph().neighbor(here, p)] < dist[here]) {
        step = p;
        break;
      }
    }
    DISP_CHECK(step != kNoPort, "march lost its way");
    co_await moveGroup(gi, step);
  }
  DISP_CHECK(false, "march never arrived");
}

Task GeneralAsyncDispersion::collapseForeign(std::uint32_t gi, std::uint32_t loser,
                                             Port metPort) {
  GroupCtx& ctx = groups_[gi];
  bool usedPort = false;
  if (metPort != kNoPort) {
    // Enter the loser tree through the met port, Euler-walk it collecting
    // everyone, end back at the entry node, and hop home.  The met node may
    // turn out not to be a loser *tree* node (the meeting was with agents
    // in transit); fall back to the march path then.
    co_await moveGroup(gi, metPort);
    const Port backToHead = engine_.pinOf(ctx.leader);
    if (homeSettlerAt(engine_.positionOf(ctx.leader), groups_[loser].label) !=
        kNoAgent) {
      usedPort = true;
      co_await collapseVisit(gi, groups_[loser].label, kNoPort);
    }
    co_await moveGroup(gi, backToHead);
  }
  if (!usedPort) {
    // Pended retry: no fresh adjacency.  March to the loser's parked group
    // (its leader rests on a loser tree node), collapse from there, then
    // march back to our own head to resume the DFS.
    const NodeId myHead = engine_.positionOf(ctx.leader);
    const AgentIx loserAnchor = groups_[loser].leader;
    co_await marchToward(gi, loserAnchor);
    co_await collapseVisit(gi, groups_[loser].label, kNoPort);
    const AgentIx homeAnchor = homeSettlerAt(myHead, ctx.label);
    DISP_CHECK(homeAnchor != kNoAgent, "head lost its settler during collapse");
    co_await marchToward(gi, homeAnchor);
  }
  recordMemory();
}

Task GeneralAsyncDispersion::selfCollapseAndMarch(std::uint32_t gi,
                                                  std::uint32_t winner, Port metPort) {
  GroupCtx& ctx = groups_[gi];
  // Collapse our own tree starting from the head (a tree node), collecting
  // all our settlers into the walking group.
  co_await collapseVisit(gi, ctx.label, kNoPort);
  // Chase the winner's leader (the group anchor: with the group while
  // active, at its settle node when dormant).  The winner idles at its
  // next safe point until we arrive and absorbs us; routing uses
  // engine-side position tracking standing in for KS's head-pointer
  // maintenance, with every hop a real move.
  if (metPort != kNoPort) co_await moveGroup(gi, metPort);
  ctx.marchTarget = winner;
  ctx.marching = true;
  for (std::uint64_t guard = 0; guard < kWaitGuard; ++guard) {
    if (ctx.dissolved) co_return;  // the winner absorbed us
    const std::uint32_t target = resolveGroup(ctx.marchTarget);
    const NodeId here = engine_.positionOf(ctx.leader);
    const NodeId head = engine_.positionOf(groups_[target].leader);
    if (here == head) {
      co_await engine_.nextActivation(ctx.leader);  // co-located: await absorb
      continue;
    }
    const auto dist = bfsDistances(engine_.graph(), head);
    Port step = kNoPort;
    for (Port p = 1; p <= engine_.graph().degree(here); ++p) {
      if (dist[engine_.graph().neighbor(here, p)] < dist[here]) {
        step = p;
        break;
      }
    }
    DISP_CHECK(step != kNoPort, "march lost its way");
    co_await moveGroup(gi, step);
  }
  DISP_CHECK(false, "march never absorbed");
}

Task GeneralAsyncDispersion::absorbMarchers(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  for (;;) {
    // Junction locking (DESIGN.md §4.7): a frozen/dissolved group must not
    // take marchers in — its winner's collapse walk collects only tree
    // settlers, so members absorbed mid-freeze would be orphaned unsettled
    // when this fiber parks.  The marchers re-resolve their target through
    // the dissolution chain and reach the eventual winner instead.
    if (ctx.frozen || ctx.dissolved) co_return;
    std::int64_t marcher = -1;
    for (std::uint32_t mi = 0; mi < groups_.size(); ++mi) {
      if (groups_[mi].marching && !groups_[mi].dissolved &&
          resolveGroup(groups_[mi].marchTarget) == gi) {
        marcher = mi;
        break;
      }
    }
    if (marcher < 0) co_return;
    ctx.phase = "absorbWait";
    const std::uint32_t mi = static_cast<std::uint32_t>(marcher);
    // Idle until the marcher's group fully reaches our leader, then take
    // them in — unless a winner freezes us first, or the marcher is
    // rerouted meanwhile.
    for (std::uint64_t guard = 0; guard < kWaitGuard; ++guard) {
      if (ctx.frozen || ctx.dissolved || groups_[mi].dissolved) break;
      if (groupConsolidatedAt(groups_[mi].label, engine_.positionOf(ctx.leader))) break;
      co_await engine_.nextActivation(ctx.leader);
    }
    if (ctx.frozen || ctx.dissolved) co_return;
    if (groups_[mi].dissolved) continue;  // absorbed elsewhere; rescan
    absorbGroup(gi, mi);
  }
}

Task GeneralAsyncDispersion::handleMeeting(std::uint32_t gi, Label other,
                                           Port metPort) {
  GroupCtx& ctx = groups_[gi];
  // A group that has itself been frozen (a winner is about to collapse it)
  // must not initiate anything: it parks at its next safe point and gets
  // collected.
  if (ctx.frozen || ctx.dissolved || ctx.marching) co_return;
  const std::uint32_t target = resolveGroup(other);
  if (target == gi) co_return;
  GroupCtx& them = groups_[target];
  if (them.frozen || them.marching) {
    // Busy peer: pend the meeting (dropping it could wall this tree in,
    // since a probed port is never re-probed once `checked` advances).
    if (std::find(ctx.pending.begin(), ctx.pending.end(), them.label) ==
        ctx.pending.end()) {
      ctx.pending.push_back(them.label);
    }
    co_return;
  }
  ++stats_.meetings;
  engine_.traceEvent(TraceEventKind::Meeting, ctx.leader,
                     engine_.positionOf(ctx.leader), ctx.label, them.label);

  // |D2| < |D1| means D1 subsumes D2; ties favour the met tree (§4.2).
  // The peer checks and the freeze below share one activation — no
  // suspension point in between — so two groups can never freeze each
  // other concurrently.
  const bool iWin = them.treeSize < ctx.treeSize;
  ++stats_.subsumptions;
  engine_.traceEvent(TraceEventKind::Subsume,
                     iWin ? ctx.leader : them.leader,
                     engine_.positionOf(ctx.leader),
                     iWin ? ctx.label : them.label,
                     iWin ? them.label : ctx.label);
  if (iWin) {
    them.frozen = true;
    engine_.traceEvent(TraceEventKind::Freeze, them.leader,
                       engine_.positionOf(them.leader), them.label, ctx.label);
    ctx.phase = "awaitParked";
    co_await awaitParked(gi, target);
    ctx.phase = "collapseForeign";
    if (!them.dissolved) {
      co_await collapseForeign(gi, target, metPort);
      them.dissolved = true;
      them.absorbedBy = gi;
    }
  } else {
    ctx.frozen = true;  // others must not target us mid-self-collapse
    engine_.traceEvent(TraceEventKind::Freeze, ctx.leader,
                       engine_.positionOf(ctx.leader), ctx.label, them.label);
    ctx.phase = "selfCollapse";
    co_await selfCollapseAndMarch(gi, target, metPort);
  }
}

Task GeneralAsyncDispersion::retryPending(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  if (ctx.unsettled == 0) {
    // A dispersed group never needs to initiate a subsumption: if a blocked
    // peer still needs this tree's nodes, it will meet us and act.
    ctx.pending.clear();
    co_return;
  }
  std::vector<Label> todo;
  std::swap(todo, ctx.pending);
  for (const Label label : todo) {
    if (ctx.frozen || ctx.dissolved) {
      // Re-pend what we could not process; a later owner inherits it.
      ctx.pending.push_back(label);
      continue;
    }
    if (resolveGroup(label) == gi) continue;  // merged meanwhile
    co_await handleMeeting(gi, label, kNoPort);
  }
}

Task GeneralAsyncDispersion::rescanVisit(std::uint32_t gi, AgentIx self) {
  // Blocked-DFS recovery: Euler-walk the own tree, resetting probe progress
  // and re-probing at every node, because a collapse can free nodes behind
  // ports this DFS already advanced past (checked is monotone).  Stops at
  // the first node with a finding; the DFS resumes from there.
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "rescan";
  const NodeId cur = engine_.positionOf(self);
  const AgentIx settler = homeSettlerAt(cur, ctx.label);
  DISP_CHECK(settler != kNoAgent, "rescan reached a non-own node");

  st_[settler].checked = 0;
  co_await probePhase(gi, self);
  co_await seeOffPhase(gi, self);
  if (probeNext_[gi] != kNoPort || !probeMet_[gi].empty()) {
    rescanFound_[gi] = 1;  // resume the DFS right here
    co_return;
  }

  Port c = st_[settler].firstChildPort;
  while (c != kNoPort) {
    co_await moveGroup(gi, c);
    const Port backUp = engine_.pinOf(self);
    const AgentIx cs = homeSettlerAt(engine_.positionOf(self), ctx.label);
    DISP_CHECK(cs != kNoAgent, "rescan child without settler");
    const Port sib = st_[cs].nextSiblingPort;
    co_await rescanVisit(gi, self);
    if (rescanFound_[gi]) co_return;  // stay put; frames unwind without moving
    co_await moveGroup(gi, backUp);
    c = sib;
  }
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
      // Dispersed: become the group's dormant anchor.  Marchers navigate
      // to us; dormantDuties absorbs them and hands leadership on.
      ctx.phase = "dormant";
      anchorOf_[self] = gi;
      if (globalUnsettled() == 0) engine_.finish();
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
      co_await probePhase(gi, self);
      co_await seeOffPhase(gi, self);
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
      // Sibling-chain bookkeeping for future collapse walks (undone below
      // if the move has to retreat).
      const Port prevFirst = st_[aw].firstChildPort;
      const Port prevLatest = st_[aw].latestChildPort;
      if (st_[aw].firstChildPort == kNoPort) {
        st_[aw].firstChildPort = next;
      } else {
        co_await sideTripSetNextSibling(gi, self, st_[aw].latestChildPort, next);
      }
      st_[aw].latestChildPort = next;

      co_await moveGroup(gi, next);
      const NodeId u = engine_.positionOf(self);
      const AgentIx foreignSettler = anySettlerAt(u);
      bool retreat = false;
      Label metLabel = kNoLabel;
      if (foreignSettler != kNoAgent) {
        retreat = true;
        metLabel = st_[foreignSettler].label;
      } else {
        // Collision with a foreign group on an empty node: the squatting
        // rule — the smaller tree (ties: smaller label) retreats; both
        // sides compute the same comparison.
        for (const AgentIx b : engine_.agentsAt(u)) {
          if (st_[b].label == ctx.label || st_[b].settled) continue;
          const std::uint32_t otherGi = resolveGroup(st_[b].label);
          const auto mine = std::make_pair(ctx.treeSize, ctx.label);
          const auto theirs =
              std::make_pair(groups_[otherGi].treeSize, groups_[otherGi].label);
          if (mine < theirs) retreat = true;
        }
      }
      if (retreat) {
        ++stats_.retreats;
        co_await moveGroup(gi, engine_.pinOf(self));
        // Undo the speculative sibling link: the child was not created.
        st_[aw].firstChildPort = prevFirst;
        st_[aw].latestChildPort = prevLatest;
        if (prevLatest != kNoPort) {
          co_await sideTripSetNextSibling(gi, self, prevLatest, kNoPort);
        }
        if (metLabel != kNoLabel) co_await handleMeeting(gi, metLabel, next);
        continue;
      }

      ++stats_.forwardMoves;
      ++ctx.treeSize;
      // Settle the smallest-ID follower; the leader settles itself only
      // when it is the last unsettled member of its group.
      AgentIx amin = minIdAgentAt(engine_, u, [&](AgentIx a) {
        return a != self && st_[a].label == ctx.label && !st_[a].settled;
      });
      if (amin == kNoAgent) amin = self;
      settle(gi, amin, u, engine_.pinOf(amin));
      if (ctx.unsettled == 0) {
        ctx.phase = "dormant";
        anchorOf_[self] = gi;
        if (globalUnsettled() == 0) engine_.finish();
        co_return;
      }
    } else {
      const Port pp = st_[aw].parentPort;
      if (pp == kNoPort) {
        // Root exhausted while agents remain.  A collapse may have freed
        // nodes behind already-checked ports anywhere along our tree, so
        // sweep the whole tree re-probing (rescanVisit); if that finds
        // nothing every frontier peer is busy — pend/retry after a pause.
        if (ctx.pending.empty()) {
          rescanFound_[gi] = 0;
          co_await rescanVisit(gi, self);
          if (!rescanFound_[gi]) {
            for (int i = 0; i < 16; ++i) co_await engine_.nextActivation(self);
          }
        } else {
          for (int i = 0; i < 16; ++i) co_await engine_.nextActivation(self);
        }
        continue;
      }
      ++stats_.backtracks;
      co_await moveGroup(gi, pp);
    }
  }
}

}  // namespace disp
