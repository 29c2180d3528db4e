#include "algo/async_rooted.hpp"

#include <algorithm>

#include "algo/protocol_common.hpp"
#include "util/check.hpp"

namespace disp {

RootedAsyncDispersion::RootedAsyncDispersion(AsyncEngine& engine)
    : engine_(engine),
      st_(engine.agentCount()),
      proberIdx_(engine.agentCount(), engine.graph().nodeCount()),
      widths_(BitWidths::forRun(4ULL * engine.agentCount(), engine.graph().maxDegree(),
                                engine.agentCount())) {
  const NodeId root = engine_.positionOf(0);
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    DISP_REQUIRE(engine_.positionOf(a) == root,
                 "RootedAsyncDisp expects a rooted initial configuration");
    if (leader_ == kNoAgent || engine_.idOf(a) > engine_.idOf(leader_)) leader_ = a;
    proberIdx_.insert(a, root);  // everyone starts unsettled
  }
  groupSize_ = engine_.agentCount();
  engine_.setMoveHook(
      [this](AgentIx a, NodeId /*from*/, NodeId to) { proberIdx_.relocate(a, to); });
}

void RootedAsyncDispersion::start() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.setAgentFiber(a, a == leader_ ? leaderFiber(a) : participantFiber(a));
  }
}

bool RootedAsyncDispersion::dispersed() const {
  std::vector<NodeId> where;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (!st_[a].settled || st_[a].isGuest) return false;
    if (engine_.positionOf(a) != st_[a].settledAt) return false;
    where.push_back(engine_.positionOf(a));
  }
  return isDispersed(where);
}

std::uint64_t RootedAsyncDispersion::agentBits(AgentIx a) const {
  // id + settled + guest flags + parent/checked/next + order slots (ports)
  // + probe counters (bounded by k) + entry port.
  std::uint64_t bits = widths_.id + 4 + 9ULL * widths_.port + 6ULL * widths_.count;
  if (a == leader_) bits += widths_.count + widths_.port;  // groupSize + next
  return bits;
}

void RootedAsyncDispersion::recordMemory() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.memory().record(a, agentBits(a));
  }
}

AgentIx RootedAsyncDispersion::homeSettlerAt(NodeId v) const {
  for (const AgentIx a : engine_.agentsAt(v)) {
    if (st_[a].settled && !st_[a].isGuest && st_[a].settledAt == v) return a;
  }
  return kNoAgent;
}

const std::vector<AgentIx>& RootedAsyncDispersion::availableProbersAt(
    NodeId w, AgentIx self) const {
  // A(w) \ {α(w)}: unsettled agents and guest helpers, idle (no pending
  // orders), ascending by ID so the leader (max ID) is drafted last.
  // The index bucket already holds exactly the followers and guests at w;
  // only the fast-changing order flags are filtered here (DESIGN.md §9).
  // Scratch reuse is safe: every caller consumes the list before its next
  // co_await (single-threaded engine), so no interleaved call clobbers it.
  std::vector<AgentIx>& avail = probersScratch_;
  avail.clear();
  for (const AgentIx a : proberIdx_.membersAt(w)) {
    const AgentState& s = st_[a];
    if (s.orderProbePort != kNoPort || s.needReport || s.needRegister) continue;
    if (s.orderGoHome || s.orderChaperone != kNoPort) continue;
    avail.push_back(a);
  }
  std::sort(avail.begin(), avail.end(),
            [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
#ifndef NDEBUG
  // Cross-check the index against the naive occupant scan it replaced.
  std::vector<AgentIx> naive;
  for (const AgentIx a : engine_.agentsAt(w)) {
    const AgentState& s = st_[a];
    const bool follower = !s.settled;
    const bool guest = s.settled && s.isGuest;
    if (!follower && !guest) continue;
    if (s.orderProbePort != kNoPort || s.needReport || s.needRegister) continue;
    if (s.orderGoHome || s.orderChaperone != kNoPort) continue;
    naive.push_back(a);
  }
  std::sort(naive.begin(), naive.end(),
            [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
  DISP_CHECK(avail == naive, "IdleProberIndex drifted from the world");
#endif
  (void)self;
  return avail;
}

// ----------------------------------------------------------- participant

Task RootedAsyncDispersion::participantFiber(AgentIx self) {
  for (;;) {
    co_await engine_.nextActivation(self);
    AgentState& me = st_[self];

    // --- prober errand (followers and guests) ---
    if (me.orderProbePort != kNoPort) {
      const Port p = me.orderProbePort;
      me.orderProbePort = kNoPort;
      engine_.move(self, p);  // arrive at the neighbor u_i
      co_await engine_.nextActivation(self);
      // Communicate at u_i: a settled (non-guest) occupant means "not fully
      // unsettled"; recruit it as a guest helper.
      const NodeId ui = engine_.positionOf(self);
      AgentIx settler = kNoAgent;
      for (const AgentIx b : engine_.agentsAt(ui)) {
        if (st_[b].settled && !st_[b].isGuest && st_[b].settledAt == ui) settler = b;
      }
      me.reportEmpty = (settler == kNoAgent);
      me.reportGuest = (settler != kNoAgent);
      me.reportPort = engine_.pinOf(self);  // not meaningful; port at u_i toward w
      if (settler != kNoAgent) {
        st_[settler].orderGuestGoTo = engine_.pinOf(self);  // route to w
        st_[settler].isGuest = true;
        proberIdx_.insert(settler, ui);  // guests are prober-eligible
      }
      engine_.move(self, engine_.pinOf(self));  // return to w
      me.needReport = true;
      continue;
    }

    // --- report probe results at w (next activation after returning) ---
    if (me.needReport) {
      me.needReport = false;
      const NodeId w = engine_.positionOf(self);
      const AgentIx aw = homeSettlerAt(w);
      DISP_CHECK(aw != kNoAgent, "probe report: no settler at w");
      AgentState& bb = st_[aw];
      ++bb.retCount;
      if (me.reportEmpty) {
        // The port of w this prober was assigned is recoverable from its
        // own pin: it returned through the same edge.
        const Port portOfW = engine_.pinOf(self);
        if (bb.nextFound == kNoPort || portOfW < bb.nextFound) bb.nextFound = portOfW;
      }
      if (me.reportGuest) ++bb.guestExpected;
      me.reportEmpty = me.reportGuest = false;
      continue;
    }

    // --- settled agent recruited as guest: travel to w ---
    if (me.orderGuestGoTo != kNoPort) {
      const Port p = me.orderGuestGoTo;
      me.orderGuestGoTo = kNoPort;
      me.needRegister = true;
      engine_.move(self, p);
      continue;
    }
    if (me.needRegister) {
      me.needRegister = false;
      me.guestEntryPort = engine_.pinOf(self);  // port of w back toward home
      const AgentIx aw = homeSettlerAt(engine_.positionOf(self));
      DISP_CHECK(aw != kNoAgent, "guest registration: no settler at w");
      ++st_[aw].guestArrived;
      continue;
    }

    // --- see-off: guest walking home ---
    if (me.orderGoHome) {
      me.orderGoHome = false;
      engine_.move(self, me.guestEntryPort);
      me.guestEntryPort = kNoPort;
      me.isGuest = false;  // home again (position == settledAt)
      proberIdx_.erase(self);
      continue;
    }

    // --- see-off: guest chaperoning a partner to the partner's home ---
    if (me.orderChaperone != kNoPort) {
      const Port p = me.orderChaperone;
      me.orderChaperone = kNoPort;
      engine_.move(self, p);
      // Wait at the partner's home until the partner (a settled non-guest
      // occupant) is present, then return to w and report.
      for (;;) {
        co_await engine_.nextActivation(self);
        const NodeId here = engine_.positionOf(self);
        if (homeSettlerAt(here) != kNoAgent) {
          engine_.move(self, engine_.pinOf(self));
          break;
        }
      }
      co_await engine_.nextActivation(self);
      const AgentIx aw = homeSettlerAt(engine_.positionOf(self));
      DISP_CHECK(aw != kNoAgent, "chaperone report: no settler at w");
      ++st_[aw].seeOffReturned;
      continue;
    }

    // --- settler α(w) escorting the final guest home ---
    if (me.orderEscort != kNoPort) {
      const Port p = me.orderEscort;
      me.orderEscort = kNoPort;
      engine_.move(self, p);
      for (;;) {
        co_await engine_.nextActivation(self);
        const NodeId here = engine_.positionOf(self);
        if (homeSettlerAt(here) != kNoAgent) {
          engine_.move(self, engine_.pinOf(self));
          break;
        }
      }
      continue;  // back at w; the leader detects the settler's presence
    }

    // --- plain group move order ---
    if (me.orderFollow != kNoPort) {
      const Port p = me.orderFollow;
      me.orderFollow = kNoPort;
      engine_.move(self, p);
      continue;
    }
  }
}

// ---------------------------------------------------------------- leader

Task RootedAsyncDispersion::leaderProbeTrip(AgentIx self, Port port) {
  engine_.move(self, port);
  co_await engine_.nextActivation(self);
  const NodeId ui = engine_.positionOf(self);
  AgentIx settler = kNoAgent;
  for (const AgentIx b : engine_.agentsAt(ui)) {
    if (st_[b].settled && !st_[b].isGuest && st_[b].settledAt == ui) settler = b;
  }
  const bool empty = (settler == kNoAgent);
  if (settler != kNoAgent) {
    st_[settler].orderGuestGoTo = engine_.pinOf(self);
    st_[settler].isGuest = true;
    proberIdx_.insert(settler, ui);  // guests are prober-eligible
  }
  engine_.move(self, engine_.pinOf(self));
  co_await engine_.nextActivation(self);
  // Report (the leader is back at w).
  const AgentIx aw = homeSettlerAt(engine_.positionOf(self));
  DISP_CHECK(aw != kNoAgent, "leader probe report: no settler at w");
  AgentState& bb = st_[aw];
  ++bb.retCount;
  if (empty) {
    const Port portOfW = engine_.pinOf(self);
    if (bb.nextFound == kNoPort || portOfW < bb.nextFound) bb.nextFound = portOfW;
  } else {
    ++bb.guestExpected;
  }
}

Task RootedAsyncDispersion::probePhase(AgentIx self) {
  ++stats_.probes;
  const Graph& g = engine_.graph();
  const NodeId w = engine_.positionOf(self);
  const AgentIx aw = homeSettlerAt(w);
  DISP_CHECK(aw != kNoAgent, "probe at a node without a settler");
  leaderNext_ = kNoPort;

  for (;;) {
    AgentState& bb = st_[aw];
    const Port degW = g.degree(w);
    if (bb.checked >= degW) break;  // exhausted: leaderNext_ stays ⊥

    const auto& avail = availableProbersAt(w, self);
    DISP_CHECK(!avail.empty(), "Async_Probe with no available agents");
    const Port delta = static_cast<Port>(std::min<std::uint32_t>(
        static_cast<std::uint32_t>(avail.size()), degW - bb.checked));
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
        selfProbes = true;  // leader has the max ID: only drafted last
        selfPort = port;
      } else {
        st_[avail[i]].orderProbePort = port;
      }
    }
    if (selfProbes) co_await leaderProbeTrip(self, selfPort);

    // Wait for every prober's report and every recruited guest's arrival.
    for (;;) {
      const AgentState& bbr = st_[aw];
      if (bbr.retCount == bbr.outCount && bbr.guestArrived == bbr.guestExpected) break;
      co_await engine_.nextActivation(self);
    }
    stats_.guestsRecruited += st_[aw].guestArrived;

    if (st_[aw].nextFound != kNoPort) {
      leaderNext_ = st_[aw].nextFound;
      break;  // checked intentionally not advanced (Algorithm 3 line 14–15)
    }
    st_[aw].checked = st_[aw].checked + delta;
  }
}

Task RootedAsyncDispersion::seeOffPhase(AgentIx self) {
  const NodeId w = engine_.positionOf(self);
  for (;;) {
    // Collect co-located guests, ascending by ID (Algorithm 4 line 6).
    std::vector<AgentIx> guests;
    for (const AgentIx a : engine_.agentsAt(w)) {
      if (st_[a].settled && st_[a].isGuest) guests.push_back(a);
    }
    if (guests.empty()) co_return;
    std::sort(guests.begin(), guests.end(),
              [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
    ++stats_.seeOffSweeps;

    if (guests.size() == 1) {
      // α(w) escorts the last guest home (Algorithm 4 lines 2–4).
      const AgentIx g = guests.front();
      const AgentIx aw = homeSettlerAt(w);
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
          guestGone &= !(st_[a].settled && st_[a].isGuest);
        }
        const AgentIx back = homeSettlerAt(w);
        if (guestGone && back != kNoAgent && st_[back].orderEscort == kNoPort) co_return;
      }
    }

    // Pair (g1,g2), (g3,g4), ...: the pair walks to the odd member's home;
    // the even member chaperones and returns.  A trailing unpaired guest
    // waits for the next sweep.
    const AgentIx aw = homeSettlerAt(w);
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

Task RootedAsyncDispersion::leaderFiber(AgentIx self) {
  co_await engine_.nextActivation(self);

  // Settle the smallest-ID co-located agent at the root (Algorithm 8 line 1).
  {
    const NodeId s = engine_.positionOf(self);
    const AgentIx amin =
        minIdAgentAt(engine_, s, [this](AgentIx a) { return !st_[a].settled; });
    DISP_CHECK(amin != kNoAgent, "no agent to settle at the root");
    st_[amin].settled = true;
    st_[amin].settledAt = s;
    st_[amin].parentPort = kNoPort;
    proberIdx_.erase(amin);  // settlers stop being prober-eligible
    --groupSize_;
    engine_.traceSettle(amin);
    recordMemory();
    if (groupSize_ == 0) {  // k == 1
      engine_.finish();
      co_return;
    }
  }

  for (;;) {
    const NodeId w = engine_.positionOf(self);

    co_await probePhase(self);
    const Port next = leaderNext_;
    co_await seeOffPhase(self);

    if (next != kNoPort) {
      // Forward move: the whole unsettled group crosses to u.
      for (const AgentIx a : engine_.agentsAt(w)) {
        if (!st_[a].settled && a != self) st_[a].orderFollow = next;
      }
      engine_.move(self, next);
      co_await engine_.nextActivation(self);
      // Reassemble.
      for (;;) {
        const NodeId u = engine_.positionOf(self);
        std::uint32_t present = 0;
        for (const AgentIx a : engine_.agentsAt(u)) present += !st_[a].settled;
        if (present >= groupSize_) break;
        co_await engine_.nextActivation(self);
      }
      ++stats_.forwardMoves;

      const NodeId u = engine_.positionOf(self);
      DISP_CHECK(homeSettlerAt(u) == kNoAgent, "forward move into an occupied node");
      const AgentIx amin =
          minIdAgentAt(engine_, u, [this](AgentIx a) { return !st_[a].settled; });
      st_[amin].settled = true;
      st_[amin].settledAt = u;
      st_[amin].parentPort = engine_.pinOf(amin);
      proberIdx_.erase(amin);  // settlers stop being prober-eligible
      --groupSize_;
      engine_.traceSettle(amin);
      recordMemory();
      if (amin == self || groupSize_ == 0) {
        DISP_CHECK(amin == self, "leader must settle last");
        engine_.finish();
        co_return;
      }
    } else {
      // Backtrack to the parent.
      const AgentIx aw = homeSettlerAt(w);
      DISP_CHECK(aw != kNoAgent, "backtrack from a node without a settler");
      const Port pp = st_[aw].parentPort;
      DISP_CHECK(pp != kNoPort, "DFS exhausted at the root before settling everyone");
      for (const AgentIx a : engine_.agentsAt(w)) {
        if (!st_[a].settled && a != self) st_[a].orderFollow = pp;
      }
      engine_.move(self, pp);
      co_await engine_.nextActivation(self);
      for (;;) {
        const NodeId p = engine_.positionOf(self);
        std::uint32_t present = 0;
        for (const AgentIx a : engine_.agentsAt(p)) present += !st_[a].settled;
        if (present >= groupSize_) break;
        co_await engine_.nextActivation(self);
      }
      ++stats_.backtracks;
    }
  }
}

}  // namespace disp
