#include "algo/async_growth.hpp"

#include <algorithm>
#include <utility>

#include "algo/protocol_common.hpp"
#include "util/check.hpp"

namespace disp {

AsyncGrowth::AsyncGrowth(AsyncEngine& engine, std::uint32_t probeCap,
                         AsyncGrowthStats& stats)
    : engine_(engine),
      st_(engine.agentCount()),
      proberIdx_(engine.agentCount(), engine.graph().nodeCount()),
      growthStats_(stats),
      probeCap_(probeCap) {
  // One label per initially occupied node, in node order; everyone starts
  // unsettled, hence prober-eligible.
  std::vector<NodeId> starts;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    starts.push_back(engine_.positionOf(a));
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    const NodeId s = engine_.positionOf(a);
    st_[a].label = static_cast<Label>(std::lower_bound(starts.begin(), starts.end(), s) -
                                      starts.begin());
    proberIdx_.insert(a, s);
  }
  probeNext_.assign(starts.size(), kNoPort);
  probeMet_.assign(starts.size(), {});
}

bool AsyncGrowth::dispersed() const {
  return allSettledApart(engine_, [this](AgentIx a) {
    return st_[a].settled && !st_[a].isGuest &&
           engine_.positionOf(a) == st_[a].settledAt;
  });
}

AgentIx AsyncGrowth::homeSettlerAt(NodeId v, Label label) const {
  for (const AgentIx a : engine_.agentsAt(v)) {
    if (st_[a].settled && !st_[a].isGuest && st_[a].settledAt == v &&
        st_[a].label == label) {
      return a;
    }
  }
  return kNoAgent;
}

void AsyncGrowth::markSettled(AgentIx a, NodeId at, Port parentPort) {
  AgentState& s = st_[a];
  DISP_CHECK(!s.settled, "double settle");
  s.settled = true;
  s.settledAt = at;
  s.parentPort = parentPort;
  s.checked = 0;
  proberIdx_.erase(a);  // settlers stop being prober-eligible
}

const std::vector<AgentIx>& AsyncGrowth::availableProbersAt(NodeId w, Label label,
                                                           Port want) const {
  // A(w) \ {α(w)}: own-label unsettled agents and guest helpers, idle (no
  // pending orders).  Only the first min(|A|, want) are drafted, so only
  // they are ordered, ascending by ID so the leader is drafted as late as
  // its ID allows; IDs are unique, so the draft equals that of a full sort.
  // The index bucket already holds exactly the followers and guests at w;
  // the label and the fast-changing order flags are filtered here (DESIGN.md
  // §9).  Scratch reuse is safe: every caller consumes the list before its
  // next co_await (single-threaded engine), so no interleaved call clobbers
  // it.
  const auto idle = [&](AgentIx a) { return st_[a].label == label && !hasOrder(a); };
  const auto byId = [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); };
  std::vector<AgentIx>& avail = probersScratch_;
  avail.clear();
  for (const AgentIx a : proberIdx_.membersAt(w)) {
    if (idle(a)) avail.push_back(a);
  }
  const auto drafted = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(avail.size(), want));
  std::partial_sort(avail.begin(), avail.begin() + drafted, avail.end(), byId);
#ifndef NDEBUG
  // Cross-check the index against the naive occupant scan it replaced: the
  // same members, and the drafted prefix is the naive list's sorted prefix.
  std::vector<AgentIx> naive;
  for (const AgentIx a : engine_.agentsAt(w)) {
    const AgentState& s = st_[a];
    if ((!s.settled || s.isGuest) && idle(a)) naive.push_back(a);
  }
  std::sort(naive.begin(), naive.end(), byId);
  std::vector<AgentIx> all = avail;
  std::sort(all.begin(), all.end(), byId);
  DISP_CHECK(all == naive, "IdleProberIndex drifted from the world");
  DISP_CHECK(std::equal(avail.begin(), avail.begin() + drafted, naive.begin()),
             "probe draft is not the lowest IDs in order");
#endif
  return avail;
}

// ---------------------------------------------------------- participant

bool AsyncGrowth::hasOrder(AgentIx a) const {
  const AgentState& s = st_[a];
  return s.orderProbePort != kNoPort || s.needReport || s.orderGuestGoTo != kNoPort ||
         s.needRegister || s.orderGoHome || s.orderChaperone != kNoPort ||
         s.orderEscort != kNoPort || s.orderFollow != kNoPort;
}

void AsyncGrowth::observeAndRecruit(AgentIx self) {
  AgentState& me = st_[self];
  const NodeId ui = engine_.positionOf(self);
  const AgentIx settler = homeSettlerAt(ui, me.label);
  me.reportEmpty = (engine_.countAt(ui) == 1);  // the prober stands alone
  me.reportGuest = (settler != kNoAgent);
  me.reportMet = kNoLabel;
  for (const AgentIx b : engine_.agentsAt(ui)) {
    if (b != self && st_[b].label != me.label) {
      if (me.reportMet == kNoLabel || st_[b].label < me.reportMet) {
        me.reportMet = st_[b].label;
      }
    }
  }
  if (settler != kNoAgent) {
    st_[settler].orderGuestGoTo = engine_.pinOf(self);  // route to w
    engine_.signal(settler);
    st_[settler].isGuest = true;
    proberIdx_.insert(settler, ui);  // guests are prober-eligible
  }
}

void AsyncGrowth::deliverReport(AgentIx self) {
  AgentState& me = st_[self];
  const AgentIx aw = homeSettlerAt(engine_.positionOf(self), me.label);
  DISP_CHECK(aw != kNoAgent, "probe report: no settler at w");
  AgentState& bb = st_[aw];
  ++bb.retCount;
  // The port of w the prober was assigned is recoverable from its own pin:
  // it returned through the same edge.
  const Port portOfW = engine_.pinOf(self);
  if (me.reportEmpty && (bb.nextFound == kNoPort || portOfW < bb.nextFound)) {
    bb.nextFound = portOfW;
  }
  if (me.reportGuest) ++bb.guestExpected;
  if (me.reportMet != kNoLabel) probeMet_[me.label].emplace_back(me.reportMet, portOfW);
  me.reportEmpty = me.reportGuest = false;
  me.reportMet = kNoLabel;
}

Task AsyncGrowth::participantStep(AgentIx self) {
  AgentState& me = st_[self];

  // --- prober errand (followers and guests) ---
  if (me.orderProbePort != kNoPort) {
    engine_.move(self, std::exchange(me.orderProbePort, kNoPort));  // arrive at u_i
    co_await engine_.nextActivation(self);
    observeAndRecruit(self);
    engine_.move(self, engine_.pinOf(self));  // return to w
    me.needReport = true;
    co_return;
  }

  // --- report probe results at w (next activation after returning) ---
  if (me.needReport) {
    me.needReport = false;
    deliverReport(self);
    co_return;
  }

  // --- settled agent recruited as guest: travel to w ---
  if (me.orderGuestGoTo != kNoPort) {
    me.needRegister = true;
    engine_.move(self, std::exchange(me.orderGuestGoTo, kNoPort));
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

  // --- see-off: a guest chaperoning its partner home, or α(w) escorting
  // the last guest: walk along, wait at the partner's home until the
  // partner (a settled own-label occupant) is present, then return to w ---
  const bool chaperone = me.orderChaperone != kNoPort;
  if (chaperone || me.orderEscort != kNoPort) {
    Port& order = chaperone ? me.orderChaperone : me.orderEscort;
    engine_.move(self, std::exchange(order, kNoPort));
    for (;;) {
      co_await engine_.nextActivation(self);
      if (homeSettlerAt(engine_.positionOf(self), me.label) != kNoAgent) {
        engine_.move(self, engine_.pinOf(self));
        break;
      }
    }
    if (!chaperone) co_return;  // back at w; the leader sees the settler
    co_await engine_.nextActivation(self);
    const AgentIx aw = homeSettlerAt(engine_.positionOf(self), me.label);
    DISP_CHECK(aw != kNoAgent, "chaperone report: no settler at w");
    ++st_[aw].seeOffReturned;
    co_return;
  }

  // --- plain group move order ---
  if (me.orderFollow != kNoPort) {
    engine_.move(self, std::exchange(me.orderFollow, kNoPort));
  }
}

// ---------------------------------------------------------------- leader

Task AsyncGrowth::leaderProbeTrip(AgentIx self, Port port) {
  engine_.move(self, port);
  co_await engine_.nextActivation(self);
  observeAndRecruit(self);
  engine_.move(self, engine_.pinOf(self));
  co_await engine_.nextActivation(self);
  deliverReport(self);  // the leader is back at w
}

Task AsyncGrowth::probePhase(Label label, AgentIx self) {
  ++growthStats_.probes;
  const NodeId w = engine_.positionOf(self);
  const AgentIx aw = homeSettlerAt(w, label);
  DISP_CHECK(aw != kNoAgent, "probe at a node without an own settler");
  const Port limit =
      static_cast<Port>(std::min<std::uint32_t>(engine_.graph().degree(w), probeCap_));

  probeNext_[label] = kNoPort;
  probeMet_[label].clear();

  for (;;) {
    AgentState& bb = st_[aw];
    if (bb.checked >= limit) break;  // exhausted: probeNext_ stays ⊥

    const auto& avail = availableProbersAt(w, label, limit - bb.checked);
    DISP_CHECK(!avail.empty(), "Async_Probe with no available agents");
    const Port delta = static_cast<Port>(std::min<std::uint32_t>(
        static_cast<std::uint32_t>(avail.size()), limit - bb.checked));
    ++growthStats_.probeIterations;

    bb.outCount = delta;
    bb.retCount = 0;
    bb.guestExpected = 0;
    bb.guestArrived = 0;
    bb.nextFound = kNoPort;

    Port selfPort = kNoPort;
    for (Port i = 0; i < delta; ++i) {
      const Port port = bb.checked + 1 + i;
      if (avail[i] == self) {
        selfPort = port;  // drafted last among equals: it has the max ID
      } else {
        st_[avail[i]].orderProbePort = port;
        engine_.signal(avail[i]);
      }
    }
    if (selfPort != kNoPort) co_await leaderProbeTrip(self, selfPort);

    // Wait for every prober's report and every recruited guest's arrival.
    for (;;) {
      const AgentState& bbr = st_[aw];
      if (bbr.retCount == bbr.outCount && bbr.guestArrived == bbr.guestExpected) break;
      co_await engine_.nextActivation(self);
    }
    growthStats_.guestsRecruited += st_[aw].guestArrived;

    if (st_[aw].nextFound != kNoPort) {
      probeNext_[label] = st_[aw].nextFound;
      break;  // checked intentionally not advanced (Algorithm 3 line 14–15)
    }
    st_[aw].checked = st_[aw].checked + delta;
  }
}

Task AsyncGrowth::seeOffPhase(Label label, AgentIx self) {
  const NodeId w = engine_.positionOf(self);
  const auto isGuestHere = [&](AgentIx a) {
    return st_[a].label == label && st_[a].settled && st_[a].isGuest;
  };
  for (;;) {
    // Collect co-located own-label guests, ascending by ID (Algorithm 4
    // line 6).
    std::vector<AgentIx> guests;
    for (const AgentIx a : engine_.agentsAt(w)) {
      if (isGuestHere(a)) guests.push_back(a);
    }
    if (guests.empty()) co_return;
    std::sort(guests.begin(), guests.end(),
              [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
    ++growthStats_.seeOffSweeps;
    const AgentIx aw = homeSettlerAt(w, label);
    DISP_CHECK(aw != kNoAgent, "see-off without a settler at w");

    if (guests.size() == 1) {
      // α(w) escorts the last guest home (Algorithm 4 lines 2–4).
      const AgentIx g = guests.front();
      st_[aw].orderEscort = st_[g].guestEntryPort;
      st_[g].orderGoHome = true;
      engine_.signal(aw);
      engine_.signal(g);
      // Wait until the guest is gone and the settler is back *with its
      // escort order consumed*.  Without the order check the guest can walk
      // home on its own before the settler ever leaves, the leader would
      // move on, and the stale escort order would later pull the settler
      // away from w mid-protocol — exactly the §4.3 in-transit hazard.
      for (;;) {
        co_await engine_.nextActivation(self);
        const auto& here = engine_.agentsAt(w);
        const bool guestGone = std::none_of(here.begin(), here.end(), isGuestHere);
        const AgentIx back = homeSettlerAt(w, label);
        if (guestGone && back != kNoAgent && st_[back].orderEscort == kNoPort) co_return;
      }
    }

    // Pair (g1,g2), (g3,g4), ...: the pair walks to the odd member's home;
    // the even member chaperones and returns.  A trailing unpaired guest
    // waits for the next sweep.
    const auto pairs = static_cast<std::uint32_t>(guests.size() / 2);
    st_[aw].seeOffExpected = pairs;
    st_[aw].seeOffReturned = 0;
    for (std::uint32_t i = 0; i < pairs; ++i) {
      const AgentIx gHome = guests[2 * i];
      const AgentIx gBack = guests[2 * i + 1];
      st_[gBack].orderChaperone = st_[gHome].guestEntryPort;
      st_[gHome].orderGoHome = true;
      engine_.signal(gBack);
      engine_.signal(gHome);
    }
    while (st_[aw].seeOffReturned != st_[aw].seeOffExpected) {
      co_await engine_.nextActivation(self);
    }
  }
}

}  // namespace disp
