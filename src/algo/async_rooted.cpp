#include "algo/async_rooted.hpp"

#include "algo/protocol_common.hpp"
#include "util/check.hpp"

namespace disp {

RootedAsyncDispersion::RootedAsyncDispersion(AsyncEngine& engine)
    : AsyncGrowth(engine, engine.graph().maxDegree(), stats_),  // probe every port
      widths_(BitWidths::forRun(4ULL * engine.agentCount(), engine.graph().maxDegree(),
                                engine.agentCount())) {
  DISP_REQUIRE(labelCount() == 1,
               "RootedAsyncDisp expects a rooted initial configuration");
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (leader_ == kNoAgent || engine_.idOf(a) > engine_.idOf(leader_)) leader_ = a;
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

void RootedAsyncDispersion::settle(AgentIx a, Port parentPort) {
  markSettled(a, engine_.positionOf(a), parentPort);
  --groupSize_;
  engine_.traceSettle(a);
  recordMemory();
}

Task RootedAsyncDispersion::participantFiber(AgentIx self) {
  for (;;) {
    // Idle: park until an order's signal (a pending report or registration
    // is an order of the agent's own, due next activation).
    if (hasOrder(self)) {
      co_await engine_.nextActivation(self);
    } else {
      co_await engine_.park(self);
    }
    if (hasOrder(self)) co_await participantStep(self);
  }
}

Task RootedAsyncDispersion::moveGroup(AgentIx self, Port p) {
  for (const AgentIx a : engine_.agentsAt(engine_.positionOf(self))) {
    if (!st_[a].settled && a != self) {
      st_[a].orderFollow = p;
      engine_.signal(a);
    }
  }
  engine_.move(self, p);
  co_await engine_.nextActivation(self);
  for (;;) {
    std::uint32_t present = 0;
    for (const AgentIx a : engine_.agentsAt(engine_.positionOf(self))) {
      present += !st_[a].settled;
    }
    if (present >= groupSize_) co_return;
    co_await engine_.nextActivation(self);
  }
}

Task RootedAsyncDispersion::leaderFiber(AgentIx self) {
  co_await engine_.nextActivation(self);

  // Settle the smallest-ID co-located agent at the root (Algorithm 8 line 1).
  const auto unsettled = [this](AgentIx a) { return !st_[a].settled; };
  const AgentIx first = minIdAgentAt(engine_, engine_.positionOf(self), unsettled);
  DISP_CHECK(first != kNoAgent, "no agent to settle at the root");
  settle(first, kNoPort);

  while (groupSize_ > 0) {
    const NodeId w = engine_.positionOf(self);
    co_await probePhase(0, self);
    const Port next = probeNext_[0];
    co_await seeOffPhase(0, self);

    if (next == kNoPort) {
      // Backtrack to the parent.
      const AgentIx aw = homeSettlerAt(w, 0);
      DISP_CHECK(aw != kNoAgent, "backtrack from a node without a settler");
      const Port pp = st_[aw].parentPort;
      DISP_CHECK(pp != kNoPort, "DFS exhausted at the root before settling everyone");
      co_await moveGroup(self, pp);
      ++stats_.backtracks;
      continue;
    }

    // Forward move: the whole unsettled group crosses to u, and its
    // smallest-ID member settles there.
    co_await moveGroup(self, next);
    ++stats_.forwardMoves;
    const NodeId u = engine_.positionOf(self);
    DISP_CHECK(homeSettlerAt(u, 0) == kNoAgent, "forward move into an occupied node");
    const AgentIx amin = minIdAgentAt(engine_, u, unsettled);
    settle(amin, engine_.pinOf(amin));
    DISP_CHECK(amin == self || groupSize_ > 0, "leader must settle last");
  }
  engine_.finish();
}

}  // namespace disp
