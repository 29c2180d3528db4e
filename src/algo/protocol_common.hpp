#pragma once
// Shared protocol vocabulary for the dispersion algorithms.
//
// Each algorithm owns vectors of per-agent state structs — the agents'
// persistent memory.  Protocol discipline, a convention only (no test or
// runtime check enforces it): state of agent b is only read/written by
// code acting for an agent co-located with b, which is exactly the paper's
// local communication model.  All state fields are catalogued for the
// memory ledger with explicit bit widths.

#include <cstdint>
#include <vector>

#include "core/memory.hpp"
#include "core/metrics.hpp"
#include "core/world.hpp"
#include "graph/graph.hpp"

namespace disp {

/// Sentinel treelabel for "no DFS" contexts (rooted runs use label 0).
inline constexpr std::uint32_t kNoTree = static_cast<std::uint32_t>(-1);

/// Finds the settled agent at node v, or kNoAgent.  `settledFlag` is the
/// algorithm's per-agent settled predicate.
template <typename Engine, typename Pred>
[[nodiscard]] AgentIx settlerAt(const Engine& engine, NodeId v, Pred&& isSettler) {
  for (const AgentIx a : engine.agentsAt(v)) {
    if (isSettler(a)) return a;
  }
  return kNoAgent;
}

/// Smallest-ID agent at node v satisfying a predicate, or kNoAgent.
template <typename Engine, typename Pred>
[[nodiscard]] AgentIx minIdAgentAt(const Engine& engine, NodeId v, Pred&& pred) {
  AgentIx best = kNoAgent;
  for (const AgentIx a : engine.agentsAt(v)) {
    if (!pred(a)) continue;
    if (best == kNoAgent || engine.idOf(a) < engine.idOf(best)) best = a;
  }
  return best;
}

/// Largest-ID agent at node v satisfying a predicate, or kNoAgent.
template <typename Engine, typename Pred>
[[nodiscard]] AgentIx maxIdAgentAt(const Engine& engine, NodeId v, Pred&& pred) {
  AgentIx best = kNoAgent;
  for (const AgentIx a : engine.agentsAt(v)) {
    if (!pred(a)) continue;
    if (best == kNoAgent || engine.idOf(a) > engine.idOf(best)) best = a;
  }
  return best;
}

/// The dispersed() verdict of every protocol: each agent passes
/// `isSettledHome` (settled, plus whatever the protocol asks of a final
/// settler) and no two agents share a node.
template <typename Engine, typename Pred>
[[nodiscard]] bool allSettledApart(const Engine& engine, Pred&& isSettledHome) {
  std::vector<NodeId> where;
  where.reserve(engine.agentCount());
  for (AgentIx a = 0; a < engine.agentCount(); ++a) {
    if (!isSettledHome(a)) return false;
    where.push_back(engine.positionOf(a));
  }
  return isDispersed(where);
}

}  // namespace disp
