#pragma once
// RootedAsyncDisp — the paper's Theorem 7.1 algorithm: dispersion of k <= n
// agents from a rooted configuration in O(k log k) epochs with O(log(k+Δ))
// bits per agent, in the ASYNC model, under any fair scheduler.
//
// Structure (paper §5.5, §7): the largest-ID agent a_max leads a DFS; every
// forward move settles the smallest-ID agent, so every tree node holds a
// settler (no oscillation is needed in ASYNC — that is the SYNC-only
// trick).  At each head the leader runs the growing phase of
// algo/async_growth.hpp — Async_Probe (Algorithm 3) with helper doubling,
// then Guest_See_Off (Algorithm 4) — over the single label 0, probing
// every port of the head.
//
// Each agent runs one fiber; one CCM cycle per activation, at most one
// edge traversal per cycle.

#include <cstdint>

#include "algo/async_growth.hpp"
#include "core/async_engine.hpp"
#include "core/memory.hpp"

namespace disp {

struct AsyncDispStats : AsyncGrowthStats {
  std::uint64_t forwardMoves = 0;
  std::uint64_t backtracks = 0;
};

class RootedAsyncDispersion : private AsyncGrowth {
 public:
  explicit RootedAsyncDispersion(AsyncEngine& engine);

  /// Installs one fiber per agent; call engine.run() afterwards.
  void start();

  using AsyncGrowth::dispersed;
  [[nodiscard]] const AsyncDispStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t agentBits(AgentIx a) const;

 private:
  Task leaderFiber(AgentIx self);
  Task participantFiber(AgentIx self);
  /// Orders the unsettled followers through `p`, moves, and waits until
  /// the whole group stands at the far end.
  Task moveGroup(AgentIx self, Port p);
  /// Settles `a` at its current node under tree parent `parentPort`.
  void settle(AgentIx a, Port parentPort);
  void recordMemory();

  AsyncDispStats stats_;
  BitWidths widths_;
  AgentIx leader_ = kNoAgent;
  std::uint32_t groupSize_ = 0;  // leader's count of unsettled agents
};

}  // namespace disp
