#pragma once
// RootedAsyncDisp — the paper's Theorem 7.1 algorithm: dispersion of k <= n
// agents from a rooted configuration in O(k log k) epochs with O(log(k+Δ))
// bits per agent, in the ASYNC model, under any fair scheduler.
//
// Structure (paper §5.5, §7):
//  * the largest-ID agent a_max leads a DFS; every forward move settles the
//    smallest-ID agent, so every tree node holds a settler (no oscillation
//    is needed in ASYNC — that is the SYNC-only trick);
//  * Async_Probe (Algorithm 3): available agents probe distinct ports in
//    parallel; each prober that finds a settled neighbor recruits that
//    settler back to w as a *guest helper*, doubling the probing force —
//    O(log k) iterations to find a fully unsettled neighbor;
//  * Guest_See_Off (Algorithm 4): before the group leaves w, guests are
//    escorted home in pairs (one settles, one returns), halving the guest
//    set per sweep — O(log k) epochs; this is what makes "neighbor looks
//    empty" mean "fully unsettled" despite asynchrony (§4.3);
//  * coordination is strictly local: the leader writes orders into
//    co-located agents' memory; transient probe counters live on the
//    settler of the current node (always present), so probers can report
//    even while the leader is itself out probing.
//
// Each agent runs one fiber; one CCM cycle per activation, at most one
// edge traversal per cycle.

#include <cstdint>
#include <vector>

#include "algo/probe_index.hpp"
#include "core/async_engine.hpp"
#include "core/memory.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace disp {

struct AsyncDispStats {
  std::uint64_t forwardMoves = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t probes = 0;
  std::uint64_t probeIterations = 0;
  std::uint64_t guestsRecruited = 0;
  std::uint64_t seeOffSweeps = 0;
};

class RootedAsyncDispersion {
 public:
  explicit RootedAsyncDispersion(AsyncEngine& engine);

  /// Installs one fiber per agent; call engine.run() afterwards.
  void start();

  [[nodiscard]] bool dispersed() const;
  [[nodiscard]] const AsyncDispStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t agentBits(AgentIx a) const;

  /// Test/debug introspection: (settled, isGuest, settledAt).
  struct AgentSnapshot {
    bool settled;
    bool isGuest;
    NodeId settledAt;
  };
  [[nodiscard]] AgentSnapshot snapshot(AgentIx a) const {
    return {st_[a].settled, st_[a].isGuest, st_[a].settledAt};
  }

 private:
  struct AgentState {
    bool settled = false;
    NodeId settledAt = kInvalidNode;  // simulation-side assertion key
    Port parentPort = kNoPort;        // settler: DFS-tree parent

    // --- settler blackboard (the α(w).* variables + probe counters) ---
    Port checked = 0;          // Async_Probe progress at this node
    Port nextFound = kNoPort;  // smallest empty port reported this iteration
    std::uint32_t outCount = 0;
    std::uint32_t retCount = 0;
    std::uint32_t guestExpected = 0;
    std::uint32_t guestArrived = 0;
    std::uint32_t seeOffExpected = 0;
    std::uint32_t seeOffReturned = 0;

    // --- orders written by the leader / probers (communicate phase) ---
    Port orderProbePort = kNoPort;   // follower/guest: probe this port of w
    Port orderGuestGoTo = kNoPort;   // settler at a probed neighbor: go to w
    bool orderGoHome = false;        // guest: exit w via its own entry port
    Port orderChaperone = kNoPort;   // guest: escort partner via this port
    Port orderEscort = kNoPort;      // settler α(w): escort the last guest
    Port orderFollow = kNoPort;      // follower: group move via this port

    // --- guest bookkeeping ---
    bool isGuest = false;
    Port guestEntryPort = kNoPort;  // port of w through which it entered w
    bool needRegister = false;      // guest must report arrival at w
    bool needReport = false;        // prober must report results at w
    bool reportEmpty = false;
    bool reportGuest = false;
    Port reportPort = kNoPort;
  };

  Task leaderFiber(AgentIx self);
  Task participantFiber(AgentIx self);

  // Leader sub-phases (all run inside leaderFiber).
  Task probePhase(AgentIx self);    // result in leaderNext_
  Task seeOffPhase(AgentIx self);
  Task leaderProbeTrip(AgentIx self, Port port);  // leader probes a port itself

  [[nodiscard]] AgentIx homeSettlerAt(NodeId v) const;  // settled, not guest
  [[nodiscard]] const std::vector<AgentIx>& availableProbersAt(NodeId w,
                                                               AgentIx self) const;
  void recordMemory();

  AsyncEngine& engine_;
  std::vector<AgentState> st_;
  /// Scratch for availableProbersAt (consumed before any co_await).
  mutable std::vector<AgentIx> probersScratch_;
  /// Followers + guest helpers bucketed by node: availableProbersAt reads
  /// the w bucket instead of scanning every occupant of w (DESIGN.md §9).
  /// Maintained at settle/recruit/see-off; positions ride the move hook.
  IdleProberIndex proberIdx_;
  AsyncDispStats stats_;
  BitWidths widths_;
  AgentIx leader_ = kNoAgent;
  std::uint32_t groupSize_ = 0;  // leader's count of unsettled agents
  Port leaderNext_ = kNoPort;    // probe outcome cached by the leader
};

}  // namespace disp
