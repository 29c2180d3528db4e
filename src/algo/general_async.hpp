#pragma once
// GeneralAsyncDisp — the paper's Theorem 8.2 algorithm: dispersion of k <= n
// agents from a *general* initial configuration (ℓ occupied nodes) in
// O(k log k) epochs with O(log(k+Δ)) bits per agent, in the ASYNC model,
// under any fair scheduler.
//
// Composition (paper §8.2): each of the ℓ groups runs the RootedAsyncDisp
// growing phase of algo/async_growth.hpp — Async_Probe helper doubling,
// Guest_See_Off, and the §4.3 in-transit-helper hazard handling, scoped to
// the group's label and probing ports 1..min(δ(w), k) — while meetings
// between groups are resolved by the KS subsumption of algo/ks_merge.hpp,
// shared with general_sync: sizes are compared, the loser freezes and is
// collapsed by an Euler walk over its DFS tree (or collapses itself and
// marches to the winner), and forward-move collisions on an empty node are
// resolved by the squatting rule (the larger tree squats, the smaller
// retreats).
//
// ASYNC-specific structure (one fiber per agent, as the engine requires):
//  * every agent runs agentFiber(); a group leader's fiber enters
//    leaderLoop() and falls back to plain order-following participant mode
//    when its group parks (frozen), dissolves, or fully disperses;
//  * a dispersed group's settled ex-leader stays its *anchor*: marching
//    loser groups navigate to it, and it absorbs them and hands leadership
//    to the largest-ID newcomer, which resumes the DFS from the anchor's
//    node (the SYNC version's leader re-election, split across fibers);
//  * all freeze decisions (check peer + set frozen) happen within a single
//    activation — no suspension point in between — so two groups can never
//    freeze each other concurrently (the SYNC version gets the same
//    atomicity from its round structure);
//  * group moves reassemble fully before any collision/retreat decision,
//    so no follower can be stranded mid-edge by a retreat order.

#include <cstdint>
#include <vector>

#include "algo/async_growth.hpp"
#include "algo/ks_merge.hpp"
#include "algo/probe_index.hpp"
#include "core/async_engine.hpp"

namespace disp {

struct GeneralAsyncStats : AsyncGrowthStats, KsMergeStats {
  std::uint64_t handoffs = 0;  // leadership re-elections after an absorb
};

class GeneralAsyncDispersion : private AsyncGrowth,
                               private KsMerge<GeneralAsyncDispersion, AsyncEngine> {
  using Merge = KsMerge<GeneralAsyncDispersion, AsyncEngine>;
  friend Merge;

 public:
  /// Groups are inferred from co-location in the engine's initial world:
  /// one group per occupied node (any ℓ in [1, k]).
  explicit GeneralAsyncDispersion(AsyncEngine& engine);

  /// Installs one fiber per agent; call engine.run() afterwards.
  void start();

  using AsyncGrowth::dispersed;
  [[nodiscard]] const GeneralAsyncStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t agentBits(AgentIx a) const;
  using Merge::groupCount;
  using Merge::GroupSnapshot;
  using Merge::groupSnapshot;

  /// Test/debug introspection of an agent's lifecycle state.
  struct AgentSnapshot {
    bool settled;
    bool isGuest;
    NodeId settledAt;
    std::uint32_t label;
  };
  [[nodiscard]] AgentSnapshot snapshot(AgentIx a) const {
    return {st_[a].settled, st_[a].isGuest, st_[a].settledAt, st_[a].label};
  }

 private:
  static constexpr std::uint32_t kNoGroup = static_cast<std::uint32_t>(-1);

  // --- fibers -----------------------------------------------------------
  Task agentFiber(AgentIx self);
  /// The whole DFS life of group `gi` while `self` leads it.  Returns when
  /// the group parks, dissolves, or disperses; the caller then continues in
  /// participant mode.
  Task leaderLoop(std::uint32_t gi, AgentIx self);
  /// Dormant-anchor duties (run inside participant mode): absorb arrived
  /// marchers, then hand leadership to the largest-ID newcomer.
  void dormantDuties(AgentIx self);
  /// Dispersed: `self` becomes gi's dormant anchor; the last one finishes.
  void goDormant(std::uint32_t gi, AgentIx self);

  // --- KsMerge hooks ---------------------------------------------------
  Task moveGroup(std::uint32_t gi, Port p);  // order, move, fully reassemble
  StepAwait waitStep(std::uint32_t gi) {
    return engine_.nextActivation(groups_[gi].leader);
  }
  /// Async_Probe then Guest_See_Off at the head (AsyncGrowth, own label).
  Task growAt(std::uint32_t gi);
  Task sideTripSetNextSibling(std::uint32_t gi, NodeId w, Port prevChildPort,
                              Port newChildPort);
  [[nodiscard]] bool marcherArrived(std::uint32_t gi, std::uint32_t mi) const {
    return groupConsolidatedAt(groups_[mi].label, engine_.positionOf(groups_[gi].leader));
  }
  void markSettled(AgentIx a, NodeId at, Port parentPort) {
    AsyncGrowth::markSettled(a, at, parentPort);
    posIdx_.remove(st_[a].label, at);
  }
  void onRelabel(AgentIx, Label from, Label to, NodeId v) {
    posIdx_.remove(from, v);
    posIdx_.add(to, v);
  }
  void onUnsettle(AgentIx a) {
    proberIdx_.insert(a, engine_.positionOf(a));
    posIdx_.add(st_[a].label, engine_.positionOf(a));
  }
  [[nodiscard]] bool groupConsolidatedAt(Label label, NodeId v) const;

  /// Per-label unsettled count + position fingerprint: groupConsolidatedAt
  /// drops from an O(k) all-agent scan (run on every reassembly-wait
  /// activation) to two O(1) lookups.  Labels never outlive the initial
  /// group array, so the index is sized once in the constructor.
  GroupPositionIndex posIdx_;
  GeneralAsyncStats stats_;

  // Per-agent: group this fiber must start (or resume) leading, if any.
  std::vector<std::uint32_t> leadQueued_;
  // Per-agent: group this settled ex-leader anchors, if any.
  std::vector<std::uint32_t> anchorOf_;
};

}  // namespace disp
