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
// between groups are resolved by KS subsumption exactly as in the SYNC
// general algorithm (general_sync.*): sizes are compared, the loser freezes
// and is collapsed by an Euler walk over its DFS tree (or collapses itself
// and marches to the winner), and forward-move collisions on an empty node
// are resolved by the squatting rule (the larger tree squats, the smaller
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
//
// Documented simplifications carried over from general_sync.* (DESIGN.md):
// group contexts and size comparison stand in for KS junction-locking, and
// orphan marches route by engine-side BFS toward the winner's anchor with
// every hop charged as a real move.

#include <cstdint>
#include <vector>

#include "algo/async_growth.hpp"
#include "algo/probe_index.hpp"
#include "core/async_engine.hpp"
#include "core/memory.hpp"

namespace disp {

struct GeneralAsyncStats : AsyncGrowthStats {
  std::uint64_t forwardMoves = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t meetings = 0;
  std::uint64_t subsumptions = 0;
  std::uint64_t collapseHops = 0;
  std::uint64_t retreats = 0;  // forward-move collisions resolved by retreat
  std::uint64_t handoffs = 0;  // leadership re-elections after an absorb
};

class GeneralAsyncDispersion : private AsyncGrowth {
 public:
  /// Groups are inferred from co-location in the engine's initial world:
  /// one group per occupied node (any ℓ in [1, k]).
  explicit GeneralAsyncDispersion(AsyncEngine& engine);

  /// Installs one fiber per agent; call engine.run() afterwards.
  void start();

  using AsyncGrowth::dispersed;
  [[nodiscard]] const GeneralAsyncStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t agentBits(AgentIx a) const;
  [[nodiscard]] std::uint32_t groupCount() const {
    return static_cast<std::uint32_t>(groups_.size());
  }

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

  /// Test/debug introspection of a group's lifecycle state.
  struct GroupSnapshot {
    std::uint32_t total, unsettled, treeSize;
    bool frozen, parked, dissolved, marching;
    AgentIx leader;
    const char* phase;
  };
  [[nodiscard]] GroupSnapshot groupSnapshot(std::uint32_t gi) const {
    const auto& g = groups_[gi];
    return {g.total, g.unsettled, g.treeSize, g.frozen, g.parked, g.dissolved,
            g.marching, g.leader, g.phase};
  }

 private:
  static constexpr std::uint32_t kNoGroup = static_cast<std::uint32_t>(-1);

  /// A settler's child chain (general_sync's collapse-walk record).
  struct ChildChain {
    Port firstChildPort = kNoPort;
    Port latestChildPort = kNoPort;
    Port nextSiblingPort = kNoPort;
  };

  struct GroupCtx {
    Label label = 0;
    AgentIx leader = kNoAgent;  // active leader, or the dormant anchor
    std::uint32_t total = 0;    // agents currently belonging to the group
    std::uint32_t unsettled = 0;
    std::uint32_t treeSize = 0;
    bool frozen = false;     // a winner ordered this group to halt
    bool parked = false;     // leader fiber acknowledged the freeze
    bool dissolved = false;  // collapsed into another tree
    std::uint32_t absorbedBy = 0;   // valid once dissolved
    bool marching = false;          // self-collapsed, chasing the winner
    std::uint32_t marchTarget = 0;  // initial winner (chain-resolved live)
    std::vector<Label> pending;     // meetings skipped while the peer was busy
    const char* phase = "init";     // debug/test introspection only
  };

  // --- fibers -----------------------------------------------------------
  Task agentFiber(AgentIx self);
  /// The whole DFS life of group `gi` while `self` leads it.  Returns when
  /// the group parks, dissolves, or disperses; the caller then continues in
  /// participant mode.
  Task leaderLoop(std::uint32_t gi, AgentIx self);

  // --- leader sub-phases ------------------------------------------------
  /// Async_Probe then Guest_See_Off at the head (AsyncGrowth, own label).
  Task growAt(std::uint32_t gi, AgentIx self);
  Task moveGroup(std::uint32_t gi, Port p);  // order, move, fully reassemble
  Task sideTripSetNextSibling(std::uint32_t gi, AgentIx self, Port prevChildPort,
                              Port newChildPort);

  // --- subsumption (mirrors general_sync) -------------------------------
  Task handleMeeting(std::uint32_t gi, Label other, Port metPort);
  Task awaitParked(std::uint32_t gi, std::uint32_t loser);
  Task collapseForeign(std::uint32_t gi, std::uint32_t loser, Port metPort);
  Task collapseVisit(std::uint32_t gi, Label loserLabel, Port exclPort);
  Task selfCollapseAndMarch(std::uint32_t gi, std::uint32_t winner, Port metPort);
  Task absorbMarchers(std::uint32_t gi);
  Task marchToward(std::uint32_t gi, AgentIx anchor);
  Task retryPending(std::uint32_t gi);
  Task rescanVisit(std::uint32_t gi, AgentIx self);

  // --- dormant-anchor duties (runs inside participant mode) -------------
  void dormantDuties(AgentIx self);

  /// Relabel + dissolve a fully consolidated marcher group into gi.
  void absorbGroup(std::uint32_t gi, std::uint32_t mi);

  [[nodiscard]] std::uint32_t resolveGroup(std::uint32_t g) const;
  [[nodiscard]] AgentIx anySettlerAt(NodeId v) const;  // any label
  [[nodiscard]] bool groupConsolidatedAt(Label label, NodeId v) const;
  [[nodiscard]] std::uint32_t globalUnsettled() const;
  void settle(std::uint32_t gi, AgentIx a, NodeId at, Port parentPort);
  void adoptAt(std::uint32_t gi, Label fromLabel, NodeId v);  // relabel unsettled
  void recordMemory();

  std::vector<ChildChain> chain_;
  /// Per-label unsettled count + position fingerprint: groupConsolidatedAt
  /// drops from an O(k) all-agent scan (run on every reassembly-wait
  /// activation) to two O(1) lookups.  Labels never outlive the initial
  /// group array, so the index is sized once in the constructor.
  GroupPositionIndex posIdx_;
  std::vector<GroupCtx> groups_;  // index == the group's label
  GeneralAsyncStats stats_;
  BitWidths widths_;

  // Per-agent: group this fiber must start (or resume) leading, if any.
  std::vector<std::uint32_t> leadQueued_;
  // Per-agent: group this settled ex-leader anchors, if any.
  std::vector<std::uint32_t> anchorOf_;

  // Per group: a rescan stopped on a finding (two groups can rescan at once).
  std::vector<std::uint8_t> rescanFound_;
};

}  // namespace disp
