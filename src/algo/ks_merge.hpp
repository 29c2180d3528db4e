#pragma once
// KsMerge — Kshemkalyani–Sharma subsumption, the half of both general-
// configuration protocols that is not the growing phase (paper §8.1 SYNC,
// Theorem 8.2 ASYNC: "a growing phase plus KS subsumption").  Defined once
// here for GeneralSyncDispersion and GeneralAsyncDispersion, a CRTP base
// with one explicit instantiation per protocol (ks_merge.cpp):
//
//  * groups: one GroupCtx per initially occupied node (index == label),
//    dissolution chains (resolveGroup) and the settlers' child chains that
//    collapse walks follow (ChildChain);
//  * the forward move (forwardStep): sibling-chain link, the squatting
//    rule on a collision, retreat and unlink;
//  * meetings (handleMeeting): sizes are compared (|D2| < |D1| means D1
//    subsumes D2; ties favour the *met* tree); the loser freezes at a safe
//    point and the winner's group Euler-walks the loser tree (collapseVisit),
//    unsettling and relabelling every loser agent — or, when the loser
//    detected the meeting, it collapses itself and marches to the winner,
//    which absorbs it (selfCollapseAndMarch / absorbMarchers);
//  * busy peers are pended and retried (retryPending); a DFS whose root is
//    exhausted re-probes its whole tree (rescanVisit), because a collapse
//    can free nodes behind ports it already advanced past;
//  * exact O(1) caches of sums the protocol would otherwise rescan: the
//    memory ledger's leader counts, the global unsettled count and the
//    number of marching groups (DESIGN.md §10.3).
//
// Documented simplifications (DESIGN.md §4.7): group contexts and the size
// comparison stand in for KS's junction-locking, and orphan marches route by
// BFS toward the winner's leader, standing in for KS's head-pointer
// maintenance, with every hop charged as a real move.
//
// Each protocol supplies the engine-dependent steps as hooks (Proto is the
// derived class; Engine its SyncEngine or AsyncEngine):
//   Task moveGroup(gi, p)           the whole group crosses port p
//   StepAwait waitStep(gi)          let one time step pass for gi's leader
//   Task growAt(gi)                 growing phase at the head: results in
//                                   probeNext_[gi] / probeMet_[gi]
//   Task sideTripSetNextSibling(gi, w, prevChildPort, newChildPort)
//                                   link w's previous child to its next
//   bool marcherArrived(gi, mi)     marcher group mi is ready to absorb
//   void markSettled(a, at, parentPort)
//   void onRelabel(a, from, to, v)  index upkeep: unsettled a changed label
//   void onUnsettle(a)              index upkeep: collected settler a
//   AgentIx homeSettlerAt(v, label), std::uint64_t agentBits(a)
// plus the members engine_, st_ (label, settled, isGuest, settledAt,
// parentPort, checked per agent), stats_ (a KsMergeStats) and
// probeNext_/probeMet_.  The outer loops — leader election, the order of
// the steps above, the dormant states — stay in each protocol.

#include <cstdint>
#include <vector>

#include "core/fiber.hpp"
#include "core/memory.hpp"
#include "core/world.hpp"
#include "graph/graph.hpp"

namespace disp {

/// Counters the subsumption machinery keeps; each protocol's stats extend
/// them.
struct KsMergeStats {
  std::uint64_t forwardMoves = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t meetings = 0;
  std::uint64_t subsumptions = 0;
  std::uint64_t collapseHops = 0;
  std::uint64_t retreats = 0;  // forward-move collisions resolved by retreat
};

template <class Proto, class Engine>
class KsMerge {
 public:
  [[nodiscard]] std::uint32_t groupCount() const {
    return static_cast<std::uint32_t>(groups_.size());
  }

  /// Test/debug introspection of a group's lifecycle state.
  struct GroupSnapshot {
    std::uint32_t total, unsettled, treeSize;
    bool frozen, parked, dissolved, marching;
    AgentIx leader;
    const char* phase;
  };
  [[nodiscard]] GroupSnapshot groupSnapshot(std::uint32_t gi) const {
    const GroupCtx& g = groups_[gi];
    return {g.total, g.unsettled, g.treeSize, g.frozen, g.parked, g.dissolved,
            g.marching, g.leader, g.phase};
  }

 protected:
  /// A settler's child chain, the record collapse and rescan walks follow.
  struct ChildChain {
    Port firstChildPort = kNoPort;
    Port latestChildPort = kNoPort;
    Port nextSiblingPort = kNoPort;
  };

  struct GroupCtx {
    std::uint32_t label = 0;
    AgentIx leader = kNoAgent;  // active leader (ASYNC: or the dormant anchor)
    std::uint32_t total = 0;    // agents currently belonging to the group
    std::uint32_t unsettled = 0;
    std::uint32_t treeSize = 0;
    bool frozen = false;     // a winner ordered this group to halt
    bool parked = false;     // the leader acknowledged the freeze
    bool dissolved = false;  // collapsed into another tree
    std::uint32_t absorbedBy = 0;   // valid once dissolved
    bool marching = false;          // self-collapsed, chasing the winner
    std::uint32_t marchTarget = 0;  // initial winner (chain-resolved live)
    std::vector<std::uint32_t> pending;  // meetings skipped while the peer was busy
    const char* phase = "init";          // debug/test introspection only
  };

  /// Guard bound for "eventually" loops; generous, so only true deadlocks
  /// (protocol bugs) trip it before the engine's own cap does.
  static constexpr std::uint64_t kWaitGuard = 1ULL << 26;

  KsMerge(std::uint32_t agentCount, std::uint32_t maxDegree);

  /// One group per label in st_ (labels 0..labelCount-1, assigned by the
  /// protocol), led by its largest-ID member.  Call once st_ is labelled.
  void initGroups(std::uint32_t labelCount);

  [[nodiscard]] std::uint32_t resolveGroup(std::uint32_t g) const;
  [[nodiscard]] AgentIx anySettlerAt(NodeId v) const;  // any label

  /// Settles `a` at `at` for group gi (tree parent via `parentPort`).
  void settle(std::uint32_t gi, AgentIx a, NodeId at, Port parentPort);
  /// Makes `a` gi's leader (re-election / handoff), keeping the ledger.
  void setLeader(std::uint32_t gi, AgentIx a);
  /// Bits of the constant-size leadership record for every group whose
  /// leader field is `a` (two size counters + head port each).
  [[nodiscard]] std::uint64_t leaderRecordBits(AgentIx a) const {
    return ledGroups_[a] * (2ULL * widths_.count + widths_.port);
  }
  void recordMemory();
  /// Relabels a fully consolidated marcher group mi into gi and dissolves it.
  void absorbGroup(std::uint32_t gi, std::uint32_t mi);

  /// One DFS forward move from the head w (whose settler is aw) through
  /// `next`: links the sibling chain, moves, and settles nothing.  Returns
  /// (through `entered`) false when the group had to retreat — into an
  /// occupied node, or off an empty node a larger tree squats — after
  /// unlinking the chain and handling a meeting with the settler found.
  Task forwardStep(std::uint32_t gi, NodeId w, AgentIx aw, Port next, bool& entered);
  Task handleMeeting(std::uint32_t gi, std::uint32_t other, Port metPort);
  Task absorbMarchers(std::uint32_t gi);
  Task retryPending(std::uint32_t gi);
  /// Root exhausted while agents remain: rescan the own tree when no
  /// meeting is pending, else (or when the rescan finds nothing) idle
  /// `pauseSteps` steps.  rescanFound_[gi] reports a rescan that stopped
  /// on a finding; the head is then the node where it stopped.
  Task rescanOrPause(std::uint32_t gi, std::uint32_t pauseSteps);

  std::vector<GroupCtx> groups_;  // index == the group's label
  std::vector<ChildChain> chain_;
  BitWidths widths_;
  std::uint32_t unsettledTotal_ = 0;       // Σ_g groups_[g].unsettled
  std::uint32_t marchingCount_ = 0;        // #groups with marching == true
  std::vector<std::uint8_t> rescanFound_;  // per group: see rescanOrPause

 private:
  Task awaitParked(std::uint32_t gi, std::uint32_t loser);
  Task collapseForeign(std::uint32_t gi, std::uint32_t loser, Port metPort);
  Task collapseVisit(std::uint32_t gi, std::uint32_t loserLabel, Port exclPort);
  Task marchToward(std::uint32_t gi, AgentIx anchor);  // BFS walk, real moves
  Task selfCollapseAndMarch(std::uint32_t gi, std::uint32_t winner, Port metPort);
  /// Blocked-DFS recovery: Euler-walk the own tree, resetting probe
  /// progress and re-probing at every node (checked is monotone, and a
  /// collapse can free nodes behind ports already advanced past).  Stops
  /// at the first node with a finding (rescanFound_).
  Task rescanVisit(std::uint32_t gi);
  /// The first port of `here` that shortens the BFS distance to `there`.
  [[nodiscard]] Port stepToward(NodeId here, NodeId there) const;
  /// Relabels the unsettled `fromLabel` agents at v into group gi.
  void adoptAt(std::uint32_t gi, std::uint32_t fromLabel, NodeId v);

  Proto& d() { return static_cast<Proto&>(*this); }
  const Proto& d() const { return static_cast<const Proto&>(*this); }
  Engine& eng() { return d().engine_; }
  const Engine& eng() const { return d().engine_; }

  // The memory ledger's cache (DESIGN.md §10.3): like unsettledTotal_ and
  // marchingCount_, maintained at the few mutation sites of the field it
  // sums and equal to the scan it replaces.
  std::vector<std::uint32_t> ledGroups_;  // #groups whose leader field == a
  std::vector<AgentIx> memoryDirty_;      // agents whose bits rose since flush
  bool memoryPrimed_ = false;             // first recordMemory() ran (all k)
};

}  // namespace disp
