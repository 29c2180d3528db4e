#pragma once
// General-initial-configuration dispersion in SYNC (paper §8.1) and, run
// with ℓ = 1, the Sudo-style helper-doubling rooted baseline (Table 1 row
// [36], O(k log k)).
//
// Structure: ℓ groups (one per initially occupied node) each grow a DFS
// with treelabel = its group id.  The growing phase uses the *doubling
// probe*: available agents probe distinct ports in parallel; settled
// own-tree neighbors are recruited as helpers and, in SYNC, walk back with
// the prober in the same round and are all returned home in one round once
// the step resolves (the paper's §4.3 description of [36]).  Every tree
// node holds a settler (no oscillation — that is the Theorem 6.1 machinery,
// implemented in sync_rooted.*; see DESIGN.md §4 for exactly what this
// module does and does not reproduce of Theorem 8.1).
//
// Meetings between groups are resolved by KS subsumption (algo/ks_merge.*,
// shared with general_async): the loser freezes at a safe point and is
// collapsed by the winner's Euler walk, or collapses itself and marches to
// the winner.  This file supplies the SYNC steps: group moves, probe rounds,
// the sibling side trip, and the group fiber with leader re-election.

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/ks_merge.hpp"
#include "core/sync_engine.hpp"
#include "graph/graph.hpp"

namespace disp {

struct GeneralSyncStats : KsMergeStats {
  std::uint64_t probeIterations = 0;
};

class GeneralSyncDispersion : private KsMerge<GeneralSyncDispersion, SyncEngine> {
  using Merge = KsMerge<GeneralSyncDispersion, SyncEngine>;
  friend Merge;

 public:
  /// Groups are inferred from co-location in the engine's initial world:
  /// one group per occupied node (any ℓ in [1, k]).
  explicit GeneralSyncDispersion(SyncEngine& engine);

  void start();

  [[nodiscard]] bool dispersed() const;
  [[nodiscard]] const GeneralSyncStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t agentBits(AgentIx a) const;
  using Merge::groupCount;
  using Merge::GroupSnapshot;
  using Merge::groupSnapshot;

 private:
  using Label = std::uint32_t;
  static constexpr Label kNoLabel = static_cast<Label>(-1);

  struct AgentState {
    Label label = kNoLabel;
    bool settled = false;
    bool isGuest = false;           // recruited helper, temporarily at w
    NodeId settledAt = kInvalidNode;
    Port parentPort = kNoPort;
    Port checked = 0;
    Port guestEntryPort = kNoPort;  // port of w back toward home
  };

 public:
  /// Declared per-agent / per-group footprints, exported so the scale
  /// campaign's RSS lower bound (exp/benches_scale.cpp) tracks the real
  /// structs instead of hand-copied literals.  An agent's state is its
  /// AgentState plus its KsMerge child chain.
  static constexpr std::size_t kAgentStateBytes = sizeof(AgentState) + sizeof(ChildChain);
  static constexpr std::size_t kGroupCtxBytes = sizeof(GroupCtx);

 private:
  Task groupFiber(std::uint32_t gi);
  Task probeStep(std::uint32_t gi);   // result in probeNext_[gi] / probeMet_[gi]
  Task returnGuests(std::uint32_t gi);

  // --- KsMerge hooks ---------------------------------------------------
  Task moveGroup(std::uint32_t gi, Port p);
  StepAwait waitStep(std::uint32_t) { return engine_.nextRound(); }
  Task growAt(std::uint32_t gi);  // probeStep + returnGuests
  Task sideTripSetNextSibling(std::uint32_t gi, NodeId w, Port prevChildPort,
                              Port newChildPort);
  [[nodiscard]] bool marcherArrived(std::uint32_t gi, std::uint32_t mi) const {
    return engine_.positionOf(groups_[mi].leader) ==
           engine_.positionOf(groups_[gi].leader);
  }
  void markSettled(AgentIx a, NodeId at, Port parentPort);
  void onRelabel(AgentIx, Label, Label, NodeId) {}
  void onUnsettle(AgentIx) {}
  [[nodiscard]] AgentIx homeSettlerAt(NodeId v, Label label) const;

  [[nodiscard]] std::vector<AgentIx> groupAt(NodeId v, Label label) const;

  SyncEngine& engine_;
  std::vector<AgentState> st_;
  GeneralSyncStats stats_;

  // Per-group growing-phase results (protocol-local values surfaced for
  // the fiber and the rescan walk).
  std::vector<Port> probeNext_;
  std::vector<std::vector<std::pair<Label, Port>>> probeMet_;
};

}  // namespace disp
