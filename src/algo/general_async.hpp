#pragma once
// GeneralAsyncDisp — the paper's Theorem 8.2 algorithm: dispersion of k <= n
// agents from a *general* initial configuration (ℓ occupied nodes) in
// O(k log k) epochs with O(log(k+Δ)) bits per agent, in the ASYNC model,
// under any fair scheduler.
//
// Composition (paper §8.2): each of the ℓ groups runs the RootedAsyncDisp
// growing phase — Async_Probe helper doubling, Guest_See_Off, and the §4.3
// in-transit-helper hazard handling, all label-scoped — while meetings
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

#include "algo/probe_index.hpp"
#include "core/async_engine.hpp"
#include "core/memory.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace disp {

struct GeneralAsyncStats {
  std::uint64_t forwardMoves = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t probes = 0;
  std::uint64_t probeIterations = 0;
  std::uint64_t guestsRecruited = 0;
  std::uint64_t seeOffSweeps = 0;
  std::uint64_t meetings = 0;
  std::uint64_t subsumptions = 0;
  std::uint64_t collapseHops = 0;
  std::uint64_t retreats = 0;  // forward-move collisions resolved by retreat
  std::uint64_t handoffs = 0;  // leadership re-elections after an absorb
};

class GeneralAsyncDispersion {
 public:
  /// Groups are inferred from co-location in the engine's initial world:
  /// one group per occupied node (any ℓ in [1, k]).
  explicit GeneralAsyncDispersion(AsyncEngine& engine);

  /// Installs one fiber per agent; call engine.run() afterwards.
  void start();

  [[nodiscard]] bool dispersed() const;
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
  using Label = std::uint32_t;
  static constexpr Label kNoLabel = static_cast<Label>(-1);
  static constexpr std::uint32_t kNoGroup = static_cast<std::uint32_t>(-1);

  struct AgentState {
    Label label = kNoLabel;
    bool settled = false;
    bool isGuest = false;
    NodeId settledAt = kInvalidNode;  // simulation-side assertion key
    Port parentPort = kNoPort;        // settler: DFS-tree parent

    // --- settler tree record (collapse-walk child chain, general_sync) ---
    Port firstChildPort = kNoPort;
    Port latestChildPort = kNoPort;
    Port nextSiblingPort = kNoPort;

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

    // --- guest / prober bookkeeping ---
    Port guestEntryPort = kNoPort;  // port of w through which it entered w
    bool needRegister = false;      // guest must report arrival at w
    bool needReport = false;        // prober must report results at w
    bool reportEmpty = false;
    bool reportGuest = false;
    Label reportMet = kNoLabel;     // smallest foreign label seen, if any
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
  /// Handles one pending participant order, if any (probe errand, guest
  /// trip, see-off, follow).  May span several activations internally;
  /// returns with the current activation still owned by the caller.
  Task participantStep(AgentIx self);

  // --- leader sub-phases ------------------------------------------------
  Task probePhase(std::uint32_t gi, AgentIx self);  // result in probeNext_ / probeMet_
  Task seeOffPhase(std::uint32_t gi, AgentIx self);
  Task leaderProbeTrip(std::uint32_t gi, AgentIx self, Port port);
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

  /// What a probe saw at the probed node, plus any recruitment performed.
  struct ProbeSight {
    AgentIx settler = kNoAgent;  // own-label home settler (now recruited)
    Label met = kNoLabel;        // smallest foreign label present, if any
    bool empty = false;          // prober stands there alone
  };
  /// Communicate step of a probe at the prober's current node: classify
  /// and recruit.  Shared by participant probers and leader trips.
  ProbeSight observeAndRecruit(AgentIx self, Label label);
  /// Relabel + dissolve a fully consolidated marcher group into gi.
  void absorbGroup(std::uint32_t gi, std::uint32_t mi);

  [[nodiscard]] std::uint32_t resolveGroup(std::uint32_t g) const;
  [[nodiscard]] AgentIx homeSettlerAt(NodeId v, Label label) const;
  [[nodiscard]] AgentIx anySettlerAt(NodeId v) const;  // any label
  [[nodiscard]] const std::vector<AgentIx>& availableProbersAt(NodeId w,
                                                               Label label) const;
  [[nodiscard]] bool groupConsolidatedAt(Label label, NodeId v) const;
  [[nodiscard]] std::uint32_t globalUnsettled() const;
  void settle(std::uint32_t gi, AgentIx a, NodeId at, Port parentPort);
  void adoptAt(std::uint32_t gi, Label fromLabel, NodeId v);  // relabel unsettled
  void recordMemory();

  AsyncEngine& engine_;
  std::vector<AgentState> st_;
  /// Scratch for availableProbersAt (consumed before any co_await).
  mutable std::vector<AgentIx> probersScratch_;
  /// Followers + guest helpers bucketed by node (label-agnostic; the query
  /// filters labels): availableProbersAt reads the w bucket instead of
  /// scanning every occupant of w (DESIGN.md §9).
  IdleProberIndex proberIdx_;
  /// Per-label unsettled count + position fingerprint: groupConsolidatedAt
  /// drops from an O(k) all-agent scan (run on every reassembly-wait
  /// activation) to two O(1) lookups.  Labels never outlive the initial
  /// group array, so the index is sized once in the constructor.
  GroupPositionIndex posIdx_;
  std::vector<GroupCtx> groups_;
  GeneralAsyncStats stats_;
  BitWidths widths_;

  // Per-agent: group this fiber must start (or resume) leading, if any.
  std::vector<std::uint32_t> leadQueued_;
  // Per-agent: group this settled ex-leader anchors, if any.
  std::vector<std::uint32_t> anchorOf_;

  // Per-group scratch (protocol-local values surfaced for the fibers).
  std::vector<Port> probeNext_;
  std::vector<std::vector<std::pair<Label, Port>>> probeMet_;
  std::vector<std::uint8_t> rescanFound_;  // per group: two can rescan at once
};

}  // namespace disp
