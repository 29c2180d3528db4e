#pragma once
// AsyncGrowth — the ASYNC growing phase of the paper's Theorem 7.1
// algorithm, shared by RootedAsyncDisp (async_rooted.*) and, per group
// label, by GeneralAsyncDisp (general_async.*, Theorem 8.2 = this phase
// plus KS subsumption).  Defined once here:
//
//  * Async_Probe (Algorithm 3): available agents probe distinct ports of
//    the head w in parallel; each prober that finds an own-label settler
//    recruits it back to w as a *guest helper*, doubling the probing force
//    — O(log k) iterations to find a fully unsettled neighbor;
//  * Guest_See_Off (Algorithm 4): before the group leaves w, guests are
//    escorted home in pairs (one settles, one returns), halving the guest
//    set per sweep — O(log k) epochs; this is what makes "neighbor looks
//    empty" mean "fully unsettled" despite asynchrony (§4.3);
//  * the participant errands that carry both out (probe, report, guest
//    trip, registration, go-home, chaperone, escort, group follow).
//
// Coordination is strictly local: the leader writes orders into
// co-located agents' memory; transient probe counters live on the settler
// of the current node (always present), so probers can report even while
// the leader is itself out probing.  Idle participants park
// (AsyncEngine::park), so every order written into another agent's memory
// is followed by engine_.signal for that agent.
//
// The unit takes one protocol-dependent input, the probe cap: Async_Probe
// at w covers ports 1..min(δ(w), probeCap).  RootedAsyncDisp probes every
// port (cap Δ); GeneralAsyncDisp caps at k.  The two bounds give different
// facts wherever δ(w) > k (DESIGN.md §4.8).
//
// Labels: each agent carries one.  They start as one label per initially
// occupied node (in node order), so a rooted run has the single label 0;
// GeneralAsyncDisp relabels agents as groups merge.  Every query here is
// scoped to one label.

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/probe_index.hpp"
#include "core/async_engine.hpp"
#include "graph/graph.hpp"

namespace disp {

/// Counters the growing phase keeps; each protocol's stats extend them.
struct AsyncGrowthStats {
  std::uint64_t probes = 0;           // Async_Probe calls
  std::uint64_t probeIterations = 0;  // helper-doubling rounds over all calls
  std::uint64_t guestsRecruited = 0;
  std::uint64_t seeOffSweeps = 0;
};

class AsyncGrowth {
 public:
  /// Every agent settled, home (not a guest) and on a distinct node.
  [[nodiscard]] bool dispersed() const;

 protected:
  using Label = std::uint32_t;
  static constexpr Label kNoLabel = static_cast<Label>(-1);

  struct AgentState {
    Label label = kNoLabel;
    bool settled = false;
    bool isGuest = false;
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

    // --- guest / prober bookkeeping ---
    Port guestEntryPort = kNoPort;  // port of w through which it entered w
    bool needRegister = false;      // guest must report arrival at w
    bool needReport = false;        // prober must report results at w
    bool reportEmpty = false;
    bool reportGuest = false;
    Label reportMet = kNoLabel;     // smallest foreign label seen, if any
  };

  /// `stats` must outlive this object (it is the client's own stats
  /// struct); it is only written once fibers run.
  AsyncGrowth(AsyncEngine& engine, std::uint32_t probeCap, AsyncGrowthStats& stats);

  [[nodiscard]] Label labelCount() const {
    return static_cast<Label>(probeNext_.size());
  }

  /// True iff agent `a` has an order to carry out; participant fibers call
  /// participantStep only then, and park while it is false.
  [[nodiscard]] bool hasOrder(AgentIx a) const;
  /// Carries out `self`'s pending order (probe errand, report, guest trip,
  /// registration, see-off, follow).  May span several activations;
  /// returns with the current activation still owned by the caller.
  Task participantStep(AgentIx self);

  /// Async_Probe at the leader's node for `label`: the smallest port found
  /// leading to a fully unsettled node lands in probeNext_[label] (kNoPort
  /// when every port up to the cap leads to a settled or occupied node),
  /// and every foreign label met, with the port it was met through, in
  /// probeMet_[label] (report order).
  Task probePhase(Label label, AgentIx self);
  /// Guest_See_Off at the leader's node: returns once every `label` guest
  /// is home and the settler is back at w.
  Task seeOffPhase(Label label, AgentIx self);

  /// The settled, non-guest `label` agent whose home is v, or kNoAgent.
  [[nodiscard]] AgentIx homeSettlerAt(NodeId v, Label label) const;
  /// Settles `a` at `at` (tree parent via `parentPort`), resets its probe
  /// progress, and drops it from the prober index.  Counts, traces and the
  /// memory ledger are the caller's.
  void markSettled(AgentIx a, NodeId at, Port parentPort);

  AsyncEngine& engine_;
  std::vector<AgentState> st_;
  /// Followers + guest helpers bucketed by node (label-agnostic; the query
  /// filters labels): availableProbersAt reads the w bucket instead of
  /// scanning every occupant of w (DESIGN.md §9).  Membership is kept at
  /// settle/unsettle/recruit/see-off; positions ride the engine move hook,
  /// which each client installs and which must call relocate().
  IdleProberIndex proberIdx_;
  /// Per-label probePhase results (see probePhase).
  std::vector<Port> probeNext_;
  std::vector<std::vector<std::pair<Label, Port>>> probeMet_;

 private:
  /// Communicate step of a probe at the prober's current node: note what
  /// it sees in its report fields and recruit an own-label home settler as
  /// a guest helper, routed back through the prober's pin.
  void observeAndRecruit(AgentIx self);
  /// Delivers `self`'s report fields to the blackboard of its node's
  /// settler (the prober is back at w).
  void deliverReport(AgentIx self);
  Task leaderProbeTrip(AgentIx self, Port port);  // the leader probes itself
  /// The available probers at w; the first min(size, want) are the
  /// lowest IDs in ascending order, the rest are in no particular order.
  [[nodiscard]] const std::vector<AgentIx>& availableProbersAt(NodeId w, Label label,
                                                               Port want) const;

  AsyncGrowthStats& growthStats_;
  std::uint32_t probeCap_;
  /// Scratch for availableProbersAt (consumed before any co_await).
  mutable std::vector<AgentIx> probersScratch_;
};

}  // namespace disp
