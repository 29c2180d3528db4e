#pragma once
// SYNC model: lock-step rounds (the paper's §2 "Time cycle" under full
// synchrony).  Every round, every agent performs one CCM cycle; moves are
// staged during the round and commit simultaneously at its end, so meetings
// are co-locations at commit points.
//
// Protocol code runs in fibers (see fiber.hpp): a fiber stages moves for
// the agents it controls and `co_await engine.round()`s to let time pass.
// Several fibers may coexist (general initial configurations run one DFS
// fiber per start node).  Round hooks run every round before commit and are
// used by free-running subsystems (oscillating settlers).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/faults.hpp"
#include "core/fiber.hpp"
#include "core/memory.hpp"
#include "core/trace.hpp"
#include "core/world.hpp"
#include "graph/graph.hpp"

namespace disp {

// Cache-line aligned for the same reason as AsyncEngine: the per-round
// state keeps one placement relative to cache lines whatever the size of
// World (the sync_long benchmark workload moved 3-5% with that size).
class alignas(64) SyncEngine {
 public:
  SyncEngine(const Graph& g, std::vector<NodeId> startPositions,
             std::vector<AgentId> ids);

  // --- world queries (valid between rounds) ---
  [[nodiscard]] const Graph& graph() const noexcept { return world_.graph(); }
  [[nodiscard]] std::uint32_t agentCount() const noexcept { return world_.agentCount(); }
  [[nodiscard]] AgentId idOf(AgentIx a) const { return world_.idOf(a); }
  [[nodiscard]] NodeId positionOf(AgentIx a) const { return world_.positionOf(a); }
  [[nodiscard]] Port pinOf(AgentIx a) const { return world_.pinOf(a); }
  [[nodiscard]] const std::vector<AgentIx>& agentsAt(NodeId v) const {
    return world_.agentsAt(v);
  }
  /// O(1) co-location count (agentsAt(v).size() without materializing).
  [[nodiscard]] std::uint32_t countAt(NodeId v) const { return world_.countAt(v); }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::uint64_t totalMoves() const noexcept { return world_.totalMoves(); }
  [[nodiscard]] MemoryLedger& memory() noexcept { return memory_; }

  // --- observability (core/trace.hpp) ---
  /// Installs the observer; call before run().  Snapshots fire every
  /// observer.sampleEvery committed rounds.
  void installObserver(EngineObserver observer);
  /// True iff an onEvent hook is installed — protocols may use this to
  /// skip building event payloads on the zero-observer path.
  [[nodiscard]] bool tracing() const noexcept { return trace_.tracing(); }
  /// True iff stopWhen truncated the run before the protocol finished.
  [[nodiscard]] bool stopRequested() const noexcept { return trace_.stopRequested(); }
  /// Settled-agent count per the protocol's traceSettle/traceUnsettle
  /// calls (maintained with or without an observer).
  [[nodiscard]] std::uint32_t settledCount() const noexcept {
    return trace_.settledCount();
  }

  /// Protocol-side trace taps.  traceSettle/traceUnsettle also maintain
  /// the settled count surfaced in snapshots; traceEvent is for the
  /// remaining kinds (Meeting/Subsume/Freeze/OscillationDuty).  All of
  /// them stamp the event with the current round.
  void traceSettle(AgentIx a, std::uint32_t label = kNoTraceLabel) {
    trace_.settle(round_, a, world_.positionOf(a), label);
  }
  void traceUnsettle(AgentIx a, std::uint32_t oldLabel = kNoTraceLabel,
                     std::uint32_t byLabel = kNoTraceLabel) {
    trace_.unsettle(round_, a, world_.positionOf(a), oldLabel, byLabel);
  }
  void traceEvent(TraceEventKind kind, AgentIx agent, NodeId node, std::uint32_t a,
                  std::uint32_t b) {
    trace_.emit({kind, round_, agent, node, a, b});
  }

  // --- staging (fibers and hooks) ---
  /// Stages a move for this round; at most one per agent per round.
  void stageMove(AgentIx a, Port p);

  /// Awaitable: suspend the calling fiber until the next round boundary.
  [[nodiscard]] StepAwait nextRound();

  // --- fault injection (core/faults.hpp, DESIGN.md §11) ---
  /// Installs the per-run fault injector (non-owning; must outlive run()).
  /// Call before run().  With an injector installed:
  ///  * crashed agents' staged moves are dropped at the staging boundary,
  ///  * staged ports invalid for the agent's *actual* position (protocol
  ///    belief desynced by an earlier vetoed move) become failed attempts
  ///    instead of errors,
  ///  * commits veto moves through churned-down edges,
  ///  * hitting the round limit reports limitHit() instead of throwing.
  void installFaults(FaultInjector* faults) {
    DISP_CHECK(!running_, "installFaults() during run()");
    faults_ = faults;
  }
  /// True iff a fault-mode run ended at the round limit (verdict, not bug).
  [[nodiscard]] bool limitHit() const noexcept { return limitHit_; }

  // --- orchestration ---
  void addFiber(Task task);
  void addRoundHook(std::function<void()> hook) { hooks_.push_back(std::move(hook)); }

  /// Runs rounds until every fiber completes.  Throws if a fiber threw, or
  /// if `maxRounds` elapse first (deadlock guard) — unless a fault injector
  /// is installed, in which case the limit becomes a reported verdict.
  void run(std::uint64_t maxRounds);

  [[nodiscard]] std::vector<NodeId> positionsSnapshot() const;

 private:
  struct FiberState {
    Task task;
    ResumeSlot slot;
    bool started = false;
  };

  void commitRound();

  World world_;
  MemoryLedger memory_;
  std::uint64_t round_ = 0;
  std::vector<std::pair<AgentIx, Port>> staged_;
  /// Round-stamp double-stage detection: the round (plus one, so zero means
  /// never) in which each agent last staged — no per-round flag reset pass.
  std::vector<std::uint64_t> stagedStamp_;
  std::vector<std::unique_ptr<FiberState>> fibers_;
  /// Unfinished fibers in insertion order; run() scans and compacts this
  /// instead of re-walking every fiber ever added.
  std::vector<FiberState*> live_;
  std::vector<std::function<void()>> hooks_;
  ResumeSlot* currentSlot_ = nullptr;
  bool running_ = false;  ///< guards addFiber() against mid-run additions
  TraceHost trace_;       ///< observability (inert without installObserver)
  FaultInjector* faults_ = nullptr;  ///< fault mode (inert when null)
  bool limitHit_ = false;            ///< fault-mode limit verdict
};

/// Convenience subtask: let `n` rounds pass.
Task skipRounds(SyncEngine& engine, std::uint32_t n);

}  // namespace disp
