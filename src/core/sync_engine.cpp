#include "core/sync_engine.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace disp {

SyncEngine::SyncEngine(const Graph& g, std::vector<NodeId> startPositions,
                       std::vector<AgentId> ids)
    : world_(g, std::move(startPositions), std::move(ids)),
      memory_(world_.agentCount()),
      stagedStamp_(world_.agentCount(), 0) {}

void SyncEngine::stageMove(AgentIx a, Port p) {
  DISP_REQUIRE(a < agentCount(), "agent out of range");
  DISP_CHECK(stagedStamp_[a] != round_ + 1, "agent staged two moves in one round");
  if (faults_ != nullptr) [[unlikely]] {
    // Fault mode: the double-stage check above still guards protocol bugs,
    // but a crashed agent's stage is dropped, and a port that is invalid
    // for the agent's *actual* position (its protocol's belief desynced by
    // an earlier vetoed move) is a failed traversal attempt, not an error.
    stagedStamp_[a] = round_ + 1;
    if (faults_->crashed(a)) return;
    if (p < 1 || p > graph().degree(world_.positionOf(a))) return;
    staged_.emplace_back(a, p);
    return;
  }
  const NodeId at = world_.positionOf(a);
  DISP_REQUIRE(p >= 1 && p <= graph().degree(at), "staged move through invalid port");
  stagedStamp_[a] = round_ + 1;
  staged_.emplace_back(a, p);
}

StepAwait SyncEngine::nextRound() {
  DISP_CHECK(currentSlot_ != nullptr, "nextRound() awaited outside a fiber");
  return StepAwait{currentSlot_};
}

void SyncEngine::addFiber(Task task) {
  DISP_REQUIRE(task.valid(), "fiber task is empty");
  // The live-fiber index is snapshotted at run() entry (and the historical
  // loop iterated fibers_ mid-range-for, which was never safe either), so
  // fibers cannot join a run in progress.
  DISP_CHECK(!running_, "addFiber() during run(): fibers must be added up front");
  auto fs = std::make_unique<FiberState>();
  fs->task = std::move(task);
  fibers_.push_back(std::move(fs));
}

void SyncEngine::commitRound() {
  if (faults_ != nullptr) [[unlikely]] {
    // Fault-aware commit.  Crash vetoes happened at staging; here
    // churned-down edges veto the traversal (the agent stays put, no Move
    // event, no move counted) and the injector's excess counter tracks
    // every applied move.
    const bool churn = faults_->edgeFaultsActive();
    for (const auto& [a, p] : staged_) {
      const NodeId from = world_.positionOf(a);
      const NodeId to = graph().neighbor(from, p);
      if (churn && faults_->edgeDown(from, to)) continue;
      faults_->noteMove(world_.countAt(from), world_.countAt(to));
      world_.applyMoveStaged(a, p);
      if (trace_.tracing()) {
        trace_.emit({TraceEventKind::Move, round_, a, to, from, p});
      }
    }
  } else if (trace_.tracing()) {
    // Traced commit: one Move event per applied move, in staging order.
    for (const auto& [a, p] : staged_) {
      const NodeId from = world_.positionOf(a);
      world_.applyMoveStaged(a, p);
      trace_.emit({TraceEventKind::Move, round_, a, world_.positionOf(a), from, p});
    }
  } else {
    for (const auto& [a, p] : staged_) {
      // Validated by stageMove against a position that cannot have changed
      // since (moves only commit here), so skip revalidation.
      world_.applyMoveStaged(a, p);
    }
  }
  staged_.clear();
  ++round_;  // also retires every staging stamp for the round
}

void SyncEngine::installObserver(EngineObserver observer) {
  DISP_CHECK(!running_, "installObserver() during run()");
  trace_.install(std::move(observer));
}

void SyncEngine::run(std::uint64_t maxRounds) {
  const std::uint64_t limit = round_ + maxRounds;
  running_ = true;
  struct RunningGuard {
    bool& flag;
    ~RunningGuard() { flag = false; }
  } guard{running_};
  staged_.reserve(agentCount());
  // Compacted live-fiber index: finished fibers leave the scan set, so a
  // round costs O(live fibers), not O(all fibers ever added).  Insertion
  // order is preserved — resume order is part of per-seed determinism.
  live_.clear();
  for (const auto& fiber : fibers_) {
    if (!fiber->task.done()) live_.push_back(fiber.get());
  }
  if (faults_ != nullptr) {
    // Seed the excess counter and apply t = 0 faults (byzantine-silent
    // agents) before the first staging pass.
    faults_->initConfig(world_);
    faults_->advanceTo(round_, world_, trace_);
    faults_->noteConfig(round_);
  }
  for (;;) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      FiberState* fiber = live_[i];
      currentSlot_ = &fiber->slot;
      if (!fiber->started) {
        fiber->started = true;
        fiber->task.rootHandle().resume();
      } else if (fiber->slot.armed()) {
        fiber->slot.take().resume();
      }
      currentSlot_ = nullptr;
      if (fiber->task.done()) {
        fiber->task.rethrowIfFailed();
      } else {
        live_[keep++] = fiber;
      }
    }
    live_.resize(keep);
    const bool anyAlive = !live_.empty();
    // A round is only charged if it commits work or some fiber still waits
    // on it; the resume in which the last fiber merely returns is free.
    if (!anyAlive && staged_.empty()) break;
    for (const auto& hook : hooks_) hook();
    commitRound();
    if (faults_ != nullptr) faults_->noteConfig(round_);
    const auto fill = [this](std::vector<NodeId>& v) {
      for (AgentIx a = 0; a < agentCount(); ++a) v[a] = positionOf(a);
    };
    const bool stop =
        trace_.sampleAtCadence(round_, round_, totalMoves(), agentCount(), fill);
    if (!anyAlive) break;  // run complete; a same-round stopWhen is moot
    if (stop) {
      // Early stop: fibers stay suspended (destroyed with the engine);
      // facts so far remain valid and the session reports stoppedEarly.
      trace_.requestStop();
      break;
    }
    if (round_ >= limit) {
      if (faults_ != nullptr) {
        // Under faults a protocol may legitimately never terminate (e.g.
        // crash-stopped agents it waits for); the cap is a verdict, not a
        // bug — report it and let the session score recovery.
        limitHit_ = true;
        break;
      }
      throw std::runtime_error("SyncEngine: round limit exceeded (deadlock or bug); round=" +
                               std::to_string(round_));
    }
    if (faults_ != nullptr) {
      // Round boundary: crashes/restarts/churn scheduled at time <= round_
      // take effect before the next staging pass, stamped with the same
      // round as the moves they gate.
      faults_->advanceTo(round_, world_, trace_);
    }
  }
  // Close the series on the terminal state: the run may end off-cadence,
  // and the final fiber resumes (settles without staged moves) happen after
  // the last commit.
  trace_.closeSeries(round_, round_, totalMoves(), agentCount(),
                     [this](std::vector<NodeId>& v) {
                       for (AgentIx a = 0; a < agentCount(); ++a) v[a] = positionOf(a);
                     });
}

std::vector<NodeId> SyncEngine::positionsSnapshot() const {
  std::vector<NodeId> out(agentCount());
  for (AgentIx a = 0; a < agentCount(); ++a) out[a] = positionOf(a);
  return out;
}

Task skipRounds(SyncEngine& engine, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    co_await engine.nextRound();
  }
}

}  // namespace disp
