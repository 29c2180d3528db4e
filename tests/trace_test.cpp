// Observable-session API tests: the string-keyed algorithm registry
// (round-trip, traits, unknown-name errors), the observer determinism
// contract (observed runs report facts identical to unobserved ones at any
// sampling cadence — the PR's acceptance criterion), the trace-event
// schema/ordering on pinned small runs, early stop, and trajectory capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "algo/runner.hpp"
#include "graph/generators.hpp"
#include "graph/spec.hpp"

namespace disp {
namespace {

const char* kAllKeys[] = {"rooted_sync",   "rooted_async", "general_sync",
                          "general_async", "ks_sync",      "ks_async"};

Placement placementFor(const Graph& g, const std::string& algo, std::uint32_t k,
                       std::uint64_t seed) {
  return algorithmDef(algo).traits.requiresRooted
             ? rootedPlacement(g, k, 0, seed)
             : clusteredPlacement(g, k, 4, seed);
}

void expectSameFacts(const RunResult& a, const RunResult& b, const std::string& what) {
  EXPECT_EQ(a.dispersed, b.dispersed) << what;
  EXPECT_EQ(a.time, b.time) << what;
  EXPECT_EQ(a.activations, b.activations) << what;
  EXPECT_EQ(a.totalMoves, b.totalMoves) << what;
  EXPECT_EQ(a.maxMemoryBits, b.maxMemoryBits) << what;
  EXPECT_EQ(a.finalPositions, b.finalPositions) << what;
}

// ------------------------------------------------------------- registry

TEST(Registry, RoundTripsEveryBuiltinByKeyAndDisplayName) {
  ASSERT_GE(algorithmRegistry().size(), 6u);
  for (const char* key : kAllKeys) {
    const AlgorithmDef* byKey = findAlgorithm(key);
    ASSERT_NE(byKey, nullptr) << key;
    EXPECT_EQ(byKey->traits.key, key);
    // Display names (the Table 1 strings) resolve to the same entry.
    const AlgorithmDef* byDisplay = findAlgorithm(byKey->traits.display);
    EXPECT_EQ(byDisplay, byKey) << key;
    // Exactly one factory, matching the declared model.
    EXPECT_EQ(byKey->makeSync != nullptr, !byKey->traits.isAsync) << key;
    EXPECT_EQ(byKey->makeAsync != nullptr, byKey->traits.isAsync) << key;
  }
  EXPECT_EQ(algorithmKeys().size(), algorithmRegistry().size());
}

// Pins each builtin's traits: its model (SYNC rounds vs ASYNC epochs), its
// Table 1 display name, and whether it needs a rooted start.
TEST(Registry, TraitsPinEachProtocolsModelAndDisplayName) {
  struct Expected {
    const char* key;
    const char* display;
    bool isAsync;
    bool requiresRooted;  // only the general algorithms accept clusters
  };
  const Expected expected[] = {
      {"rooted_sync", "RootedSyncDisp", false, true},
      {"rooted_async", "RootedAsyncDisp", true, true},
      {"general_sync", "GeneralSync(doubling)", false, false},
      {"general_async", "GeneralAsync(Thm8.2)", true, false},
      {"ks_sync", "KS-sync", false, true},
      {"ks_async", "KS-async", true, true},
  };
  for (const Expected& e : expected) {
    const AlgorithmDef& def = algorithmDef(e.key);
    EXPECT_EQ(def.traits.display, e.display) << e.key;
    EXPECT_EQ(def.traits.isAsync, e.isAsync) << e.key;
    EXPECT_EQ(def.traits.requiresRooted, e.requiresRooted) << e.key;
  }
}

TEST(Registry, UnknownNamesFailLoudly) {
  EXPECT_EQ(findAlgorithm("rooted_synk"), nullptr);
  EXPECT_THROW((void)algorithmDef("rooted_synk"), std::invalid_argument);
  const Graph g = makeGraph("er", 32, 3);
  const Placement p = rootedPlacement(g, 16, 0, 3);
  RunOptions opts;
  opts.algorithm = "no_such_algorithm";
  EXPECT_THROW((void)runSession(g, p, opts), std::invalid_argument);
}

TEST(Registry, RejectsBadRegistrations) {
  AlgorithmDef dup;
  dup.traits = algorithmRegistry().front().traits;
  dup.makeSync = algorithmRegistry().front().makeSync;
  EXPECT_THROW(registerAlgorithm(dup), std::invalid_argument);

  AlgorithmDef mismatch;
  mismatch.traits = {"bogus_async", "Bogus", "", true, false};
  mismatch.makeSync = algorithmRegistry().front().makeSync;  // sync factory, async traits
  EXPECT_THROW(registerAlgorithm(mismatch), std::invalid_argument);
}

TEST(Registry, RootedPlacementRequirementIsEnforced) {
  const Graph g = makeGraph("grid", 36, 5);
  const Placement clustered = clusteredPlacement(g, 18, 3, 7);
  for (const char* key : {"rooted_sync", "rooted_async", "ks_sync", "ks_async"}) {
    RunOptions opts;
    opts.algorithm = key;
    EXPECT_THROW((void)runSession(g, clustered, opts), std::invalid_argument) << key;
  }
}

// ------------------------------------------- observer determinism contract

TEST(ObserverDeterminism, ObservedRunsReportIdenticalFactsAtAnyCadence) {
  const Graph g = makeGraph("er", 64, 11);
  for (const char* key : kAllKeys) {
    const Placement p = placementFor(g, key, 40, 13);
    RunOptions plain;
    plain.algorithm = key;
    plain.scheduler = "uniform";
    plain.seed = 17;
    const RunResult unobserved = runSession(g, p, plain);
    EXPECT_TRUE(unobserved.dispersed) << key;
    EXPECT_TRUE(unobserved.trajectory.empty()) << key;
    EXPECT_FALSE(unobserved.stoppedEarly) << key;

    for (const std::uint64_t cadence : {1ULL, 7ULL, 1000ULL}) {
      RunOptions observed = plain;
      observed.sampleEvery = cadence;
      observed.captureTrajectory = true;
      std::uint64_t events = 0;
      std::uint64_t steps = 0;
      observed.onEvent = [&events](const TraceEvent&) { ++events; };
      observed.onRound = [&steps](const StepSnapshot&) { ++steps; };
      observed.onActivation = [&steps](const StepSnapshot&) { ++steps; };
      const RunResult r = runSession(g, p, observed);
      expectSameFacts(unobserved, r,
                      std::string(key) + " cadence=" + std::to_string(cadence));
      EXPECT_FALSE(r.stoppedEarly);
      EXPECT_GT(events, 0u) << key;
      EXPECT_GT(steps, 0u) << key;
      EXPECT_EQ(steps, r.trajectory.size())
          << key << ": trajectory mirrors the sampled snapshots";
    }
  }
}

TEST(ObserverDeterminism, DisplayNameRunMatchesKeyRun) {
  // RunOptions::algorithm takes the historical display name as well as the
  // registry key; both select the same protocol and the same run.
  const Graph g = makeGraph("grid", 64, 9);
  const Placement p = rootedPlacement(g, 48, 0, 3);
  RunOptions opts;
  opts.algorithm = "rooted_async";
  opts.scheduler = "uniform";
  opts.seed = 5;
  const RunResult viaKey = runSession(g, p, opts);
  opts.algorithm = "RootedAsyncDisp";
  const RunResult viaDisplay = runSession(g, p, opts);
  expectSameFacts(viaKey, viaDisplay, "display name");
}

// --------------------------------------------------- trace schema/ordering

struct Recorded {
  std::vector<TraceEvent> events;
  std::vector<StepSnapshot> steps;  // positions pointer NOT retained validly
  std::vector<std::uint32_t> settledAtStep;
};

Recorded record(const Graph& g, const Placement& p, RunOptions opts) {
  Recorded rec;
  opts.onEvent = [&rec](const TraceEvent& e) { rec.events.push_back(e); };
  const auto step = [&rec](const StepSnapshot& s) {
    rec.steps.push_back(s);
    rec.settledAtStep.push_back(s.settled);
  };
  opts.onRound = step;
  opts.onActivation = step;
  const RunResult r = runSession(g, p, opts);
  EXPECT_TRUE(r.dispersed);
  return rec;
}

TEST(TraceSchema, PinnedGeneralSyncRunEmitsOrderedWellFormedEvents) {
  const Graph g = makeGraph("grid", 48, 7);
  const std::uint32_t k = 32;
  const Placement p = clusteredPlacement(g, k, 4, 7);
  RunOptions opts;
  opts.algorithm = "general_sync";
  opts.seed = 7;
  const Recorded rec = record(g, p, opts);

  ASSERT_FALSE(rec.events.empty());
  std::uint64_t lastTime = 0;
  std::int64_t settled = 0;
  std::uint64_t moves = 0;
  std::map<TraceEventKind, std::uint64_t> counts;
  for (const TraceEvent& e : rec.events) {
    ++counts[e.kind];
    // Events arrive in non-decreasing time order.
    EXPECT_GE(e.time, lastTime);
    lastTime = e.time;
    switch (e.kind) {
      case TraceEventKind::Move:
        ++moves;
        ASSERT_LT(e.agent, k);
        ASSERT_LT(e.node, g.nodeCount());   // destination
        ASSERT_LT(e.a, g.nodeCount());      // source
        EXPECT_NE(e.node, e.a) << "a move crosses an edge";
        ASSERT_GE(e.b, 1u);                 // port
        EXPECT_EQ(g.neighbor(e.a, static_cast<Port>(e.b)), e.node)
            << "move event is consistent with the port map";
        break;
      case TraceEventKind::Settle:
        ++settled;
        ASSERT_LT(e.agent, k);
        ASSERT_LT(e.node, g.nodeCount());
        break;
      case TraceEventKind::Collapse:
        --settled;
        ASSERT_LT(e.agent, k);
        break;
      case TraceEventKind::Meeting:
      case TraceEventKind::Subsume:
        EXPECT_NE(e.a, e.b) << "meeting/subsume relates two distinct trees";
        break;
      case TraceEventKind::Freeze:
      case TraceEventKind::OscillationDuty:
        break;
      case TraceEventKind::FaultCrash:
      case TraceEventKind::FaultRestart:
      case TraceEventKind::FaultEdge:
      case TraceEventKind::FaultSilent:
        ADD_FAILURE() << "fault event in a fault-free run";
        break;
    }
    EXPECT_GE(settled, 0) << "a collapse never precedes its settle";
  }
  // A dispersed run ends with exactly k live settlers.
  EXPECT_EQ(settled, std::int64_t{k});
  // Every edge traversal is a Move event.
  EXPECT_GT(moves, 0u);
  // ℓ = 4 trees on a small grid: the subsumption cascade fires, and every
  // subsumption was announced by a meeting and freezes a loser.
  EXPECT_GT(counts[TraceEventKind::Meeting], 0u);
  EXPECT_GT(counts[TraceEventKind::Subsume], 0u);
  EXPECT_GE(counts[TraceEventKind::Meeting], counts[TraceEventKind::Subsume]);
  EXPECT_EQ(counts[TraceEventKind::Freeze], counts[TraceEventKind::Subsume]);
  // Snapshots: settled counts are consistent with the event stream.
  ASSERT_FALSE(rec.settledAtStep.empty());
  EXPECT_EQ(rec.settledAtStep.back(), k);
}

TEST(TraceSchema, MoveEventsMatchTotalMovesForEveryAlgorithm) {
  const Graph g = makeGraph("er", 48, 21);
  for (const char* key : kAllKeys) {
    const Placement p = placementFor(g, key, 32, 9);
    RunOptions opts;
    opts.algorithm = key;
    opts.seed = 3;
    std::uint64_t moveEvents = 0;
    std::uint64_t settleEvents = 0;
    std::uint64_t collapseEvents = 0;
    opts.onEvent = [&](const TraceEvent& e) {
      moveEvents += e.kind == TraceEventKind::Move;
      settleEvents += e.kind == TraceEventKind::Settle;
      collapseEvents += e.kind == TraceEventKind::Collapse;
    };
    const RunResult r = runSession(g, p, opts);
    ASSERT_TRUE(r.dispersed) << key;
    EXPECT_EQ(moveEvents, r.totalMoves) << key;
    EXPECT_EQ(settleEvents - collapseEvents, 32u) << key;
  }
}

// The SYNC engine stages and commits every round on one thread, and the
// ASYNC engine resumes one fiber at a time: a second run of the same session
// must report the same facts and emit the same typed event stream, event for
// event.  The SYNC sizes put hundreds of staged moves into a round.
TEST(TraceSchema, RepeatedRunsEmitIdenticalStreamsOnEveryAlgorithm) {
  struct Case {
    const char* algo;
    const char* placement;
    std::uint32_t k;
  };
  const Case cases[] = {
      {"rooted_sync", "rooted", 400},        {"general_sync", "clusters:l=4", 300},
      {"ks_sync", "rooted", 300},            {"rooted_async", "rooted", 32},
      {"general_async", "clusters:l=3", 32}, {"ks_async", "rooted", 32},
  };
  const auto tracedRun = [](const Case& c, std::vector<TraceEvent>& events) {
    RunOptions opts;
    opts.algorithm = c.algo;
    opts.seed = 5;
    opts.onEvent = [&events](const TraceEvent& e) { events.push_back(e); };
    return runScenario("er", c.placement, c.k, opts);
  };
  for (const Case& c : cases) {
    std::vector<TraceEvent> firstEvents, secondEvents;
    const RunResult first = tracedRun(c, firstEvents);
    const RunResult second = tracedRun(c, secondEvents);
    EXPECT_TRUE(first.dispersed) << c.algo;
    expectSameFacts(first, second, c.algo);
    ASSERT_FALSE(firstEvents.empty()) << c.algo;
    ASSERT_EQ(firstEvents.size(), secondEvents.size()) << c.algo;
    for (std::size_t i = 0; i < firstEvents.size(); ++i) {
      const TraceEvent& a = firstEvents[i];
      const TraceEvent& b = secondEvents[i];
      const bool same = a.kind == b.kind && a.time == b.time && a.agent == b.agent &&
                        a.node == b.node && a.a == b.a && a.b == b.b;
      ASSERT_TRUE(same) << c.algo << " trace event " << i << " drifted";
    }
  }
}

TEST(TraceSchema, RootedSyncEmitsOscillationDutyChurn) {
  // er at n = 2k leaves ≥ ⌈k/3⌉ empty nodes (Lemma 1), so cover duty must
  // be assigned; every gain (a=1) precedes the matching drop (a=0).
  const Graph g = makeGraph("er", 96, 5);
  const Placement p = rootedPlacement(g, 48, 0, 5);
  RunOptions opts;
  opts.algorithm = "rooted_sync";
  std::int64_t dutyHolders = 0;
  std::uint64_t gains = 0;
  opts.onEvent = [&](const TraceEvent& e) {
    if (e.kind != TraceEventKind::OscillationDuty) return;
    if (e.a == 1) {
      ++gains;
      ++dutyHolders;
    } else {
      --dutyHolders;
    }
    EXPECT_GE(dutyHolders, 0);
  };
  const RunResult r = runSession(g, p, opts);
  ASSERT_TRUE(r.dispersed);
  EXPECT_GT(gains, 0u);
  EXPECT_EQ(dutyHolders, 0) << "all oscillators retire by dispersion";
}

// ------------------------------------------------ sampling and early stop

TEST(Sampling, SnapshotsFollowTheCadenceAndCloseOnTheEnd) {
  const Graph g = makeGraph("er", 64, 11);
  const Placement p = rootedPlacement(g, 32, 0, 3);
  RunOptions opts;
  opts.algorithm = "rooted_sync";
  opts.sampleEvery = 16;
  opts.captureTrajectory = true;
  const RunResult r = runSession(g, p, opts);
  ASSERT_TRUE(r.dispersed);
  ASSERT_GE(r.trajectory.size(), 2u);
  for (std::size_t i = 0; i + 1 < r.trajectory.size(); ++i) {
    EXPECT_EQ(r.trajectory[i].time % 16, 0u) << i;
    EXPECT_LT(r.trajectory[i].time, r.trajectory[i + 1].time);
    EXPECT_LE(r.trajectory[i].totalMoves, r.trajectory[i + 1].totalMoves);
  }
  // The final sample reports the terminal state even off-cadence.
  EXPECT_EQ(r.trajectory.back().time, r.time);
  EXPECT_EQ(r.trajectory.back().totalMoves, r.totalMoves);
  EXPECT_EQ(r.trajectory.back().settled, 32u);
}

TEST(Sampling, EarlyStopTruncatesTheRun) {
  const Graph g = makeGraph("er", 64, 11);
  const Placement p = rootedPlacement(g, 32, 0, 3);
  RunOptions full;
  full.algorithm = "rooted_sync";
  const RunResult complete = runSession(g, p, full);
  ASSERT_TRUE(complete.dispersed);

  RunOptions stopping = full;
  stopping.captureTrajectory = true;
  stopping.stopWhen = [](const StepSnapshot& s) { return s.settled >= 8; };
  const RunResult stopped = runSession(g, p, stopping);
  EXPECT_TRUE(stopped.stoppedEarly);
  EXPECT_FALSE(stopped.dispersed);
  EXPECT_LT(stopped.time, complete.time);
  ASSERT_FALSE(stopped.trajectory.empty());
  EXPECT_GE(stopped.trajectory.back().settled, 8u);

  // ASYNC engines honour the predicate too (activation granularity).
  RunOptions asyncStop;
  asyncStop.algorithm = "rooted_async";
  asyncStop.scheduler = "uniform";
  asyncStop.seed = 7;
  asyncStop.stopWhen = [](const StepSnapshot& s) { return s.settled >= 8; };
  const RunResult asyncStopped = runSession(g, p, asyncStop);
  EXPECT_TRUE(asyncStopped.stoppedEarly);
  EXPECT_FALSE(asyncStopped.dispersed);
}

TEST(Sampling, StopWhenAtCompletionDoesNotMarkStoppedEarly) {
  // A stopWhen that can only fire once every agent has settled triggers on
  // the same round/activation the protocol finishes — the run completed,
  // so the truncation flag must stay false (RunResult contract).
  const Graph g = makeGraph("er", 64, 11);
  const Placement p = rootedPlacement(g, 32, 0, 3);
  for (const char* key : {"ks_sync", "ks_async"}) {
    RunOptions opts;
    opts.algorithm = key;
    opts.seed = 5;
    opts.stopWhen = [](const StepSnapshot& s) { return s.settled >= 32; };
    const RunResult r = runSession(g, p, opts);
    EXPECT_TRUE(r.dispersed) << key;
    EXPECT_FALSE(r.stoppedEarly) << key;
  }
}

TEST(Sampling, AsyncSnapshotsCarryEpochs) {
  const Graph g = makeGraph("er", 48, 3);
  const Placement p = rootedPlacement(g, 24, 0, 5);
  RunOptions opts;
  opts.algorithm = "rooted_async";
  opts.seed = 11;
  std::uint64_t lastEpochs = 0;
  bool sawPositions = false;
  opts.onActivation = [&](const StepSnapshot& s) {
    EXPECT_GE(s.epochs, lastEpochs);
    lastEpochs = s.epochs;
    ASSERT_NE(s.positions, nullptr);
    EXPECT_EQ(s.positions->size(), 24u);
    sawPositions = true;
  };
  const RunResult r = runSession(g, p, opts);
  ASSERT_TRUE(r.dispersed);
  EXPECT_TRUE(sawPositions);
  EXPECT_LE(lastEpochs, r.time);
}

}  // namespace
}  // namespace disp
