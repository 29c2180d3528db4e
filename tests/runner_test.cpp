// Facade-level integration tests: every algorithm through runSession,
// including the small-k fallback, cross-model agreement checks, and the
// cross-algorithm invariant suite (dispersal, distinct occupancy, metric
// sanity/monotonicity, and bit-identical reruns for fixed seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "algo/runner.hpp"
#include "graph/generators.hpp"
#include "graph/spec.hpp"

namespace disp {
namespace {

const std::vector<std::string> kAllAlgorithms = algorithmKeys();

RunResult run(const Graph& g, const Placement& p, const std::string& algo,
              const std::string& scheduler = "round_robin", std::uint64_t seed = 1) {
  RunOptions opts;
  opts.algorithm = algo;
  opts.scheduler = scheduler;
  opts.seed = seed;
  return runSession(g, p, opts);
}

/// Rooted algorithms require rooted placements; general ones are exercised
/// on a 4-cluster general configuration.
Placement placementFor(const Graph& g, const std::string& algo, std::uint32_t k,
                       std::uint64_t seed) {
  const bool general = !algorithmDef(algo).traits.requiresRooted;
  return general ? clusteredPlacement(g, k, 4, seed) : rootedPlacement(g, k, 0, seed);
}

TEST(Runner, AllAlgorithmsDisperseRooted) {
  const Graph g = makeGraph("er", 64, 5);
  for (const std::string& algo : kAllAlgorithms) {
    const Placement p = rootedPlacement(g, 48, 0, 3);
    const RunResult r = run(g, p, algo, "round_robin", 7);
    EXPECT_TRUE(r.dispersed) << algorithmDisplayName(algo);
    EXPECT_TRUE(isDispersed(r.finalPositions)) << algorithmDisplayName(algo);
    EXPECT_GT(r.time, 0u) << algorithmDisplayName(algo);
    EXPECT_GT(r.maxMemoryBits, 0u) << algorithmDisplayName(algo);
  }
}

TEST(Runner, SmallKFallsBackToBaseline) {
  const Graph g = makeGraph("star", 20, 1);
  for (std::uint32_t k = 1; k <= 6; ++k) {
    const Placement p = rootedPlacement(g, k, 0, k);
    const RunResult r = run(g, p, "rooted_sync");
    EXPECT_TRUE(r.dispersed) << "k=" << k;
  }
}

TEST(Runner, GeneralSyncHandlesClusters) {
  const Graph g = makeGraph("grid", 64, 9);
  for (std::uint32_t l : {1u, 2u, 4u, 8u}) {
    const Placement p = clusteredPlacement(g, 48, l, 11);
    const RunResult r = run(g, p, "general_sync");
    EXPECT_TRUE(r.dispersed) << "l=" << l;
  }
}

TEST(Runner, AsyncSchedulersAllWork) {
  const Graph g = makeGraph("randtree", 40, 13);
  for (const char* sched : {"round_robin", "shuffled", "uniform", "weighted"}) {
    const Placement p = rootedPlacement(g, 32, 0, 5);
    const RunResult r = run(g, p, "rooted_async", sched, 9);
    EXPECT_TRUE(r.dispersed) << sched;
    EXPECT_GT(r.activations, 0u);
  }
}

TEST(Runner, SyncFasterThanBaselineOnClique) {
  // The headline separation at a glance: on a clique with k = n the KS
  // baseline pays Θ(k²) re-probing settled neighbors while the paper's
  // algorithm stays O(k) (with its constant-factor probe overhead).
  const Graph g = makeComplete(160).build();
  const Placement p = rootedPlacement(g, 160, 0, 3);
  const RunResult fancy = run(g, p, "rooted_sync");
  const RunResult base = run(g, p, "ks_sync");
  ASSERT_TRUE(fancy.dispersed);
  ASSERT_TRUE(base.dispersed);
  EXPECT_LT(fancy.time, base.time);
}

TEST(Runner, KsRequiresRootedPlacement) {
  const Graph g = makePath(20).build();
  const Placement p = clusteredPlacement(g, 10, 2, 3);
  EXPECT_THROW((void)run(g, p, "ks_sync"), std::invalid_argument);
}

TEST(Runner, GeneralAsyncHandlesClustersUnderAllSchedulers) {
  const Graph g = makeGraph("grid", 64, 9);
  for (std::uint32_t l : {1u, 2u, 4u, 8u}) {
    for (const char* sched : {"round_robin", "shuffled", "uniform", "weighted"}) {
      const Placement p = clusteredPlacement(g, 48, l, 11);
      const RunResult r = run(g, p, "general_async", sched, 7);
      EXPECT_TRUE(r.dispersed) << "l=" << l << " " << sched;
      EXPECT_GT(r.activations, 0u);
    }
  }
}

// ------------------------- cross-algorithm invariant suite -------------------

struct CrossCase {
  std::string algorithm;
  std::string family;
  std::uint64_t seed;
};

std::string crossCaseName(const ::testing::TestParamInfo<CrossCase>& info) {
  std::string name = algorithmDisplayName(info.param.algorithm) + "_" + info.param.family +
                     "_s" + std::to_string(info.param.seed);
  std::erase_if(name, [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); });
  return name;
}

class CrossAlgorithmTest : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossAlgorithmTest, TerminatesDispersedWithSaneMetrics) {
  const auto& [algo, family, seed] = GetParam();
  const std::uint32_t k = 48;
  const Graph g = makeGraph(family, 64, seed);
  const Placement p = placementFor(g, algo, k, seed + 1);
  const RunResult r = run(g, p, algo, "round_robin", seed);

  EXPECT_TRUE(r.dispersed);
  ASSERT_EQ(r.finalPositions.size(), k);
  EXPECT_TRUE(isDispersed(r.finalPositions));
  auto nodes = r.finalPositions;
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(std::unique(nodes.begin(), nodes.end()), nodes.end())
      << "agents must occupy k distinct nodes";

  // Metric sanity: time passes, agents move, memory is accounted, and the
  // ASYNC activation count dominates the epoch count.
  EXPECT_GE(r.time, 1u);
  EXPECT_GT(r.totalMoves, 0u);
  EXPECT_GT(r.maxMemoryBits, 0u);
  if (algorithmDef(algo).traits.isAsync) {
    EXPECT_GE(r.activations, r.time);
  } else {
    // SYNC: one CCM cycle per agent per round, by the model's definition.
    EXPECT_EQ(r.activations, r.time * k);
  }
}

TEST_P(CrossAlgorithmTest, FixedSeedsGiveBitIdenticalRuns) {
  const auto& [algo, family, seed] = GetParam();
  const std::uint32_t k = 32;
  const Graph g = makeGraph(family, 48, seed);
  const Placement p = placementFor(g, algo, k, seed + 1);
  const RunResult a = run(g, p, algo, "uniform", seed);
  const RunResult b = run(g, p, algo, "uniform", seed);
  EXPECT_EQ(a.dispersed, b.dispersed);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.totalMoves, b.totalMoves);
  EXPECT_EQ(a.maxMemoryBits, b.maxMemoryBits);
  EXPECT_EQ(a.finalPositions, b.finalPositions);
}

std::vector<CrossCase> crossCases() {
  std::vector<CrossCase> cases;
  for (const std::string& algo : kAllAlgorithms) {
    for (const char* family : {"path", "grid", "er"}) {
      for (const std::uint64_t seed : {3ULL, 17ULL}) {
        cases.push_back({algo, family, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsFamiliesSeeds, CrossAlgorithmTest,
                         ::testing::ValuesIn(crossCases()), crossCaseName);

TEST(CrossAlgorithm, MovesAndTimeNonDecreasingInK) {
  // Scaling sanity shared by every algorithm: on a fixed graph, settling
  // more agents never takes fewer total moves, and never less time.
  const Graph g = makeGraph("er", 128, 21);
  for (const std::string& algo : kAllAlgorithms) {
    std::uint64_t prevMoves = 0, prevTime = 0;
    for (const std::uint32_t k : {16u, 32u, 64u}) {
      const Placement p = placementFor(g, algo, k, 5);
      const RunResult r = run(g, p, algo, "round_robin", 9);
      ASSERT_TRUE(r.dispersed) << algorithmDisplayName(algo) << " k=" << k;
      EXPECT_GE(r.totalMoves, prevMoves) << algorithmDisplayName(algo) << " k=" << k;
      EXPECT_GE(r.time, prevTime) << algorithmDisplayName(algo) << " k=" << k;
      prevMoves = r.totalMoves;
      prevTime = r.time;
    }
  }
}

// ------------------------------------------------------------ scenario API

TEST(RunScenario, MatchesManualGraphAndPlacementConstruction) {
  RunOptions opts;
  opts.algorithm = "rooted_sync";
  opts.seed = 7;
  const RunResult viaScenario = runScenario("er", "rooted", 24, opts);

  const Graph g = makeGraph("er", 48, 7);  // default sizing n = 2k
  const Placement p = rootedPlacement(g, 24, 0, 7);
  const RunResult manual = runSession(g, p, opts);
  EXPECT_EQ(viaScenario.dispersed, manual.dispersed);
  EXPECT_EQ(viaScenario.time, manual.time);
  EXPECT_EQ(viaScenario.totalMoves, manual.totalMoves);
  EXPECT_EQ(viaScenario.finalPositions, manual.finalPositions);
}

TEST(RunScenario, RunsAdversarialPlacementsOnParameterizedGraphs) {
  RunOptions opts;
  opts.algorithm = "general_sync";
  opts.seed = 3;
  const RunResult far =
      runScenario("grid:rows=6,cols=6", "adversarial:far", 18, opts);
  EXPECT_TRUE(far.dispersed);
  EXPECT_TRUE(isDispersed(far.finalPositions));

  opts.algorithm = "rooted_sync";
  const RunResult hot = runScenario("star:n=40", "adversarial:hot", 16, opts);
  EXPECT_TRUE(hot.dispersed);
}

TEST(RunScenario, RejectsMalformedSpecs) {
  EXPECT_THROW((void)runScenario("nope", "rooted", 8), std::invalid_argument);
  EXPECT_THROW((void)runScenario("er", "nope", 8), std::invalid_argument);
  EXPECT_THROW((void)runScenario("er", "rooted", 0), std::invalid_argument);
}

}  // namespace
}  // namespace disp
