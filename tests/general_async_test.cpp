// End-to-end tests for GeneralAsyncDisp (Theorem 8.2): dispersion from
// general initial configurations under every scheduler, KS subsumption
// between concurrently growing trees, the O(k log k) epoch shape, the §4.3
// in-transit-helper hazard, and the O(log(k+Δ)) memory bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "algo/general_async.hpp"
#include "algo/placement.hpp"
#include "core/metrics.hpp"
#include "graph/generators.hpp"
#include "graph/spec.hpp"

namespace disp {
namespace {

struct Case {
  std::string family;
  std::uint32_t n;
  std::uint32_t k;
  std::uint32_t clusters;
  std::string scheduler;
};

std::string caseName(const ::testing::TestParamInfo<Case>& info) {
  return info.param.family + "_k" + std::to_string(info.param.k) + "_l" +
         std::to_string(info.param.clusters) + "_" + info.param.scheduler;
}

struct RunOut {
  RunOut(const Graph& g, std::uint32_t k, std::uint32_t clusters,
         const std::string& sched, std::uint64_t seed)
      : placement(clusters <= 1 ? rootedPlacement(g, k, 0, seed)
                                : clusteredPlacement(g, k, clusters, seed)),
        engine(g, placement.positions, placement.ids,
               makeSchedulerByName(sched, k, seed * 31 + 5)),
        algo(engine) {
    algo.start();
    engine.run(/*maxActivations=*/400000000ULL);
  }
  Placement placement;
  AsyncEngine engine;
  GeneralAsyncDispersion algo;
};

class GeneralAsyncTest : public ::testing::TestWithParam<Case> {};

TEST_P(GeneralAsyncTest, DispersesWithDistinctFinalNodes) {
  const auto& [family, n, k, clusters, sched] = GetParam();
  const Graph g = makeGraph(family, n, 77);
  RunOut run(g, k, clusters, sched, 3);
  EXPECT_TRUE(run.algo.dispersed()) << family << "/" << sched;
  auto pos = run.engine.positionsSnapshot();
  EXPECT_TRUE(isDispersed(pos));
  std::sort(pos.begin(), pos.end());
  EXPECT_EQ(std::unique(pos.begin(), pos.end()), pos.end());
  EXPECT_EQ(pos.size(), k);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesSchedulersAndClusters, GeneralAsyncTest,
    ::testing::Values(
        // ISSUE matrix: path/grid/er × all four schedulers × l in {1,2,8}.
        Case{"path", 64, 48, 1, "round_robin"}, Case{"path", 64, 48, 2, "shuffled"},
        Case{"path", 64, 48, 8, "uniform"}, Case{"path", 64, 48, 2, "weighted"},
        Case{"grid", 64, 48, 1, "uniform"}, Case{"grid", 64, 48, 2, "round_robin"},
        Case{"grid", 64, 48, 8, "shuffled"}, Case{"grid", 64, 48, 8, "weighted"},
        Case{"er", 64, 48, 1, "shuffled"}, Case{"er", 64, 48, 2, "uniform"},
        Case{"er", 64, 48, 8, "round_robin"}, Case{"er", 64, 48, 8, "weighted"},
        // A few structurally nasty extras.
        Case{"star", 60, 45, 4, "uniform"}, Case{"complete", 24, 24, 4, "uniform"},
        Case{"lollipop", 30, 28, 3, "shuffled"}, Case{"bintree", 63, 63, 8, "uniform"}),
    caseName);

TEST(GeneralAsync, TinyKAndEveryClusterCount) {
  for (std::uint32_t k = 1; k <= 6; ++k) {
    for (std::uint32_t l = 1; l <= k; ++l) {
      const Graph g = makeGraph("er", 20, 5);
      RunOut run(g, k, l, "uniform", k + l);
      EXPECT_TRUE(run.algo.dispersed()) << "k=" << k << " l=" << l;
    }
  }
}

TEST(GeneralAsync, ScatteredPlacementTerminatesPromptly) {
  // Already-dispersed start: every singleton group settles its only agent
  // in place and the run must finish without a single group move.
  const Graph g = makeGraph("grid", 49, 7);
  const Placement p = scatteredPlacement(g, 30, 11);
  AsyncEngine engine(g, p.positions, p.ids, makeSchedulerByName("shuffled", 30, 9));
  GeneralAsyncDispersion algo(engine);
  algo.start();
  engine.run(4000000);
  EXPECT_TRUE(algo.dispersed());
  EXPECT_EQ(engine.totalMoves(), 0u);
  EXPECT_EQ(engine.positionsSnapshot(), p.positions);
}

TEST(GeneralAsync, SubsumptionFiresWhenTreesCollide) {
  // k = n with several clusters on a small graph: trees must meet, and the
  // meetings must resolve by subsumption (collapse or self-collapse+march).
  const Graph g = makeGraph("path", 36, 13);
  RunOut run(g, 36, 4, "uniform", 5);
  ASSERT_TRUE(run.algo.dispersed());
  EXPECT_GT(run.algo.stats().meetings, 0u);
  EXPECT_GT(run.algo.stats().subsumptions, 0u);
  // Exactly one group survives with all agents; the rest dissolved or were
  // stripped to zero members.
  std::uint32_t alive = 0;
  for (std::uint32_t gi = 0; gi < run.algo.groupCount(); ++gi) {
    const auto s = run.algo.groupSnapshot(gi);
    if (!s.dissolved && s.total > 0) ++alive;
    EXPECT_EQ(s.unsettled, 0u) << "g" << gi;
  }
  EXPECT_GE(alive, 1u);
}

TEST(GeneralAsync, GuestsAreRecruitedOnDenseGraphs) {
  // On a clique every probe of an occupied neighbor recruits a guest; the
  // doubling mechanism must kick in even with multiple source trees.
  const Graph g = makeComplete(24).build();
  RunOut run(g, 24, 3, "uniform", 9);
  ASSERT_TRUE(run.algo.dispersed());
  EXPECT_GT(run.algo.stats().guestsRecruited, 0u);
  EXPECT_GT(run.algo.stats().seeOffSweeps, 0u);
}

TEST(GeneralAsync, InTransitHelperRegression) {
  // §4.3 regression: the weighted scheduler starves a subset of agents so
  // guests and escorts are routinely in transit when the rest of the
  // protocol wants to act.  Without the escort-order-consumed check in
  // Guest_See_Off (see async_growth.cpp), a stale escort order pulls a
  // settler away from its node mid-protocol and some seed below ends
  // un-dispersed or with a settler off its node.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = makeComplete(20).build();
    RunOut run(g, 20, 2, "weighted", seed);
    ASSERT_TRUE(run.algo.dispersed()) << "seed " << seed;
    for (AgentIx a = 0; a < run.engine.agentCount(); ++a) {
      const auto s = run.algo.snapshot(a);
      EXPECT_TRUE(s.settled) << "seed " << seed << " a" << a;
      EXPECT_FALSE(s.isGuest) << "seed " << seed << " a" << a;
      EXPECT_EQ(run.engine.positionOf(a), s.settledAt) << "seed " << seed << " a" << a;
    }
    EXPECT_GT(run.algo.stats().guestsRecruited, 0u) << "seed " << seed;
  }
}

TEST(GeneralAsync, RescanMeetingIsNotDiscarded) {
  // Regression: a meeting discovered by the root-exhausted rescan used to
  // be thrown away — the main loop re-probed the stopping node, clearing
  // probeMet_ and exiting at once on the exhausted `checked` counter, so
  // the group rescanned forever and the engine hit its activation cap.
  // This configuration reproduced the livelock under every scheduler.
  const Graph g = makeGraph("randtree", 40, 13);
  for (const char* sched : {"round_robin", "shuffled", "uniform", "weighted"}) {
    const Placement p = clusteredPlacement(g, 32, 3, 113);
    AsyncEngine engine(g, p.positions, p.ids, makeSchedulerByName(sched, 32, 13));
    GeneralAsyncDispersion algo(engine);
    algo.start();
    engine.run(20000000ULL);
    EXPECT_TRUE(algo.dispersed()) << sched;
  }
}

TEST(GeneralAsync, ManySchedulerSeeds) {
  // Interleaving fuzz: dispersion must hold across activation orders.
  const Graph g = makeGraph("er", 40, 23);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunOut run(g, 32, 4, "uniform", seed);
    EXPECT_TRUE(run.algo.dispersed()) << "seed " << seed;
  }
}

TEST(GeneralAsync, EpochsNearKLogK) {
  // Epoch count grows like k·log k (Theorem 8.2's headline): the ratio
  // epochs/(k·log2 k) must not blow up as k doubles.
  const Graph g = makeGraph("er", 400, 13);
  double prev = 0;
  for (std::uint32_t k : {32u, 64u, 128u}) {
    RunOut run(g, k, 4, "round_robin", 6);
    ASSERT_TRUE(run.algo.dispersed()) << k;
    const double ratio = static_cast<double>(run.engine.epochs()) /
                         (k * std::log2(static_cast<double>(k)));
    if (prev > 0) {
      EXPECT_LT(ratio, prev * 2.0) << "k=" << k;
    }
    prev = ratio;
  }
}

TEST(GeneralAsync, MemoryLogarithmic) {
  const Graph g = makeGraph("er", 200, 15);
  RunOut run(g, 128, 8, "uniform", 8);
  ASSERT_TRUE(run.algo.dispersed());
  const auto w = BitWidths::forRun(4ULL * 128, g.maxDegree(), 128);
  EXPECT_LE(run.engine.memory().maxBits(), 48ULL * (w.id + w.port + w.count));
}

TEST(GeneralAsync, DeterministicUnderRoundRobin) {
  const Graph g = makeGraph("grid", 49, 3);
  std::uint64_t firstEpochs = 0, firstMoves = 0;
  for (int rep = 0; rep < 2; ++rep) {
    RunOut run(g, 40, 4, "round_robin", 11);
    ASSERT_TRUE(run.algo.dispersed());
    if (rep == 0) {
      firstEpochs = run.engine.epochs();
      firstMoves = run.engine.totalMoves();
    } else {
      EXPECT_EQ(run.engine.epochs(), firstEpochs);
      EXPECT_EQ(run.engine.totalMoves(), firstMoves);
    }
  }
}

TEST(GeneralAsync, FullOccupancyOnTree) {
  const Graph g = makeRandomTree(40, 3).build();
  RunOut run(g, 40, 5, "shuffled", 2);
  ASSERT_TRUE(run.algo.dispersed());
  auto pos = run.engine.positionsSnapshot();
  std::sort(pos.begin(), pos.end());
  for (NodeId v = 0; v < 40; ++v) EXPECT_EQ(pos[v], v);
}

}  // namespace
}  // namespace disp
