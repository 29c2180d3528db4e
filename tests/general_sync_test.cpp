// Tests for GeneralSyncDispersion: general initial configurations (ℓ
// groups) with KS subsumption, plus the ℓ = 1 rooted mode that doubles as
// the Sudo-style O(k log k) baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/general_sync.hpp"
#include "algo/placement.hpp"
#include "algo/runner.hpp"
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
};

std::string caseName(const ::testing::TestParamInfo<Case>& info) {
  return info.param.family + "_k" + std::to_string(info.param.k) + "_l" +
         std::to_string(info.param.clusters);
}

struct RunOut {
  RunOut(const Graph& g, std::uint32_t k, std::uint32_t clusters, std::uint64_t seed)
      : placement(clusteredPlacement(g, k, clusters, seed)),
        engine(g, placement.positions, placement.ids),
        algo(engine) {
    algo.start();
    engine.run(/*maxRounds=*/5000ULL * k * 2 + 400000);
  }
  Placement placement;
  SyncEngine engine;
  GeneralSyncDispersion algo;
};

class GeneralSyncTest : public ::testing::TestWithParam<Case> {};

TEST_P(GeneralSyncTest, Disperses) {
  const auto& [family, n, k, clusters] = GetParam();
  const Graph g = makeGraph(family, n, 51);
  RunOut run(g, k, clusters, 13);
  EXPECT_TRUE(run.algo.dispersed()) << family << " l=" << clusters;
  EXPECT_TRUE(isDispersed(run.engine.positionsSnapshot()));
  EXPECT_EQ(run.algo.groupCount(), clusters);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, GeneralSyncTest,
    ::testing::Values(Case{"path", 64, 48, 1}, Case{"path", 64, 48, 2},
                      Case{"path", 64, 48, 4}, Case{"er", 64, 48, 2},
                      Case{"er", 64, 48, 6}, Case{"er", 64, 48, 12},
                      Case{"star", 60, 40, 3}, Case{"grid", 64, 48, 4},
                      Case{"randtree", 70, 50, 5}, Case{"cycle", 48, 36, 3},
                      Case{"complete", 24, 20, 4}, Case{"bintree", 63, 44, 4},
                      Case{"regular", 48, 40, 8}, Case{"lollipop", 36, 28, 2},
                      Case{"hypercube", 64, 48, 4}, Case{"caterpillar", 60, 40, 6}),
    caseName);

TEST(GeneralSync, AlreadyDispersedConfigurationTerminatesImmediately) {
  const Graph g = makeGraph("er", 50, 7);
  const Placement p = scatteredPlacement(g, 30, 5);
  SyncEngine engine(g, p.positions, p.ids);
  GeneralSyncDispersion algo(engine);
  algo.start();
  engine.run(10000);
  EXPECT_TRUE(algo.dispersed());
  EXPECT_LE(engine.round(), 2u);  // nothing to do
}

TEST(GeneralSync, TwoSingletonGroups) {
  const Graph g = makePath(6).build();
  const Placement p = clusteredPlacement(g, 2, 2, 9);
  SyncEngine engine(g, p.positions, p.ids);
  GeneralSyncDispersion algo(engine);
  algo.start();
  engine.run(10000);
  EXPECT_TRUE(algo.dispersed());
}

TEST(GeneralSync, MeetingsHappenWhenGroupsCollide) {
  // Two groups starting on different leaves of a star must both route
  // through the hub, so whichever settles it second meets the other tree;
  // one tree subsumes the other and dispersion still completes.
  const Graph g = makeStar(40).build();
  Placement p;
  for (std::uint32_t i = 0; i < 40; ++i) {
    p.positions.push_back(i < 26 ? 1 : 2);
  }
  p.ids = randomIds(40, 3);
  SyncEngine engine(g, p.positions, p.ids);
  GeneralSyncDispersion algo(engine);
  algo.start();
  engine.run(1000000);
  EXPECT_TRUE(algo.dispersed());
  EXPECT_GE(algo.stats().meetings, 1u);
  EXPECT_GE(algo.stats().subsumptions, 1u);
}

TEST(GeneralSync, RootedModeIsKLogKShaped) {
  // ℓ = 1: the helper-doubling baseline.  epochs/(k log k) must stay
  // roughly flat as k doubles (this is the Sudo-style bound).
  const Graph g = makeGraph("er", 500, 3);
  double prev = 0;
  for (std::uint32_t k : {64u, 128u, 256u}) {
    const Placement p = rootedPlacement(g, k, 0, 5);
    SyncEngine engine(g, p.positions, p.ids);
    GeneralSyncDispersion algo(engine);
    algo.start();
    engine.run(50000000ULL);
    ASSERT_TRUE(algo.dispersed()) << k;
    const double ratio = static_cast<double>(engine.round()) /
                         (k * std::log2(static_cast<double>(k)));
    if (prev > 0) {
      EXPECT_LT(ratio, prev * 1.6) << k;
    }
    prev = ratio;
  }
}

TEST(GeneralSync, ManySeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = makeGraph("er", 48, seed);
    RunOut run(g, 36, 3, seed);
    EXPECT_TRUE(run.algo.dispersed()) << "seed " << seed;
  }
}

TEST(GeneralSync, ClusterSweepOnOneGraph) {
  const Graph g = makeGraph("er", 60, 17);
  for (std::uint32_t l : {1u, 2u, 3u, 5u, 8u, 16u, 40u}) {
    RunOut run(g, 40, l, 23);
    EXPECT_TRUE(run.algo.dispersed()) << "l=" << l;
  }
}

TEST(GeneralSync, Seed3GridFrozenAbsorbRegression) {
  // Pinned repro of the seed-dependent round-cap divergence the exp driver
  // surfaced (`disp_bench table1_sync_general --seeds=3`, grid k=64 ℓ=8):
  // a fully dispersed group absorbed a marcher group *while frozen* by a
  // winner, whose collapse walk collects only tree settlers — the absorbed
  // members were orphaned unsettled when the frozen fiber parked, and the
  // surviving group waited on them forever.  absorbMarchers now refuses to
  // absorb while frozen/dissolved (the §4.7 junction-locking discipline;
  // DESIGN.md §4.7) and the marchers re-route to the eventual winner.
  const Graph g = makeGraph("grid", 128, 3);
  RunOut run(g, 64, 8, 3);
  EXPECT_TRUE(run.algo.dispersed());
  EXPECT_EQ(run.engine.settledCount(), 64u);
}

TEST(GeneralSync, RescanMeetingIsNotDiscarded) {
  // Regression: a meeting discovered by the root-exhausted rescan used to
  // be thrown away — the group fiber re-probed the stopping node, clearing
  // probeMet_ and finding nothing on the exhausted `checked` counter, so
  // the group rescanned forever and the engine hit its round cap (k=32
  // seed 1 and k=64 seed 9 below).
  for (const std::uint32_t k : {32u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      RunOptions opts;
      opts.algorithm = "general_sync";
      opts.seed = seed;
      RunResult r;
      EXPECT_NO_THROW(r = runScenario("randtree", "clusters:l=8", k, opts))
          << "k=" << k << " seed " << seed;
      EXPECT_TRUE(r.dispersed) << "k=" << k << " seed " << seed;
    }
  }
}

TEST(GeneralSync, MemoryLogarithmic) {
  const Graph g = makeGraph("er", 120, 29);
  RunOut run(g, 96, 4, 7);
  ASSERT_TRUE(run.algo.dispersed());
  const auto w = BitWidths::forRun(4ULL * 96, g.maxDegree(), 96);
  EXPECT_LE(run.engine.memory().maxBits(), 32ULL * (w.id + w.port + w.count));
}

}  // namespace
}  // namespace disp
