// Guard rails for the simulator hot-path data structures (see DESIGN.md
// "Hot-path data structures"):
//  * a randomized occupancy fuzz test replaying thousands of moves against
//    a naive reference model — positions, pins, sorted agentsAt() views,
//    O(1) counts and totalMoves must match after every step;
//  * an AsyncEngine epoch regression pinned to the values the epoch-stamp
//    accounting must reproduce exactly (epochs are simulation facts).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "algo/placement.hpp"
#include "algo/runner.hpp"
#include "core/world.hpp"
#include "graph/generators.hpp"
#include "graph/spec.hpp"

namespace disp {
namespace {

// ------------------------------------------------- occupancy fuzz

/// The obviously-correct model the optimized World must agree with.
struct NaiveOccupancy {
  std::vector<NodeId> pos;
  std::vector<Port> pin;
  std::vector<std::vector<AgentIx>> at;
  std::uint64_t moves = 0;

  NaiveOccupancy(const Graph& g, const std::vector<NodeId>& start)
      : pos(start), pin(start.size(), kNoPort), at(g.nodeCount()) {
    for (AgentIx a = 0; a < pos.size(); ++a) at[pos[a]].push_back(a);
    for (auto& v : at) std::sort(v.begin(), v.end());
  }

  void move(const Graph& g, AgentIx a, Port p) {
    const NodeId from = pos[a];
    const NodeId to = g.neighbor(from, p);
    auto& f = at[from];
    f.erase(std::find(f.begin(), f.end(), a));
    auto& t = at[to];
    t.insert(std::upper_bound(t.begin(), t.end(), a), a);
    pos[a] = to;
    pin[a] = g.reversePort(from, p);
    ++moves;
  }
};

std::vector<AgentId> seqIds(std::uint32_t k) {
  std::vector<AgentId> ids(k);
  for (std::uint32_t i = 0; i < k; ++i) ids[i] = i + 1;
  return ids;
}

void fuzzWorld(const Graph& g, std::uint32_t k, std::uint32_t steps,
               std::uint32_t querySkip, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<NodeId> start(k);
  for (auto& v : start) v = static_cast<NodeId>(rng() % g.nodeCount());

  World world(g, start, seqIds(k));
  NaiveOccupancy ref(g, start);

  for (std::uint32_t step = 0; step < steps; ++step) {
    const auto a = static_cast<AgentIx>(rng() % k);
    const Port deg = g.degree(world.positionOf(a));
    ASSERT_GE(deg, 1u);  // families used here are connected
    const Port p = 1 + static_cast<Port>(rng() % deg);
    world.applyMove(a, p);
    ref.move(g, a, p);

    ASSERT_EQ(world.totalMoves(), ref.moves);
    ASSERT_EQ(world.positionOf(a), ref.pos[a]);
    ASSERT_EQ(world.pinOf(a), ref.pin[a]);
    // Exercise the lazy view machinery under every access pattern: query
    // only an occasional node most steps (so pending logs pile up and
    // overflow into full rebuilds), and everything every querySkip steps.
    const NodeId touched = ref.pos[a];
    ASSERT_EQ(world.countAt(touched), ref.at[touched].size());
    if (step % querySkip == querySkip - 1) {
      for (NodeId v = 0; v < g.nodeCount(); ++v) {
        ASSERT_EQ(world.countAt(v), ref.at[v].size()) << "node " << v;
        const std::vector<AgentIx>& view = world.agentsAt(v);
        ASSERT_TRUE(std::is_sorted(view.begin(), view.end())) << "node " << v;
        ASSERT_EQ(view, ref.at[v]) << "node " << v;
      }
    }
  }
  // Final full sweep regardless of step count.
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    ASSERT_EQ(world.agentsAt(v), ref.at[v]) << "node " << v;
  }
}

TEST(WorldOccupancyFuzz, DenseGraphManyCollisions) {
  const Graph g = makeGraph("complete", 12, 3);
  fuzzWorld(g, 12, 6000, 7, 0xfeedULL);
}

TEST(WorldOccupancyFuzz, SparsePathLongChains) {
  const Graph g = makeGraph("path", 40, 5);
  fuzzWorld(g, 25, 6000, 13, 0xbeefULL);
}

TEST(WorldOccupancyFuzz, ErMidDensityEveryStepChecked) {
  const Graph g = makeGraph("er", 64, 11);
  // querySkip=1: the sorted views are validated after every single move,
  // so the log-replay path (small pending batches) is covered too.
  fuzzWorld(g, 48, 2500, 1, 0x1234ULL);
}

TEST(WorldOccupancyFuzz, BurstyGroupMoves) {
  // Group bursts: many agents funneled through the same node, stressing
  // log overflow -> full rebuild -> reverse-detection.
  const Graph g = makeGraph("star", 24, 9);
  fuzzWorld(g, 24, 8000, 11, 0x5eedULL);
}

// --------------------------------------------- epoch regression

struct EpochCase {
  const char* algo;
  const char* family;
  std::uint32_t k;
  std::uint32_t clusters;
  const char* scheduler;
  std::uint64_t seed;
  std::uint64_t epochs;
  std::uint64_t activations;
  std::uint64_t moves;
};

// Pinned to the values produced by the pre-overhaul engine (std::fill epoch
// accounting, vector-of-vectors occupancy).  Epochs / activations / moves
// are simulation facts: any drift here is a correctness bug, not a perf
// regression.
constexpr EpochCase kEpochCases[] = {
    {"rooted_async", "er", 64, 1, "round_robin", 5, 707ULL, 45202ULL, 3948ULL},
    {"rooted_async", "er", 96, 1, "uniform", 23, 428ULL, 212222ULL, 7726ULL},
    {"ks_async", "star", 32, 1, "round_robin", 11, 62ULL, 1958ULL, 961ULL},
    {"general_async", "er", 64, 4, "weighted", 9, 219ULL, 131341ULL, 4662ULL},
    {"general_async", "grid", 128, 16, "shuffled", 9, 2262ULL, 289524ULL,
     21931ULL},
    {"ks_async", "complete", 64, 1, "uniform", 5, 101ULL, 29190ULL, 2588ULL},
};

TEST(AsyncEpochRegression, EpochStampAccountingMatchesPinnedValues) {
  for (const EpochCase& c : kEpochCases) {
    const Graph g = makeGraph(c.family, 2 * c.k, c.seed);
    const Placement p = c.clusters == 1
                            ? rootedPlacement(g, c.k, 0, c.seed)
                            : clusteredPlacement(g, c.k, c.clusters, c.seed);
    RunOptions opts;
    opts.algorithm = c.algo;
    opts.scheduler = c.scheduler;
    opts.seed = c.seed;
    const RunResult r = runSession(g, p, opts);
    const std::string what = std::string(c.algo) + " " + c.family +
                             " k=" + std::to_string(c.k) + " sched=" + c.scheduler;
    EXPECT_TRUE(r.dispersed) << what;
    EXPECT_EQ(r.time, c.epochs) << what;
    EXPECT_EQ(r.activations, c.activations) << what;
    EXPECT_EQ(r.totalMoves, c.moves) << what;
  }
}

}  // namespace
}  // namespace disp
