// Guard rails for the ASYNC protocol probe indexes (algo/probe_index.hpp,
// DESIGN.md §9):
//  * randomized fuzz of IdleProberIndex and GroupPositionIndex against
//    obviously-correct naive models, replaying thousands of membership /
//    position / relabel transitions — buckets, counts and consolidation
//    verdicts must match after every step;
//  * end-to-end protocol runs on both index consumers (rooted_async,
//    general_async); in debug builds every availableProbersAt /
//    groupConsolidatedAt call additionally cross-checks the index against
//    the naive occupant scan it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "algo/probe_index.hpp"
#include "algo/runner.hpp"
#include "graph/spec.hpp"

namespace disp {
namespace {

// ------------------------------------------- IdleProberIndex fuzz

/// The naive model: membership flags + positions, bucket = filter + sort.
struct NaiveProberModel {
  std::vector<bool> member;
  std::vector<NodeId> pos;

  NaiveProberModel(std::uint32_t agents, NodeId /*nodes*/)
      : member(agents, false), pos(agents, kInvalidNode) {}

  [[nodiscard]] std::vector<AgentIx> membersAt(NodeId v) const {
    std::vector<AgentIx> out;
    for (AgentIx a = 0; a < member.size(); ++a) {
      if (member[a] && pos[a] == v) out.push_back(a);
    }
    return out;
  }
};

void expectSameBucket(const IdleProberIndex& idx, const NaiveProberModel& ref,
                      NodeId v) {
  std::vector<AgentIx> got = idx.membersAt(v);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, ref.membersAt(v)) << "node " << v;
}

TEST(IdleProberIndexFuzz, MatchesNaiveModelUnderRandomTransitions) {
  constexpr std::uint32_t kAgents = 48;
  constexpr NodeId kNodes = 16;
  constexpr std::uint32_t kSteps = 20000;
  std::mt19937_64 rng(20250807);

  IdleProberIndex idx(kAgents, kNodes);
  NaiveProberModel ref(kAgents, kNodes);

  for (std::uint32_t step = 0; step < kSteps; ++step) {
    const auto a = static_cast<AgentIx>(rng() % kAgents);
    const auto v = static_cast<NodeId>(rng() % kNodes);
    const NodeId before = ref.member[a] ? ref.pos[a] : kInvalidNode;
    switch (rng() % 3) {
      case 0:  // membership on (settle-undo / guest recruit)
        if (!ref.member[a]) {
          idx.insert(a, v);
          ref.member[a] = true;
          ref.pos[a] = v;
        }
        break;
      case 1:  // membership off (settle / guest goes home)
        if (ref.member[a]) {
          idx.erase(a);
          ref.member[a] = false;
        }
        break;
      default:  // position change (move hook); non-members must be ignored
        idx.relocate(a, v);
        if (ref.member[a]) ref.pos[a] = v;
        break;
    }
    ASSERT_EQ(idx.contains(a), ref.member[a]);
    expectSameBucket(idx, ref, v);
    if (before != kInvalidNode) expectSameBucket(idx, ref, before);
    if (step % 500 == 0) {
      for (NodeId u = 0; u < kNodes; ++u) expectSameBucket(idx, ref, u);
    }
  }
}

// ----------------------------------------- GroupPositionIndex fuzz

/// The naive model: (label, node, settled) per agent; consolidation by scan.
struct NaiveGroupModel {
  std::vector<std::uint32_t> label;
  std::vector<NodeId> pos;
  std::vector<bool> settled;

  NaiveGroupModel(std::uint32_t agents, std::uint32_t labels, NodeId nodes,
                  std::mt19937_64& rng)
      : label(agents), pos(agents), settled(agents, false) {
    for (AgentIx a = 0; a < agents; ++a) {
      label[a] = static_cast<std::uint32_t>(rng() % labels);
      pos[a] = static_cast<NodeId>(rng() % nodes);
    }
  }

  [[nodiscard]] std::uint32_t unsettledCount(std::uint32_t l) const {
    std::uint32_t n = 0;
    for (AgentIx a = 0; a < label.size(); ++a) n += (label[a] == l && !settled[a]);
    return n;
  }

  [[nodiscard]] std::uint32_t countAt(std::uint32_t l, NodeId v) const {
    std::uint32_t n = 0;
    for (AgentIx a = 0; a < label.size(); ++a) {
      n += (label[a] == l && !settled[a] && pos[a] == v);
    }
    return n;
  }

  [[nodiscard]] bool consolidatedAt(std::uint32_t l, NodeId v) const {
    bool any = false;
    for (AgentIx a = 0; a < label.size(); ++a) {
      if (label[a] != l || settled[a]) continue;
      if (pos[a] != v) return false;
      any = true;
    }
    return any;
  }
};

TEST(GroupPositionIndexFuzz, MatchesNaiveModelUnderRandomTransitions) {
  constexpr std::uint32_t kAgents = 40;
  constexpr std::uint32_t kLabels = 5;
  constexpr NodeId kNodes = 12;
  constexpr std::uint32_t kSteps = 20000;
  std::mt19937_64 rng(777);

  NaiveGroupModel ref(kAgents, kLabels, kNodes, rng);
  GroupPositionIndex idx(kLabels);
  for (AgentIx a = 0; a < kAgents; ++a) idx.add(ref.label[a], ref.pos[a]);

  for (std::uint32_t step = 0; step < kSteps; ++step) {
    const auto a = static_cast<AgentIx>(rng() % kAgents);
    const auto v = static_cast<NodeId>(rng() % kNodes);
    const auto l = static_cast<std::uint32_t>(rng() % kLabels);
    switch (rng() % 4) {
      case 0:  // settle at current node
        if (!ref.settled[a]) {
          idx.remove(ref.label[a], ref.pos[a]);
          ref.settled[a] = true;
        }
        break;
      case 1:  // unsettle (collapse walk collects a settler; may relabel)
        if (ref.settled[a]) {
          ref.label[a] = l;
          idx.add(l, ref.pos[a]);
          ref.settled[a] = false;
        }
        break;
      case 2:  // relabel an unsettled agent in place (adopt / absorb)
        if (!ref.settled[a] && ref.label[a] != l) {
          idx.remove(ref.label[a], ref.pos[a]);
          idx.add(l, ref.pos[a]);
          ref.label[a] = l;
        }
        break;
      default:  // move (the engine hook fires for unsettled members only)
        if (!ref.settled[a]) idx.move(ref.label[a], ref.pos[a], v);
        ref.pos[a] = v;
        break;
    }
    ASSERT_EQ(idx.unsettledCount(l), ref.unsettledCount(l));
    ASSERT_EQ(idx.countAt(l, v), ref.countAt(l, v));
    ASSERT_EQ(idx.consolidatedAt(l, v), ref.consolidatedAt(l, v));
    if (step % 500 == 0) {
      for (std::uint32_t li = 0; li < kLabels; ++li) {
        for (NodeId u = 0; u < kNodes; ++u) {
          ASSERT_EQ(idx.consolidatedAt(li, u), ref.consolidatedAt(li, u))
              << "label " << li << " node " << u;
        }
      }
    }
  }
}

// ------------------------------------- protocol-level equivalence

// Drives both index consumers end to end across schedulers and seeds.  In
// debug builds every query re-runs the naive scan and DISP_CHECKs equality,
// so a single dispersal here exercises thousands of index/naive
// comparisons under real protocol transition patterns (recruit, see-off,
// collapse, absorb, squatting retreats).
TEST(ProbeIndexProtocols, IndexedQueriesDisperseUnderEverySchedulerShape) {
  const char* scheds[] = {"round_robin", "uniform", "weighted:16", "shuffled"};
  for (const char* sched : scheds) {
    for (const std::uint64_t seed : {7ULL, 23ULL}) {
      RunOptions opts;
      opts.scheduler = sched;
      opts.seed = seed;

      opts.algorithm = "rooted_async";
      const RunResult rooted = runScenario("er", "rooted", 48, opts);
      EXPECT_TRUE(rooted.dispersed) << sched << " seed " << seed;

      opts.algorithm = "general_async";
      const RunResult general = runScenario("er", "clusters:l=4", 48, opts);
      EXPECT_TRUE(general.dispersed) << sched << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace disp
