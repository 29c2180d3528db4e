// Scheduler tests: fairness windows for every activation policy (each
// agent must keep being activated — the ASYNC model's fairness assumption),
// and the parametrized weighted-policy factory syntax.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/scheduler.hpp"

namespace disp {
namespace {

// Longest gap (in draws) between consecutive activations of any agent,
// counting the warm-up gap from draw 0 to an agent's first activation.
std::uint64_t maxActivationGap(Scheduler& sched, std::uint32_t k,
                               std::uint64_t draws) {
  std::vector<std::uint64_t> last(k, 0);
  std::uint64_t maxGap = 0;
  for (std::uint64_t t = 1; t <= draws; ++t) {
    const std::uint32_t a = sched.next();
    EXPECT_LT(a, k);
    maxGap = std::max(maxGap, t - last[a]);
    last[a] = t;
  }
  for (std::uint32_t a = 0; a < k; ++a) {
    EXPECT_GT(last[a], 0u) << "agent " << a << " never activated";
    maxGap = std::max(maxGap, draws + 1 - last[a]);
  }
  return maxGap;
}

struct FairnessCase {
  const char* name;
  std::uint64_t bound;  // max tolerated activation gap at k = 16
};

TEST(Scheduler, EveryPolicyActivatesEveryAgentWithinBoundedWindow) {
  constexpr std::uint32_t k = 16;
  constexpr std::uint64_t draws = 200000;
  // Deterministic given the fixed seed; bounds sit far above the expected
  // maximum gap (k for round_robin, <2k for shuffled, ~k·ln(draws) for
  // uniform, ~pool·ln(draws) for weighted with pool = skew·(k-slow)+slow).
  const std::vector<FairnessCase> cases{
      {"round_robin", 16},
      {"shuffled", 31},
      {"uniform", 2000},
      {"weighted", 8000},       // pool 121, slow agent rate 1/121
      {"weighted:16", 16000},   // pool 241
      {"weighted:4:2", 4000},   // pool 58
  };
  for (const FairnessCase& c : cases) {
    const auto sched = makeSchedulerByName(c.name, k, /*seed=*/99);
    const std::uint64_t gap = maxActivationGap(*sched, k, draws);
    EXPECT_LE(gap, c.bound) << "policy " << c.name;
    EXPECT_GE(gap, 1u);
  }
}

TEST(Scheduler, RoundRobinGapIsExactlyK) {
  constexpr std::uint32_t k = 9;
  const auto sched = makeSchedulerByName("round_robin", k, 1);
  EXPECT_EQ(maxActivationGap(*sched, k, 900), k);
}

TEST(Scheduler, WeightedSuffixConfiguresSkew) {
  // With skew s and one slow agent among k, agent 0 receives a 1/(s(k-1)+1)
  // share of activations; check the empirical share tracks the parameter.
  constexpr std::uint32_t k = 8;
  constexpr std::uint64_t draws = 200000;
  for (const std::uint32_t skew : {2u, 16u}) {
    const auto sched =
        makeSchedulerByName("weighted:" + std::to_string(skew), k, 7);
    std::uint64_t slowHits = 0;
    for (std::uint64_t t = 0; t < draws; ++t) slowHits += sched->next() == 0;
    const double expected = double(draws) / double(skew * (k - 1) + 1);
    EXPECT_NEAR(double(slowHits), expected, expected * 0.2) << "skew " << skew;
  }
}

TEST(Scheduler, WeightedSuffixConfiguresSlowSetSize) {
  constexpr std::uint32_t k = 8;
  constexpr std::uint64_t draws = 200000;
  const auto sched = makeSchedulerByName("weighted:4:3", k, 7);
  // Agents 0-2 are slow (weight 1); 3-7 fast (weight 4): pool = 23.
  std::vector<std::uint64_t> hits(k, 0);
  for (std::uint64_t t = 0; t < draws; ++t) ++hits[sched->next()];
  for (std::uint32_t a = 0; a < 3; ++a) {
    EXPECT_NEAR(double(hits[a]), draws / 23.0, draws / 23.0 * 0.2);
  }
  for (std::uint32_t a = 3; a < k; ++a) {
    EXPECT_NEAR(double(hits[a]), draws * 4 / 23.0, draws * 4 / 23.0 * 0.2);
  }
}

TEST(Scheduler, DefaultWeightedMatchesHistoricalEightXOnAgentZero) {
  // "weighted" must stay equivalent to "weighted:8:1" so existing sweep
  // results remain reproducible.
  const auto a = makeSchedulerByName("weighted", 12, 123);
  const auto b = makeSchedulerByName("weighted:8:1", 12, 123);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(a->next(), b->next());
}

// FNV-1a over the first `draws` picks: a fingerprint of a policy's whole
// activation sequence.
std::uint64_t drawHash(Scheduler& sched, std::uint64_t draws) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t t = 0; t < draws; ++t) {
    h ^= sched.next();
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GoldenCase {
  const char* name;
  std::uint32_t k;
  std::uint64_t hash;
};

// Every recorded ASYNC fact (BENCH_table1.jsonl, BENCH_faults.jsonl, the
// benchmark reference) is a function of these sequences, so a faster draw
// must reproduce them exactly.  k = 509 (prime) exercises the cursor wrap
// and rejection bounds a power of two would not.
TEST(Scheduler, DrawSequencesMatchGoldenHashes) {
  const std::vector<GoldenCase> cases{
      {"round_robin", 512, 14364965002063064389ULL},
      {"uniform", 512, 10801720519518935484ULL},
      {"shuffled", 512, 1011779478151377351ULL},
      {"weighted", 512, 9119638929087011900ULL},
      {"weighted:4", 512, 43338284651952051ULL},
      {"round_robin", 509, 2985582005038184041ULL},
      {"uniform", 509, 10491920366524159809ULL},
      {"weighted:3:7", 509, 4898619319704441754ULL},
  };
  for (const GoldenCase& c : cases) {
    const auto sched = makeSchedulerByName(c.name, c.k, /*seed=*/7);
    EXPECT_EQ(drawHash(*sched, 100000), c.hash) << c.name << " k=" << c.k;
  }
}

TEST(Scheduler, RejectsMalformedNames) {
  EXPECT_THROW((void)makeSchedulerByName("weighted:", 4, 1), std::invalid_argument);
  EXPECT_THROW((void)makeSchedulerByName("weighted:0", 4, 1), std::invalid_argument);
  EXPECT_THROW((void)makeSchedulerByName("weighted:8:0", 4, 1), std::invalid_argument);
  EXPECT_THROW((void)makeSchedulerByName("weighted:8:9", 4, 1), std::invalid_argument);
  EXPECT_THROW((void)makeSchedulerByName("weighted:x", 4, 1), std::invalid_argument);
  EXPECT_THROW((void)makeSchedulerByName("weighted:8:1:2", 4, 1),
               std::invalid_argument);
  EXPECT_THROW((void)makeSchedulerByName("nope", 4, 1), std::invalid_argument);
}

TEST(Scheduler, KnownSchedulersAllConstruct) {
  for (const std::string& name : knownSchedulers()) {
    EXPECT_NE(makeSchedulerByName(name, 5, 3), nullptr) << name;
  }
}

}  // namespace
}  // namespace disp
