// Tests for the src/exp/ experiment driver: sweep enumeration, the batch
// runner's thread-count invariance (bit-identical cells for 1 vs 4+
// workers), concurrent runSession calls on shared Graph instances, and
// the JSONL sink format.  The *Concurrent* tests are the TSan targets.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include <cstdlib>

#include "algo/placement.hpp"
#include "algo/runner.hpp"
#include "exp/batch_runner.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/spec.hpp"

namespace disp::exp {
namespace {

void expectSameRun(const RunResult& a, const RunResult& b, const std::string& what) {
  EXPECT_EQ(a.dispersed, b.dispersed) << what;
  EXPECT_EQ(a.time, b.time) << what;
  EXPECT_EQ(a.activations, b.activations) << what;
  EXPECT_EQ(a.totalMoves, b.totalMoves) << what;
  EXPECT_EQ(a.maxMemoryBits, b.maxMemoryBits) << what;
  EXPECT_EQ(a.finalPositions, b.finalPositions) << what;
}

BatchRunner runnerWith(unsigned threads) {
  BatchOptions options;
  options.threads = threads;
  return BatchRunner(options);
}

SweepSpec smallSpec() {
  SweepSpec spec;
  spec.name = "test";
  spec.graphs = {"er", "star"};
  spec.ks = {12, 24};
  spec.algorithms = {"rooted_sync", "ks_async",
                     "general_async"};
  spec.placements = {"rooted", "clusters:l=3"};
  spec.schedulers = {"round_robin", "uniform"};
  spec.seeds = {1, 2, 3};
  return spec;
}

TEST(Sweep, EnumeratesCellsInCanonicalOrder) {
  const SweepSpec spec = smallSpec();
  const auto keys = enumerateCells(spec);
  ASSERT_EQ(keys.size(), spec.cellCount());
  ASSERT_EQ(keys.size(), 2u * 2u * 3u * 2u * 2u);
  // graph ▸ k ▸ placement ▸ scheduler ▸ algorithm.
  EXPECT_EQ(keys[0].graph, "er");
  EXPECT_EQ(keys[0].k, 12u);
  EXPECT_EQ(keys[0].placement, "rooted");
  EXPECT_EQ(keys[0].scheduler, "round_robin");
  EXPECT_EQ(keys[0].algorithm, "rooted_sync");
  EXPECT_EQ(keys[1].algorithm, "ks_async");
  EXPECT_EQ(keys[3].scheduler, "uniform");
  EXPECT_EQ(keys[6].placement, "clusters:l=3");
  EXPECT_EQ(keys.back().graph, "star");
  EXPECT_EQ(keys.back().k, 24u);
  EXPECT_EQ(keys.back().algorithm, "general_async");
}

TEST(Sweep, RejectsEmptyAxes) {
  SweepSpec spec = smallSpec();
  spec.ks.clear();
  EXPECT_THROW((void)enumerateCells(spec), std::invalid_argument);
}

// The faults axis: innermost in the enumeration, canonicalized, validated
// up front, defaulted to {"none"} so historical sweeps are unchanged.
TEST(Sweep, FaultsAxisEnumeratesInnermostAndCanonicalizes) {
  SweepSpec spec = smallSpec();
  spec.faults = {"none", "crash:restart=064,rate=0.25"};
  const auto keys = enumerateCells(spec);
  ASSERT_EQ(keys.size(), spec.cellCount());
  ASSERT_EQ(keys.size(), 2u * 2u * 3u * 2u * 2u * 2u);
  EXPECT_EQ(keys[0].faults, "none");
  EXPECT_EQ(keys[1].faults, "crash:rate=0.25,restart=64");  // canonical
  EXPECT_EQ(keys[0].algorithm, keys[1].algorithm);  // innermost axis
  // describe() elides the fault-free load (historical labels unchanged)
  // and names any other.
  EXPECT_EQ(keys[0].describe().find("faults="), std::string::npos);
  EXPECT_NE(keys[1].describe().find("faults=crash:rate=0.25,restart=64"),
            std::string::npos);

  spec.faults = {"crash:nope=1"};
  EXPECT_THROW((void)enumerateCells(spec), std::invalid_argument);
  spec.faults.clear();
  EXPECT_THROW((void)enumerateCells(spec), std::invalid_argument);
}

// A sweep whose faults axis is the default singleton {"none"} must produce
// byte-identical cells to one that never mentions the axis — the
// zero-overhead guard at the sweep layer.
TEST(Sweep, DefaultFaultsAxisLeavesCellsByteIdentical) {
  SweepSpec spec = smallSpec();
  spec.graphs = {"er"};
  spec.ks = {16};
  spec.seeds = {1, 2};
  const SweepResult plain = runnerWith(1).run(spec);

  SweepSpec explicitNone = spec;
  explicitNone.faults = {"none"};
  const SweepResult none = runnerWith(1).run(explicitNone);

  ASSERT_EQ(plain.cells.size(), none.cells.size());
  for (std::size_t i = 0; i < plain.cells.size(); ++i) {
    EXPECT_EQ(plain.cells[i].key, none.cells[i].key);
    ASSERT_EQ(plain.cells[i].replicates.size(), none.cells[i].replicates.size());
    for (std::size_t r = 0; r < plain.cells[i].replicates.size(); ++r) {
      expectSameRun(plain.cells[i].replicates[r].run,
                    none.cells[i].replicates[r].run,
                    plain.cells[i].key.describe());
    }
  }

  // Faulted cells resolve through at() with any equivalent spelling.
  SweepSpec faulted = spec;
  faulted.ks = {12};
  faulted.algorithms = {"ks_async"};
  faulted.placements = {"rooted"};
  faulted.schedulers = {"round_robin"};
  faulted.seeds = {1};
  faulted.limit = 100000;
  faulted.faults = {"silent:count=2"};
  const SweepResult res = runnerWith(1).run(faulted);
  const Cell& cell =
      res.at({"er", 12, "rooted", "round_robin", "ks_async", "silent:count=02"});
  ASSERT_TRUE(cell.ran());
  EXPECT_EQ(cell.replicates.front().run.faultsInjected, 2u);
}

TEST(BatchRunner, RejectsUnknownSchedulerNameUpFront) {
  // A typo'd scheduler must fail the sweep loudly, not degrade every async
  // cell into errored replicates.
  SweepSpec spec = smallSpec();
  spec.schedulers = {"round_robbin"};
  EXPECT_THROW((void)runnerWith(1).run(spec), std::invalid_argument);
}

TEST(Sweep, ResultLookupThrowsOnMissingCell) {
  SweepSpec spec = smallSpec();
  spec.seeds = {1};
  const SweepResult res = runnerWith(1).run(spec);
  EXPECT_THROW((void)res.at({"grid", 12, "rooted", "round_robin", "rooted_sync"}),
               std::out_of_range);
  // Lookups canonicalize spec strings first: any equivalent spelling of an
  // existing cell resolves.
  EXPECT_NO_THROW(
      (void)res.at({"er", 12, "clusters:l=03", "round_robin", "rooted_sync"}));
}

TEST(BatchRunner, ParallelIsBitIdenticalToSerial) {
  const SweepSpec spec = smallSpec();
  const SweepResult serial = runnerWith(1).run(spec);
  const SweepResult parallel = runnerWith(4).run(spec);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const Cell& a = serial.cells[i];
    const Cell& b = parallel.cells[i];
    EXPECT_EQ(a.key, b.key);
    ASSERT_EQ(a.replicates.size(), spec.seeds.size());
    ASSERT_EQ(b.replicates.size(), spec.seeds.size());
    for (std::size_t r = 0; r < a.replicates.size(); ++r) {
      const std::string what = a.key.describe() + " seed=" +
                               std::to_string(spec.seeds[r]);
      EXPECT_EQ(a.replicates[r].error, b.replicates[r].error) << what;
      EXPECT_EQ(a.replicates[r].n, b.replicates[r].n) << what;
      EXPECT_EQ(a.replicates[r].edges, b.replicates[r].edges) << what;
      expectSameRun(a.replicates[r].run, b.replicates[r].run, what);
    }
    EXPECT_EQ(a.time.mean, b.time.mean);
    EXPECT_EQ(a.time.median, b.time.median);
  }
}

// Cell-level parallelism under fault injection: each run draws its fault
// schedule from its own seed, so the verdicts (cap, recovery, protocol
// error) and facts of a faulted sweep do not depend on the worker count —
// on every registered protocol.
TEST(BatchRunner, FaultSweepIsBitIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.name = "faults";
  spec.graphs = {"er"};
  spec.ks = {24};
  spec.algorithms = {"rooted_sync",  "general_sync",  "ks_sync",
                     "rooted_async", "general_async", "ks_async"};
  spec.faults = {"none", "crash:rate=0.25,restart=64"};
  spec.seeds = {17, 18};
  spec.limit = 200000;
  const SweepResult serial = runnerWith(1).run(spec);
  const SweepResult parallel = runnerWith(4).run(spec);
  ASSERT_EQ(serial.cells.size(), spec.cellCount());
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  std::uint64_t faultsInjected = 0;
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const Cell& a = serial.cells[i];
    const Cell& b = parallel.cells[i];
    EXPECT_EQ(a.key, b.key);
    ASSERT_EQ(a.replicates.size(), b.replicates.size());
    for (std::size_t r = 0; r < a.replicates.size(); ++r) {
      const std::string what = a.key.describe() + " seed=" +
                               std::to_string(spec.seeds[r]);
      const RunResult& x = a.replicates[r].run;
      const RunResult& y = b.replicates[r].run;
      EXPECT_EQ(a.replicates[r].error, b.replicates[r].error) << what;
      expectSameRun(x, y, what);
      EXPECT_EQ(x.limitHit, y.limitHit) << what;
      EXPECT_EQ(x.recovered, y.recovered) << what;
      EXPECT_EQ(x.recoveredAt, y.recoveredAt) << what;
      EXPECT_EQ(x.faultsInjected, y.faultsInjected) << what;
      EXPECT_EQ(x.protocolError, y.protocolError) << what;
      faultsInjected += x.faultsInjected;
    }
  }
  EXPECT_GT(faultsInjected, 0u);
}

TEST(BatchRunner, MatchesDirectRunCellResults) {
  SweepSpec spec;
  spec.name = "direct";
  spec.graphs = {"er"};
  spec.ks = {16};
  spec.algorithms = {"general_sync"};
  spec.placements = {"clusters:l=4"};
  spec.seeds = {7, 8};
  const SweepResult res = runnerWith(2).run(spec);
  const Cell& cell = res.at({"er", 16, "clusters:l=4", "round_robin", "general_sync"});
  for (std::size_t r = 0; r < spec.seeds.size(); ++r) {
    const RunRecord direct = runCell(
        {"er", 16, "general_sync", "clusters:l=4", "round_robin", spec.seeds[r]});
    expectSameRun(direct.run, cell.replicates[r].run,
                  "seed=" + std::to_string(spec.seeds[r]));
  }
}

TEST(BatchRunner, RecordsLimitErrorsInsteadOfThrowing) {
  SweepSpec spec;
  spec.name = "limited";
  spec.graphs = {"er"};
  spec.ks = {16};
  spec.algorithms = {"rooted_sync"};
  spec.seeds = {1, 2};
  spec.limit = 1;  // guaranteed to hit the round cap
  const SweepResult res = runnerWith(2).run(spec);
  const Cell& cell = res.cells.front();
  EXPECT_FALSE(cell.allDispersed());
  EXPECT_EQ(cell.time.count, 0u);
  for (const RunRecord& r : cell.replicates) {
    EXPECT_FALSE(r.error.empty());
    EXPECT_FALSE(r.run.dispersed);
    EXPECT_EQ(r.n, 32u);  // graph stats still recorded
  }
}

// The re-entrancy guarantee behind the whole driver (DESIGN.md §5):
// concurrent runSession calls sharing immutable Graph instances must
// produce exactly the per-seed results of serial runs.
TEST(RunSession, ConcurrentRunsOnSharedGraphsAreBitIdentical) {
  const Graph er = makeGraph("er", 48, 42);
  const Graph star = makeGraph("star", 48, 42);
  struct Config {
    const Graph* g;
    std::string algo;
    std::uint32_t clusters;
    const char* sched;
    std::uint64_t seed;
  };
  std::vector<Config> configs;
  const char* algos[] = {"rooted_sync",  "rooted_async", "general_sync",
                         "general_async", "ks_sync",     "ks_async"};
  const char* scheds[] = {"round_robin", "uniform", "weighted:16", "shuffled"};
  for (int i = 0; i < 24; ++i) {
    const std::string algo = algos[i % 6];
    const bool general =
        algo == "general_sync" || algo == "general_async";
    configs.push_back({i % 2 ? &star : &er, algo, general ? 3u : 1u,
                       scheds[i % 4], 1000 + std::uint64_t(i)});
  }
  const auto runOne = [](const Config& c) {
    const Placement p = c.clusters == 1
                            ? rootedPlacement(*c.g, 24, 0, c.seed)
                            : clusteredPlacement(*c.g, 24, c.clusters, c.seed);
    RunOptions opts;
    opts.algorithm = c.algo;
    opts.scheduler = c.sched;
    opts.seed = c.seed;
    return runSession(*c.g, p, opts);
  };

  std::vector<RunResult> serial(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) serial[i] = runOne(configs[i]);

  std::vector<RunResult> concurrent(configs.size());
  std::vector<std::thread> pool;
  pool.reserve(8);
  for (unsigned t = 0; t < 8; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < configs.size(); i += 8) {
        concurrent[i] = runOne(configs[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  for (std::size_t i = 0; i < configs.size(); ++i) {
    expectSameRun(serial[i], concurrent[i], "config " + std::to_string(i));
    EXPECT_TRUE(serial[i].dispersed) << i;
  }
}

TEST(ParallelFor, CoversEveryIndexOnceAndPropagatesFirstError) {
  std::vector<int> hits(500, 0);
  parallelFor(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_THROW(parallelFor(4, 8,
                           [](std::size_t i) {
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(Stats, Ci95HalfWidth) {
  EXPECT_EQ(ci95(summarize(std::vector<double>{5.0})), 0.0);
  const Summary s = summarize(std::vector<double>{2.0, 4.0, 6.0, 8.0});
  EXPECT_NEAR(ci95(s), 1.96 * s.stddev / 2.0, 1e-12);
}

TEST(Jsonl, EscapesAndMirrorsTableRows) {
  std::ostringstream os;
  JsonlWriter w(os);
  w.record({{"a", "plain"}, {"q", "has \"quotes\"\nand\tmore"}});
  EXPECT_EQ(os.str(),
            "{\"a\": \"plain\", \"q\": \"has \\\"quotes\\\"\\nand\\tmore\"}\n");

  std::ostringstream md, jl;
  JsonlWriter sink(jl);
  BenchContext ctx{md, &sink, {}, {}};
  Table t({"k", "rounds"});
  t.row().cell(std::uint64_t{8}).cell(std::uint64_t{42});
  emitTable(ctx, "sweep_x", "title y", t);
  EXPECT_NE(md.str().find("| 42"), std::string::npos);
  EXPECT_EQ(jl.str(),
            "{\"sweep\": \"sweep_x\", \"table\": \"title y\", "
            "\"k\": \"8\", \"rounds\": \"42\"}\n");
}

TEST(Sweep, RejectsMalformedSpecAxesUpFront) {
  SweepSpec spec = smallSpec();
  spec.graphs = {"er", "nope:k=1"};
  EXPECT_THROW((void)enumerateCells(spec), std::invalid_argument);
  spec = smallSpec();
  spec.placements = {"cluster:l=3"};  // typo'd kind
  EXPECT_THROW((void)enumerateCells(spec), std::invalid_argument);
}

TEST(Sweep, ScaleRejectsMalformedEnvValue) {
  const char* old = std::getenv("DISP_BENCH_SCALE");
  const std::string saved = old ? old : "";
  const auto restore = [&] {
    if (old) {
      ::setenv("DISP_BENCH_SCALE", saved.c_str(), 1);
    } else {
      ::unsetenv("DISP_BENCH_SCALE");
    }
  };
  ::unsetenv("DISP_BENCH_SCALE");
  EXPECT_EQ(scale(), 1.0);
  ::setenv("DISP_BENCH_SCALE", "2", 1);
  EXPECT_EQ(scale(), 2.0);
  ::setenv("DISP_BENCH_SCALE", "0.5", 1);
  EXPECT_EQ(scale(), 0.5);
  // std::atof would have silently mapped all of these to 0.0, collapsing
  // every kSweep to the minimum; they must fail loudly instead.
  // (An empty value counts as unset, like the shell's `DISP_BENCH_SCALE=`.)
  ::setenv("DISP_BENCH_SCALE", "", 1);
  EXPECT_EQ(scale(), 1.0);
  for (const char* bad : {"abc", "0", "-1", "2x", "nan", "inf"}) {
    ::setenv("DISP_BENCH_SCALE", bad, 1);
    EXPECT_THROW((void)scale(), std::invalid_argument) << "value: " << bad;
  }
  restore();
}

// --shard=I/N semantics: the shards partition the canonical enumeration
// disjointly, each executed cell is bit-identical to the unsharded run,
// and onCellDone never fires for foreign cells.
TEST(BatchRunner, ShardsPartitionCellsDeterministically) {
  const SweepSpec spec = smallSpec();
  const SweepResult full = runnerWith(1).run(spec);

  std::vector<SweepResult> shards;
  std::size_t streamed = 0;
  for (unsigned i = 0; i < 3; ++i) {
    BatchOptions options;
    options.threads = 2;
    options.shardIndex = i;
    options.shardCount = 3;
    options.onCellDone = [&streamed](const Cell& c) {
      EXPECT_TRUE(c.ran());
      ++streamed;
    };
    shards.push_back(BatchRunner(options).run(spec));
  }

  std::size_t ranTotal = 0;
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    std::size_t owners = 0;
    for (const SweepResult& shard : shards) {
      ASSERT_EQ(shard.cells[i].key, full.cells[i].key);
      if (!shard.cells[i].ran()) continue;
      ++owners;
      ++ranTotal;
      ASSERT_EQ(shard.cells[i].replicates.size(), full.cells[i].replicates.size());
      for (std::size_t r = 0; r < full.cells[i].replicates.size(); ++r) {
        expectSameRun(shard.cells[i].replicates[r].run,
                      full.cells[i].replicates[r].run,
                      full.cells[i].key.describe());
      }
      EXPECT_EQ(shard.cells[i].time.mean, full.cells[i].time.mean);
    }
    EXPECT_EQ(owners, 1u) << "cell " << i << " owned by " << owners << " shards";
  }
  EXPECT_EQ(ranTotal, full.cells.size());
  EXPECT_EQ(streamed, full.cells.size());
}

TEST(BatchRunner, RejectsBadShard) {
  BatchOptions options;
  options.shardIndex = 2;
  options.shardCount = 2;
  EXPECT_THROW((void)BatchRunner(options).run(smallSpec()), std::invalid_argument);
}

// The acceptance check of the file: loader path: a generator graph saved
// to disk and re-run through a file: spec must reproduce the generator
// cell's facts exactly (dpg archives the port labeling bit-for-bit).
TEST(BatchRunner, FileSpecReproducesGeneratorCellExactly) {
  const std::uint64_t seed = 7;
  const std::uint32_t k = 16;
  CaseSpec gen;
  gen.graph = "er";
  gen.k = k;
  gen.algorithm = "general_sync";
  gen.placement = "clusters:l=4";
  gen.seed = seed;
  const RunRecord a = runCell(gen);

  // Save the exact graph the generator cell used (n = 2k, same seed).
  const Graph g = makeGraph("er", 2 * k, seed);
  const std::string path = ::testing::TempDir() + "exp_file_parity.dpg";
  saveGraph(path, g);

  CaseSpec viaFile = gen;
  viaFile.graph = "file:" + path;
  const RunRecord b = runCell(viaFile);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.maxDegree, b.maxDegree);
  expectSameRun(a.run, b.run, "file: parity");

  // And the batch path shares one loaded instance across seeds while
  // producing the same per-seed records.
  SweepSpec spec;
  spec.name = "file";
  spec.graphs = {"file:" + path};
  spec.ks = {k};
  spec.algorithms = {"general_sync"};
  spec.placements = {"clusters:l=4"};
  spec.seeds = {seed, seed + 1};
  const SweepResult res = runnerWith(2).run(spec);
  const Cell& cell = res.cells.front();
  expectSameRun(cell.replicates[0].run, a.run, "batch file: seed 7");
}

TEST(BenchContext, SeedsOrFallsBackToHistoricalSeed) {
  std::ostringstream os;
  BenchContext ctx{os, nullptr, {}, {}};
  EXPECT_EQ(ctx.seedsOr(17), (std::vector<std::uint64_t>{17}));
  ctx.seedOverride = {1, 2, 3};
  EXPECT_EQ(ctx.seedsOr(17), (std::vector<std::uint64_t>{1, 2, 3}));
}

}  // namespace
}  // namespace disp::exp
