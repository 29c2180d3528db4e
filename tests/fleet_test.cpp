// Tests for the src/fleet/ sweep fabric: the JSON value model, manifest
// round-trip + corruption rejection, the collector's dedup/divergence
// audit, the trace / fleet event / fact-diff checkers, transport spec
// parsing and local worker spawn/poll/kill, the disp_bench flag list,
// --shard parse hardening, and — when the bench binaries are built
// (DISP_BENCH_BIN / DISP_FLEET_BIN) — subprocess end-to-end runs: a
// sharded fleet campaign must reproduce the unsharded reference
// byte-identically in fact columns, survive a mid-shard kill via
// restart-resume, and poison persistently failing shards.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace.hpp"
#include "exp/bench_registry.hpp"
#include "exp/sink.hpp"
#include "fleet/check.hpp"
#include "fleet/collector.hpp"
#include "fleet/events.hpp"
#include "fleet/manifest.hpp"
#include "fleet/supervisor.hpp"
#include "fleet/transport.hpp"
#include "util/json.hpp"

namespace disp::fleet {
namespace {

namespace fs = std::filesystem;

std::string testDir(const std::string& name) {
  // Per-process directory: ctest runs every test in its own process, and
  // several of them build the shared reference run concurrently.
  const std::string dir = ::testing::TempDir() + "fleet_" +
                          std::to_string(::getpid()) + "_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << content;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------------ JSON

TEST(FleetJson, RoundTripsJsonlWriterRows) {
  const std::string line =
      R"({"sweep": "scenario", "table": "cell", "graph": "path:n=64", "k": "4", "moves": "17"})";
  const JsonValue v = JsonValue::parse(line);
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.dump(), line);  // insertion order + string values preserved
  ASSERT_NE(v.find("graph"), nullptr);
  EXPECT_EQ(v.find("graph")->asString(), "path:n=64");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(FleetJson, ParsesNestedValuesAndEscapes) {
  const JsonValue v = JsonValue::parse(
      R"({"a": [1, 2.5, true, null], "s": "q\"\\\nA"})");
  ASSERT_NE(v.find("a"), nullptr);
  const auto& items = v.find("a")->items();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].asU64(), 1u);
  EXPECT_DOUBLE_EQ(items[1].asNumber(), 2.5);
  EXPECT_TRUE(items[2].asBool());
  EXPECT_TRUE(items[3].isNull());
  EXPECT_EQ(v.find("s")->asString(), "q\"\\\nA");
}

TEST(FleetJson, RejectsMalformedInputWithOffset) {
  EXPECT_THROW((void)JsonValue::parse(R"({"a": )"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1} trailing)"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
  try {
    (void)JsonValue::parse(R"({"a": nope})");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    // The diagnostic must carry a byte offset for corrupted-manifest triage.
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos) << e.what();
  }
}

TEST(FleetJson, U64RejectsNonIntegers) {
  EXPECT_THROW((void)JsonValue::parse("1.5").asU64(), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("-3").asU64(), std::runtime_error);
  EXPECT_EQ(JsonValue::parse("4096").asU64(), 4096u);
}

// ----------------------------------------------------------- shard flag

TEST(ShardFlag, ParsesCanonicalForms) {
  EXPECT_EQ(exp::parseShardFlag("0/1"), (std::pair<unsigned, unsigned>{0, 1}));
  EXPECT_EQ(exp::parseShardFlag("3/4"), (std::pair<unsigned, unsigned>{3, 4}));
  EXPECT_EQ(exp::parseShardFlag("0/4096"),
            (std::pair<unsigned, unsigned>{0, 4096}));
}

TEST(ShardFlag, RejectsNonCanonicalForms) {
  for (const char* bad : {"", "/", "1", "1/", "/4", "01/4", "1/04", "1/4/2",
                          "a/b", " 1/4", "1/4 ", "-1/4", "+1/4", "4/4", "0/0",
                          "0/4097", "12345/12346"}) {
    EXPECT_THROW((void)exp::parseShardFlag(bad), std::invalid_argument) << bad;
  }
}

TEST(ShardFlag, AttemptNamesAreStable) {
  EXPECT_EQ(shardAttemptName(0, 4, 1, "jsonl"), "shard_0of4.attempt1.jsonl");
  EXPECT_EQ(shardAttemptName(13, 128, 3, "log"), "shard_13of128.attempt3.log");
}

// ------------------------------------------------------------- manifest

Manifest sampleManifest() {
  Manifest m;
  m.sweeps = {"scenario", "faults"};
  m.benchArgs = {"--ks=4,6", "--seeds=1,2"};
  m.fleetSpec = "local:2";
  m.shardCount = 2;
  m.totalCells = 8;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ShardEntry sh;
    sh.index = i;
    sh.cells = 4;
    m.shards.push_back(sh);
  }
  m.shards[0].state = ShardState::Done;
  m.shards[0].attempts = 2;
  m.shards[0].worker = "local:1";
  m.shards[0].outputs = {"shard_0of2.attempt1.jsonl", "shard_0of2.attempt2.jsonl"};
  m.shards[0].cellsDone = 4;
  return m;
}

TEST(FleetManifest, RoundTripsThroughJson) {
  const Manifest m = sampleManifest();
  const Manifest back = Manifest::fromJson(m.toJson());
  EXPECT_EQ(back.sweeps, m.sweeps);
  EXPECT_EQ(back.benchArgs, m.benchArgs);
  EXPECT_EQ(back.fleetSpec, m.fleetSpec);
  EXPECT_EQ(back.shardCount, m.shardCount);
  EXPECT_EQ(back.totalCells, m.totalCells);
  ASSERT_EQ(back.shards.size(), m.shards.size());
  EXPECT_EQ(back.shards[0].state, ShardState::Done);
  EXPECT_EQ(back.shards[0].attempts, 2u);
  EXPECT_EQ(back.shards[0].worker, "local:1");
  EXPECT_EQ(back.shards[0].outputs, m.shards[0].outputs);
  EXPECT_EQ(back.shards[0].cellsDone, 4u);
  EXPECT_EQ(back.shards[1].state, ShardState::Pending);
}

TEST(FleetManifest, SaveIsAtomicAndLoadable) {
  const std::string dir = testDir("manifest_save");
  const std::string path = dir + "/" + kManifestFile;
  sampleManifest().save(path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // tmp+rename leaves no residue
  const Manifest back = Manifest::load(path);
  EXPECT_EQ(back.totalCells, 8u);
}

TEST(FleetManifest, RejectsCorruption) {
  const std::string good = sampleManifest().toJson();
  // Truncation (a crash mid-write would be caught before the rename, but a
  // corrupted disk image must still fail loudly).
  EXPECT_THROW((void)Manifest::fromJson(good.substr(0, good.size() / 2)),
               std::runtime_error);
  // Future/unknown version.
  std::string wrongVersion = good;
  wrongVersion.replace(wrongVersion.find("\"version\": 1"),
                       std::string("\"version\": 1").size(), "\"version\": 2");
  EXPECT_THROW((void)Manifest::fromJson(wrongVersion), std::runtime_error);
  // shard_count disagreeing with the shards array.
  std::string wrongCount = good;
  wrongCount.replace(wrongCount.find("\"shard_count\": 2"),
                     std::string("\"shard_count\": 2").size(),
                     "\"shard_count\": 3");
  EXPECT_THROW((void)Manifest::fromJson(wrongCount), std::runtime_error);
  // More outputs than attempts (impossible history).
  Manifest extra = sampleManifest();
  extra.shards[1].outputs = {"shard_1of2.attempt1.jsonl"};
  extra.shards[1].attempts = 0;
  EXPECT_THROW((void)Manifest::fromJson(extra.toJson()), std::runtime_error);
}

TEST(FleetManifest, LoadNamesThePathOnFailure) {
  try {
    (void)Manifest::load("/nonexistent/fleet_manifest.json");
    FAIL() << "expected load failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fleet_manifest.json"),
              std::string::npos);
  }
}

// ------------------------------------------------------------ collector

const char* const kRowA =
    R"({"sweep": "s", "table": "cell", "graph": "path:n=8", "k": "4", "time": "11", "moves": "9"})";
const char* const kRowB =
    R"({"sweep": "s", "table": "cell", "graph": "path:n=8", "k": "6", "time": "15", "moves": "12"})";

TEST(Collector, DedupDropsIdenticalRowsAcrossAttempts) {
  const std::string dir = testDir("dedup");
  writeFile(dir + "/a1.jsonl", std::string(kRowA) + "\n");
  writeFile(dir + "/a2.jsonl", std::string(kRowA) + "\n" + kRowB + "\n");
  const MergeResult res = mergeJsonl({{dir + "/a1.jsonl", false},
                                      {dir + "/a2.jsonl", false}},
                                     DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.rowsIn, 3u);
  EXPECT_EQ(res.rowsOut, 2u);
  EXPECT_EQ(res.dupsDropped, 1u);
  EXPECT_EQ(slurp(dir + "/out.jsonl"),
            std::string(kRowA) + "\n" + kRowB + "\n");
}

TEST(Collector, ErrorPolicyReportsOverlappingShards) {
  const std::string dir = testDir("overlap");
  writeFile(dir + "/s0.jsonl", std::string(kRowA) + "\n");
  writeFile(dir + "/s0b.jsonl", std::string(kRowA) + "\n");
  const MergeResult res = mergeJsonl({{dir + "/s0.jsonl", false},
                                      {dir + "/s0b.jsonl", false}},
                                     DupPolicy::Error, dir + "/out.jsonl");
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.errors.size(), 1u);
  EXPECT_NE(res.errors[0].find("overlapping shards?"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));  // no output on failure
}

TEST(Collector, TelemetryColumnsAreExemptFromTheAudit) {
  const std::string dir = testDir("telemetry");
  // Same cell, different wall-clock telemetry: a legitimate rerun.
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9", "Mact/s": "12.5"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9", "Mact/s": "99.9"})"
            "\n");
  const MergeResult res = mergeJsonl({{dir + "/a.jsonl", false},
                                      {dir + "/b.jsonl", false}},
                                     DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.dupsDropped, 1u);
  EXPECT_EQ(exp::columnRole("peak_rss_mb"), exp::ColumnRole::Telemetry);
  EXPECT_EQ(exp::columnRole("moves"), exp::ColumnRole::Fact);
  EXPECT_EQ(exp::columnRole("time"), exp::ColumnRole::Fact);
  EXPECT_EQ(exp::columnRole("graph"), exp::ColumnRole::Coordinate);
  // No emitter writes a bare "ms" column, so it is an ordinary fact.
  EXPECT_EQ(exp::columnRole("ms"), exp::ColumnRole::Fact);
}

// The wallclock sweep's timing columns are telemetry: two runs of the same
// config agree on every fact and merge to one row.
TEST(Collector, WallclockRowsDedupOnTheirFactColumns) {
  const std::string dir = testDir("wallclock");
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "wallclock", "table": "simulator wall-clock per dispersion run", "algo": "RootedSyncDisp", "sched": "round_robin", "k": "64", "l": "1", "runs": "310", "total_ms": "100.2", "ms/run": "0.323", "Mact/s": "41.07", "Mmoves/s": "11.52", "peak_rss_mb": "7.1"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"sweep": "wallclock", "table": "simulator wall-clock per dispersion run", "algo": "RootedSyncDisp", "sched": "round_robin", "k": "64", "l": "1", "runs": "287", "total_ms": "100.4", "ms/run": "0.350", "Mact/s": "37.93", "Mmoves/s": "10.64", "peak_rss_mb": "7.3"})"
            "\n");
  const MergeResult res = mergeJsonl({{dir + "/a.jsonl", false},
                                      {dir + "/b.jsonl", false}},
                                     DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_TRUE(res.ok) << (res.divergences.empty() ? "" : res.divergences[0].column);
  EXPECT_EQ(res.rowsOut, 1u);
  EXPECT_EQ(res.dupsDropped, 1u);
}

TEST(Collector, FactDivergenceFailsLoudlyWithACellDiff) {
  const std::string dir = testDir("diverge");
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "10"})"
            "\n");
  const MergeResult res = mergeJsonl({{dir + "/a.jsonl", false},
                                      {dir + "/b.jsonl", false}},
                                     DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.divergences.size(), 1u);
  EXPECT_EQ(res.divergences[0].column, "moves");
  EXPECT_EQ(res.divergences[0].valueA, "9");
  EXPECT_EQ(res.divergences[0].valueB, "10");
  EXPECT_NE(res.divergences[0].identity.find("graph=er"), std::string::npos);
  EXPECT_NE(res.divergences[0].whereA.find("a.jsonl:1"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));
}

TEST(Collector, PartialTailToleranceIsOptInAndFinalLineOnly) {
  const std::string dir = testDir("tail");
  const std::string torn = std::string(kRowA) + "\n" + R"({"sweep": "s", "tab)";
  writeFile(dir + "/killed.jsonl", torn);
  // Without the flag a torn line is an error ...
  MergeResult strict = mergeJsonl({{dir + "/killed.jsonl", false}},
                                  DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_FALSE(strict.ok);
  // ... with it, only the *final* line is forgiven.
  MergeResult lax = mergeJsonl({{dir + "/killed.jsonl", true}},
                               DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_TRUE(lax.ok);
  EXPECT_EQ(lax.partialTails, 1u);
  EXPECT_EQ(lax.rowsOut, 1u);
  writeFile(dir + "/midtorn.jsonl",
            R"({"broken)" "\n" + std::string(kRowA) + "\n");
  MergeResult mid = mergeJsonl({{dir + "/midtorn.jsonl", true}},
                               DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_FALSE(mid.ok);  // a torn line followed by data is real corruption
}

TEST(Collector, DiagnosticRowsCompareByFullContent) {
  const std::string dir = testDir("notes");
  // Fit/note rows carry only sweep/table coordinates: two different notes
  // must both survive, identical notes dedup.
  const std::string noteA = R"({"sweep": "s", "table": "fit", "slope": "1.9"})";
  const std::string noteB = R"({"sweep": "s", "table": "fit", "slope": "2.1"})";
  writeFile(dir + "/a.jsonl", noteA + "\n" + noteB + "\n");
  writeFile(dir + "/b.jsonl", noteA + "\n");
  const MergeResult res = mergeJsonl({{dir + "/a.jsonl", false},
                                      {dir + "/b.jsonl", false}},
                                     DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.rowsOut, 2u);
  EXPECT_EQ(res.dupsDropped, 1u);
}

TEST(Collector, CountsDistinctCellRowsAcrossAttempts) {
  const std::string dir = testDir("count");
  writeFile(dir + "/a1.jsonl", std::string(kRowA) + "\n" + R"({"torn)");
  writeFile(dir + "/a2.jsonl", std::string(kRowA) + "\n" + kRowB + "\n" +
                                   R"({"sweep": "s", "table": "fit", "x": "1"})" "\n");
  // kRowA appears twice (distinct -> 1), the fit row is not a cell row, the
  // torn tail and a missing file count as zero.
  EXPECT_EQ(countDistinctCellRows({dir + "/a1.jsonl", dir + "/a2.jsonl",
                                   dir + "/absent.jsonl"}),
            2u);
}

// ------------------------------------------------------------- checkers

std::string traceLine(const std::string& kind, const std::string& t,
                      const std::string& node = "0") {
  return R"({"cell": "c", "seed": "1", "event": ")" + kind + R"(", "t": ")" + t +
         R"(", "agent": "0", "node": ")" + node + R"(", "a": "-", "b": "-"})";
}

std::string sampleLine(const std::string& t, const std::string& settled) {
  return R"({"cell": "c", "seed": "1", "event": "sample", "t": ")" + t +
         R"(", "epochs": "0", "settled": ")" + settled + R"(", "moves": "1"})";
}

std::string fleetLine(const std::string& seq, const std::string& t,
                      const std::string& kind, const std::string& payload) {
  return R"({"seq": ")" + seq + R"(", "t_ms": ")" + t + R"(", "event": ")" + kind +
         R"(", )" + payload + "}";
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

struct BadStream {
  std::vector<std::string> lines;
  std::string where;  ///< expected "path:line" prefix
  std::string why;    ///< expected substring of the diagnostic
};

void expectFirstViolation(CheckResult (*checker)(std::istream&, const std::string&),
                          const BadStream& bad) {
  std::stringstream in(joinLines(bad.lines));
  const CheckResult res = checker(in, "s.jsonl");
  ASSERT_EQ(res.diagnostics.size(), 1u) << bad.why;
  EXPECT_EQ(res.diagnostics[0].rfind(bad.where + ": ", 0), 0u) << res.diagnostics[0];
  EXPECT_NE(res.diagnostics[0].find(bad.why), std::string::npos) << res.diagnostics[0];
}

TEST(TraceCheck, AcceptsAClosedStreamAndCountsKinds) {
  std::stringstream in(joinLines({traceLine("move", "0"), traceLine("settle", "1"),
                                  sampleLine("1", "1")}));
  const CheckResult res = checkTraceStream(in, "s.jsonl");
  EXPECT_TRUE(res.ok()) << res.diagnostics[0];
  EXPECT_EQ(res.summary, "OK s.jsonl: 1 streams, move=1, sample=1, settle=1");
}

TEST(TraceCheck, RejectsEachViolationAtItsLine) {
  const std::string move = traceLine("move", "0");
  const std::string settle = traceLine("settle", "1");
  const std::vector<BadStream> cases{
      {{move, traceLine("teleport", "1")}, "s.jsonl:2", "unknown event kind 'teleport'"},
      {{move, R"({"cell": "c", "seed": "1", "event": "sample", "t": "1"})"},
       "s.jsonl:2", "sample line has keys"},
      {{move, traceLine("settle", "1", "x")}, "s.jsonl:2", "'x' is neither a number nor '-'"},
      {{traceLine("move", "5"), traceLine("settle", "3")}, "s.jsonl:2",
       "time went backwards"},
      {{move, traceLine("collapse", "1")}, "s.jsonl:2", "collapse before matching settle"},
      {{move, settle, sampleLine("1", "2")}, "s.jsonl:3",
       "final sampled settled count 2 != settle-collapse balance 1"},
      {{sampleLine("0", "0")}, "s.jsonl:1", "no settle/move events"},
  };
  for (const BadStream& bad : cases) expectFirstViolation(checkTraceStream, bad);
}

// Every kind the library can emit, written by the real trace sink, passes
// the checker: the emitter and the checker read one definition.
TEST(TraceCheck, EveryTraceEventKindPassesThroughTraceJsonl) {
  std::stringstream out;
  exp::TraceJsonl sink(out, 1);
  RunOptions opts;
  sink.observe(exp::CellKey{"path:n=8", 4}, 7, opts);
  const std::vector<TraceEventKind> kinds = traceEventKinds();
  ASSERT_EQ(kinds.size(), 11u);
  std::uint64_t t = 0;
  for (const TraceEventKind k : kinds) {
    opts.onEvent(TraceEvent{k, t++, 0, 3, kNoTraceLabel, 1});
  }
  StepSnapshot last;
  last.time = t;
  last.settled = 0;  // one settle, then one collapse
  opts.onRound(last);
  const CheckResult res = checkTraceStream(out, "trace.jsonl");
  ASSERT_TRUE(res.ok()) << res.diagnostics[0];
  for (const TraceEventKind k : kinds) {
    EXPECT_NE(res.summary.find(std::string(traceEventKindName(k)) + "=1"),
              std::string::npos)
        << res.summary;
  }
}

TEST(FleetEventsCheck, RejectsEachViolationAtItsLine) {
  const std::string start = fleetLine(
      "1", "0", "run_start",
      R"("sweeps": "scenario", "fleet": "local:2", "shards": "1", "workers": "2", "cells": "4", "resumed": "no")");
  const std::string spawn = fleetLine(
      "2", "1", "spawn",
      R"("shard": "0", "attempt": "1", "pid": "42", "worker": "local", "output": "o.jsonl")");
  const std::string exit = fleetLine(
      "3", "2", "exit",
      R"("shard": "0", "attempt": "1", "pid": "42", "code": "0", "signal": "-")");
  const std::string done = fleetLine("4", "3", "run_done", R"("ok": "yes", "failed_shards": "")");
  std::stringstream good(joinLines({start, spawn, exit, done}));
  const CheckResult res = checkFleetEvents(good, "s.jsonl");
  EXPECT_TRUE(res.ok()) << res.diagnostics[0];
  EXPECT_EQ(res.summary, "OK s.jsonl: seq 4, exit=1, run_done=1, run_start=1, spawn=1");

  const std::vector<BadStream> cases{
      {{start, fleetLine("2", "1", "teleport", R"("shard": "0")")}, "s.jsonl:2",
       "unknown event kind 'teleport'"},
      {{start, fleetLine("2", "1", "poison", R"("shard": "0")")}, "s.jsonl:2",
       "poison line has keys"},
      {{start, fleetLine("2", "1", "poison", R"("shard": "zero", "attempts": "1")")},
       "s.jsonl:2", "'zero' is not a non-negative integer"},
      {{start, spawn, fleetLine("2", "2", "poison", R"("shard": "0", "attempts": "1")")},
       "s.jsonl:3", "seq not strictly increasing: 2 -> 2"},
      {{start, spawn, fleetLine("3", "0", "poison", R"("shard": "0", "attempts": "1")")},
       "s.jsonl:3", "t_ms went backwards"},
      {{start, spawn, exit}, "s.jsonl:3", "does not end with run_done (last: exit)"},
      {{start, exit, done}, "s.jsonl:2", "exit without a spawn"},
      {{start, fleetLine("2", "1", "run_done", R"("ok": "maybe", "failed_shards": "")")},
       "s.jsonl:2", "'ok' = 'maybe' is not yes/no"},
      {{spawn, done}, "s.jsonl:1", "first event is not run_start"},
  };
  for (const BadStream& bad : cases) expectFirstViolation(checkFleetEvents, bad);
}

TEST(FleetEventsCheck, EmitRefusesLinesOutsideTheSchema) {
  const std::string dir = testDir("emit_schema");
  const std::string path = dir + "/" + kEventsFile;
  {
    FleetEventLog log(path);
    EXPECT_THROW(log.emit("teleport", {}), std::logic_error);
    EXPECT_THROW(log.emit("poison", {{"shard", "0"}}), std::logic_error);
    EXPECT_THROW(log.emit("poison", {{"shard", "0"}, {"attempts", "1"}, {"x", "1"}}),
                 std::logic_error);
    log.emit("run_start", {{"sweeps", "scenario"}, {"fleet", "local:2"},
                           {"shards", "1"}, {"workers", "2"}, {"cells", "4"},
                           {"resumed", "no"}});
    // Field order is free; the key set is what the schema fixes.
    log.emit("run_done", {{"failed_shards", ""}, {"ok", "yes"}});
  }
  const CheckResult res = checkFile(path);
  EXPECT_TRUE(res.ok()) << res.diagnostics[0];
  EXPECT_NE(res.summary.find("seq 2,"), std::string::npos) << res.summary;
}

TEST(FleetChecks, CheckFileSniffsTheStreamKind) {
  const std::string dir = testDir("sniff");
  writeFile(dir + "/trace.jsonl",
            joinLines({traceLine("move", "0"), traceLine("settle", "1")}));
  EXPECT_TRUE(checkFile(dir + "/trace.jsonl").ok());
  // Anything without "seq" is held to the trace schema.
  writeFile(dir + "/rows.jsonl", std::string(kRowA) + "\n");
  const CheckResult rows = checkFile(dir + "/rows.jsonl");
  ASSERT_FALSE(rows.ok());
  EXPECT_NE(rows.diagnostics[0].find("rows.jsonl:1: unknown event kind"), std::string::npos)
      << rows.diagnostics[0];
  writeFile(dir + "/empty.jsonl", "\n");
  const CheckResult empty = checkFile(dir + "/empty.jsonl");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.diagnostics[0].find("no settle/move events"), std::string::npos);
  EXPECT_FALSE(checkFile(dir + "/absent.jsonl").ok());
}

TEST(FleetChecks, DiffFactsComparesRowMultisetsWithoutTelemetry) {
  const std::string dir = testDir("diff");
  const std::string rowA = kRowA;
  const std::string rowB = kRowB;
  writeFile(dir + "/ref.jsonl", rowA + "\n" + rowB + "\n");
  // Reordered rows plus a telemetry column: the same facts.
  std::string timedB = rowB;
  timedB.insert(timedB.size() - 1, R"(, "peak_rss_mb": "9.5")");
  writeFile(dir + "/same.jsonl", timedB + "\n" + rowA + "\n");
  const CheckResult same = diffFacts(dir + "/ref.jsonl", dir + "/same.jsonl");
  EXPECT_TRUE(same.ok()) << same.diagnostics[0];
  EXPECT_EQ(same.summary, "2 rows fact-identical");

  // One fact edited: both sides name their odd row by path:line.
  std::string editedA = rowA;
  editedA.replace(editedA.find(R"("moves": "9")"), 12, R"("moves": "8")");
  writeFile(dir + "/edit.jsonl", rowB + "\n" + editedA + "\n");
  const CheckResult edit = diffFacts(dir + "/ref.jsonl", dir + "/edit.jsonl");
  ASSERT_EQ(edit.diagnostics.size(), 2u);
  EXPECT_EQ(edit.diagnostics[0].rfind(dir + "/ref.jsonl:1: row not in", 0), 0u)
      << edit.diagnostics[0];
  EXPECT_EQ(edit.diagnostics[1].rfind(dir + "/edit.jsonl:2: row not in", 0), 0u)
      << edit.diagnostics[1];
  EXPECT_EQ(edit.summary, "fact divergence: 2 reference rows vs 2 candidate rows, 1+1 differ");

  // A repeated row is not the same multiset.
  writeFile(dir + "/twice.jsonl", rowA + "\n" + rowA + "\n");
  EXPECT_FALSE(diffFacts(dir + "/ref.jsonl", dir + "/twice.jsonl").ok());
}

// ------------------------------------------------------------ transport

TEST(Transport, ParsesLocalPools) {
  const auto t = makeTransport("local:4");
  EXPECT_EQ(t.slots(), 4u);
  EXPECT_EQ(t.describe(), "local:4");
  EXPECT_EQ(t.slotName(2), "local:2");
}

TEST(Transport, RejectsBadSpecs) {
  for (const char* bad :
       {"", "local", "local:", "local:0", "local:abc", "local:-2", "ssh:",
        "ssh:a,,b", "ssh:alpha,beta", "carrier-pigeon:coop"}) {
    EXPECT_THROW((void)makeTransport(bad), std::invalid_argument) << bad;
  }
  try {
    (void)makeTransport("ssh:alpha,beta");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("known transports: local:P"),
              std::string::npos)
        << e.what();
  }
}

TEST(Transport, LocalPoolReportsExitCodesAndSignals) {
  const std::string dir = testDir("transport");
  LocalTransport t = makeTransport("local:2");
  const auto waitFor = [&t](std::uint64_t handle) {
    for (;;) {
      const WorkerStatus s = t.poll(handle);
      if (!s.running) return s;
      ::usleep(1000);
    }
  };
  const std::string log = dir + "/worker.log";
  const WorkerStatus ok = waitFor(t.spawn({"sh", "-c", "echo hello"}, log, 0));
  EXPECT_EQ(ok.exitCode, 0);
  EXPECT_EQ(ok.signal, 0);
  EXPECT_EQ(slurp(log), "hello\n");  // stdout goes to the attempt log

  const WorkerStatus failed = waitFor(t.spawn({"sh", "-c", "exit 3"}, log, 1));
  EXPECT_EQ(failed.exitCode, 3);
  EXPECT_EQ(failed.signal, 0);

  const std::uint64_t sleeper = t.spawn({"sleep", "30"}, log, 0);
  EXPECT_TRUE(t.poll(sleeper).running);
  t.terminate(sleeper);
  const WorkerStatus killed = waitFor(sleeper);
  EXPECT_EQ(killed.exitCode, -1);
  EXPECT_EQ(killed.signal, SIGKILL);

  EXPECT_EQ(waitFor(t.spawn({"./no-such-disp-binary"}, log, 0)).exitCode, 127);
  EXPECT_THROW((void)t.spawn({"true"}, log, 2), std::runtime_error);  // slot
  EXPECT_THROW((void)t.spawn({}, log, 0), std::runtime_error);
}

// The flag list disp_bench and disp_fleet share: exactly the listed names
// (no leading "--", no value), each listed once.
TEST(BenchFlags, AcceptsExactlyTheListedNames) {
  std::set<std::string_view> seen;
  for (const std::string_view name : exp::kBenchFlags) {
    EXPECT_TRUE(exp::isBenchFlag(name)) << name;
    EXPECT_TRUE(seen.insert(name).second) << "listed twice: " << name;
  }
  for (const char* name : {"threads", "faults", "shard", "stream-cells", "list-cells"}) {
    EXPECT_TRUE(exp::isBenchFlag(name)) << name;
  }
  for (const char* name : {"run-threads", "threds", "", "--threads", "threads=2",
                           "Threads", "fleet", "resume"}) {
    EXPECT_FALSE(exp::isBenchFlag(name)) << name;
  }
}

// ----------------------------------------------------------- supervisor

TEST(Supervisor, RejectsInconsistentOptions) {
  FleetOptions opt;
  opt.sweeps = {"scenario"};
  opt.dir = testDir("badopts");
  opt.shardCount = 2;
  opt.shardCells = {4};  // wrong arity
  opt.totalCells = 4;
  EXPECT_THROW((void)runFleet(opt), std::invalid_argument);
}

#if defined(DISP_BENCH_BIN) && defined(DISP_FLEET_BIN)

// ------------------------------------------------- subprocess end-to-end
//
// A tiny but real campaign: the `scenario` sweep narrowed to 4 cells via
// axis overrides (1 graph x 2 ks x 1 placement x 2 algorithms), small
// enough for CI yet sharded 2-ways under local:2.

const char* const kAxes =
    " --graphs=path --ks=4,6 --placements=rooted --seeds=1,2";

int exitCode(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

/// The fleet's merged output must match the unsharded reference on every
/// fact column (disp_fleet diff's check).
void expectSameFacts(const std::string& ref, const std::string& cand) {
  const CheckResult res = diffFacts(ref, cand);
  EXPECT_TRUE(res.ok()) << res.summary << "\n"
                        << (res.diagnostics.empty() ? "" : res.diagnostics[0]);
}

/// fleet_events.jsonl passes the schema checker and its final run_done
/// reports `wantOk`.
void expectEventsPass(const std::string& path, const std::string& wantOk) {
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  const CheckResult res = checkFleetEvents(in, path);
  ASSERT_TRUE(res.ok()) << res.diagnostics[0];
  std::ifstream again(path);
  std::string line, last;
  while (std::getline(again, line)) {
    if (!line.empty()) last = line;
  }
  EXPECT_EQ(JsonValue::parse(last).find("ok")->asString(), wantOk);
}

std::string refJsonl() {
  static std::string path;
  if (!path.empty()) return path;
  const std::string dir = testDir("reference");
  path = dir + "/ref.jsonl";
  EXPECT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " scenario" + kAxes +
                     " --jsonl=" + path + " --stream-cells > " + dir +
                     "/ref.out 2>&1"),
            0);
  return path;
}

TEST(FleetE2E, ListCellsEnumeratesTheCampaign) {
  const std::string dir = testDir("list");
  ASSERT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " scenario" + kAxes +
                     " --list-cells > " + dir + "/cells.jsonl 2> " + dir +
                     "/err.txt"),
            0);
  std::ifstream in(dir + "/cells.jsonl");
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue row = JsonValue::parse(line);
    EXPECT_NE(row.find("sweep"), nullptr);
    EXPECT_NE(row.find("index"), nullptr);
    EXPECT_NE(row.find("graph"), nullptr);
    EXPECT_NE(row.find("k"), nullptr);
    EXPECT_NE(row.find("algo"), nullptr);
    ++rows;
  }
  EXPECT_EQ(rows, 4u);  // 1 graph x 2 ks x 1 placement x 1 sched x 2 algos
}

TEST(FleetE2E, EmptyShardExitsWithTheDistinctCode) {
  const std::string dir = testDir("empty_shard");
  // 4 cells under --shard=5/6: indices 0..3 mod 6 never hit 5.
  EXPECT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " scenario" + kAxes +
                     " --shard=5/6 --jsonl=" + dir + "/s.jsonl > " + dir +
                     "/out.txt 2>&1"),
            exp::kEmptyShardExitCode);
}

TEST(FleetE2E, MalformedShardSpecsAreUsageErrors) {
  const std::string dir = testDir("bad_shard");
  for (const char* bad : {"01/4", "1/4/2", "4/4", "1/"}) {
    EXPECT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " scenario" + kAxes +
                       " --shard=" + bad + " > " + dir + "/out.txt 2>&1"),
              2)
        << bad;
  }
  // Hand-rolled sweeps cannot shard: every shard would rerun them whole.
  EXPECT_EQ(exitCode(std::string(DISP_BENCH_BIN) +
                     " fig1_empty_selection --shard=0/2 > " + dir +
                     "/out.txt 2>&1"),
            2);
}

// A misspelled or retired flag must not silently fall back to the
// defaults: disp_bench and disp_fleet run both refuse it by name.
TEST(FleetE2E, UnknownBenchFlagsAreUsageErrors) {
  const std::string dir = testDir("unknown_flag");
  for (const std::string flag : {"run-threads=4", "threds=2"}) {
    const std::string name = "--" + flag.substr(0, flag.find('='));
    EXPECT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " scenario" + kAxes + " --" +
                       flag + " > " + dir + "/out.txt 2> " + dir + "/err.txt"),
              2)
        << flag;
    EXPECT_NE(slurp(dir + "/err.txt").find("error: unknown flag " + name),
              std::string::npos)
        << slurp(dir + "/err.txt");

    EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " run scenario" + kAxes +
                       " --fleet=local:2 --dir=" + dir + " --" + flag + " > " +
                       dir + "/fleet.out 2>&1"),
              2)
        << flag;
    EXPECT_NE(slurp(dir + "/fleet.out").find("unknown flag " + name),
              std::string::npos)
        << slurp(dir + "/fleet.out");
    // Refused before any manifest is written or worker spawned.
    EXPECT_FALSE(fs::exists(dir + "/" + kManifestFile)) << flag;
  }
}

TEST(FleetE2E, FleetRunMatchesUnshardedReference) {
  const std::string dir = testDir("campaign");
  // chaos-kill-rows=1: the supervisor SIGKILLs the first worker whose
  // attempt file reaches one flushed row, then auto-retries it.
  ASSERT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " run scenario" + kAxes +
                     " --fleet=local:2 --dir=" + dir +
                     " --chaos-kill-rows=1 --backoff=0.01"
                     " --poll-interval=0.005 --stall-timeout=120 > " +
                     dir + "/fleet.out 2>&1"),
            0)
      << slurp(dir + "/fleet.out");
  expectSameFacts(refJsonl(), dir + "/" + kMergedFile);
  expectEventsPass(dir + "/" + kEventsFile, "yes");
  // The same two gates through the CLI.
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " check " + dir + "/" +
                     kEventsFile + " > " + dir + "/check.out 2>&1"),
            0)
      << slurp(dir + "/check.out");
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " diff " + refJsonl() + " " + dir +
                     "/" + kMergedFile + " > " + dir + "/diff.out 2>&1"),
            0)
      << slurp(dir + "/diff.out");
  const Manifest m = Manifest::load(dir + "/" + kManifestFile);
  EXPECT_EQ(m.shardCount, 2u);
  for (const ShardEntry& sh : m.shards) {
    EXPECT_EQ(sh.state, ShardState::Done);
    EXPECT_EQ(sh.cellsDone, sh.cells);
  }
}

TEST(FleetE2E, FreshRunRefusesAnExistingManifest) {
  const std::string dir = testDir("no_clobber");
  sampleManifest().save(dir + "/" + kManifestFile);
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " run scenario" + kAxes +
                     " --fleet=local:2 --dir=" + dir + " > " + dir +
                     "/out.txt 2>&1"),
            2);
  EXPECT_NE(slurp(dir + "/out.txt").find("--resume"), std::string::npos);
}

TEST(FleetE2E, ResumeCompletesAKilledShard) {
  const std::string dir = testDir("resume");
  const std::string flags = std::string(" run scenario") + kAxes +
                            " --fleet=local:2 --dir=" + dir +
                            " --backoff=0.01 --poll-interval=0.005"
                            " --stall-timeout=120";
  ASSERT_EQ(exitCode(std::string(DISP_FLEET_BIN) + flags + " > " + dir +
                     "/run1.out 2>&1"),
            0)
      << slurp(dir + "/run1.out");
  expectSameFacts(refJsonl(), dir + "/" + kMergedFile);

  // Simulate a worker SIGKILL'd mid-shard after one flushed row plus a torn
  // tail, with the coordinator dead before observing the exit: shard 0 is
  // still Running in the manifest and its attempt file is truncated.
  Manifest m = Manifest::load(dir + "/" + kManifestFile);
  ASSERT_EQ(m.shards[0].outputs.size(), 1u);
  const std::string attempt1 = dir + "/" + m.shards[0].outputs[0];
  std::ifstream in(attempt1);
  std::string firstRow;
  ASSERT_TRUE(std::getline(in, firstRow));
  in.close();
  writeFile(attempt1, firstRow + "\n" + R"({"sweep": "scenario", "tor)");
  m.shards[0].state = ShardState::Running;
  m.save(dir + "/" + kManifestFile);
  fs::remove(dir + "/" + kMergedFile);

  ASSERT_EQ(exitCode(std::string(DISP_FLEET_BIN) + flags + " --resume > " +
                     dir + "/run2.out 2>&1"),
            0)
      << slurp(dir + "/run2.out");
  // Facts byte-identical to the unsharded reference; shard 0 relaunched
  // once (attempt 2), shard 1 untouched.
  expectSameFacts(refJsonl(), dir + "/" + kMergedFile);
  const Manifest after = Manifest::load(dir + "/" + kManifestFile);
  EXPECT_EQ(after.shards[0].attempts, 2u);
  EXPECT_EQ(after.shards[0].outputs.size(), 2u);
  EXPECT_EQ(after.shards[1].attempts, 1u);
  expectEventsPass(dir + "/" + kEventsFile, "yes");
}

TEST(FleetE2E, PoisonsPersistentFailuresAndResumeRecovers) {
  const std::string dir = testDir("poison");
  const std::string common = std::string(" run scenario") + kAxes +
                             " --fleet=local:2 --dir=" + dir +
                             " --max-attempts=2 --backoff=0.01"
                             " --poll-interval=0.005 --stall-timeout=120";
  // /bin/false as the worker: every attempt fails, both shards poison.
  ASSERT_EQ(exitCode(std::string(DISP_FLEET_BIN) + common +
                     " --bench=/bin/false > " + dir + "/run1.out 2>&1"),
            1)
      << slurp(dir + "/run1.out");
  const Manifest poisoned = Manifest::load(dir + "/" + kManifestFile);
  for (const ShardEntry& sh : poisoned.shards) {
    EXPECT_EQ(sh.state, ShardState::Failed);
    EXPECT_EQ(sh.attempts, 2u);  // maxAttempts failures burned
  }
  expectEventsPass(dir + "/" + kEventsFile, "no");
  EXPECT_FALSE(fs::exists(dir + "/" + kMergedFile));

  // --resume with a working bench grants a fresh attempt budget and
  // completes the campaign.
  ASSERT_EQ(exitCode(std::string(DISP_FLEET_BIN) + common + " --resume > " +
                     dir + "/run2.out 2>&1"),
            0)
      << slurp(dir + "/run2.out");
  expectSameFacts(refJsonl(), dir + "/" + kMergedFile);
  expectEventsPass(dir + "/" + kEventsFile, "yes");
}

TEST(FleetE2E, MergeCliAuditsDivergence) {
  const std::string dir = testDir("merge_cli");
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "10"})"
            "\n");
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " merge --out=" + dir +
                     "/out.jsonl " + dir + "/a.jsonl " + dir +
                     "/b.jsonl > " + dir + "/out.txt 2> " + dir + "/err.txt"),
            1);
  EXPECT_NE(slurp(dir + "/err.txt").find("DIVERGENCE"), std::string::npos);
  // Clean inputs merge and report the row count.
  writeFile(dir + "/b.jsonl", std::string(kRowB) + "\n");
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " merge --out=" + dir +
                     "/out.jsonl " + dir + "/a.jsonl " + dir +
                     "/b.jsonl > " + dir + "/out.txt 2>&1"),
            0);
  EXPECT_NE(slurp(dir + "/out.txt").find("merged 2 rows"), std::string::npos);
}

TEST(FleetE2E, CheckCliGatesATraceAndDiffCliGatesFacts) {
  const std::string dir = testDir("check_cli");
  ASSERT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " trace_smoke --trace=" + dir +
                     "/t.jsonl --sample=4 > /dev/null 2>&1"),
            0);
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " check " + dir + "/t.jsonl > " +
                     dir + "/ok.out 2>&1"),
            0)
      << slurp(dir + "/ok.out");
  EXPECT_NE(slurp(dir + "/ok.out").find(": 6 streams, "), std::string::npos)
      << slurp(dir + "/ok.out");
  std::ofstream(dir + "/t.jsonl", std::ios::app)
      << R"({"cell": "c", "seed": "1", "event": "teleport", "t": "0", "agent": "0", "node": "0", "a": "-", "b": "-"})"
      << "\n";
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " check " + dir + "/t.jsonl > " +
                     dir + "/bad.out 2>&1"),
            1);
  EXPECT_NE(slurp(dir + "/bad.out").find("unknown event kind 'teleport'"),
            std::string::npos)
      << slurp(dir + "/bad.out");

  writeFile(dir + "/a.jsonl", std::string(kRowA) + "\n");
  writeFile(dir + "/b.jsonl", std::string(kRowB) + "\n");
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " diff " + dir + "/a.jsonl " + dir +
                     "/b.jsonl > " + dir + "/diff.out 2>&1"),
            1);
  EXPECT_NE(slurp(dir + "/diff.out").find("fact divergence"), std::string::npos);
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " diff " + dir + "/a.jsonl " + dir +
                     "/a.jsonl > " + dir + "/diff.out 2>&1"),
            0);
}

// Every subcommand refuses a flag it does not take, by name, instead of
// ignoring it.
TEST(FleetE2E, EverySubcommandRejectsUnknownFlags) {
  const std::string dir = testDir("subcommand_flags");
  writeFile(dir + "/a.jsonl", std::string(kRowA) + "\n");
  const std::string a = dir + "/a.jsonl";
  const std::vector<std::pair<std::string, std::string>> cases{
      {"merge --out=" + dir + "/o.jsonl --partial-tial " + a, "--partial-tial"},
      {"status --dri=" + dir, "--dri"},
      {"check --strict " + a, "--strict"},
      {"diff --tolerance=0 " + a + " " + a, "--tolerance"},
      {"run scenario" + std::string(kAxes) + " --dir=" + dir + " --out=x.jsonl", "--out"},
  };
  for (const auto& [args, flag] : cases) {
    EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " " + args + " > " + dir +
                       "/out.txt 2>&1"),
              2)
        << args;
    EXPECT_NE(slurp(dir + "/out.txt").find("unknown flag " + flag), std::string::npos)
        << slurp(dir + "/out.txt");
  }
  EXPECT_FALSE(fs::exists(dir + "/o.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/" + kManifestFile));
}

TEST(FleetE2E, RunRejectsCoordinatorOwnedFlags) {
  const std::string dir = testDir("forbidden");
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " run scenario" + kAxes +
                     " --dir=" + dir + " --trace=t.jsonl > " + dir +
                     "/out.txt 2>&1"),
            2);
  EXPECT_NE(slurp(dir + "/out.txt").find("coordinator-owned"),
            std::string::npos);
}

#endif  // DISP_BENCH_BIN && DISP_FLEET_BIN

}  // namespace
}  // namespace disp::fleet
