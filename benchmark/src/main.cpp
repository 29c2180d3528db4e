// disp_perf — the repository benchmark (see benchmark/README.md).
//
//   disp_perf --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE --work-dir DIR [--spans-out FILE]
//             [--commit TEXT] [--pin-reference]
//
// Sets the workload up several times (setup_s is the median), then repeats
// its fixed rep until S seconds are spent, checks every run (check.hpp) and
// prints one metric per line followed by a one-line JSON result.  With
// --trace 0 the metrics are the end-to-end ones, measured with no span or
// observer the workload does not itself install.  With --trace 1 every rep
// is paired: each run's session runs three times back to back on one thread
// (bare, with the counting observer, and traced: spans around every call
// into the library, observer hooks splitting the session), and the metrics
// are the per-layer ones.  --pin-reference runs one rep at the
// default seed and rewrites that workload's facts in FILE.
//
// Entry points used: makeGraph, PlacementSpec::place, runSession,
// loadAnyGraph / writeGraphalytics, exp::parallelFor and util/mem.

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/placement.hpp"
#include "algo/runner.hpp"
#include "check.hpp"
#include "exp/batch_runner.hpp"
#include "graph/graph_io.hpp"
#include "graph/spec.hpp"
#include "spans.hpp"
#include "util/mem.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Set-up runs at least kMinSetups times and until kSetupSeconds have passed
// (at most kMaxSetups times), so that even a cheap set-up has a steady median.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 64;
constexpr double kSetupSeconds = 3.0;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;

/// Plain: the workload as defined.  Paired: each run's graph and placement
/// feed three sessions back to back on one thread (see Variant), which the
/// trace.* and bench.* metrics compare.  Memory: plain, with the RSS
/// watermark reset around each layer call; its timings are not used.
enum class RepMode { Plain, Paired, Memory };

/// The sessions of a paired run.  Bare: no observer.  Observed: the counting
/// onEvent observer only.  Traced: that observer plus the run-end snapshot
/// hook that splits the session into setup / loop / teardown spans.
enum Variant : std::size_t { kBare, kObserved, kTraced, kVariants };

double msBetween(std::int64_t a, std::int64_t b) { return double(b - a) / 1e6; }

/// Observer state of one session: event counts by kind, and with `stamp`
/// the times of the first callback and of the final snapshot.
struct Tap {
  bool stamp = false;
  std::int64_t firstNs = -1;
  std::int64_t lastNs = -1;
  std::array<std::uint64_t, 32> byKind{};

  void event(const disp::TraceEvent& e) {
    ++byKind[std::min<std::size_t>(static_cast<std::size_t>(e.kind), byKind.size() - 1)];
    if (stamp && firstNs < 0) firstNs = nowNs();
  }
  void step() {
    lastNs = nowNs();
    if (firstNs < 0) firstNs = lastNs;
  }
};

struct SessionOutcome {
  disp::RunResult result;
  bool observed = false;
  std::array<std::uint64_t, 32> eventsByKind{};
  std::int64_t startNs = 0;
  std::int64_t firstNs = 0;  ///< first observer callback (split sessions)
  std::int64_t lastNs = 0;  ///< final snapshot (split sessions)
  std::int64_t endNs = 0;

  [[nodiscard]] double ms() const { return msBetween(startNs, endNs); }
  [[nodiscard]] std::uint64_t events() const {
    std::uint64_t n = 0;
    for (const std::uint64_t c : eventsByKind) n += c;
    return n;
  }
  [[nodiscard]] std::uint64_t moveEvents() const {
    return eventsByKind[static_cast<std::size_t>(disp::TraceEventKind::Move)];
  }
};

struct RunOutcome {
  bool threw = false;
  std::string error;
  /// One session, or kVariants sessions indexed by Variant in a paired rep.
  std::vector<SessionOutcome> sessions;
  std::size_t plainIndex = 0;  ///< the session that runs the workload as defined
  bool builtGraph = false;
  double graphMs = 0.0;
  double placementMs = 0.0;
  double runMs = 0.0;  ///< graph build + placement + session(s)
  double graphMb = 0.0;  ///< memory rep: RSS peak above the start of the build
  double sessionMb = 0.0;  ///< memory rep: RSS peak above the session's start

  [[nodiscard]] const SessionOutcome& plain() const { return sessions[plainIndex]; }
};

struct RepOutcome {
  RepMode mode = RepMode::Plain;
  double wallS = 0.0;
  double ingestMs = 0.0;
  double ingestMb = 0.0;
  std::vector<RunOutcome> runs;
};

/// Starts an RSS measurement: resets the peak (which first returns freed
/// heap pages to the OS) and returns the RSS it starts from.
double startMemory() {
  (void)disp::resetPeakRss();
  return disp::currentRssMb();
}

/// One runSession call.  `observe` installs the counting onEvent observer;
/// `split` also installs the run-end snapshot hook and stamps the first
/// callback and the final snapshot.
SessionOutcome timedSession(const disp::Graph& g, const disp::Placement& placement,
                            const RunPlan& p, bool observe, bool split) {
  SessionOutcome s;
  s.observed = observe;
  Tap tap;
  tap.stamp = split;
  disp::RunOptions opts;
  opts.algorithm = p.algorithm;
  opts.scheduler = p.scheduler;
  opts.seed = p.seed;
  opts.faults = p.faults;
  if (observe) opts.onEvent = [&tap](const disp::TraceEvent& e) { tap.event(e); };
  if (split) {
    // Only the run-end snapshot fires: a per-step snapshot costs O(k).
    const auto step = [&tap](const disp::StepSnapshot&) { tap.step(); };
    if (p.async()) {
      opts.onActivation = step;
    } else {
      opts.onRound = step;
    }
    opts.sampleEvery = std::numeric_limits<std::uint64_t>::max();
  }
  s.startNs = nowNs();
  s.result = disp::runSession(g, placement, opts);
  s.endNs = nowNs();
  s.firstNs = tap.firstNs < 0 ? s.endNs : tap.firstNs;
  s.lastNs = tap.lastNs < 0 ? s.endNs : tap.lastNs;
  s.eventsByKind = tap.byKind;
  return s;
}

/// Runs one plan.  In a paired rep the three variants run in an order that
/// starts at `rotation`, so that no variant always runs first on warm data.
RunOutcome executeRun(const Workload& w, const RunPlan& p, const disp::Graph* shared,
                      RepMode mode, std::size_t rotation, SpanLog* spans,
                      std::int64_t repSpan) {
  RunOutcome out;
  const bool paired = mode == RepMode::Paired;
  const bool memory = mode == RepMode::Memory;
  out.sessions.resize(paired ? std::size_t{kVariants} : 1);
  if (paired) out.plainIndex = w.observeEvents ? std::size_t{kObserved} : std::size_t{kBare};
  // Local span group: 0 cell, then graph / placement / bare / observed /
  // session (parent 0), then setup / loop / teardown (parent = the session).
  std::vector<Span> group;
  group.push_back({"cell", kNoParent, nowNs(), 0});
  try {
    std::optional<disp::Graph> built;
    const disp::Graph* g = shared;
    if (g == nullptr) {
      const double rss = memory ? startMemory() : 0.0;
      const std::int64_t a = nowNs();
      built.emplace(disp::makeGraph(p.graph, p.n, p.seed));
      const std::int64_t b = nowNs();
      if (memory) out.graphMb = disp::peakRssMb() - rss;
      out.builtGraph = true;
      out.graphMs = msBetween(a, b);
      group.push_back({"graph", 0, a, b});
      g = &*built;
    }
    const std::int64_t a = nowNs();
    const disp::Placement placement =
        disp::PlacementSpec::parse(p.placement).place(*g, p.k, p.seed);
    const std::int64_t b = nowNs();
    out.placementMs = msBetween(a, b);
    group.push_back({"placement", 0, a, b});

    if (!paired) {
      const double rss = memory ? startMemory() : 0.0;
      out.sessions[0] = timedSession(*g, placement, p, w.observeEvents, false);
      if (memory) out.sessionMb = disp::peakRssMb() - rss;
    } else {
      for (std::size_t j = 0; j < kVariants; ++j) {
        const std::size_t v = (rotation + j) % kVariants;
        out.sessions[v] = timedSession(*g, placement, p, v != kBare, v == kTraced);
      }
      const SessionOutcome& bare = out.sessions[kBare];
      const SessionOutcome& observed = out.sessions[kObserved];
      const SessionOutcome& t = out.sessions[kTraced];
      group.push_back({"bare", 0, bare.startNs, bare.endNs});
      group.push_back({"observed", 0, observed.startNs, observed.endNs});
      const auto session = static_cast<std::int64_t>(group.size());
      group.push_back({"session", 0, t.startNs, t.endNs});
      group.push_back({"setup", session, t.startNs, t.firstNs});
      group.push_back({"loop", session, t.firstNs, t.lastNs});
      group.push_back({"teardown", session, t.lastNs, t.endNs});
    }
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  group.front().endNs = nowNs();
  out.runMs = msBetween(group.front().startNs, group.front().endNs);
  if (paired && spans != nullptr) (void)spans->append(group, repSpan);
  return out;
}

void forEachRun(const Workload& w, unsigned threads,
                const std::function<void(std::size_t)>& fn) {
  if (threads <= 1) {
    for (std::size_t i = 0; i < w.runs.size(); ++i) fn(i);
  } else {
    disp::exp::parallelFor(threads, w.runs.size(), fn);
  }
}

RepOutcome runRep(const Workload& w, RepMode mode, std::size_t repIndex,
                  const std::string& dataset, SpanLog* spans) {
  RepOutcome rep;
  rep.mode = mode;
  rep.runs.resize(w.runs.size());
  const bool traced = mode == RepMode::Paired && spans != nullptr;
  const std::int64_t repSpan = traced ? spans->open("rep", kNoParent) : kNoParent;
  const std::int64_t start = nowNs();
  {
    std::optional<disp::Graph> ingested;
    if (!w.dataset.empty()) {
      const double rss = mode == RepMode::Memory ? startMemory() : 0.0;
      const std::int64_t a = nowNs();
      ingested.emplace(disp::loadAnyGraph(dataset + ".e"));
      const std::int64_t b = nowNs();
      if (mode == RepMode::Memory) rep.ingestMb = disp::peakRssMb() - rss;
      rep.ingestMs = msBetween(a, b);
      if (traced) {
        const std::array<Span, 1> load{Span{"ingest", kNoParent, a, b}};
        (void)spans->append(load, repSpan);
      }
    }
    const disp::Graph* shared = ingested ? &*ingested : nullptr;
    // The memory rep runs serially, so that each RSS peak is one run's.
    forEachRun(w, mode == RepMode::Memory ? 1 : w.threads, [&](std::size_t i) {
      rep.runs[i] = executeRun(w, w.runs[i], shared, mode, i + repIndex, spans, repSpan);
    });
  }
  rep.wallS = msBetween(start, nowNs()) / 1e3;
  if (traced) spans->close(repSpan);
  return rep;
}

/// Writes the dataset (ingest_scale) or materializes every run's graph and
/// placement once (the others): parses every spec and warms the allocator
/// and the generators before the timed phase.
double setupOnce(const Workload& w, const std::string& dataset) {
  const std::int64_t start = nowNs();
  if (!w.dataset.empty()) {
    const disp::Graph g = disp::makeGraph(w.dataset, 0, w.datasetSeed);
    disp::writeGraphalytics(dataset, g);
  } else {
    forEachRun(w, w.threads, [&](std::size_t i) {
      const RunPlan& p = w.runs[i];
      const disp::Graph g = disp::makeGraph(p.graph, p.n, p.seed);
      (void)disp::PlacementSpec::parse(p.placement).place(g, p.k, p.seed);
    });
  }
  return msBetween(start, nowNs()) / 1e3;
}

// ------------------------------------------------------------------ stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< human-readable context (sample count, ...)
};

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  std::array<char, 64> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return {buf.data(), res.ptr};
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// -------------------------------------------------------------- metrics

using Reps = std::vector<const RepOutcome*>;

Reps repsOf(const std::vector<RepOutcome>& all, RepMode mode) {
  Reps out;
  for (const RepOutcome& r : all) {
    if (r.mode == mode) out.push_back(&r);
  }
  return out;
}

/// Median over reps of a per-rep value.
template <typename Fn>
double medianOver(const Reps& reps, Fn fn) {
  std::vector<double> v;
  for (const RepOutcome* r : reps) v.push_back(fn(*r));
  return median(v);
}

std::vector<Metric> endToEnd(const Workload& w, const std::vector<RepOutcome>& all,
                             const std::vector<double>& setups) {
  const Reps plain = repsOf(all, RepMode::Plain);
  std::vector<double> runMs;
  for (const RepOutcome* r : plain) {
    for (const RunOutcome& o : r->runs) runMs.push_back(o.runMs);
  }
  const std::string reps = "median of " + std::to_string(plain.size()) + " reps";
  const std::string runs = "over " + std::to_string(runMs.size()) + " runs";
  return {
      {"wall_s", medianOver(plain, [](const RepOutcome& r) { return r.wallS; }), "s",
       reps + " of " + std::to_string(w.runs.size()) + " runs each"},
      {"mact_per_s", medianOver(plain,
                                [](const RepOutcome& r) {
                                  double act = 0;
                                  for (const RunOutcome& o : r.runs) {
                                    act += double(o.plain().result.activations);
                                  }
                                  return ratio(act, r.wallS) / 1e6;
                                }),
       "Mact/s", reps},
      {"run_ms_p50", quantile(runMs, 0.5), "ms", runs},
      {"run_ms_p90", quantile(runMs, 0.9), "ms",
       runs + (runMs.size() < 100 ? " (fewer than 10 beyond p90)" : "")},
      {"peak_rss_mb", disp::peakRssMb(), "MB", "process VmHWM"},
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
  };
}

/// Σ session ms ÷ Σ activations over the runs `pick` selects, in ns.
template <typename Pick>
double nsPerActivation(const RepOutcome& r, Pick pick) {
  double ms = 0.0;
  double act = 0.0;
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    if (!pick(i)) continue;
    ms += r.runs[i].plain().ms();
    act += double(r.runs[i].plain().result.activations);
  }
  return ratio(ms * 1e6, act);
}

/// Σ over runs of the median over paired reps of num(run), ÷ the same sum
/// of den(run).  The sessions compared run back to back on one thread, so a
/// drift of the host cancels; the median over reps drops a session that the
/// host interrupted; the sums weigh each run by its size.
template <typename Num, typename Den>
double pairedRatio(const Reps& paired, Num num, Den den) {
  double numSum = 0.0;
  double denSum = 0.0;
  for (std::size_t i = 0; i < paired.front()->runs.size(); ++i) {
    std::vector<double> nums;
    std::vector<double> dens;
    for (const RepOutcome* r : paired) {
      nums.push_back(num(r->runs[i]));
      dens.push_back(den(r->runs[i]));
    }
    numSum += median(nums);
    denSum += median(dens);
  }
  return ratio(numSum, denSum);
}

std::vector<Metric> perLayer(const Workload& w, const std::vector<RepOutcome>& all,
                             double datasetMb) {
  const Reps paired = repsOf(all, RepMode::Paired);
  const Reps memory = repsOf(all, RepMode::Memory);
  const RepOutcome& first = *paired.front();
  const auto isAsync = [&](std::size_t i) { return w.runs[i].async(); };
  const auto isSync = [&](std::size_t i) { return !w.runs[i].async(); };
  const auto isFaulted = [&](std::size_t i) { return w.runs[i].faulted(); };

  std::vector<double> setupMs, loopMs, teardownMs, graphMs, placementMs;
  for (const RepOutcome* r : paired) {
    for (const RunOutcome& o : r->runs) {
      const SessionOutcome& t = o.sessions[kTraced];
      setupMs.push_back(msBetween(t.startNs, t.firstNs));
      loopMs.push_back(msBetween(t.firstNs, t.lastNs));
      teardownMs.push_back(msBetween(t.lastNs, t.endNs));
      if (o.builtGraph) graphMs.push_back(o.graphMs);
      placementMs.push_back(o.placementMs);
    }
  }

  double moves = 0, activations = 0, injected = 0, faultedRuns = 0, recovered = 0;
  double events = 0;
  for (std::size_t i = 0; i < first.runs.size(); ++i) {
    const disp::RunResult& res = first.runs[i].plain().result;
    moves += double(res.totalMoves);
    activations += double(res.activations);
    injected += double(res.faultsInjected);
    events += double(first.runs[i].sessions[kObserved].events());
    if (w.runs[i].faulted()) {
      ++faultedRuns;
      recovered += res.recovered ? 1 : 0;
    }
  }

  const double nsPerEvent = pairedRatio(
      paired,
      [](const RunOutcome& o) {
        return (o.sessions[kObserved].ms() - o.sessions[kBare].ms()) * 1e6;
      },
      [](const RunOutcome& o) { return double(o.sessions[kObserved].events()); });
  const double spanOverhead = pairedRatio(
      paired, [](const RunOutcome& o) { return o.sessions[kTraced].ms() - o.plain().ms(); },
      [](const RunOutcome& o) { return o.plain().ms(); });

  const double ingestMs = medianOver(paired, [](const RepOutcome& r) { return r.ingestMs; });
  double graphMb = 0, sessionMb = 0, bytesPerAgent = 0;
  for (const RepOutcome* r : memory) {
    graphMb = std::max(graphMb, r->ingestMb);
    for (std::size_t i = 0; i < r->runs.size(); ++i) {
      const RunOutcome& o = r->runs[i];
      graphMb = std::max(graphMb, o.graphMb);
      sessionMb = std::max(sessionMb, o.sessionMb);
      bytesPerAgent = std::max(bytesPerAgent, o.sessionMb * 1048576.0 / double(w.runs[i].k));
    }
  }

  const std::string nTraced = "median of " + std::to_string(setupMs.size()) + " traced runs";
  const std::string perRun =
      "per-run medians over " + std::to_string(paired.size()) + " paired reps, summed";
  return {
      {"async.ns_per_activation",
       medianOver(paired, [&](const RepOutcome& r) { return nsPerActivation(r, isAsync); }),
       "ns", "ASYNC session time / activations"},
      {"session.move_frac", ratio(moves, activations), "frac", "moves / activations"},
      {"sync.ns_per_activation",
       medianOver(paired, [&](const RepOutcome& r) { return nsPerActivation(r, isSync); }),
       "ns", "SYNC session time / activations"},
      {"session.setup_ms", median(setupMs), "ms", nTraced},
      {"session.loop_ms", median(loopMs), "ms", nTraced},
      {"session.teardown_ms", median(teardownMs), "ms", nTraced},
      {"graph.build_ms", median(graphMs), "ms",
       "median of " + std::to_string(graphMs.size()) + " traced builds"},
      {"placement.ms", median(placementMs), "ms", nTraced},
      {"placement.max_ms",
       placementMs.empty() ? 0.0 : *std::max_element(placementMs.begin(), placementMs.end()),
       "ms", "slowest traced placement"},
      {"trace.events", events, "count", "onEvent callbacks per rep"},
      {"trace.ns_per_event", nsPerEvent, "ns",
       "(observed - bare session) / events, " + perRun},
      {"faults.injected", injected, "count", "fault events applied per rep"},
      {"faults.recovered_frac", ratio(recovered, faultedRuns), "frac",
       std::to_string(static_cast<long long>(faultedRuns)) + " faulted runs per rep"},
      {"faults.ns_per_activation",
       medianOver(paired, [&](const RepOutcome& r) { return nsPerActivation(r, isFaulted); }),
       "ns", "faulted session time / activations"},
      {"exp.parallel_efficiency",
       medianOver(paired,
                  [&](const RepOutcome& r) {
                    double runMs = 0;
                    for (const RunOutcome& o : r.runs) runMs += o.runMs;
                    return ratio(runMs, double(w.threads) * r.wallS * 1e3);
                  }),
       "frac", "sum of run wall / (" + std::to_string(w.threads) + " threads x rep wall)"},
      {"graph.ingest_ms", ingestMs, "ms", "loadAnyGraph"},
      {"graph.ingest_mb_per_s", ratio(datasetMb, ingestMs / 1e3), "MB/s",
       number(datasetMb) + " MB dataset"},
      {"mem.graph_mb", graphMb, "MB", "largest RSS rise over a graph build or load"},
      {"mem.session_mb", sessionMb, "MB", "largest RSS rise over a session"},
      {"mem.bytes_per_agent", bytesPerAgent, "B", "session RSS peak / k"},
      {"bench.span_overhead_frac", spanOverhead, "frac",
       "(traced - untraced session) / untraced session, " + perRun},
  };
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string workDir;
  std::string spansOut;
  std::string commit = "unknown";
  bool pin = false;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument(what);
  };
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const auto eq = key.find('=');
    const bool flag = key == "--pin-reference";
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (!flag) {
      if (i + 1 >= argc) fail("missing value for " + key);
      value = argv[++i];
    }
    const auto integer = [&]() {
      std::uint64_t v = 0;
      const auto res = std::from_chars(value.data(), value.data() + value.size(), v);
      if (res.ec != std::errc{} || res.ptr != value.data() + value.size()) {
        fail(key + ": not a non-negative integer: '" + value + "'");
      }
      return v;
    };
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = integer();
    } else if (key == "--seconds") {
      const auto res = std::from_chars(value.data(), value.data() + value.size(), a.seconds);
      if (res.ec != std::errc{} || res.ptr != value.data() + value.size() ||
          !(a.seconds > 0.0) || a.seconds > 3600.0) {
        fail("--seconds: not a positive number of seconds: '" + value + "'");
      }
    } else if (key == "--trace") {
      const std::uint64_t t = integer();
      if (t > 1) fail("--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (key == "--reference") {
      a.reference = value;
    } else if (key == "--work-dir") {
      a.workDir = value;
    } else if (key == "--spans-out") {
      a.spansOut = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else if (flag) {
      a.pin = true;
    } else {
      fail("unknown option " + key);
    }
  }
  if (a.workload.empty()) fail("--workload is required");
  if (a.reference.empty()) fail("--reference is required");
  if (a.workDir.empty()) fail("--work-dir is required");
  if (a.pin && a.seed != kDefaultSeed) {
    fail("--pin-reference needs the default seed " + std::to_string(kDefaultSeed));
  }
  return a;
}

void printStamp(const Args& a, const Workload& w) {
  std::cout << "# workload=" << w.name << " seed=" << a.seed << " seconds=" << a.seconds
            << " trace=" << int{a.trace} << " commit=" << a.commit
            << " hardware_threads=" << std::thread::hardware_concurrency()
            << " threads=" << w.threads << " build_type=" << PERF_BUILD_TYPE
            << " compiler=\"" << PERF_COMPILER << "\"\n";
#ifndef NDEBUG
  std::cout << "# WARNING: assertions enabled (NDEBUG unset); timings are not comparable\n";
#endif
  if (std::string(PERF_BUILD_TYPE) != "Release") {
    std::cout << "# WARNING: non-Release build (" << PERF_BUILD_TYPE
              << "); timings are not comparable\n";
  }
}

int run(const Args& a) {
  const Workload w = makeWorkload(a.workload, a.seed);
  printStamp(a, w);
  std::filesystem::create_directories(a.workDir);
  const std::string dataset =
      a.workDir + "/" + w.name + "-seed" + std::to_string(a.seed);
  // Removes the dataset on every exit path.
  struct Cleanup {
    std::string base;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove(base + ".v", ec);
      std::filesystem::remove(base + ".e", ec);
    }
  } cleanup{dataset};

  Reference reference;
  if (a.seed == kDefaultSeed) {
    if (a.pin && !std::filesystem::exists(a.reference)) {
      reference = Reference{};
    } else {
      reference = Reference::load(a.reference);
    }
  }

  std::vector<double> setups;
  double setupTotal = 0.0;
  while (setups.size() < kMinSetups ||
         (setupTotal < kSetupSeconds && setups.size() < kMaxSetups)) {
    setups.push_back(setupOnce(w, dataset));
    setupTotal += setups.back();
  }
  double datasetMb = 0.0;
  if (!w.dataset.empty()) {
    datasetMb = double(std::filesystem::file_size(dataset + ".v") +
                       std::filesystem::file_size(dataset + ".e")) /
                1048576.0;
  }

  // Each rep is checked as soon as it ends and its final positions are
  // dropped, so memory does not grow with the number of reps.
  Checker checker(a.seed == kDefaultSeed && !a.pin ? &reference : nullptr);
  std::vector<RepOutcome> reps;
  const auto record = [&](RepOutcome rep) {
    for (std::size_t i = 0; i < rep.runs.size(); ++i) {
      RunOutcome& o = rep.runs[i];
      for (SessionOutcome& s : o.sessions) {
        (void)checker.check({w.name, w.runs[i].id, o.threw ? nullptr : &s.result, o.error,
                             s.observed, s.moveEvents()});
        std::vector<disp::NodeId>().swap(s.result.finalPositions);
        if (o.threw) break;
      }
    }
    reps.push_back(std::move(rep));
  };
  SpanLog spans(kSpanCapacity);
  if (a.pin) {
    record(runRep(w, RepMode::Plain, 0, dataset, nullptr));
  } else {
    const RepMode mode = a.trace ? RepMode::Paired : RepMode::Plain;
    const std::int64_t start = nowNs();
    for (std::size_t i = 0;; ++i) {
      record(runRep(w, mode, i, dataset, &spans));
      if (msBetween(start, nowNs()) >= a.seconds * 1e3) break;
    }
  }
  std::vector<Metric> metrics = a.trace ? std::vector<Metric>{} : endToEnd(w, reps, setups);
  if (a.trace) record(runRep(w, RepMode::Memory, 0, dataset, nullptr));

  for (const auto& [run, f] : checker.failures()) {
    std::cout << "# FAIL " << run << " (" << f.count << "x): " << f.reason << "\n";
  }

  if (a.pin) {
    if (checker.failed() != 0) {
      std::cerr << "disp_perf: not pinning a workload with failing runs\n";
      return 1;
    }
    reference.forget(w.name);
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
      reference.pin(w.name, w.runs[i].id, factsOf(reps.front().runs[i].plain().result));
    }
    reference.save(a.reference);
    std::cout << "# pinned " << w.runs.size() << " runs of " << w.name << " in "
              << a.reference << "\n";
    return 0;
  }

  bool correct = checker.failed() == 0;
  if (a.trace) {
    metrics = perLayer(w, reps, datasetMb);
    const std::size_t bad = spans.nestingViolations();
    std::cout << "# spans: " << spans.size() << " recorded, " << spans.dropped()
              << " groups dropped, " << bad << " not nested in their parent\n";
    if (bad != 0) correct = false;
    if (!a.spansOut.empty()) {
      std::filesystem::create_directories(
          std::filesystem::path(a.spansOut).parent_path());
      spans.write(a.spansOut);
      std::cout << "# spans written to " << a.spansOut << "\n";
    }
    std::array<std::uint64_t, 32> byKind{};
    for (const RunOutcome& o : repsOf(reps, RepMode::Paired).front()->runs) {
      for (std::size_t k = 0; k < byKind.size(); ++k) {
        byKind[k] += o.sessions[kObserved].eventsByKind[k];
      }
    }
    std::cout << "# events per rep:";
    for (std::size_t k = 0; k <= static_cast<std::size_t>(disp::TraceEventKind::FaultSilent);
         ++k) {
      std::cout << ' '
                << disp::traceEventKindName(static_cast<disp::TraceEventKind>(k))
                << '=' << byKind[k];
    }
    std::cout << "\n";
  }

  std::cout << "# rep wall s:";
  for (const RepOutcome& r : reps) {
    if (r.mode != RepMode::Memory) std::cout << ' ' << number(r.wallS);
  }
  std::cout << "\n";
  const double failedFrac = ratio(double(checker.failed()), double(checker.attempted()));
  std::cout << "# failed_frac " << number(failedFrac) << " frac (" << checker.failed()
            << " of " << checker.attempted() << " runs)\n";
  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " " << number(m.value) << " " << m.unit;
    if (!m.note.empty()) std::cout << " (" << m.note << ")";
    std::cout << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << checker.attempted() << ", \"failed\": " << checker.failed()
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json << ", ";
    json << jsonString(metrics[i].name) << ": {\"value\": " << number(metrics[i].value)
         << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::cerr << "disp_perf: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "disp_perf: " << e.what() << "\n";
    return 1;
  }
}
