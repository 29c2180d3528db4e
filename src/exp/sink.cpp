#include "exp/sink.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <utility>

namespace disp::exp {

ColumnRole columnRole(std::string_view name) {
  static constexpr std::string_view kCoordinates[] = {
      "sweep", "table", "family", "graph",  "file",   "k",
      "l",     "placement", "sched", "algo", "faults", "seed",
  };
  // `runs` too: the wallclock sweep repeats a config for 100 ms.
  static constexpr std::string_view kMachineDependent[] = {
      "total_ms", "ms/run",      "runs",      "Mact/s",   "Mmoves/s",
      "load_ms",  "peak_rss_mb", "rss_lb_mb", "rss_ratio",
  };
  const auto in = [name](const auto& list) {
    return std::find(std::begin(list), std::end(list), name) != std::end(list);
  };
  return in(kCoordinates)        ? ColumnRole::Coordinate
         : in(kMachineDependent) ? ColumnRole::Telemetry
                                 : ColumnRole::Fact;
}

void emitTable(BenchContext& ctx, const std::string& sweep, const std::string& title,
               const Table& t) {
  t.print(ctx.out, title);
  if (!ctx.jsonl) return;
  const std::vector<std::string>& header = t.header();
  for (const std::vector<std::string>& row : t.data()) {
    std::vector<std::pair<std::string, std::string>> fields;
    fields.reserve(header.size() + 2);
    fields.emplace_back("sweep", sweep);
    fields.emplace_back("table", title);
    for (std::size_t i = 0; i < header.size() && i < row.size(); ++i) {
      fields.emplace_back(header[i], row[i]);
    }
    ctx.jsonl->record(fields);
  }
}

void emitNote(BenchContext& ctx, const std::string& sweep, const std::string& field,
              const std::string& line) {
  ctx.out << line << "\n";
  if (ctx.jsonl) ctx.jsonl->record({{"sweep", sweep}, {field, line}});
}

void timeCell(Table& t, const Cell& c) {
  if (c.replicates.size() == 1) {
    t.cell(c.first().run.time);
  } else {
    t.cell(c.meanTime(), 1);
  }
}

void timeHeader(std::vector<std::string>& header, const std::string& name, bool ci) {
  header.push_back(name);
  if (ci) header.push_back(name + " ±95");
}

void timeCellCi(Table& t, const Cell& c, bool ci) {
  timeCell(t, c);
  if (ci) t.cell(ci95(c.time), 1);
}

namespace {

/// Pairs each schema key with its value, in schema order.
template <std::size_t N, class... Values>
std::vector<std::pair<std::string, std::string>> traceLine(
    const std::array<std::string_view, N>& keys, Values&&... values) {
  static_assert(sizeof...(Values) == N, "one value per schema key");
  std::vector<std::pair<std::string, std::string>> fields;
  std::size_t i = 0;
  (fields.emplace_back(keys[i++], std::forward<Values>(values)), ...);
  return fields;
}

}  // namespace

void TraceJsonl::observe(const CellKey& key, std::uint64_t seed, RunOptions& opts) {
  opts.sampleEvery = sampleEvery_;
  const std::string cell = key.describe();
  const std::string seedStr = std::to_string(seed);
  opts.onEvent = [this, cell, seedStr](const TraceEvent& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    writer_.record(traceLine(kTraceEventKeys, cell, seedStr, traceEventKindName(e.kind),
                             std::to_string(e.time),
                             e.agent == kNoAgent ? "-" : std::to_string(e.agent),
                             e.node == kInvalidNode ? "-" : std::to_string(e.node),
                             e.a == kNoTraceLabel ? "-" : std::to_string(e.a),
                             e.b == kNoTraceLabel ? "-" : std::to_string(e.b)));
  };
  const auto snapshot = [this, cell, seedStr](const StepSnapshot& s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    writer_.record(traceLine(kTraceSampleKeys, cell, seedStr, "sample",
                             std::to_string(s.time), std::to_string(s.epochs),
                             std::to_string(s.settled),
                             std::to_string(s.totalMoves)));
  };
  opts.onRound = snapshot;
  opts.onActivation = snapshot;
}

TrajectoryCsv::TrajectoryCsv(std::ostream& os, std::uint64_t sampleEvery)
    : os_(os), sampleEvery_(sampleEvery) {
  os_ << "cell,seed,t,epochs,settled,moves\n";
}

void TrajectoryCsv::observe(const CellKey& key, std::uint64_t seed,
                            RunOptions& opts) {
  opts.sampleEvery = sampleEvery_;
  // CSV-quote the cell key (it contains no quotes, but does contain
  // spaces/equals signs that some readers split on).
  const std::string cell = "\"" + key.describe() + "\"";
  const std::string seedStr = std::to_string(seed);
  const auto snapshot = [this, cell, seedStr](const StepSnapshot& s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Flush per row, like the JSONL sinks: a killed sweep keeps every
    // sampled point written so far.
    os_ << cell << ',' << seedStr << ',' << s.time << ',' << s.epochs << ','
        << s.settled << ',' << s.totalMoves << '\n'
        << std::flush;
  };
  opts.onRound = snapshot;
  opts.onActivation = snapshot;
}

}  // namespace disp::exp
