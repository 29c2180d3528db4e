#pragma once
// Result sinks for the experiment driver.
//
// Every bench renders GitHub-markdown tables to a stream (unchanged from
// the historical binaries, byte for byte).  When a JSON-lines sink is
// attached, each printed table row is mirrored as one JSON object whose
// keys are the column headers and whose values are the rendered cell
// strings — exactly the row dictionaries scripts/record_bench_baseline.sh
// has always parsed out of the markdown, so BENCH_table1.json stays
// format-compatible.  Growth-fit lines are mirrored as {"fit": ...}.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/batch_runner.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace disp::exp {

/// Everything a bench body needs: the markdown stream, an optional JSONL
/// mirror, execution options, and the optional axis overrides (seeds,
/// graph/placement specs, k values) that the --seeds/--graphs/
/// --placements/--ks flags install.
struct BenchContext {
  std::ostream& out;
  JsonlWriter* jsonl = nullptr;
  BatchOptions batch;
  /// When non-empty, replaces each bench's historical single seed.
  std::vector<std::uint64_t> seedOverride{};
  /// When non-empty, replaces a sweep's graph axis (GraphSpec strings).
  std::vector<std::string> graphOverride{};
  /// When non-empty, replaces a sweep's placement axis (PlacementSpec strings).
  std::vector<std::string> placementOverride{};
  /// When non-empty, replaces a sweep's k axis.
  std::vector<std::uint32_t> kOverride{};
  /// When non-empty, replaces a sweep's fault axis (FaultSpec strings).
  std::vector<std::string> faultsOverride{};
  /// Cell-listing mode (disp_bench --list-cells / listBenchCells): bench
  /// bodies must skip work outside BatchRunner — BatchRunner itself returns
  /// after enumeration when BatchOptions::onCellListed is set, but e.g.
  /// scale_real's standalone ingest-timing block must consult this flag.
  bool enumerateOnly = false;

  [[nodiscard]] std::vector<std::uint64_t> seedsOr(std::uint64_t fallback) const {
    return seedOverride.empty() ? std::vector<std::uint64_t>{fallback} : seedOverride;
  }
  [[nodiscard]] std::vector<std::string> graphsOr(
      std::vector<std::string> fallback) const {
    return graphOverride.empty() ? std::move(fallback) : graphOverride;
  }
  [[nodiscard]] std::vector<std::string> placementsOr(
      std::vector<std::string> fallback) const {
    return placementOverride.empty() ? std::move(fallback) : placementOverride;
  }
  [[nodiscard]] std::vector<std::uint32_t> ksOr(
      std::vector<std::uint32_t> fallback) const {
    return kOverride.empty() ? std::move(fallback) : kOverride;
  }
  [[nodiscard]] std::vector<std::string> faultsOr(
      std::vector<std::string> fallback) const {
    return faultsOverride.empty() ? std::move(fallback) : faultsOverride;
  }
  [[nodiscard]] BatchRunner runner() const { return BatchRunner(batch); }
};

/// The role of a mirrored table column wherever two result files are
/// compared (the fleet merge audit, disp_fleet diff): a Coordinate names
/// the cell, Telemetry (wallclock, throughput, memory) may differ between
/// runs of one cell, and every other column is a deterministic Fact.
enum class ColumnRole { Coordinate, Fact, Telemetry };
[[nodiscard]] ColumnRole columnRole(std::string_view name);

/// Prints `# title` + the table to ctx.out and mirrors every row to the
/// JSONL sink (tagged with the sweep name and table title).
void emitTable(BenchContext& ctx, const std::string& sweep, const std::string& title,
               const Table& t);

/// Prints a diagnostic line (fit lines, warnings) and mirrors it to JSONL
/// under the given field name.
void emitNote(BenchContext& ctx, const std::string& sweep, const std::string& field,
              const std::string& line);

/// Adds the time cell for an aggregated sweep cell: the exact integer for a
/// single replicate (historical format), the mean otherwise.
void timeCell(Table& t, const Cell& c);

/// Header helper for replicated sweeps: appends `name` and, when `ci`,
/// a "name ±95" column right after it (single-seed tables stay
/// byte-identical to the historical layout by passing ci = false).
void timeHeader(std::vector<std::string>& header, const std::string& name, bool ci);

/// timeCell plus, when `ci`, the per-cell 95% confidence half-width of the
/// mean time over the non-errored replicates.
void timeCellCi(Table& t, const Cell& c, bool ci);

/// The keys of trace event lines (any traceEventKinds() kind) and sample
/// lines ("event": "sample"), in emit order.  Values are JSON strings; "-"
/// stands for no agent / node / label.
inline constexpr std::array<std::string_view, 8> kTraceEventKeys{
    "cell", "seed", "event", "t", "agent", "node", "a", "b"};
inline constexpr std::array<std::string_view, 7> kTraceSampleKeys{
    "cell", "seed", "event", "t", "epochs", "settled", "moves"};

/// Thread-safe JSON-lines sink for run traces (disp_bench --trace).  Its
/// observe() hook matches BatchOptions::observe: each replicate gets an
/// onEvent stream plus sampled snapshot rows in the kTraceEventKeys /
/// kTraceSampleKeys shapes, every line self-describing with the cell key
/// and seed (concurrent replicates interleave by line, never within one).
class TraceJsonl {
 public:
  /// Snapshot cadence per run: every `sampleEvery` rounds/activations.
  TraceJsonl(std::ostream& os, std::uint64_t sampleEvery)
      : writer_(os), sampleEvery_(sampleEvery) {}

  /// BatchOptions::observe-compatible hook.
  void observe(const CellKey& key, std::uint64_t seed, RunOptions& opts);

 private:
  std::mutex mutex_;
  JsonlWriter writer_;
  std::uint64_t sampleEvery_;
};

/// Plotting-friendly settled/moves trajectory sink (disp_bench
/// --trajectory): one CSV row per sampled snapshot,
///   cell,seed,t,epochs,settled,moves
/// with the header emitted on construction.  Thread-safe like TraceJsonl;
/// rows from concurrent replicates interleave but each is self-describing.
class TrajectoryCsv {
 public:
  /// Snapshot cadence per run: every `sampleEvery` rounds/activations.
  TrajectoryCsv(std::ostream& os, std::uint64_t sampleEvery);

  /// BatchOptions::observe-compatible hook.
  void observe(const CellKey& key, std::uint64_t seed, RunOptions& opts);

 private:
  std::mutex mutex_;
  std::ostream& os_;
  std::uint64_t sampleEvery_;
};

}  // namespace disp::exp
