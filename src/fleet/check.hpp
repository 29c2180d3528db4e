#pragma once
// The checkers behind `disp_fleet check` and `disp_fleet diff` (DESIGN.md
// §7.4, §13.4-5).  Each reads the one C++ definition its emitter writes
// from (a stream schema or the column roles), so the two cannot drift.

#include <iosfwd>
#include <string>
#include <vector>

namespace disp::fleet {

struct CheckResult {
  std::vector<std::string> diagnostics;  ///< "path:line: why"; empty = pass
  std::string summary;                   ///< what was checked (kind counts, rows)

  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
};

/// A disp_bench --trace stream against exp::kTraceEventKeys /
/// kTraceSampleKeys and traceEventKinds(): exact key sets, numeric-or-"-"
/// fields, and per (cell, seed) stream t never decreasing, a settle-collapse
/// balance never negative, and a final sample equal to that balance.
[[nodiscard]] CheckResult checkTraceStream(std::istream& in, const std::string& path);

/// A fleet_events.jsonl stream against fleetEventSchema(): exact key sets
/// and value types, run_start first and run_done last, seq strictly
/// increasing, t_ms monotonic within a run, exits never exceeding spawns.
[[nodiscard]] CheckResult checkFleetEvents(std::istream& in, const std::string& path);

/// Opens `path` and runs checkFleetEvents when its first record has "seq",
/// checkTraceStream otherwise.
[[nodiscard]] CheckResult checkFile(const std::string& path);

/// Compares two result files' rows as multisets of factPayload (telemetry
/// stripped); on a mismatch, names the first rows each file has that the
/// other lacks.
[[nodiscard]] CheckResult diffFacts(const std::string& refPath, const std::string& candPath);

}  // namespace disp::fleet
