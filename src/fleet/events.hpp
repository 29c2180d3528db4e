#pragma once
// fleet_events.jsonl — the fabric's own observability stream.
//
// Every coordinator action (spawn/exit/retry/stall/poison/resume/merge/…)
// appends one self-describing JSON line carrying a monotonic sequence
// number, so an overnight campaign is diagnosable after the fact and a
// resumed coordinator continues the same file without renumbering.  Each
// line is {"seq", "t_ms", "event": kind, ...the kind's fields}, all values
// JSON strings; fleetEventSchema() defines the kinds and their fields for
// emit() and checkFleetEvents alike.
//
// t_ms is wall-clock milliseconds since the *current* coordinator process
// started — telemetry, monotonic within one run; seq is monotonic across
// runs (resume scans the tail of an existing file to continue it).

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace disp::fleet {

/// A field's value: free text, a non-negative integer, or "yes"/"no".
enum class FieldType { Text, Count, YesNo };
using EventFields = std::vector<std::pair<std::string_view, FieldType>>;

/// The fields of event `kind` besides seq and t_ms (Counts) and event, in
/// emit order; nullptr when `kind` is not a fleet event kind.
[[nodiscard]] const EventFields* fleetEventSchema(std::string_view kind);

class FleetEventLog {
 public:
  /// Opens `path` in append mode; when the file already has events, the
  /// sequence continues after the highest existing "seq".  Throws on I/O
  /// failure.
  explicit FleetEventLog(const std::string& path);

  /// Appends {"seq", "t_ms", "event": kind, fields...} and flushes (the
  /// stream must survive a SIGKILL'd coordinator just like shard rows do).
  /// Throws std::logic_error when `kind` or its key set is not in
  /// fleetEventSchema().
  void emit(const std::string& kind,
            std::vector<std::pair<std::string, std::string>> fields);

  [[nodiscard]] std::uint64_t nextSeq() const { return seq_; }

 private:
  std::ofstream out_;
  std::uint64_t seq_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace disp::fleet
