#include "fleet/events.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/json.hpp"

namespace disp::fleet {

namespace {

/// Highest "seq" in an existing events file (0 when absent/empty).  A
/// partial trailing line — the coordinator can be SIGKILL'd mid-write —
/// parses as garbage and is simply skipped; seq gaps are harmless, only
/// monotonicity matters.
std::uint64_t lastSeq(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::uint64_t last = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const JsonValue rec = JsonValue::parse(line);
      if (const JsonValue* seq = rec.find("seq")) {
        const std::string& s = seq->asString();
        if (!s.empty() && s.find_first_not_of("0123456789") == std::string::npos) {
          last = std::max<std::uint64_t>(last, std::stoull(s));
        }
      }
    } catch (const std::exception&) {
      continue;
    }
  }
  return last;
}

}  // namespace

const EventFields* fleetEventSchema(std::string_view kind) {
  using enum FieldType;
  static const std::map<std::string_view, EventFields> kSchemas{
      {"run_start", {{"sweeps", Text}, {"fleet", Text}, {"shards", Count},
                     {"workers", Count}, {"cells", Count}, {"resumed", YesNo}}},
      {"resume", {{"shard", Count}, {"state", Text}, {"cells_done", Count},
                  {"cells", Count}, {"complete", YesNo}}},
      {"spawn", {{"shard", Count}, {"attempt", Count}, {"pid", Count},
                 {"worker", Text}, {"output", Text}}},
      {"exit", {{"shard", Count}, {"attempt", Count}, {"pid", Count},
                {"code", Text}, {"signal", Text}}},
      {"stall", {{"shard", Count}, {"attempt", Count}, {"idle_ms", Count}}},
      {"chaos_kill", {{"shard", Count}, {"attempt", Count}, {"rows", Count}}},
      {"retry", {{"shard", Count}, {"attempt", Count}, {"delay_ms", Count}}},
      {"poison", {{"shard", Count}, {"attempts", Count}}},
      {"shard_done", {{"shard", Count}, {"attempts", Count}, {"rows", Count},
                      {"cells", Count}, {"empty", YesNo}}},
      {"merge", {{"files", Count}, {"rows_in", Count}, {"rows_out", Count},
                 {"dups", Count}, {"partial_tails", Count}, {"output", Text}}},
      {"divergence", {{"cells", Count}}},
      {"run_done", {{"ok", YesNo}, {"failed_shards", Text}}},
  };
  const auto it = kSchemas.find(kind);
  return it == kSchemas.end() ? nullptr : &it->second;
}

FleetEventLog::FleetEventLog(const std::string& path)
    : seq_(lastSeq(path) + 1), start_(std::chrono::steady_clock::now()) {
  out_.open(path, std::ios::app);
  if (!out_) throw std::runtime_error("cannot open fleet events file: " + path);
}

void FleetEventLog::emit(const std::string& kind,
                         std::vector<std::pair<std::string, std::string>> fields) {
  const EventFields* schema = fleetEventSchema(kind);
  const auto sameKey = [](const auto& x, const auto& y) { return x.first == y.first; };
  if (schema == nullptr || !std::is_permutation(fields.begin(), fields.end(),
                                                schema->begin(), schema->end(), sameKey)) {
    throw std::logic_error("fleet event '" + kind + "' does not match its schema");
  }
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  fields.insert(fields.begin(), {{"seq", std::to_string(seq_++)},
                                 {"t_ms", std::to_string(ms)},
                                 {"event", kind}});
  JsonlWriter(out_).record(fields);  // flushes the line
  if (!out_) throw std::runtime_error("writing fleet events failed");
}

}  // namespace disp::fleet
