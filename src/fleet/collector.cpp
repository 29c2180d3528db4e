#include "fleet/collector.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "exp/sink.hpp"
#include "util/json.hpp"

namespace disp::fleet {

namespace {

struct ParsedRow {
  /// Coordinate columns present in the row, in (key, value) sorted order.
  std::vector<std::pair<std::string, std::string>> coords;
  /// Non-telemetry columns, sorted by key — the fact comparison payload.
  std::vector<std::pair<std::string, std::string>> facts;
  bool isCellRow = false;
};

/// Flattens a JSONL row into coordinate + fact views.  Values are the
/// rendered strings JsonlWriter wrote; non-string values (foreign JSONL)
/// compare by their compact dump.
ParsedRow flatten(const JsonValue& row) {
  ParsedRow out;
  for (const auto& [key, value] : row.members()) {
    const std::string rendered = value.isString() ? value.asString() : value.dump();
    if (key == "table" && rendered == "cell") out.isCellRow = true;
    const exp::ColumnRole role = exp::columnRole(key);
    if (role == exp::ColumnRole::Coordinate) out.coords.emplace_back(key, rendered);
    if (role != exp::ColumnRole::Telemetry) out.facts.emplace_back(key, rendered);
  }
  std::sort(out.coords.begin(), out.coords.end());
  std::sort(out.facts.begin(), out.facts.end());
  return out;
}

std::string joinPairs(const std::vector<std::pair<std::string, std::string>>& kvs) {
  std::string out;
  for (const auto& [k, v] : kvs) {
    if (!out.empty()) out += " ";
    out += k + "=" + v;
  }
  return out;
}

/// Canonical identity: the coordinate columns when the row has any beyond
/// sweep/table; the whole fact payload otherwise (fit/note diagnostics).
std::string identityOf(const ParsedRow& row) {
  bool specific = false;
  for (const auto& [k, v] : row.coords) {
    (void)v;
    if (k != "sweep" && k != "table") specific = true;
  }
  if (specific) return joinPairs(row.coords);
  return joinPairs(row.facts);
}

struct Keeper {
  ParsedRow row;
  std::string where;  // "path:line"
};

}  // namespace

MergeResult mergeJsonl(const std::vector<MergeInput>& inputs, DupPolicy policy,
                       const std::string& outPath) {
  MergeResult res;
  std::map<std::string, Keeper> seen;
  std::vector<std::string> kept;  // original line text, input order

  for (const MergeInput& input : inputs) {
    std::ifstream in(input.path);
    if (!in) {
      res.errors.push_back(input.path + ": cannot open");
      continue;
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].empty()) continue;
      const std::string where = input.path + ":" + std::to_string(i + 1);
      JsonValue row;
      try {
        row = JsonValue::parse(lines[i]);
        if (!row.isObject()) throw std::runtime_error("row is not a JSON object");
      } catch (const std::exception& e) {
        if (input.allowPartialTail && i + 1 == lines.size()) {
          ++res.partialTails;  // SIGKILL mid-write: drop the torn tail
          continue;
        }
        res.errors.push_back(where + ": not JSON (" + e.what() + ")");
        continue;
      }
      ++res.rowsIn;
      ParsedRow parsed = flatten(row);
      const std::string id = identityOf(parsed);
      const auto it = seen.find(id);
      if (it == seen.end()) {
        seen.emplace(id, Keeper{std::move(parsed), where});
        kept.push_back(lines[i]);
        continue;
      }
      // Duplicate identity: facts must agree column for column.
      const auto& a = it->second.row.facts;
      const auto& b = parsed.facts;
      std::string diffCol, valA, valB;
      auto ia = a.begin();
      auto ib = b.begin();
      while (ia != a.end() || ib != b.end()) {
        if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
          diffCol = ia->first; valA = ia->second; valB = "(absent)";
          break;
        }
        if (ia == a.end() || ib->first < ia->first) {
          diffCol = ib->first; valA = "(absent)"; valB = ib->second;
          break;
        }
        if (ia->second != ib->second) {
          diffCol = ia->first; valA = ia->second; valB = ib->second;
          break;
        }
        ++ia;
        ++ib;
      }
      if (!diffCol.empty()) {
        res.divergences.push_back(
            {id, diffCol, valA, valB, it->second.where, where});
        continue;
      }
      if (policy == DupPolicy::Error) {
        res.errors.push_back(where + ": duplicate row (also in " +
                             it->second.where + ") — overlapping shards?");
        continue;
      }
      ++res.dupsDropped;
    }
  }

  res.ok = res.errors.empty() && res.divergences.empty();
  if (!res.ok) return res;
  std::ofstream out(outPath, std::ios::trunc);
  if (!out) {
    res.ok = false;
    res.errors.push_back(outPath + ": cannot write");
    return res;
  }
  for (const std::string& l : kept) out << l << "\n";
  out.flush();
  if (!out) {
    res.ok = false;
    res.errors.push_back(outPath + ": write failed");
    return res;
  }
  res.rowsOut = kept.size();
  return res;
}

std::string factPayload(const JsonValue& row) { return joinPairs(flatten(row).facts); }

std::uint64_t countDistinctCellRows(const std::vector<std::string>& paths) {
  std::set<std::string> identities;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) continue;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      try {
        const JsonValue row = JsonValue::parse(line);
        if (!row.isObject()) continue;
        const ParsedRow parsed = flatten(row);
        if (parsed.isCellRow) identities.insert(identityOf(parsed));
      } catch (const std::exception&) {
        continue;  // torn tail of a killed attempt
      }
    }
  }
  return identities.size();
}

}  // namespace disp::fleet
