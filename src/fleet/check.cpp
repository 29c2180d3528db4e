#include "fleet/check.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <set>

#include "core/trace.hpp"
#include "exp/sink.hpp"
#include "fleet/collector.hpp"
#include "fleet/events.hpp"
#include "util/json.hpp"

namespace disp::fleet {

namespace {

/// The first violation in a stream; the checkers throw it.
struct Violation {
  std::string where, why;
};

/// One non-blank line of a JSON-lines stream, parsed as an object, with
/// field checks that throw a Violation at its line.
struct Record {
  std::string where;  ///< "path:line"
  JsonValue obj;

  [[noreturn]] void fail(const std::string& why) const { throw Violation{where, why}; }

  /// The value of `key` as text ("" when absent).
  [[nodiscard]] std::string operator[](std::string_view key) const {
    const JsonValue* v = obj.find(key);
    return v == nullptr ? "" : v->isString() ? v->asString() : v->dump();
  }

  /// `key` as a non-negative integer (0 for "-" when `dashOk`).
  std::uint64_t number(std::string_view key, bool dashOk = false) const {
    const std::string v = (*this)[key];
    if (dashOk && v == "-") return 0;
    std::uint64_t n = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
    if (v.empty() || ec != std::errc() || end != v.data() + v.size()) {
      fail("field '" + std::string(key) + "' = '" + v + "' is " +
           (dashOk ? "neither a number nor '-'" : "not a non-negative integer"));
    }
    return n;
  }

  template <class Keys>
  void requireKeys(const Keys& keys, const std::string& kind) const {
    const auto sorted = [](std::vector<std::string> v) {
      std::sort(v.begin(), v.end());
      std::string out;
      for (const std::string& k : v) out += (out.empty() ? "" : ", ") + k;
      return out;
    };
    std::vector<std::string> got;
    for (const auto& [key, value] : obj.members()) got.push_back(key);
    const std::string have = sorted(got), want = sorted({keys.begin(), keys.end()});
    if (have != want) fail(kind + " line has keys [" + have + "], expected [" + want + "]");
  }
};

/// Calls `visit` on each record of `in`; returns where the stream ended
/// ("path:line" of its last record, or "path" when it has none).
template <class Visit>
std::string forEachRecord(std::istream& in, const std::string& path, const Visit& visit) {
  std::string text, end = path;
  for (std::size_t n = 1; std::getline(in, text); ++n) {
    if (text.find_first_not_of(" \t\r") == std::string::npos) continue;
    Record r{path + ":" + std::to_string(n), {}};
    try {
      r.obj = JsonValue::parse(text);
    } catch (const std::exception& e) {
      r.fail(std::string("invalid JSON: ") + e.what());
    }
    if (!r.obj.isObject()) r.fail("not a JSON object");
    visit(r);
    end = r.where;
  }
  return end;
}

/// Runs `body`, which returns the summary, and turns a Violation into the
/// result's diagnostic.
template <class Body>
CheckResult runChecker(const Body& body) {
  try {
    return {{}, body()};
  } catch (const Violation& v) {
    return {{v.where + ": " + v.why}, ""};
  }
}

std::string arrow(std::uint64_t from, std::uint64_t to) {
  return std::to_string(from) + " -> " + std::to_string(to);
}

/// "kind=n, ..." in kind order.
std::string countSummary(const std::map<std::string, std::uint64_t>& counts) {
  std::string out;
  for (const auto& [kind, n] : counts) {
    out += (out.empty() ? "" : ", ") + kind + "=" + std::to_string(n);
  }
  return out;
}

}  // namespace

CheckResult checkTraceStream(std::istream& in, const std::string& path) {
  return runChecker([&] {
    std::set<std::string> kinds{"sample"};
    for (const TraceEventKind k : traceEventKinds()) kinds.insert(traceEventKindName(k));
    struct Stream {
      std::uint64_t lastT = 0;
      std::int64_t balance = 0;  ///< settles minus collapses
      std::int64_t lastSettled = 0;
      std::string lastSample;  ///< where its final line is, if that is a sample
    };
    std::map<std::string, Stream> streams;  // by "stream cell=... seed=..."
    std::map<std::string, std::uint64_t> counts;

    const std::string end = forEachRecord(in, path, [&](const Record& r) {
      const std::string kind = r["event"];
      if (kinds.count(kind) == 0) r.fail("unknown event kind '" + kind + "'");
      ++counts[kind];
      const bool sample = kind == "sample";
      if (sample) r.requireKeys(exp::kTraceSampleKeys, kind);
      if (!sample) r.requireKeys(exp::kTraceEventKeys, kind);
      const std::string id = "stream cell=" + r["cell"] + " seed=" + r["seed"];
      Stream& s = streams[id];
      const std::uint64_t t = r.number("t");
      if (t < s.lastT) r.fail("time went backwards within " + id + ": " + arrow(s.lastT, t));
      s.lastT = t;
      if (sample) {
        for (const char* key : {"epochs", "moves"}) r.number(key);
        s.lastSettled = static_cast<std::int64_t>(r.number("settled"));
        s.lastSample = r.where;
        return;
      }
      s.lastSample.clear();
      for (const char* key : {"agent", "node", "a", "b"}) r.number(key, true);
      s.balance += kind == "settle" ? 1 : kind == "collapse" ? -1 : 0;
      if (s.balance < 0) r.fail("collapse before matching settle in " + id);
    });

    if (counts.count("settle") == 0 || counts.count("move") == 0) {
      throw Violation{end, "no settle/move events — not a dispersion trace"};
    }
    // Only cleanly closed streams (ending on the engines' terminal sample)
    // carry the balance invariant; a limit-hit replicate ends mid-events.
    for (const auto& [id, s] : streams) {
      if (!s.lastSample.empty() && s.lastSettled != s.balance) {
        throw Violation{s.lastSample, id + ": final sampled settled count " +
                                          std::to_string(s.lastSettled) +
                                          " != settle-collapse balance " +
                                          std::to_string(s.balance)};
      }
    }
    return "OK " + path + ": " + std::to_string(streams.size()) + " streams, " +
           countSummary(counts);
  });
}

CheckResult checkFleetEvents(std::istream& in, const std::string& path) {
  return runChecker([&] {
    std::uint64_t lastSeq = 0, lastT = 0;
    std::string lastKind;
    std::map<std::string, std::uint64_t> counts;

    const std::string end = forEachRecord(in, path, [&](const Record& r) {
      const std::string kind = r["event"];
      const EventFields* schema = fleetEventSchema(kind);
      if (schema == nullptr) r.fail("unknown event kind '" + kind + "'");
      if (lastKind.empty() && kind != "run_start") r.fail("first event is not run_start");
      ++counts[kind];
      lastKind = kind;
      std::vector<std::string> want{"seq", "t_ms", "event"};
      for (const auto& [key, type] : *schema) want.emplace_back(key);
      r.requireKeys(want, kind);
      for (const auto& [key, type] : *schema) {
        if (type == FieldType::Count) r.number(key);
        if (type == FieldType::YesNo && r[key] != "yes" && r[key] != "no") {
          r.fail("field '" + std::string(key) + "' = '" + r[key] + "' is not yes/no");
        }
      }
      const std::uint64_t seq = r.number("seq");
      if (seq <= lastSeq) r.fail("seq not strictly increasing: " + arrow(lastSeq, seq));
      lastSeq = seq;
      // t_ms is wall clock since the current coordinator process started.
      const std::uint64_t t = r.number("t_ms");
      if (kind == "run_start") lastT = 0;
      if (t < lastT) r.fail("t_ms went backwards within a run: " + arrow(lastT, t));
      lastT = t;
      // A coordinator SIGKILL'd between spawn and exit leaves an unmatched
      // spawn behind (resume re-dispatches the shard), but an exit without
      // an earlier spawn is impossible history.
      if (kind == "exit" && counts["exit"] > counts["spawn"]) r.fail("exit without a spawn");
    });

    if (lastKind.empty()) throw Violation{end, "no run_start event — not a fleet stream"};
    if (lastKind != "run_done") {
      throw Violation{end, "stream does not end with run_done (last: " + lastKind + ")"};
    }
    return "OK " + path + ": seq " + std::to_string(lastSeq) + ", " + countSummary(counts);
  });
}

CheckResult checkFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {{path + ": cannot open"}, ""};
  // A first record with "seq" starts a fleet event stream; anything else
  // is checked as a trace, whose records start with "cell".
  std::string first;
  while (std::getline(in, first) && first.find_first_not_of(" \t\r") == std::string::npos) {
  }
  JsonValue rec;
  try {
    rec = JsonValue::parse(first);
  } catch (const std::exception&) {
  }
  const bool events = rec.find("seq") != nullptr;
  in.clear();
  in.seekg(0);
  return events ? checkFleetEvents(in, path) : checkTraceStream(in, path);
}

CheckResult diffFacts(const std::string& refPath, const std::string& candPath) {
  const std::string paths[2] = {refPath, candPath};
  std::map<std::string, std::vector<std::string>> rows[2];  // payload -> where
  std::size_t total[2] = {0, 0};
  CheckResult res = runChecker([&] {
    for (const int i : {0, 1}) {
      std::ifstream in(paths[i]);
      if (!in) throw Violation{paths[i], "cannot open"};
      forEachRecord(in, paths[i], [&](const Record& r) {
        rows[i][factPayload(r.obj)].push_back(r.where);
        ++total[i];
      });
      if (total[i] == 0) throw Violation{paths[i], "no rows"};
    }
    return std::string();
  });
  if (!res.ok()) return res;
  // Per side, the rows beyond the other side's count of the same payload.
  std::size_t differ[2] = {0, 0};
  for (const int i : {0, 1}) {
    for (const auto& [facts, where] : rows[i]) {
      const auto other = rows[1 - i].find(facts);
      std::size_t j = other == rows[1 - i].end() ? 0 : other->second.size();
      for (; j < where.size(); ++j) {
        if (differ[i]++ >= 5) continue;
        res.diagnostics.push_back(where[j] + ": row not in " + paths[1 - i] + ": " + facts);
      }
    }
  }
  res.summary = res.ok() ? std::to_string(total[0]) + " rows fact-identical"
                         : "fact divergence: " + std::to_string(total[0]) +
                               " reference rows vs " + std::to_string(total[1]) +
                               " candidate rows, " + std::to_string(differ[0]) + "+" +
                               std::to_string(differ[1]) + " differ";
  return res;
}

}  // namespace disp::fleet
