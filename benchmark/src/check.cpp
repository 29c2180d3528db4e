#include "check.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace perfbench {

PinnedFacts factsOf(const disp::RunResult& r) {
  return {r.time,           r.activations, r.totalMoves, r.maxMemoryBits,
          r.faultsInjected, r.recoveredAt, r.recovered,  r.limitHit};
}

std::string describe(const PinnedFacts& f) {
  std::ostringstream os;
  os << "time=" << f.time << " activations=" << f.activations
     << " moves=" << f.totalMoves << " memory_bits=" << f.maxMemoryBits
     << " faults_injected=" << f.faultsInjected << " recovered_at=" << f.recoveredAt
     << " recovered=" << f.recovered << " limit_hit=" << f.limitHit;
  return os.str();
}

Reference Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference ref;
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty() || line.front() == '#') continue;
    std::vector<std::string> cols;
    std::istringstream fields(line);
    for (std::string col; std::getline(fields, col, '\t');) cols.push_back(col);
    const auto bad = [&](const std::string& what) {
      return std::runtime_error(path + ":" + std::to_string(lineNo) + ": " + what);
    };
    if (cols.size() != 10) throw bad("expected 10 tab-separated columns");
    std::vector<std::uint64_t> v;
    for (std::size_t i = 2; i < cols.size(); ++i) {
      std::size_t used = 0;
      std::uint64_t x = 0;
      try {
        x = std::stoull(cols[i], &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used == 0 || used != cols[i].size()) throw bad("not a number: '" + cols[i] + "'");
      v.push_back(x);
    }
    if (v[6] > 1 || v[7] > 1) throw bad("recovered and limit_hit must be 0 or 1");
    if (!ref.facts_.try_emplace({cols[0], cols[1]},
                                PinnedFacts{v[0], v[1], v[2], v[3], v[4], v[5],
                                            v[6] == 1, v[7] == 1})
             .second) {
      throw bad("duplicate run " + cols[0] + " " + cols[1]);
    }
  }
  return ref;
}

void Reference::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# workload\trun\ttime\tactivations\tmoves\tmemory_bits\tfaults_injected"
         "\trecovered_at\trecovered\tlimit_hit\n";
  for (const auto& [key, f] : facts_) {
    out << key.first << '\t' << key.second << '\t' << f.time << '\t' << f.activations
        << '\t' << f.totalMoves << '\t' << f.maxMemoryBits << '\t' << f.faultsInjected
        << '\t' << f.recoveredAt << '\t' << int{f.recovered} << '\t' << int{f.limitHit}
        << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write reference " + path);
}

const PinnedFacts* Reference::find(const std::string& workload,
                                   const std::string& run) const {
  const auto it = facts_.find({workload, run});
  return it == facts_.end() ? nullptr : &it->second;
}

void Reference::pin(const std::string& workload, const std::string& run,
                    const PinnedFacts& f) {
  facts_[{workload, run}] = f;
}

void Reference::forget(const std::string& workload) {
  std::erase_if(facts_, [&](const auto& kv) { return kv.first.first == workload; });
}

bool Checker::check(const RunCheck& c) {
  ++attempted_;
  std::string reason;
  const disp::RunResult* r = c.result;
  if (r == nullptr) {
    reason = "threw: " + c.error;
  } else if (!r->protocolError.empty()) {
    reason = "protocol error: " + r->protocolError;
  } else if (r->limitHit) {
    reason = "hit the round/activation cap";
  } else if (!r->dispersed) {
    reason = "not dispersed";
  } else if (!disp::isDispersed(r->finalPositions)) {
    reason = "final positions are not a dispersion";
  } else if (!r->recovered) {
    reason = "did not recover from its faults";
  } else if (c.observed && c.moveEvents != r->totalMoves) {
    reason = "Move events " + std::to_string(c.moveEvents) + " != totalMoves " +
             std::to_string(r->totalMoves);
  } else if (pinned_ != nullptr) {
    const PinnedFacts* want = pinned_->find(c.workload, c.run);
    const PinnedFacts got = factsOf(*r);
    if (want == nullptr) {
      reason = "no pinned facts for this run";
    } else if (!(*want == got)) {
      reason = "facts differ from the reference: got " + describe(got) + "; pinned " +
               describe(*want);
    }
  }
  if (reason.empty()) return true;
  ++failed_;
  Failure& f = failures_[c.workload + "/" + c.run];
  if (f.count++ == 0) f.reason = reason;
  return false;
}

}  // namespace perfbench
