#pragma once
// The benchmark's correctness gate.  Every run, at any seed, must end
// dispersed (by the protocol's verdict and by its final positions), without
// an exception or a protocol error, recovered and under the cap; where an
// onEvent observer counted Move events the count must equal totalMoves.  At
// the default seed each run's facts must also equal the ones pinned in
// benchmark/reference.tsv.

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "core/metrics.hpp"

namespace perfbench {

/// The seed whose facts are pinned in the reference.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Facts a run must reproduce exactly at the default seed.
struct PinnedFacts {
  std::uint64_t time = 0;
  std::uint64_t activations = 0;
  std::uint64_t totalMoves = 0;
  std::uint64_t maxMemoryBits = 0;
  std::uint64_t faultsInjected = 0;
  std::uint64_t recoveredAt = 0;
  bool recovered = false;
  bool limitHit = false;

  [[nodiscard]] bool operator==(const PinnedFacts&) const = default;
};

[[nodiscard]] PinnedFacts factsOf(const disp::RunResult& r);
[[nodiscard]] std::string describe(const PinnedFacts& f);

/// Pinned facts keyed by (workload, run id).  On disk: one tab-separated
/// line per run, `workload run time activations moves memory_bits
/// faults_injected recovered_at recovered limit_hit`.
class Reference {
 public:
  /// Throws std::runtime_error naming the line of a malformed file.  A
  /// missing file is an error too: the default seed is always checked.
  [[nodiscard]] static Reference load(const std::string& path);
  void save(const std::string& path) const;

  [[nodiscard]] const PinnedFacts* find(const std::string& workload,
                                        const std::string& run) const;
  void pin(const std::string& workload, const std::string& run, const PinnedFacts& f);
  /// Drops every pinned run of `workload` (before re-pinning it).
  void forget(const std::string& workload);

 private:
  std::map<std::pair<std::string, std::string>, PinnedFacts> facts_;
};

/// Everything the checker needs to know about one finished run.
struct RunCheck {
  std::string workload;
  std::string run;
  /// Null when the run threw before producing a result.
  const disp::RunResult* result = nullptr;
  std::string error;  ///< exception text when the run threw
  bool observed = false;  ///< an onEvent observer counted Move events
  std::uint64_t moveEvents = 0;
};

/// Counts attempted and failed runs and keeps each failing run's reason.
/// Not thread-safe: feed it from one thread.
class Checker {
 public:
  /// `pinned` is the reference to compare facts against, or null when the
  /// seed is not the default one (invariants only).
  explicit Checker(const Reference* pinned) : pinned_(pinned) {}

  /// Returns true when the run is correct; otherwise records the failure.
  bool check(const RunCheck& c);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  struct Failure {
    std::string reason;  ///< first reason seen for this run
    std::uint64_t count = 0;  ///< how many times the run failed
  };
  /// Failures by "workload/run", in run-id order.
  [[nodiscard]] const std::map<std::string, Failure>& failures() const {
    return failures_;
  }

 private:
  const Reference* pinned_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Failure> failures_;
};

}  // namespace perfbench
