#pragma once
// The benchmark's workloads.  Each is a fixed list of runs (one "rep");
// the timed phase repeats the rep until its time budget is spent, so every
// timing sample covers the same work.  All inputs derive from the seed.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One run: graph build → placement → runSession, on the serial engines.
struct RunPlan {
  std::string id;     ///< stable name, used in reports and the reference
  std::string graph;  ///< GraphSpec string; empty = the rep's ingested graph
  std::uint32_t n = 0;  ///< context node count for size-unbound specs
  std::uint32_t k = 0;
  std::string placement;  ///< PlacementSpec string
  std::string algorithm;  ///< registry key
  std::string scheduler = "round_robin";
  std::string faults = "none";  ///< FaultSpec string
  std::uint64_t seed = 0;  ///< drives graph, placement and run

  [[nodiscard]] bool async() const { return algorithm.ends_with("_async"); }
  [[nodiscard]] bool faulted() const { return faults != "none"; }
};

struct Workload {
  std::string name;
  std::vector<RunPlan> runs;
  /// Runs dispatched concurrently (1 = serial, in order).
  unsigned threads = 1;
  /// Every run carries an in-memory onEvent observer (sweep_mixed).
  bool observeEvents = false;
  /// ingest_scale: GraphSpec of the dataset written at set-up, and its
  /// seed.  Each rep loads it once; the rep's runs share that graph.
  std::string dataset;
  std::uint64_t datasetSeed = 0;
};

/// Names of every workload, in documentation order.
[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Builds the named workload from `seed`.  Throws std::invalid_argument on
/// an unknown name.
[[nodiscard]] Workload makeWorkload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
