#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

/// splitmix64 finalizer: decorrelated per-run seeds from one workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

RunPlan plan(const std::string& graph, std::uint32_t k, const std::string& placement,
             const std::string& algorithm, const std::string& scheduler,
             const std::string& faults, std::uint64_t seed, const std::string& tag) {
  RunPlan p;
  p.graph = graph;
  p.n = 2 * k;
  p.k = k;
  p.placement = placement;
  p.algorithm = algorithm;
  p.scheduler = scheduler;
  p.faults = faults;
  p.seed = seed;
  p.id = algorithm + "/" + (graph.empty() ? "ingested" : graph) + "/k=" +
         std::to_string(k) + "/" + placement + "/" + scheduler + "/" + faults + tag;
  return p;
}

/// Workers of the concurrent workloads: every core of a small machine.
unsigned poolThreads() { return std::clamp(std::thread::hardware_concurrency(), 1U, 4U); }

// Long SYNC runs, fault-free and unobserved: SyncEngine stage/commit, World
// and the SYNC protocols carry the time.  Four graphs per protocol, run
// concurrently like the cells of a sweep: a single-threaded rep swung by up
// to 30% with the load other tenants put on the host's shared cache, while
// the 4-thread sweep_mixed stayed within 5–9%.  Listed longest first, so the
// batch does not end waiting on one long run started last.
Workload syncLong(std::uint64_t seed) {
  Workload w;
  w.name = "sync_long";
  w.threads = poolThreads();
  std::uint64_t salt = 0;
  for (const auto& [placement, algorithm] :
       {std::pair{"rooted", "rooted_sync"}, std::pair{"clusters:l=8", "general_sync"},
        std::pair{"rooted", "ks_sync"}}) {
    for (std::uint64_t s = 0; s < 4; ++s) {
      w.runs.push_back(plan("er", 2048, placement, algorithm, "round_robin", "none",
                            derive(seed, ++salt), "/s" + std::to_string(s)));
    }
  }
  return w;
}

// Long ASYNC runs under the sampled adversary schedulers, with the ℓ axis of
// general_async (ℓ = 8 and ℓ = 256 at equal k); three graphs each, run
// concurrently for the reason given at sync_long, longest first.
Workload asyncLong(std::uint64_t seed) {
  struct Kind {
    std::uint32_t k;
    const char* placement;
    const char* algorithm;
    const char* scheduler;
  };
  Workload w;
  w.name = "async_long";
  w.threads = poolThreads();
  std::uint64_t salt = 0;
  for (const Kind& kind : {Kind{1024, "rooted", "rooted_async", "round_robin"},
                           Kind{512, "rooted", "rooted_async", "uniform"},
                           Kind{512, "clusters:l=8", "general_async", "shuffled"},
                           Kind{512, "clusters:l=256", "general_async", "round_robin"},
                           Kind{512, "rooted", "ks_async", "weighted:4"}}) {
    for (std::uint64_t s = 0; s < 3; ++s) {
      w.runs.push_back(plan("er", kind.k, kind.placement, kind.algorithm, kind.scheduler,
                            "none", derive(seed, ++salt), "/s" + std::to_string(s)));
    }
  }
  return w;
}

// A Table-1-style campaign of short cells: every protocol, four graph
// families, three sizes, the general placements, and a crash-restart fault
// load on the ASYNC protocols (which BENCH_faults.json records as
// self-stabilizing).  Churn is left out: at these sizes general_sync and
// ks_sync stop on protocol invariants under it.  Runs are listed largest k
// first, so the batch does not end waiting on one long run started last.
Workload sweepMixed(std::uint64_t seed) {
  Workload w;
  w.name = "sweep_mixed";
  w.threads = poolThreads();
  w.observeEvents = true;
  const std::vector<std::string> protocols{"rooted_sync", "general_sync", "ks_sync",
                                           "rooted_async", "general_async", "ks_async"};
  const std::string crash = "crash:rate=0.25,restart=64";
  std::uint64_t salt = 0;
  for (const std::uint32_t k : {512U, 128U, 32U}) {
    for (const std::string graph : {"er", "grid", "randtree", "expander"}) {
      for (const std::uint64_t s : {0ULL, 1ULL}) {
        const std::uint64_t runSeed = derive(seed, ++salt);
        const std::string tag = "/s" + std::to_string(s);
        const auto add = [&](const std::string& placement, const std::string& algo,
                             const std::string& faults) {
          w.runs.push_back(
              plan(graph, k, placement, algo, "round_robin", faults, runSeed, tag));
        };
        for (const std::string& algo : protocols) add("rooted", algo, "none");
        for (const std::string algo : {"general_sync", "general_async"}) {
          for (const std::string placement :
               {"clusters:l=4", "adversarial:far", "adversarial:frontier"}) {
            add(placement, algo, "none");
          }
        }
        for (const std::string algo : {"rooted_async", "general_async", "ks_async"}) {
          add("rooted", algo, crash);
        }
      }
    }
  }
  return w;
}

// Ingest a Graphalytics pair written at set-up, then spread-placement
// general_sync sessions at large k on the loaded graph.
Workload ingestScale(std::uint64_t seed) {
  Workload w;
  w.name = "ingest_scale";
  w.dataset = "ba:n=524288,d=4";
  w.datasetSeed = derive(seed, 0);
  for (const std::uint32_t k : {1U << 16, 1U << 17, 1U << 18}) {
    w.runs.push_back(
        plan("", k, "spread", "general_sync", "round_robin", "none", derive(seed, k), ""));
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"sync_long", "async_long", "sweep_mixed",
                                              "ingest_scale"};
  return names;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "sync_long") return syncLong(seed);
  if (name == "async_long") return asyncLong(seed);
  if (name == "sweep_mixed") return sweepMixed(seed);
  if (name == "ingest_scale") return ingestScale(seed);
  std::string known;
  for (const std::string& n : workloadNames()) known += " " + n;
  throw std::invalid_argument("unknown workload '" + name + "'; known:" + known);
}

}  // namespace perfbench
