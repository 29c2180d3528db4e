#include "exp/sweep.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "algo/placement.hpp"
#include "algo/registry.hpp"
#include "core/faults.hpp"
#include "util/check.hpp"

namespace disp::exp {

std::vector<std::uint32_t> kSweep(std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint32_t> ks;
  const double f = scale();
  for (std::uint32_t e = lo; e <= hi; ++e) {
    const auto k = static_cast<std::uint32_t>(double(1u << e) * f);
    if (k >= 8) ks.push_back(k);
  }
  return ks;
}

std::string clustersPlacement(std::uint32_t clusters) {
  return clusters == 1 ? "rooted" : "clusters:l=" + std::to_string(clusters);
}

RunRecord runCell(const CaseSpec& c) {
  const auto n = static_cast<std::uint32_t>(double(c.k) * c.nOverK);
  const Graph g = GraphSpec::parse(c.graph).instantiate(n, c.seed, c.labeling);
  return runCell(g, c);
}

RunRecord runCell(const Graph& g, const CaseSpec& c) {
  const Placement p = PlacementSpec::parse(c.placement).place(g, c.k, c.seed);
  RunOptions opts;
  opts.algorithm = c.algorithm;
  opts.scheduler = c.scheduler;
  opts.seed = c.seed;
  opts.limit = c.limit;
  opts.faults = c.faults;
  if (c.observe) c.observe(opts);
  RunRecord out;
  out.run = runSession(g, p, opts);
  out.n = g.nodeCount();
  out.maxDegree = g.maxDegree();
  out.edges = g.edgeCount();
  return out;
}

std::vector<std::uint32_t> SweepSpec::scaledKs() const {
  if (scale == 1.0) return ks;
  DISP_REQUIRE(scale > 0.0, "sweep '" + name + "' has a non-positive scale");
  std::vector<std::uint32_t> out;
  out.reserve(ks.size());
  for (const std::uint32_t k : ks) {
    const auto scaled =
        std::max<std::uint32_t>(8, static_cast<std::uint32_t>(double(k) * scale));
    // Clamping can collapse neighbors; keep first occurrence, spec order.
    if (std::find(out.begin(), out.end(), scaled) == out.end()) out.push_back(scaled);
  }
  return out;
}

std::string CellKey::describe() const {
  std::ostringstream os;
  const AlgorithmDef* def = findAlgorithm(algorithm);
  os << graph << " k=" << k << " place=" << placement << " sched=" << scheduler
     << " algo=" << (def != nullptr ? def->traits.display : algorithm);
  if (faults != "none") os << " faults=" << faults;
  return os.str();
}

bool Cell::allDispersed() const {
  for (const RunRecord& r : replicates) {
    if (!r.run.dispersed) return false;
  }
  return !replicates.empty();
}

std::uint64_t Cell::maxMemoryBits() const {
  std::uint64_t bits = 0;
  for (const RunRecord& r : replicates) {
    bits = std::max(bits, r.run.maxMemoryBits);
  }
  return bits;
}

const Cell& SweepResult::at(const CellKey& key) const {
  CellKey canon = key;
  canon.graph = GraphSpec::parse(key.graph).toString();
  canon.placement = PlacementSpec::parse(key.placement).toString();
  canon.faults = FaultSpec::parse(key.faults).toString();
  for (const Cell& c : cells) {
    if (c.key == canon) return c;
  }
  throw std::out_of_range("sweep '" + spec.name + "' has no cell " + canon.describe());
}

std::vector<CellKey> enumerateCells(const SweepSpec& spec) {
  DISP_REQUIRE(!spec.graphs.empty() && !spec.ks.empty() && !spec.algorithms.empty() &&
                   !spec.placements.empty() && !spec.schedulers.empty() &&
                   !spec.faults.empty() && !spec.seeds.empty(),
               "sweep '" + spec.name + "' has an empty axis");
  // A typo'd algorithm key or spec string would otherwise degrade every one
  // of its cells into errored replicates; validating the axes up front
  // fails the sweep loudly.  Spec strings are stored canonically so any
  // equivalent spelling addresses the same cell.
  for (const std::string& algorithm : spec.algorithms) (void)algorithmDef(algorithm);
  std::vector<std::string> graphs;
  graphs.reserve(spec.graphs.size());
  for (const std::string& g : spec.graphs) {
    graphs.push_back(GraphSpec::parse(g).toString());
  }
  std::vector<std::string> placements;
  placements.reserve(spec.placements.size());
  for (const std::string& p : spec.placements) {
    placements.push_back(PlacementSpec::parse(p).toString());
  }
  std::vector<std::string> faults;
  faults.reserve(spec.faults.size());
  for (const std::string& f : spec.faults) {
    faults.push_back(FaultSpec::parse(f).toString());
  }
  const std::vector<std::uint32_t> ks = spec.scaledKs();
  std::vector<CellKey> keys;
  keys.reserve(spec.cellCount());
  for (const std::string& graph : graphs) {
    for (const std::uint32_t k : ks) {
      for (const std::string& placement : placements) {
        for (const std::string& scheduler : spec.schedulers) {
          for (const std::string& algorithm : spec.algorithms) {
            for (const std::string& fault : faults) {
              keys.push_back({graph, k, placement, scheduler, algorithm, fault});
            }
          }
        }
      }
    }
  }
  return keys;
}

double ci95(const Summary& s) {
  if (s.count < 2) return 0.0;
  return 1.96 * s.stddev / std::sqrt(double(s.count));
}

std::string growthDiagnosisLine(const std::string& label, const std::vector<double>& ks,
                                const std::vector<double>& times) {
  const auto d = diagnoseGrowth(ks, times);
  std::ostringstream os;
  os << "fit[" << label << "]: time ~ k^" << fmt(d.power.exponent, 2)
     << " (r2=" << fmt(d.power.r2, 3) << "), time/k: " << fmt(d.ratioLinearSmall, 1)
     << " -> " << fmt(d.ratioLinearLarge, 1)
     << ", time/(k log k): " << fmt(d.ratioKLogKSmall, 2) << " -> "
     << fmt(d.ratioKLogKLarge, 2);
  return os.str();
}

}  // namespace disp::exp
