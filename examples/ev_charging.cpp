// EV-charging relocation — the paper's motivating application: self-driven
// electric cars (agents) must spread over charging stations (nodes) so
// that each car gets its own station.  Cars start clustered at a few
// depots (a *general* initial configuration); the road network is a city
// grid.  GeneralSync runs ℓ concurrent DFSs that merge via subsumption
// when they meet.
//
//   ./ev_charging [--cars=60] [--depots=4] [--side=10] [--seed=3]
//                 [--placement=clusters:l=DEPOTS]
//
// --placement accepts any PlacementSpec — try "adversarial:far,l=4" for
// depots pushed to opposite corners of the city, or "adversarial:hot" for
// every car jammed at the central interchange.
#include <iostream>

#include "algo/runner.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"

using namespace disp;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto cars = static_cast<std::uint32_t>(cli.integer("cars", 60));
  const auto depots = static_cast<std::uint32_t>(cli.integer("depots", 4));
  const auto side = static_cast<std::uint32_t>(cli.integer("side", 10));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 3));

  const Graph city = makeGrid(side, side).build(PortLabeling::RandomPermutation, seed);
  std::cout << "city grid: " << side << "x" << side << " (" << city.nodeCount()
            << " stations), " << cars << " cars at " << depots << " depots\n";

  const std::string placement =
      cli.str("placement", "clusters:l=" + std::to_string(depots));
  const Placement p = PlacementSpec::parse(placement).place(city, cars, seed);
  RunOptions opts;
  opts.algorithm = "general_sync";
  const RunResult r = runSession(city, p, opts);

  std::cout << "relocation " << (r.dispersed ? "succeeded" : "FAILED") << " in "
            << r.time << " rounds; total driving: " << r.totalMoves
            << " road segments (" << double(r.totalMoves) / cars << " per car)\n";
  std::cout << "per-car controller memory: " << r.maxMemoryBits << " bits\n";

  // Occupancy check: every car on its own station.
  std::vector<int> occ(city.nodeCount(), 0);
  for (const NodeId v : r.finalPositions) ++occ[v];
  int collisions = 0;
  for (const int c : occ) collisions += c > 1;
  std::cout << "stations double-booked: " << collisions << "\n";
  return r.dispersed ? 0 : 1;
}
