#include "core/world.hpp"

#include <algorithm>

namespace disp {

World::World(const Graph& g, std::vector<NodeId> startPositions, std::vector<AgentId> ids)
    : graph_(&g),
      ids_(std::move(ids)),
      nodes_(g.nodeCount()),
      auxChunks_((g.nodeCount() + kAuxChunk - 1) / kAuxChunk) {
  DISP_REQUIRE(!startPositions.empty(), "need at least one agent");
  DISP_REQUIRE(startPositions.size() == ids_.size(), "positions/ids size mismatch");
  DISP_REQUIRE(startPositions.size() <= g.nodeCount(), "k must be <= n");
  DISP_REQUIRE(startPositions.size() < kLogRemove, "agent count exceeds the log encoding");
  {
    // Sort-and-adjacent-find over a scratch vector: O(k log k) with one
    // allocation, instead of a per-run std::set of tree nodes.
    std::vector<AgentId> scratch(ids_);
    std::sort(scratch.begin(), scratch.end());
    DISP_REQUIRE(std::adjacent_find(scratch.begin(), scratch.end()) == scratch.end(),
                 "agent IDs must be unique");
  }
  agents_.resize(startPositions.size());
  for (AgentIx a = 0; a < agentCount(); ++a) {
    const NodeId v = startPositions[a];
    DISP_REQUIRE(v < g.nodeCount(), "start position out of range");
    AgentCell& cell = agents_[a];
    cell.pos = v;
    cell.pin = kNoPort;
    NodeCell& node = nodes_[v];
    cell.next = node.head;
    if (node.head != kNoAgent) agents_[node.head].prev = a;
    node.head = a;
    ++node.count;
  }
}

void World::applyMove(AgentIx a, Port p) {
  DISP_REQUIRE(a < agentCount(), "agent out of range");
  const NodeId from = agents_[a].pos;
  DISP_REQUIRE(p >= 1 && p <= graph_->degree(from), "move through invalid port");
  moveInternal(a, from, p);
}

World::ViewAux& World::auxAllocate(NodeId v) const {
  const std::uint32_t slot = auxCount_++;
  const std::size_t chunk = slot / kAuxChunk;
  if (!auxChunks_[chunk]) {
    auxChunks_[chunk] = std::make_unique<ViewAux[]>(kAuxChunk);
  }
  nodes_[v].aux = slot;
  return auxSlot(slot);
}

void World::materialize(NodeId v) const {
  ViewAux& aux = auxFor(v);
  std::vector<AgentIx>& out = aux.view;
  if (nodes_[v].viewState == kViewPendingLog) {
    // Replay the few pending ops into the still-sorted cache.
    for (const AgentIx entry : aux.log) {
      const AgentIx a = entry & ~kLogRemove;
      if (entry & kLogRemove) {
        const auto it = std::lower_bound(out.begin(), out.end(), a);
        DISP_DCHECK(it != out.end() && *it == a, "occupancy log desynchronized");
        out.erase(it);
      } else {
        out.insert(std::upper_bound(out.begin(), out.end(), a), a);
      }
    }
    aux.log.clear();
  } else {
    out.clear();
    // Push-front insertion makes the list *descending* whenever a group
    // arrives in ascending commit order (the dominant burst pattern), so
    // detect that while walking and reverse in O(g) instead of sorting.
    bool descending = true;
    for (AgentIx a = nodes_[v].head; a != kNoAgent; a = agents_[a].next) {
      descending = descending && (out.empty() || out.back() > a);
      out.push_back(a);
    }
    if (descending) {
      std::reverse(out.begin(), out.end());
    } else {
      std::sort(out.begin(), out.end());
    }
  }
  nodes_[v].viewState = kViewClean;
}

}  // namespace disp
