#pragma once
// Shared world state for both engines: agent positions, incoming ports and
// per-node occupant sets.  Nodes themselves remain memoryless — occupancy
// is engine bookkeeping for co-location queries, which are exactly what the
// paper's local communication model permits.
//
// Hot-path layout (see DESIGN.md "Hot-path data structures"): occupancy is
// an intrusive doubly-linked list per node threaded through flat cell
// arrays (AgentCell packs pos/pin/next/prev, NodeCell packs
// head/count/view-state — one cache line each per move), so applyMove() is
// O(1) regardless of how many agents share a node.  agentsAt() serves the
// documented ascending-by-agent-index view from a per-node cache that is
// repaired lazily: each move appends an add/remove op to the node's pending
// log, and the next query replays the log into the sorted cache (O(ops * g))
// — unless the log overflowed, in which case the cache is rebuilt from the
// list and sorted (O(g log g)).  Query-heavy phases (ASYNC probing) pay the
// cheap replay; move-heavy bursts (SYNC group hops) coalesce into one
// rebuild per query instead of per-move sorted inserts.

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hpp"

namespace disp {

/// Globally unique agent identifier (the paper's a_i.ID ∈ [1, k^O(1)]).
using AgentId = std::uint32_t;

/// Dense agent index in [0, k); engine-internal.
using AgentIx = std::uint32_t;
inline constexpr AgentIx kNoAgent = static_cast<AgentIx>(-1);

class World {
 public:
  World(const Graph& g, std::vector<NodeId> startPositions, std::vector<AgentId> ids);

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::uint32_t agentCount() const noexcept {
    return static_cast<std::uint32_t>(agents_.size());
  }

  [[nodiscard]] AgentId idOf(AgentIx a) const {
    DISP_DCHECK(a < agentCount(), "agent out of range");
    return ids_[a];
  }
  [[nodiscard]] NodeId positionOf(AgentIx a) const {
    DISP_DCHECK(a < agentCount(), "agent out of range");
    return agents_[a].pos;
  }
  /// Incoming port: the port of the current node through which the agent
  /// last arrived (kNoPort before the first move).
  [[nodiscard]] Port pinOf(AgentIx a) const {
    DISP_DCHECK(a < agentCount(), "agent out of range");
    return agents_[a].pin;
  }

  /// Agents co-located at node v, ascending by agent index.  The reference
  /// stays valid until the next applyMove() touching v (same contract as
  /// the historical always-sorted vectors).
  [[nodiscard]] const std::vector<AgentIx>& agentsAt(NodeId v) const {
    DISP_DCHECK(v < graph_->nodeCount(), "node out of range");
    if (nodes_[v].viewState != kViewClean) materialize(v);
    return auxSlot(nodes_[v].aux).view;
  }

  /// Number of agents at node v: O(1), never materializes the sorted view.
  /// Prefer this over agentsAt(v).size() on hot paths.
  [[nodiscard]] std::uint32_t countAt(NodeId v) const {
    DISP_DCHECK(v < graph_->nodeCount(), "node out of range");
    return nodes_[v].count;
  }

  [[nodiscard]] std::uint64_t totalMoves() const noexcept { return totalMoves_; }

  /// Moves agent `a` through port `p` of its current node (immediately).
  void applyMove(AgentIx a, Port p);

  /// Same, but skips the argument validation: for engine commit loops whose
  /// moves were already validated at staging time against a position that
  /// cannot have changed since (SYNC stage/commit discipline).
  void applyMoveStaged(AgentIx a, Port p) {
    DISP_DCHECK(a < agentCount(), "agent out of range");
    DISP_DCHECK(p >= 1 && p <= graph_->degree(agents_[a].pos),
                "move through invalid port");
    moveInternal(a, agents_[a].pos, p);
  }

 private:
  enum : std::uint8_t { kViewClean = 0, kViewPendingLog = 1, kViewRebuild = 2 };
  // Pending ops replayable in O(g) each stay worthwhile only in small
  // numbers; past this the next query rebuilds and sorts from scratch.
  static constexpr std::size_t kMaxPendingOps = 8;
  // Log entries are the agent index with the top bit set for removals.
  static constexpr AgentIx kLogRemove = AgentIx{1} << 31;

  /// No aux slot allocated yet for this node.
  static constexpr std::uint32_t kNoAux = 0xffffffffu;
  /// Aux-pool chunk size: big enough to amortize allocation, small enough
  /// that sparse occupancy on a 10^7-node graph stays sparse in memory.
  static constexpr std::size_t kAuxChunk = 4096;

  /// Per-agent hot state: one 16-byte cell per move endpoint.
  struct AgentCell {
    NodeId pos = kInvalidNode;
    Port pin = kNoPort;
    AgentIx next = kNoAgent;  ///< intrusive occupancy-list links
    AgentIx prev = kNoAgent;
  };
  /// Per-node hot state: list head, occupant count, sorted-view freshness,
  /// and the node's slot in the on-demand view/log pool.  16 bytes — at
  /// web scale the two per-node vectors this replaces (48 bytes of headers
  /// per node, ~480 MB at n = 10^7) dominated the resident set.
  struct NodeCell {
    AgentIx head = kNoAgent;
    std::uint32_t count = 0;
    std::uint32_t aux = kNoAux;
    std::uint8_t viewState = kViewRebuild;
  };

 public:
  /// Declared per-entity footprints, exported so the scale campaign's RSS
  /// lower bound (exp/benches_scale.cpp) tracks the real structs instead
  /// of hand-copied literals.
  static constexpr std::size_t kAgentCellBytes = sizeof(AgentCell);
  static constexpr std::size_t kNodeCellBytes = sizeof(NodeCell);

 private:
  /// Sorted occupancy view + pending-op log for one queried node.  Only
  /// nodes that are ever materialized get one (at most the nodes agents
  /// visit and query), pooled in fixed chunks.
  struct ViewAux {
    std::vector<AgentIx> view;
    std::vector<AgentIx> log;
  };

  [[nodiscard]] ViewAux& auxSlot(std::uint32_t slot) const {
    DISP_DCHECK(slot != kNoAux, "aux slot not allocated");
    return auxChunks_[slot / kAuxChunk][slot % kAuxChunk];
  }

  /// Returns the node's ViewAux, allocating its slot on first use.
  [[nodiscard]] ViewAux& auxFor(NodeId v) const {
    const std::uint32_t slot = nodes_[v].aux;
    if (slot != kNoAux) return auxSlot(slot);
    return auxAllocate(v);
  }

  ViewAux& auxAllocate(NodeId v) const;

  void materialize(NodeId v) const;

  void moveInternal(AgentIx a, NodeId from, Port p) {
    const NodeId to = graph_->neighbor(from, p);
    AgentCell& cell = agents_[a];
    NodeCell& src = nodes_[from];
    NodeCell& dst = nodes_[to];

    // Unlink from `from`'s list ...
    if (cell.prev == kNoAgent) {
      src.head = cell.next;
    } else {
      agents_[cell.prev].next = cell.next;
    }
    if (cell.next != kNoAgent) agents_[cell.next].prev = cell.prev;
    // ... and push onto the front of `to`'s list.  All O(1); order inside
    // the list is irrelevant because the agentsAt() views are kept sorted.
    cell.next = dst.head;
    cell.prev = kNoAgent;
    if (dst.head != kNoAgent) agents_[dst.head].prev = a;
    dst.head = a;
    --src.count;
    ++dst.count;
    logOp(from, a | kLogRemove);
    logOp(to, a);

    cell.pos = to;
    cell.pin = graph_->reversePort(from, p);
    ++totalMoves_;
  }

  void logOp(NodeId v, AgentIx entry) {
    NodeCell& node = nodes_[v];
    if (node.viewState == kViewRebuild) return;  // log already abandoned
    // A non-rebuild state means materialize() ran for v, so its aux slot
    // exists — logOp never allocates.
    std::vector<AgentIx>& log = auxSlot(node.aux).log;
    if (log.size() >= kMaxPendingOps) {
      log.clear();
      node.viewState = kViewRebuild;
      return;
    }
    log.push_back(entry);
    node.viewState = kViewPendingLog;
  }

  const Graph* graph_;
  std::vector<AgentCell> agents_;
  std::vector<AgentId> ids_;
  mutable std::vector<NodeCell> nodes_;  // viewState flips on (const) queries
  // On-demand pool of sorted views + pending logs, chunked so growth never
  // reallocates (auxChunks_ is sized to its final length up front); only
  // queried nodes ever get a slot.
  mutable std::vector<std::unique_ptr<ViewAux[]>> auxChunks_;
  mutable std::uint32_t auxCount_ = 0;
  std::uint64_t totalMoves_ = 0;
};

}  // namespace disp
