#pragma once
// Probe indexes for the ASYNC protocols: incrementally maintained views
// that replace the per-query O(k) scans in availableProbersAt and
// groupConsolidatedAt (DESIGN.md §9).
//
// Both indexes are *membership* structures, not predicate caches: they
// track the slow-changing part of each query (who is unsettled/a guest,
// where the unsettled agents of a label stand) and leave the fast-changing
// part (pending-order flags, label filters) to the caller at query time.
// That split keeps maintenance down to a handful of O(1) updates per
// protocol transition — settle, unsettle, recruit, see-off, relabel, and
// the engine move hook — instead of shadowing every order-flag write.
//
// Determinism: IdleProberIndex buckets are position-ordered only by the
// operation history (swap-erase perturbs order), so callers that need a
// canonical order must sort — exactly what the protocols already do (by
// agent ID).  GroupPositionIndex uses hash maps strictly for keyed
// lookups; no code path iterates them, so hash order never leaks into
// simulation facts.

#include <cstdint>
#include <unordered_map>  // displint: allow(DL001) — GroupPositionIndex keyed lookups only
#include <vector>

#include "core/world.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"

namespace disp {

/// Per-node buckets of the agents eligible to be drafted as probers: the
/// unsettled followers and the settled guest helpers (`!settled || isGuest`
/// in protocol terms).  availableProbersAt(w) iterates the w bucket and
/// filters pending-order flags instead of scanning every occupant of w.
///
/// The protocol owns the membership transitions (settle/unsettle,
/// recruit/see-off); position changes ride the engine's move hook via
/// relocate(), which ignores non-members (settlers move too — escorts).
class IdleProberIndex {
 public:
  IdleProberIndex(AgentIx agentCount, NodeId nodeCount)
      : members_(nodeCount), where_(agentCount, kInvalidNode), slot_(agentCount, 0) {}

  [[nodiscard]] bool contains(AgentIx a) const { return where_[a] != kInvalidNode; }

  /// The bucket for node v, in maintenance order (NOT sorted; sort by ID
  /// before using the order for anything fact-bearing).
  [[nodiscard]] const std::vector<AgentIx>& membersAt(NodeId v) const {
    return members_[v];
  }

  void insert(AgentIx a, NodeId v) {
    DISP_DCHECK(!contains(a), "IdleProberIndex: double insert");
    where_[a] = v;
    slot_[a] = static_cast<std::uint32_t>(members_[v].size());
    members_[v].push_back(a);
  }

  void erase(AgentIx a) {
    DISP_DCHECK(contains(a), "IdleProberIndex: erasing a non-member");
    std::vector<AgentIx>& bucket = members_[where_[a]];
    const std::uint32_t s = slot_[a];
    bucket[s] = bucket.back();  // swap-erase; fix the moved member's slot
    slot_[bucket[s]] = s;
    bucket.pop_back();
    where_[a] = kInvalidNode;
  }

  /// Move-hook entry point: members follow their agent's position;
  /// non-members (home settlers on escort trips) are ignored.
  void relocate(AgentIx a, NodeId to) {
    if (!contains(a)) return;
    erase(a);
    insert(a, to);
  }

 private:
  std::vector<std::vector<AgentIx>> members_;
  std::vector<NodeId> where_;         // member: current node; else kInvalidNode
  std::vector<std::uint32_t> slot_;   // member: index within its bucket
};

/// Per-label position fingerprint of the *unsettled* agents: a count U of
/// unsettled members plus a node→count map of where they stand.  The
/// consolidation query "is every unsettled agent of this label at v" —
/// previously an O(k) scan on every reassembly-wait activation — becomes
/// two O(1) lookups: U > 0 && countAt(v) == U.
class GroupPositionIndex {
 public:
  explicit GroupPositionIndex(std::uint32_t labelCount)
      : unsettled_(labelCount, 0), at_(labelCount) {}

  /// An agent of `label` became unsettled at v (initial placement, or a
  /// collapse walk collecting a settler).
  void add(std::uint32_t label, NodeId v) {
    ++unsettled_[label];
    ++at_[label][v];
  }

  /// An agent of `label` left the unsettled set at v (settled), or was
  /// relabeled away (pair with add() under the new label).
  void remove(std::uint32_t label, NodeId v) {
    DISP_DCHECK(unsettled_[label] > 0, "GroupPositionIndex: count underflow");
    --unsettled_[label];
    decrementAt(label, v);
  }

  /// Move-hook entry point for an unsettled agent of `label`.
  void move(std::uint32_t label, NodeId from, NodeId to) {
    decrementAt(label, from);
    ++at_[label][to];
  }

  [[nodiscard]] std::uint32_t unsettledCount(std::uint32_t label) const {
    return unsettled_[label];
  }

  [[nodiscard]] std::uint32_t countAt(std::uint32_t label, NodeId v) const {
    const auto it = at_[label].find(v);
    return it == at_[label].end() ? 0 : it->second;
  }

  /// True iff the label has unsettled agents and ALL of them stand at v.
  [[nodiscard]] bool consolidatedAt(std::uint32_t label, NodeId v) const {
    return unsettled_[label] > 0 && countAt(label, v) == unsettled_[label];
  }

 private:
  void decrementAt(std::uint32_t label, NodeId v) {
    const auto it = at_[label].find(v);
    DISP_DCHECK(it != at_[label].end() && it->second > 0,
                "GroupPositionIndex: position count underflow");
    if (--it->second == 0) at_[label].erase(it);
  }

  std::vector<std::uint32_t> unsettled_;
  // displint: allow(DL001) — keyed lookups only (find/erase/operator[]);
  // never iterated, so hash order cannot reach facts.
  std::vector<std::unordered_map<NodeId, std::uint32_t>> at_;
};

}  // namespace disp
