#include "algo/ks_merge.hpp"

#include <algorithm>
#include <string>

#include "algo/general_async.hpp"
#include "algo/general_sync.hpp"
#include "graph/graph_algos.hpp"
#include "util/check.hpp"

namespace disp {

template <class P, class E>
KsMerge<P, E>::KsMerge(std::uint32_t agentCount, std::uint32_t maxDegree)
    : chain_(agentCount),
      widths_(BitWidths::forRun(4ULL * agentCount, maxDegree, agentCount)),
      ledGroups_(agentCount, 0) {}

template <class P, class E>
void KsMerge<P, E>::initGroups(std::uint32_t labelCount) {
  groups_.assign(labelCount, {});
  rescanFound_.assign(labelCount, 0);
  for (std::uint32_t l = 0; l < labelCount; ++l) groups_[l].label = l;
  for (AgentIx a = 0; a < eng().agentCount(); ++a) {
    GroupCtx& ctx = groups_[d().st_[a].label];
    ++ctx.total;
    ++ctx.unsettled;
    if (ctx.leader == kNoAgent || eng().idOf(a) > eng().idOf(ctx.leader)) {
      ctx.leader = a;
    }
  }
  for (const GroupCtx& ctx : groups_) {
    ++ledGroups_[ctx.leader];
    unsettledTotal_ += ctx.unsettled;
  }
}

// ------------------------------------------------------------- helpers

template <class P, class E>
std::uint32_t KsMerge<P, E>::resolveGroup(std::uint32_t g) const {
  while (groups_[g].dissolved) g = groups_[g].absorbedBy;
  return g;
}

template <class P, class E>
AgentIx KsMerge<P, E>::anySettlerAt(NodeId v) const {
  for (const AgentIx a : eng().agentsAt(v)) {
    const auto& s = d().st_[a];
    if (s.settled && !s.isGuest && s.settledAt == v) return a;
  }
  return kNoAgent;
}

template <class P, class E>
Port KsMerge<P, E>::stepToward(NodeId here, NodeId there) const {
  const Graph& g = eng().graph();
  const auto dist = bfsDistances(g, there);
  for (Port p = 1; p <= g.degree(here); ++p) {
    if (dist[g.neighbor(here, p)] < dist[here]) return p;
  }
  return kNoPort;
}

template <class P, class E>
void KsMerge<P, E>::settle(std::uint32_t gi, AgentIx a, NodeId at, Port parentPort) {
  d().markSettled(a, at, parentPort);  // chain_[a] is empty (see collapseVisit)
  --groups_[gi].unsettled;
  --unsettledTotal_;
  eng().traceSettle(a, groups_[gi].label);
  recordMemory();
}

template <class P, class E>
void KsMerge<P, E>::setLeader(std::uint32_t gi, AgentIx a) {
  --ledGroups_[groups_[gi].leader];
  groups_[gi].leader = a;
  ++ledGroups_[a];
  memoryDirty_.push_back(a);  // bits rose; flushed by the next recordMemory
}

template <class P, class E>
void KsMerge<P, E>::recordMemory() {
  // The ledger keeps a running max per agent, and an agent's bits change
  // only when its ledGroups_ count moves (setLeader).  So after one full
  // flush, re-recording agents whose bits did not *rise* is a no-op; only
  // new leaders (memoryDirty_) need a fresh record: O(k) once plus O(1)
  // amortized instead of a k-agent sweep per settle.
  if (!memoryPrimed_) {
    for (AgentIx a = 0; a < eng().agentCount(); ++a) {
      eng().memory().record(a, d().agentBits(a));
    }
    memoryPrimed_ = true;
  } else {
    for (const AgentIx a : memoryDirty_) eng().memory().record(a, d().agentBits(a));
  }
  memoryDirty_.clear();
}

template <class P, class E>
void KsMerge<P, E>::adoptAt(std::uint32_t gi, std::uint32_t fromLabel, NodeId v) {
  GroupCtx& ctx = groups_[gi];
  if (fromLabel == ctx.label) return;  // self-collapse: already ours
  for (const AgentIx a : eng().agentsAt(v)) {
    auto& s = d().st_[a];
    if (s.label == fromLabel && !s.settled) {
      s.label = ctx.label;
      d().onRelabel(a, fromLabel, ctx.label, v);
      ++ctx.total;
      ++ctx.unsettled;
      --groups_[fromLabel].total;
      --groups_[fromLabel].unsettled;
    }
  }
}

template <class P, class E>
void KsMerge<P, E>::absorbGroup(std::uint32_t gi, std::uint32_t mi) {
  GroupCtx& ctx = groups_[gi];
  GroupCtx& m = groups_[mi];
  const NodeId here = eng().positionOf(ctx.leader);
  std::uint32_t joined = 0;
  for (AgentIx a = 0; a < eng().agentCount(); ++a) {
    auto& s = d().st_[a];
    if (s.label == m.label && !s.settled) {
      DISP_CHECK(eng().positionOf(a) == here,
                 "marcher group not consolidated at absorb time");
      s.label = ctx.label;
      d().onRelabel(a, m.label, ctx.label, here);
      ++joined;
    }
  }
  ctx.total += joined;
  ctx.unsettled += joined;
  m.total -= joined;
  m.unsettled -= joined;
  DISP_CHECK(m.total == 0 && m.unsettled == 0, "marcher left agents behind");
  m.dissolved = true;
  m.absorbedBy = gi;
  m.marching = false;
  --marchingCount_;
  recordMemory();
}

// --------------------------------------------------------- forward move

template <class P, class E>
Task KsMerge<P, E>::forwardStep(std::uint32_t gi, NodeId w, AgentIx aw, Port next,
                                bool& entered) {
  GroupCtx& ctx = groups_[gi];
  // Sibling-chain bookkeeping for future collapse walks (undone below if
  // the move has to retreat).
  const Port prevFirst = chain_[aw].firstChildPort;
  const Port prevLatest = chain_[aw].latestChildPort;
  if (prevFirst == kNoPort) {
    chain_[aw].firstChildPort = next;
  } else {
    co_await d().sideTripSetNextSibling(gi, w, prevLatest, next);
  }
  chain_[aw].latestChildPort = next;

  co_await d().moveGroup(gi, next);
  const NodeId u = eng().positionOf(ctx.leader);
  const AgentIx foreignSettler = anySettlerAt(u);
  bool retreat = false;
  std::uint32_t metLabel = P::kNoLabel;
  if (foreignSettler != kNoAgent) {
    retreat = true;
    metLabel = d().st_[foreignSettler].label;
  } else {
    // Collision with a foreign group on an empty node: the squatting rule
    // — the smaller tree (ties: smaller label) retreats; both sides compute
    // the same comparison.
    for (const AgentIx b : eng().agentsAt(u)) {
      if (d().st_[b].label == ctx.label || d().st_[b].settled) continue;
      const std::uint32_t otherGi = resolveGroup(d().st_[b].label);
      const auto mine = std::make_pair(ctx.treeSize, ctx.label);
      const auto theirs =
          std::make_pair(groups_[otherGi].treeSize, groups_[otherGi].label);
      if (mine < theirs) retreat = true;
    }
  }
  entered = !retreat;
  if (retreat) {
    ++d().stats_.retreats;
    co_await d().moveGroup(gi, eng().pinOf(ctx.leader));
    // Undo the speculative sibling link: the child was not created.
    chain_[aw].firstChildPort = prevFirst;
    chain_[aw].latestChildPort = prevLatest;
    if (prevLatest != kNoPort) {
      co_await d().sideTripSetNextSibling(gi, w, prevLatest, kNoPort);
    }
    if (metLabel != P::kNoLabel) co_await handleMeeting(gi, metLabel, next);
    co_return;
  }
  ++d().stats_.forwardMoves;
  ++ctx.treeSize;
}

// ---------------------------------------------------------- subsumption

template <class P, class E>
Task KsMerge<P, E>::awaitParked(std::uint32_t gi, std::uint32_t loser) {
  // The loser acknowledges the freeze at its next safe point; a group that
  // already settled everyone counts as parked (it holds still once frozen).
  for (std::uint64_t guard = 0; guard < kWaitGuard; ++guard) {
    const GroupCtx& L = groups_[loser];
    if (L.parked || (L.unsettled == 0 && !L.marching)) co_return;
    co_await d().waitStep(gi);
  }
  DISP_CHECK(false, "loser never parked");
}

template <class P, class E>
Task KsMerge<P, E>::collapseVisit(std::uint32_t gi, std::uint32_t loserLabel,
                                  Port exclPort) {
  GroupCtx& ctx = groups_[gi];
  const NodeId cur = eng().positionOf(ctx.leader);

  // Collect any parked loser-group agents stranded here (including the
  // loser's parked leader): they change allegiance and walk with us.
  adoptAt(gi, loserLabel, cur);

  const AgentIx ls = d().homeSettlerAt(cur, loserLabel);
  if (ls == kNoAgent) {
    std::string diag = "collapse walk: loser tree node without settler: node=" +
                       std::to_string(cur) + " loser=" + std::to_string(loserLabel) +
                       " walker=" + std::to_string(ctx.label) + " occupants:";
    for (const AgentIx b : eng().agentsAt(cur)) {
      const auto& s = d().st_[b];
      diag += " a" + std::to_string(b) + "(l" + std::to_string(s.label) +
              (s.settled ? ",s" : ",u") + (s.isGuest ? ",g)" : ")");
    }
    DISP_CHECK(false, diag);
  }
  const Port parentPort = d().st_[ls].parentPort;

  // Children chain (skipping the direction we came from; for that child we
  // only peek its sibling pointer to continue the chain).
  Port c = chain_[ls].firstChildPort;
  while (c != kNoPort) {
    if (c == exclPort) {
      co_await d().moveGroup(gi, c);
      const AgentIx cs = d().homeSettlerAt(eng().positionOf(ctx.leader), loserLabel);
      const Port sib = (cs != kNoAgent) ? chain_[cs].nextSiblingPort : kNoPort;
      co_await d().moveGroup(gi, eng().pinOf(ctx.leader));
      c = sib;
      continue;
    }
    co_await d().moveGroup(gi, c);
    const Port backUp = eng().pinOf(ctx.leader);
    const AgentIx cs = d().homeSettlerAt(eng().positionOf(ctx.leader), loserLabel);
    DISP_CHECK(cs != kNoAgent, "collapse walk: child without settler");
    const Port sib = chain_[cs].nextSiblingPort;
    co_await collapseVisit(gi, loserLabel, backUp);
    co_await d().moveGroup(gi, backUp);
    c = sib;
  }

  // Parent direction (when we entered from a child or from outside).
  if (parentPort != kNoPort && parentPort != exclPort) {
    co_await d().moveGroup(gi, parentPort);
    const Port backDown = eng().pinOf(ctx.leader);
    co_await collapseVisit(gi, loserLabel, backDown);
    co_await d().moveGroup(gi, backDown);
  }

  // Finally collect this node's settler; its record dies with it (the
  // chain is cleared here rather than at the next settle: collections are
  // rare, settles are not).
  auto& s = d().st_[ls];
  s.settled = false;
  s.settledAt = kInvalidNode;
  s.label = ctx.label;
  chain_[ls] = {};
  d().onUnsettle(ls);
  ++ctx.total;
  ++ctx.unsettled;
  ++unsettledTotal_;
  --groups_[loserLabel].total;
  --groups_[loserLabel].treeSize;
  eng().traceUnsettle(ls, loserLabel, ctx.label);
}

template <class P, class E>
Task KsMerge<P, E>::marchToward(std::uint32_t gi, AgentIx anchor) {
  // BFS walk of the whole group toward the anchor agent's (possibly
  // moving) position; every hop is a real group move.
  for (std::uint64_t guard = 0; guard < kWaitGuard; ++guard) {
    const NodeId here = eng().positionOf(groups_[gi].leader);
    const NodeId there = eng().positionOf(anchor);
    if (here == there) co_return;
    const Port step = stepToward(here, there);
    DISP_CHECK(step != kNoPort, "march lost its way");
    co_await d().moveGroup(gi, step);
  }
  DISP_CHECK(false, "march never arrived");
}

template <class P, class E>
Task KsMerge<P, E>::collapseForeign(std::uint32_t gi, std::uint32_t loser,
                                    Port metPort) {
  GroupCtx& ctx = groups_[gi];
  bool usedPort = false;
  if (metPort != kNoPort) {
    // Enter the loser tree through the met port, Euler-walk it collecting
    // everyone, end back at the entry node, and hop home.  The met node may
    // turn out not to be a loser *tree* node (the meeting was with agents
    // in transit); fall back to the march path then.
    co_await d().moveGroup(gi, metPort);
    const Port backToHead = eng().pinOf(ctx.leader);
    if (d().homeSettlerAt(eng().positionOf(ctx.leader), groups_[loser].label) !=
        kNoAgent) {
      usedPort = true;
      co_await collapseVisit(gi, groups_[loser].label, kNoPort);
    }
    co_await d().moveGroup(gi, backToHead);
  }
  if (!usedPort) {
    // Pended retry: no fresh adjacency.  March to the loser's parked group
    // (its leader rests on a loser tree node), collapse from there, then
    // march back to our own head (it always holds our settler) to resume
    // the DFS.
    const NodeId myHead = eng().positionOf(ctx.leader);
    const AgentIx loserAnchor = groups_[loser].leader;
    co_await marchToward(gi, loserAnchor);
    co_await collapseVisit(gi, groups_[loser].label, kNoPort);
    const AgentIx homeAnchor = d().homeSettlerAt(myHead, ctx.label);
    DISP_CHECK(homeAnchor != kNoAgent, "head lost its settler during collapse");
    co_await marchToward(gi, homeAnchor);
  }
  recordMemory();
}

template <class P, class E>
Task KsMerge<P, E>::selfCollapseAndMarch(std::uint32_t gi, std::uint32_t winner,
                                         Port metPort) {
  GroupCtx& ctx = groups_[gi];
  // Collapse our own tree starting from the head (a tree node), collecting
  // all our settlers into the walking group.
  co_await collapseVisit(gi, ctx.label, kNoPort);
  // Chase the winner's leader (with the group while active; ASYNC: at its
  // settle node when dormant).  The winner idles at its next safe point
  // until we arrive and absorbs us.
  if (metPort != kNoPort) co_await d().moveGroup(gi, metPort);
  ctx.marchTarget = winner;
  ctx.marching = true;
  ++marchingCount_;
  for (std::uint64_t guard = 0; guard < kWaitGuard; ++guard) {
    if (ctx.dissolved) co_return;  // the winner absorbed us
    const std::uint32_t target = resolveGroup(ctx.marchTarget);
    const NodeId here = eng().positionOf(ctx.leader);
    const NodeId head = eng().positionOf(groups_[target].leader);
    if (here == head) {
      co_await d().waitStep(gi);  // co-located: wait for the absorb
      continue;
    }
    const Port step = stepToward(here, head);
    DISP_CHECK(step != kNoPort, "march lost its way");
    co_await d().moveGroup(gi, step);
  }
  DISP_CHECK(false, "march never absorbed");
}

template <class P, class E>
Task KsMerge<P, E>::absorbMarchers(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  for (;;) {
    // Junction locking (DESIGN.md §4.7): a frozen or dissolved group must
    // not take marchers in.  Its winner's collapse walk collects only tree
    // settlers, so members absorbed mid-freeze would be orphaned unsettled
    // when this leader parks — the seed-dependent grid/ℓ=8 round-cap
    // divergence.  Bailing out is safe: the marchers re-resolve their
    // target through the dissolution chain and reach the eventual winner.
    if (ctx.frozen || ctx.dissolved) co_return;
    if (marchingCount_ == 0) co_return;  // nothing marching anywhere
    std::uint32_t mi = 0;
    while (mi < groups_.size() &&
           !(groups_[mi].marching && !groups_[mi].dissolved &&
             resolveGroup(groups_[mi].marchTarget) == gi)) {
      ++mi;
    }
    if (mi == groups_.size()) co_return;
    ctx.phase = "absorbWait";
    // Idle until the marcher group has arrived, then take it in — unless
    // a winner freezes us first, or the marcher is rerouted meanwhile.
    for (std::uint64_t guard = 0; guard < kWaitGuard; ++guard) {
      if (ctx.frozen || ctx.dissolved || groups_[mi].dissolved) break;
      if (d().marcherArrived(gi, mi)) break;
      co_await d().waitStep(gi);
    }
    if (ctx.frozen || ctx.dissolved) co_return;
    if (groups_[mi].dissolved) continue;  // absorbed elsewhere; rescan
    absorbGroup(gi, mi);
  }
}

template <class P, class E>
Task KsMerge<P, E>::handleMeeting(std::uint32_t gi, std::uint32_t other, Port metPort) {
  GroupCtx& ctx = groups_[gi];
  // A group that has itself been frozen (a winner is about to collapse it)
  // must not initiate anything: it parks at its next safe point and gets
  // collected.  Acting here would let it march away from under the waiting
  // winner.
  if (ctx.frozen || ctx.dissolved || ctx.marching) co_return;
  const std::uint32_t target = resolveGroup(other);
  if (target == gi) co_return;
  GroupCtx& them = groups_[target];
  if (them.frozen || them.marching) {
    // Busy peer: pend the meeting (dropping it could wall this tree in,
    // since a probed port is never re-probed once `checked` advances).
    if (std::find(ctx.pending.begin(), ctx.pending.end(), them.label) ==
        ctx.pending.end()) {
      ctx.pending.push_back(them.label);
    }
    co_return;
  }
  ++d().stats_.meetings;
  eng().traceEvent(TraceEventKind::Meeting, ctx.leader, eng().positionOf(ctx.leader),
                   ctx.label, them.label);

  // |D2| < |D1| means D1 subsumes D2; ties favour the met tree (§4.2).
  // The peer checks and the freeze below run without a suspension point
  // in between, so two groups can never freeze each other concurrently.
  const bool iWin = them.treeSize < ctx.treeSize;
  ++d().stats_.subsumptions;
  eng().traceEvent(TraceEventKind::Subsume, iWin ? ctx.leader : them.leader,
                   eng().positionOf(ctx.leader), iWin ? ctx.label : them.label,
                   iWin ? them.label : ctx.label);
  if (iWin) {
    them.frozen = true;
    eng().traceEvent(TraceEventKind::Freeze, them.leader, eng().positionOf(them.leader),
                     them.label, ctx.label);
    ctx.phase = "awaitParked";
    co_await awaitParked(gi, target);
    ctx.phase = "collapseForeign";
    if (!them.dissolved) {
      co_await collapseForeign(gi, target, metPort);
      them.dissolved = true;
      them.absorbedBy = gi;
    }
  } else {
    ctx.frozen = true;  // others must not target us mid-self-collapse
    eng().traceEvent(TraceEventKind::Freeze, ctx.leader, eng().positionOf(ctx.leader),
                     ctx.label, them.label);
    ctx.phase = "selfCollapse";
    co_await selfCollapseAndMarch(gi, target, metPort);
  }
}

template <class P, class E>
Task KsMerge<P, E>::retryPending(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  if (ctx.unsettled == 0) {
    // A dispersed group never needs to initiate a subsumption: if a blocked
    // peer still needs this tree's nodes, it will meet us and act (winning
    // by collapsing us, or losing by marching its agents here).
    ctx.pending.clear();
    co_return;
  }
  std::vector<std::uint32_t> todo;
  std::swap(todo, ctx.pending);
  for (const std::uint32_t label : todo) {
    if (ctx.frozen || ctx.dissolved) {
      // Re-pend what we could not process; a later owner inherits it.
      ctx.pending.push_back(label);
      continue;
    }
    if (resolveGroup(label) == gi) continue;  // merged meanwhile
    co_await handleMeeting(gi, label, kNoPort);
  }
}

template <class P, class E>
Task KsMerge<P, E>::rescanVisit(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "rescan";
  const AgentIx settler = d().homeSettlerAt(eng().positionOf(ctx.leader), ctx.label);
  DISP_CHECK(settler != kNoAgent, "rescan reached a non-own node");

  d().st_[settler].checked = 0;
  co_await d().growAt(gi);
  if (d().probeNext_[gi] != kNoPort || !d().probeMet_[gi].empty()) {
    rescanFound_[gi] = 1;  // resume the DFS right here
    co_return;
  }

  Port c = chain_[settler].firstChildPort;
  while (c != kNoPort) {
    co_await d().moveGroup(gi, c);
    const Port backUp = eng().pinOf(ctx.leader);
    const AgentIx cs = d().homeSettlerAt(eng().positionOf(ctx.leader), ctx.label);
    DISP_CHECK(cs != kNoAgent, "rescan child without settler");
    const Port sib = chain_[cs].nextSiblingPort;
    co_await rescanVisit(gi);
    if (rescanFound_[gi]) co_return;  // stay put; frames unwind without moving
    co_await d().moveGroup(gi, backUp);
    c = sib;
  }
}

template <class P, class E>
Task KsMerge<P, E>::rescanOrPause(std::uint32_t gi, std::uint32_t pauseSteps) {
  // A collapse may have freed nodes behind already-checked ports anywhere
  // along the tree, so sweep it re-probing; if that finds nothing, every
  // frontier peer is busy — pend/retry after a pause.
  if (groups_[gi].pending.empty()) {
    rescanFound_[gi] = 0;
    co_await rescanVisit(gi);
    if (rescanFound_[gi]) co_return;
  }
  for (std::uint32_t i = 0; i < pauseSteps; ++i) co_await d().waitStep(gi);
}

template class KsMerge<GeneralSyncDispersion, SyncEngine>;
template class KsMerge<GeneralAsyncDispersion, AsyncEngine>;

}  // namespace disp
