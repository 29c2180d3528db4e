#include "core/trace.hpp"

namespace disp {

const char* traceEventKindName(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::Move: return "move";
    case TraceEventKind::Settle: return "settle";
    case TraceEventKind::Meeting: return "meeting";
    case TraceEventKind::Subsume: return "subsume";
    case TraceEventKind::Collapse: return "collapse";
    case TraceEventKind::Freeze: return "freeze";
    case TraceEventKind::OscillationDuty: return "oscillation_duty";
    case TraceEventKind::FaultCrash: return "fault_crash";
    case TraceEventKind::FaultRestart: return "fault_restart";
    case TraceEventKind::FaultEdge: return "fault_edge";
    case TraceEventKind::FaultSilent: return "fault_silent";
  }
  return "?";
}

std::vector<TraceEventKind> traceEventKinds() {
  // Kinds are numbered from 0, and the switch above names exactly them.
  std::vector<TraceEventKind> kinds;
  for (unsigned v = 0; traceEventKindName(static_cast<TraceEventKind>(v))[0] != '?'; ++v) {
    kinds.push_back(static_cast<TraceEventKind>(v));
  }
  return kinds;
}

}  // namespace disp
