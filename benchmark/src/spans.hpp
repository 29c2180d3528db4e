#pragma once
// In-memory span log of the traced run.  Spans are recorded by the
// benchmark around its own calls into the library (graph build, placement,
// runSession) and split at the session's observer callbacks; they are kept
// in a bounded buffer and written out once, when the benchmark ends.
//
// Tree: rep → ingest (ingest_scale only) | cell → graph / placement /
// session → setup / loop / teardown.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the process started.
[[nodiscard]] std::int64_t nowNs();

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  const char* name = "";  ///< static string
  std::int64_t parent = kNoParent;  ///< index in the log, or kNoParent
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  /// Appends one run's spans.  In `group`, a parent below 0 refers to
  /// `outer` and any other parent to an index inside the group.  Returns
  /// false (and counts the group as dropped) when the log is full.
  /// Thread-safe.
  bool append(std::span<const Span> group, std::int64_t outer);

  /// Opens a span whose end is set later by close(); returns its index, or
  /// kNoParent when the log is full.  Thread-safe.
  [[nodiscard]] std::int64_t open(const char* name, std::int64_t parent);
  void close(std::int64_t id);

  // The queries below and write() are for the end of the run, once every
  // writer has finished.
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  /// Spans that end before they start or are not inside their parent.
  [[nodiscard]] std::size_t nestingViolations() const;

  /// Writes `id name parent start_ns end_ns` lines.  Throws on I/O error.
  void write(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::mutex mu_;  // guards spans_ and dropped_
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

}  // namespace perfbench
