#include "spans.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t nowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

bool SpanLog::append(std::span<const Span> group, std::int64_t outer) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() + group.size() > capacity_) {
    ++dropped_;
    return false;
  }
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span s : group) {
    s.parent = s.parent < 0 ? outer : base + s.parent;
    spans_.push_back(s);
  }
  return true;
}

std::int64_t SpanLog::open(const char* name, std::int64_t parent) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoParent;
  }
  const std::int64_t now = nowNs();
  spans_.push_back({name, parent, now, now});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t now = nowNs();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].endNs = now;
}

std::size_t SpanLog::nestingViolations() const {
  std::size_t bad = 0;
  for (const Span& s : spans_) {
    if (s.endNs < s.startNs) {
      ++bad;
    } else if (s.parent != kNoParent) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      if (s.startNs < p.startNs || s.endNs > p.endNs) ++bad;
    }
  }
  return bad;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  out << "# id\tname\tparent\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.parent << '\t' << s.startNs << '\t'
        << s.endNs << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
