#include "graph/graph_io.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/generators.hpp"  // isConnected
#include "util/check.hpp"

namespace disp {

namespace {

[[noreturn]] void fail(const std::string& source, const std::string& why) {
  throw std::invalid_argument(source + ": " + why);
}

[[noreturn]] void failAt(const std::string& source, std::uint64_t line,
                         const std::string& why) {
  fail(source + ":" + std::to_string(line), why);
}

/// Appends decimal digit `d` to `v`.  Overflow saturates to ULLONG_MAX
/// (the historical strtoull behavior); once saturated, v stays above the
/// cut, so it stays ULLONG_MAX.
std::uint64_t appendDigit(std::uint64_t v, unsigned d) {
  constexpr std::uint64_t kCut = ULLONG_MAX / 10;
  constexpr unsigned kCutDigit = ULLONG_MAX % 10;
  return (v > kCut || (v == kCut && d > kCutDigit)) ? ULLONG_MAX : v * 10 + d;
}

/// The digit value of `c`; above 9 for every non-digit.
unsigned digitOf(char c) {
  return static_cast<unsigned>(static_cast<unsigned char>(c)) - unsigned{'0'};
}

/// Strict unsigned parse of one token; nullopt on anything non-numeric.
/// One pass: each character is checked and accumulated in the same step.
std::optional<std::uint64_t> parseId(std::string_view tok) {
  if (tok.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : tok) {
    const unsigned d = digitOf(c);
    if (d > 9) return std::nullopt;
    v = appendDigit(v, d);
  }
  return v;
}

/// Raw vertex id -> NodeId, defined once for both streaming loaders.
/// Built from `idOf` (idOf[v] is the raw id of NodeId v).  When the ids
/// span fewer than 2x their count, lookups index a direct NodeId table by
/// `id - minId` (kInvalidNode marks holes; at most 8 bytes per vertex);
/// otherwise they binary-search the sorted ids.  Every generated or
/// LDBC-style id space is dense, and there a lookup is one cache miss
/// instead of ~log2(n).
class IdRemap {
 public:
  /// nullopt if two NodeIds share a raw id.
  static std::optional<IdRemap> of(std::vector<std::uint64_t> idOf) {
    IdRemap r;
    const auto n = static_cast<std::uint64_t>(idOf.size());
    if (n == 0) return r;
    const auto [lo, hi] = std::minmax_element(idOf.begin(), idOf.end());
    if (*hi - *lo < 2 * n - 1) {  // span = hi - lo + 1 < 2n, overflow-free
      r.minId_ = *lo;
      r.direct_.assign(*hi - *lo + 1, kInvalidNode);
      for (NodeId v = 0; v < n; ++v) {
        NodeId& slot = r.direct_[idOf[v] - r.minId_];
        if (slot != kInvalidNode) return std::nullopt;
        slot = v;
      }
      return r;
    }
    if (std::is_sorted(idOf.begin(), idOf.end())) {  // NodeId = rank
      if (std::adjacent_find(idOf.begin(), idOf.end()) != idOf.end()) {
        return std::nullopt;
      }
      r.ids_ = std::move(idOf);
      return r;
    }
    std::vector<std::pair<std::uint64_t, NodeId>> sorted(idOf.size());
    for (NodeId v = 0; v < n; ++v) sorted[v] = {idOf[v], v};
    std::sort(sorted.begin(), sorted.end());
    r.nodes_.resize(sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0 && sorted[i].first == sorted[i - 1].first) return std::nullopt;
      idOf[i] = sorted[i].first;
      r.nodes_[i] = sorted[i].second;
    }
    r.ids_ = std::move(idOf);
    return r;
  }

  /// The NodeId of `id`, or kInvalidNode if no vertex has it.
  [[nodiscard]] NodeId operator()(std::uint64_t id) const noexcept {
    if (!direct_.empty()) {
      const std::uint64_t off = id - minId_;  // wraps past the end below minId_
      return off < direct_.size() ? direct_[off] : kInvalidNode;
    }
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) return kInvalidNode;
    const auto i = static_cast<std::size_t>(it - ids_.begin());
    return nodes_.empty() ? static_cast<NodeId>(i) : nodes_[i];
  }

 private:
  std::uint64_t minId_ = 0;
  std::vector<NodeId> direct_;     // dense: NodeId of minId_ + i
  std::vector<std::uint64_t> ids_;  // sparse: the ids, ascending
  std::vector<NodeId> nodes_;      // sparse: NodeId of ids_[i] (empty: i)
};

// ---------------------------------------------------------------------------
// Streaming line scanner: reads the stream in 1 MiB chunks and yields
// terminator-free string_view lines over the internal buffer — no per-line
// std::string allocation, no istream::getline small-read churn.  Views stay
// valid until the next next() call.

class LineScanner {
 public:
  explicit LineScanner(std::istream& is) : is_(is), buf_(kChunk) {}

  /// Yields the next line (without '\n') and bumps lineNo(); false at EOF.
  bool next(std::string_view& line) {
    for (;;) {
      const char* base = buf_.data();
      const void* nl = std::memchr(base + pos_, '\n', end_ - pos_);
      if (nl != nullptr) {
        const auto at =
            static_cast<std::size_t>(static_cast<const char*>(nl) - base);
        line = std::string_view(base + pos_, at - pos_);
        pos_ = at + 1;
        ++lineNo_;
        return true;
      }
      if (eof_) {
        if (pos_ == end_) return false;
        line = std::string_view(base + pos_, end_ - pos_);
        pos_ = end_;
        ++lineNo_;
        return true;
      }
      refill();
    }
  }

  [[nodiscard]] std::uint64_t lineNo() const noexcept { return lineNo_; }

 private:
  static constexpr std::size_t kChunk = 1u << 20;

  void refill() {
    if (pos_ > 0) {  // compact the partial tail line to the front
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    }
    if (buf_.size() - end_ < kChunk) {  // a single line longer than a chunk
      buf_.resize(std::max(buf_.size() * 2, end_ + kChunk));
    }
    is_.read(buf_.data() + end_,
             static_cast<std::streamsize>(buf_.size() - end_));
    const auto got = static_cast<std::size_t>(is_.gcount());
    end_ += got;
    if (got == 0) eof_ = true;
  }

  std::istream& is_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::uint64_t lineNo_ = 0;
  bool eof_ = false;
};

/// Matches the whitespace set `istream >> std::string` splits on.
/// The set is ' ' and the contiguous '\t' '\n' '\v' '\f' '\r' (9..13).
bool isSpaceChar(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

/// Up to 5 whitespace-separated tokens of a line; count caps at 5, which
/// keeps every exact-arity check (2, 3 or 4 tokens) meaningful.  `id[i]`
/// is parseId(tok[i]) for the first two tokens (nullopt when absent),
/// computed while splitting.
struct Tokens {
  std::string_view tok[5];
  std::size_t count = 0;
  std::optional<std::uint64_t> id[2];
};

/// One pass over the line: splits it and parses the first two tokens.
Tokens splitLine(std::string_view line) {
  Tokens t;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (t.count < 5) {
    while (p != end && isSpaceChar(*p)) ++p;
    if (p == end) break;
    const char* const start = p;
    if (t.count < 2) {
      std::uint64_t v = 0;
      bool digits = true;
      for (; p != end && !isSpaceChar(*p); ++p) {
        const unsigned d = digitOf(*p);
        digits = digits && d <= 9;
        v = appendDigit(v, d);  // meaningless unless every char is a digit
      }
      if (digits) t.id[t.count] = v;
    } else {
      while (p != end && !isSpaceChar(*p)) ++p;
    }
    t.tok[t.count++] = std::string_view(start, static_cast<std::size_t>(p - start));
  }
  return t;
}

bool isCommentOrBlank(const Tokens& toks) {
  return toks.count == 0 || toks.tok[0][0] == '#' || toks.tok[0][0] == '%';
}

/// The streamed loaders read their input twice (count, then build), so the
/// stream must rewind; every caller hands in an ifstream or a stringstream.
void rewind(std::istream& is, const std::string& source) {
  is.clear();
  is.seekg(0);
  if (!is.good()) {
    fail(source, "stream is not seekable (streaming ingest reads twice)");
  }
}

// Legacy string-based tokenizer, still used by the dpg reader (dpg files
// are small archives; the streaming path is for the web-scale formats).
std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> toks;
  std::string tok;
  while (is >> tok) toks.push_back(tok);
  return toks;
}

/// Cold path: a duplicate edge was detected on the sorted rows.  Rescans
/// the source with the historical per-line set so the error names the same
/// line and tokens the old single-pass loaders reported.  The key is the
/// normalized pair of raw ids: both remaps are bijections on the ids that
/// occur, so raw pairs collide exactly when remapped ones do.
[[noreturn]] void reportDuplicateEdge(std::istream& is, const std::string& source) {
  rewind(is, source);
  LineScanner sc(is);
  std::string_view line;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  while (sc.next(line)) {
    const Tokens toks = splitLine(line);
    if (isCommentOrBlank(toks)) continue;
    const std::uint64_t a = *toks.id[0];
    const std::uint64_t b = *toks.id[1];
    if (!seen.insert(std::minmax(a, b)).second) {
      failAt(source, sc.lineNo(),
             "duplicate edge " + std::string(toks.tok[0]) + " " +
                 std::string(toks.tok[1]));
    }
  }
  DISP_CHECK(false, source + ": duplicate edge vanished on rescan");
  std::abort();  // unreachable; DISP_CHECK throws
}

/// Shared tail of the port-free formats, streaming edition: sorts the
/// as-written directed pairs into the canonical (u, v) order, rejects
/// duplicates (rescanning `is`, the edge source, to name the offending
/// line), then feeds the two-pass
/// CSR builder.  Ports are per-node arrival order over the sorted stream —
/// exactly the deterministic insertion-order labeling the historical
/// edge-vector path produced — and connectivity is checked last.  Peak
/// transient memory: the 8-byte pairs plus the CSR itself.
Graph buildFromMappedPairs(std::uint32_t n,
                           std::vector<std::pair<NodeId, NodeId>> pairs,
                           std::istream& is, const std::string& source) {
  std::sort(pairs.begin(), pairs.end());
  bool dup = std::adjacent_find(pairs.begin(), pairs.end()) != pairs.end();
  if (!dup) {
    // Same-direction duplicates are adjacent; opposite-direction ones need
    // a lookup of the flipped pair (only one orientation must check).
    for (const auto& [u, v] : pairs) {
      if (v < u && std::binary_search(pairs.begin(), pairs.end(),
                                      std::pair<NodeId, NodeId>(v, u))) {
        dup = true;
        break;
      }
    }
  }
  if (dup) reportDuplicateEdge(is, source);

  TwoPassBuilder b(n);
  for (const auto& [u, v] : pairs) b.countEdge(u, v);
  b.beginEdges();
  for (const auto& [u, v] : pairs) b.addEdge(u, v);
  pairs.clear();
  pairs.shrink_to_fit();
  Graph g = b.finish();
  if (!isConnected(g)) fail(source, "graph is not connected");
  return g;
}

}  // namespace

void writeGraph(std::ostream& os, const Graph& g) {
  os << "dpg " << g.nodeCount() << ' ' << g.edgeCount() << '\n';
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    for (Port p = 1; p <= g.degree(v); ++p) {
      const NodeId u = g.neighbor(v, p);
      if (v <= u) {
        os << v << ' ' << p << ' ' << u << ' ' << g.reversePort(v, p) << '\n';
      }
    }
  }
}

Graph readGraph(std::istream& is, const std::string& source) {
  struct Rec {
    NodeId u;
    Port pu;
    NodeId v;
    Port pv;
    std::uint64_t line;
  };
  std::uint64_t lineNo = 0;
  std::string line;
  std::uint32_t n = 0;
  std::uint64_t m = 0;
  bool sawHeader = false;
  std::vector<Rec> recs;
  std::set<std::pair<NodeId, NodeId>> seenEdges;

  while (std::getline(is, line)) {
    ++lineNo;
    const std::vector<std::string> toks = tokenize(line);
    if (toks.empty()) continue;
    if (!sawHeader) {
      if (toks.size() != 3 || toks[0] != "dpg") {
        failAt(source, lineNo, "bad graph header (want 'dpg <n> <m>')");
      }
      const auto hn = parseId(toks[1]);
      const auto hm = parseId(toks[2]);
      if (!hn || !hm || *hn > 0xffffffffULL) {
        failAt(source, lineNo, "bad node/edge count in header");
      }
      n = static_cast<std::uint32_t>(*hn);
      m = *hm;
      sawHeader = true;
      continue;
    }
    if (recs.size() == m) failAt(source, lineNo, "trailing content after the last edge");
    if (toks.size() != 4) failAt(source, lineNo, "want '<u> <pu> <v> <pv>'");
    std::uint64_t vals[4];
    for (int i = 0; i < 4; ++i) {
      const auto v = parseId(toks[static_cast<std::size_t>(i)]);
      if (!v) failAt(source, lineNo, "non-numeric field '" +
                                         toks[static_cast<std::size_t>(i)] + "'");
      vals[i] = *v;
    }
    if (vals[0] >= n || vals[2] >= n) {
      failAt(source, lineNo, "node out of range (n = " + std::to_string(n) + ")");
    }
    if (vals[0] == vals[2]) failAt(source, lineNo, "self-loop");
    Rec r{static_cast<NodeId>(vals[0]), static_cast<Port>(vals[1]),
          static_cast<NodeId>(vals[2]), static_cast<Port>(vals[3]), lineNo};
    const auto key = std::minmax(r.u, r.v);
    if (!seenEdges.insert({key.first, key.second}).second) {
      failAt(source, lineNo,
             "duplicate edge " + std::to_string(r.u) + "-" + std::to_string(r.v));
    }
    recs.push_back(r);
  }
  if (!sawHeader) fail(source, "bad graph header (want 'dpg <n> <m>')");
  if (recs.size() != m) {
    fail(source, "truncated graph file: " + std::to_string(recs.size()) + " of " +
                     std::to_string(m) + " edges");
  }

  // Degrees are implied by the maximum port mentioned at each node; ports
  // must then form exactly the permutation 1..deg at every node.
  std::vector<Port> deg(n, 0);
  for (const Rec& r : recs) {
    deg[r.u] = std::max(deg[r.u], r.pu);
    deg[r.v] = std::max(deg[r.v], r.pv);
  }
  {
    std::vector<std::vector<std::uint8_t>> seen(n);
    for (NodeId v = 0; v < n; ++v) seen[v].assign(deg[v] + 1, 0);
    const auto mark = [&](NodeId at, Port p, std::uint64_t atLine) {
      if (p < 1 || p > deg[at]) {
        failAt(source, atLine,
               "port " + std::to_string(p) + " out of range at node " +
                   std::to_string(at) + " (degree " + std::to_string(deg[at]) + ")");
      }
      if (seen[at][p]) {
        failAt(source, atLine, "duplicate port " + std::to_string(p) +
                                   " at node " + std::to_string(at));
      }
      seen[at][p] = 1;
    };
    for (const Rec& r : recs) {
      mark(r.u, r.pu, r.line);
      mark(r.v, r.pv, r.line);
    }
    for (NodeId v = 0; v < n; ++v) {
      for (Port p = 1; p <= deg[v]; ++p) {
        if (!seen[v][p]) {
          fail(source, "node " + std::to_string(v) + " is missing port " +
                           std::to_string(p));
        }
      }
    }
  }

  GraphBuilder b(n);
  std::vector<std::pair<Port, Port>> ports;
  ports.reserve(recs.size());
  for (const Rec& r : recs) {
    b.addEdge(r.u, r.v);
    ports.emplace_back(r.pu, r.pv);
  }
  Graph g = b.buildWithPorts(ports);
  if (!isConnected(g)) fail(source, "graph is not connected");
  return g;
}

Graph readEdgeList(std::istream& is, const std::string& source) {
  // Pass one: validate every line in order, count edges, and collect the
  // distinct raw ids.  The id pool is compacted (sort + unique) whenever it
  // doubles past the last unique count, so memory stays proportional to
  // the number of *distinct* ids, not the number of edges.
  std::uint64_t m = 0;
  std::vector<std::uint64_t> ids;
  std::size_t compactAt = 1024;
  {
    LineScanner sc(is);
    std::string_view line;
    while (sc.next(line)) {
      const Tokens toks = splitLine(line);
      if (isCommentOrBlank(toks)) continue;
      if (toks.count != 2) {
        failAt(source, sc.lineNo(), "want '<u> <v>' per edge line");
      }
      const auto& u = toks.id[0];
      const auto& v = toks.id[1];
      if (!u || !v) {
        failAt(source, sc.lineNo(),
               "non-numeric node id '" +
                   std::string(!u ? toks.tok[0] : toks.tok[1]) + "'");
      }
      if (*u == *v) {
        failAt(source, sc.lineNo(),
               "self-loop at node " + std::string(toks.tok[0]));
      }
      ++m;
      ids.push_back(*u);
      ids.push_back(*v);
      if (ids.size() >= compactAt) {
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        compactAt = std::max<std::size_t>(1024, ids.size() * 2);
      }
    }
  }
  if (m == 0) fail(source, "no edges");
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ids.shrink_to_fit();
  DISP_REQUIRE(ids.size() <= 0xffffffffULL,
               "too many distinct node ids in " + source);
  DISP_REQUIRE(m <= 0x7fffffffULL, "too many edges in " + source);

  // Pass two: remap the (possibly sparse) ids to 0..n-1 in sorted-id order
  // — the historical contract — keeping the as-written direction.
  const auto n = static_cast<std::uint32_t>(ids.size());
  std::vector<std::pair<NodeId, NodeId>> pairs;
  {
    const IdRemap remap = *IdRemap::of(std::move(ids));  // distinct by unique()
    rewind(is, source);
    pairs.reserve(m);
    LineScanner sc(is);
    std::string_view line;
    while (sc.next(line)) {
      const Tokens toks = splitLine(line);
      if (isCommentOrBlank(toks)) continue;
      pairs.emplace_back(remap(*toks.id[0]), remap(*toks.id[1]));
    }
  }
  return buildFromMappedPairs(n, std::move(pairs), is, source);
}

Graph readGraphalytics(std::istream& vs, std::istream& es,
                       const std::string& vSource, const std::string& eSource) {
  // One streamed pass over the .v file; a vertex's NodeId is its id-line
  // order, as before.
  std::vector<std::uint64_t> idOf;
  {
    LineScanner sc(vs);
    std::string_view line;
    while (sc.next(line)) {
      const Tokens toks = splitLine(line);
      if (isCommentOrBlank(toks)) continue;
      const auto& id = toks.id[0];
      if (!id) {
        failAt(vSource, sc.lineNo(),
               "non-numeric vertex id '" + std::string(toks.tok[0]) + "'");
      }
      idOf.push_back(*id);
    }
  }
  if (idOf.empty()) fail(vSource, "no vertices");
  DISP_REQUIRE(idOf.size() <= 0xffffffffULL, "too many vertices in " + vSource);
  const auto n = static_cast<std::uint32_t>(idOf.size());
  std::optional<IdRemap> remap = IdRemap::of(std::move(idOf));
  if (!remap) {
    // Cold path: rescan with the historical per-line set so the error
    // names the second occurrence's line, exactly as before.
    rewind(vs, vSource);
    LineScanner sc(vs);
    std::string_view line;
    std::set<std::uint64_t> seen;
    while (sc.next(line)) {
      const Tokens toks = splitLine(line);
      if (isCommentOrBlank(toks)) continue;
      if (!seen.insert(*toks.id[0]).second) {
        failAt(vSource, sc.lineNo(),
               "duplicate vertex id " + std::string(toks.tok[0]));
      }
    }
    DISP_CHECK(false, vSource + ": duplicate vertex id vanished on rescan");
  }

  // One streamed pass over the .e file straight into mapped pairs.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  {
    LineScanner sc(es);
    std::string_view line;
    while (sc.next(line)) {
      const Tokens toks = splitLine(line);
      if (isCommentOrBlank(toks)) continue;
      if (toks.count != 2 && toks.count != 3) {
        failAt(eSource, sc.lineNo(), "want '<src> <dst> [weight]' per edge line");
      }
      NodeId mapped[2];
      for (int i = 0; i < 2; ++i) {
        const std::string_view tok = toks.tok[static_cast<std::size_t>(i)];
        const auto& id = toks.id[i];
        mapped[i] = id ? (*remap)(*id) : kInvalidNode;
        if (mapped[i] == kInvalidNode) {
          failAt(eSource, sc.lineNo(),
                 "unknown vertex id '" + std::string(tok) + "' (not in " + vSource + ")");
        }
      }
      if (mapped[0] == mapped[1]) {
        failAt(eSource, sc.lineNo(),
               "self-loop at id " + std::string(toks.tok[0]));
      }
      pairs.emplace_back(mapped[0], mapped[1]);
    }
  }
  remap.reset();  // the CSR build below needs only the mapped pairs
  DISP_REQUIRE(pairs.size() <= 0x7fffffffULL, "too many edges in " + eSource);
  return buildFromMappedPairs(n, std::move(pairs), es, eSource);
}

namespace {

void appendNum(std::string& buf, std::uint64_t v) {
  char tmp[20];
  const auto res = std::to_chars(tmp, tmp + sizeof tmp, v);
  buf.append(tmp, res.ptr);
}

void flushIfFull(std::ostream& os, std::string& buf) {
  if (buf.size() >= (1u << 20)) {
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  }
}

}  // namespace

void writeGraphalytics(const std::string& basePath, const Graph& g) {
  std::string buf;
  buf.reserve(2u << 20);
  {
    std::ofstream os(basePath + ".v", std::ios::binary);
    DISP_REQUIRE(os.good(), "cannot open file for writing: " + basePath + ".v");
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
      appendNum(buf, v);
      buf.push_back('\n');
      flushIfFull(os, buf);
    }
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
    DISP_REQUIRE(os.good(), "write failed: " + basePath + ".v");
  }
  {
    std::ofstream os(basePath + ".e", std::ios::binary);
    DISP_REQUIRE(os.good(), "cannot open file for writing: " + basePath + ".e");
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
      for (const NodeId u : g.neighbors(v)) {
        if (v <= u) {
          appendNum(buf, v);
          buf.push_back(' ');
          appendNum(buf, u);
          buf.push_back('\n');
          flushIfFull(os, buf);
        }
      }
    }
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    DISP_REQUIRE(os.good(), "write failed: " + basePath + ".e");
  }
}

void saveGraph(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  DISP_REQUIRE(os.good(), "cannot open file for writing: " + path);
  writeGraph(os, g);
}

namespace {

std::ifstream openOrFail(const std::string& path) {
  std::ifstream is(path);
  DISP_REQUIRE(is.good(), "cannot open file for reading: " + path);
  return is;
}

}  // namespace

Graph loadGraph(const std::string& path) {
  std::ifstream is = openOrFail(path);
  return readGraph(is, path);
}

Graph loadEdgeList(const std::string& path) {
  std::ifstream is = openOrFail(path);
  return readEdgeList(is, path);
}

Graph loadGraphalytics(const std::string& path) {
  std::string base = path;
  if (base.size() >= 2 &&
      (base.ends_with(".v") || base.ends_with(".e"))) {
    base.resize(base.size() - 2);
  }
  std::ifstream vs = openOrFail(base + ".v");
  std::ifstream es = openOrFail(base + ".e");
  return readGraphalytics(vs, es, base + ".v", base + ".e");
}

Graph loadAnyGraph(const std::string& path) {
  if (path.ends_with(".v") || path.ends_with(".e")) return loadGraphalytics(path);
  {
    std::ifstream sniff = openOrFail(path);
    std::string first;
    sniff >> first;
    if (first == "dpg") return loadGraph(path);
  }
  return loadEdgeList(path);
}

}  // namespace disp
