#include "core/scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"
#include "util/cli.hpp"

namespace disp {

namespace {

class RoundRobin final : public Scheduler {
 public:
  explicit RoundRobin(std::uint32_t k) : k_(k) {}
  std::uint32_t next() override {
    const std::uint32_t a = cursor_;
    if (++cursor_ == k_) cursor_ = 0;
    return a;
  }
  std::string name() const override { return "round_robin"; }

 private:
  std::uint32_t k_;
  std::uint32_t cursor_ = 0;
};

class ShuffledSweeps final : public Scheduler {
 public:
  ShuffledSweeps(std::uint32_t k, std::uint64_t seed) : rng_(seed), order_(k) {
    std::iota(order_.begin(), order_.end(), 0U);
    rng_.shuffle(order_);
  }
  std::uint32_t next() override {
    if (cursor_ == order_.size()) {
      cursor_ = 0;
      rng_.shuffle(order_);
    }
    return order_[cursor_++];
  }
  std::string name() const override { return "shuffled"; }

 private:
  Rng rng_;
  std::vector<std::uint32_t> order_;
  std::size_t cursor_ = 0;
};

class Uniform final : public Scheduler {
 public:
  Uniform(std::uint32_t k, std::uint64_t seed)
      : k_(k), threshold_(Rng::rejectionThreshold(k)), rng_(seed) {}
  std::uint32_t next() override {
    return static_cast<std::uint32_t>(rng_.below(k_, threshold_));
  }
  std::string name() const override { return "uniform"; }

 private:
  std::uint64_t k_;
  std::uint64_t threshold_;
  Rng rng_;
};

class Weighted final : public Scheduler {
 public:
  Weighted(std::uint32_t k, std::vector<std::uint32_t> slowSet, std::uint32_t skew,
           std::uint64_t seed)
      : rng_(seed) {
    DISP_REQUIRE(skew >= 1, "skew must be >= 1");
    std::vector<std::uint8_t> slow(k, 0);
    for (const std::uint32_t a : slowSet) {
      DISP_REQUIRE(a < k, "slow agent out of range");
      slow[a] = 1;
    }
    for (std::uint32_t a = 0; a < k; ++a) {
      const std::uint32_t copies = slow[a] ? 1 : skew;
      for (std::uint32_t c = 0; c < copies; ++c) pool_.push_back(a);
    }
    threshold_ = Rng::rejectionThreshold(pool_.size());
  }
  std::uint32_t next() override {
    return pool_[static_cast<std::size_t>(rng_.below(pool_.size(), threshold_))];
  }
  std::string name() const override { return "weighted"; }

 private:
  Rng rng_;
  std::vector<std::uint32_t> pool_;
  std::uint64_t threshold_ = 0;
};

}  // namespace

std::unique_ptr<Scheduler> makeRoundRobinScheduler(std::uint32_t k) {
  DISP_REQUIRE(k > 0, "need agents");
  return std::make_unique<RoundRobin>(k);
}

std::unique_ptr<Scheduler> makeShuffledSweepScheduler(std::uint32_t k, std::uint64_t seed) {
  DISP_REQUIRE(k > 0, "need agents");
  return std::make_unique<ShuffledSweeps>(k, seed);
}

std::unique_ptr<Scheduler> makeUniformScheduler(std::uint32_t k, std::uint64_t seed) {
  DISP_REQUIRE(k > 0, "need agents");
  return std::make_unique<Uniform>(k, seed);
}

std::unique_ptr<Scheduler> makeWeightedScheduler(std::uint32_t k,
                                                 std::vector<std::uint32_t> slowSet,
                                                 std::uint32_t skew, std::uint64_t seed) {
  DISP_REQUIRE(k > 0, "need agents");
  return std::make_unique<Weighted>(k, std::move(slowSet), skew, seed);
}

namespace {

// Parses the colon-separated numeric suffix of "weighted:skew[:slowCount]".
std::vector<std::uint32_t> parseSchedulerParams(const std::string& name,
                                                std::string::size_type from) {
  std::vector<std::uint32_t> params;
  while (from != std::string::npos) {
    const auto colon = name.find(':', from);
    const std::string tok = name.substr(from, colon == std::string::npos
                                                  ? std::string::npos
                                                  : colon - from);
    std::uint64_t v = 0;
    try {
      v = parseU64(tok, "scheduler");
    } catch (const std::exception&) {
      throw std::invalid_argument("bad scheduler parameter in: " + name);
    }
    if (v == 0 || v > 0xffffffffULL) {
      throw std::invalid_argument("bad scheduler parameter in: " + name);
    }
    params.push_back(static_cast<std::uint32_t>(v));
    from = colon == std::string::npos ? std::string::npos : colon + 1;
  }
  return params;
}

}  // namespace

std::unique_ptr<Scheduler> makeSchedulerByName(const std::string& name, std::uint32_t k,
                                               std::uint64_t seed) {
  if (name == "round_robin") return makeRoundRobinScheduler(k);
  if (name == "shuffled") return makeShuffledSweepScheduler(k, seed);
  if (name == "uniform") return makeUniformScheduler(k, seed);
  if (name == "weighted" || name.rfind("weighted:", 0) == 0) {
    // Slow down the lowest-index agents (the async leader is typically the
    // max-ID agent, placed last, so low indices are usually followers — this
    // stresses group-reassembly waits).  "weighted" = the historical 8x skew
    // on agent 0; "weighted:SKEW" and "weighted:SKEW:SLOWCOUNT" configure
    // the skew factor and the size of the slow set.
    std::uint32_t skew = 8, slowCount = 1;
    if (name.size() > 8) {
      const auto params = parseSchedulerParams(name, 9);
      if (params.empty() || params.size() > 2) {
        throw std::invalid_argument("unknown scheduler: " + name);
      }
      skew = params[0];
      if (params.size() == 2) slowCount = params[1];
    }
    DISP_REQUIRE(slowCount <= k, "weighted slow set larger than agent count");
    std::vector<std::uint32_t> slowSet(slowCount);
    std::iota(slowSet.begin(), slowSet.end(), 0U);
    return makeWeightedScheduler(k, std::move(slowSet), skew, seed);
  }
  throw std::invalid_argument("unknown scheduler: " + name);
}

std::vector<std::string> knownSchedulers() {
  return {"round_robin", "shuffled", "uniform", "weighted"};
}

}  // namespace disp
