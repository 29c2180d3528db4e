#include "fleet/manifest.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "util/json.hpp"

namespace disp::fleet {

const char* shardStateName(ShardState s) {
  switch (s) {
    case ShardState::Pending: return "pending";
    case ShardState::Running: return "running";
    case ShardState::Done: return "done";
    case ShardState::Failed: return "failed";
  }
  throw std::logic_error("unreachable shard state");
}

ShardState shardStateFromName(const std::string& name) {
  if (name == "pending") return ShardState::Pending;
  if (name == "running") return ShardState::Running;
  if (name == "done") return ShardState::Done;
  if (name == "failed") return ShardState::Failed;
  throw std::runtime_error("unknown shard state '" + name + "'");
}

const std::string& ShardEntry::output() const {
  static const std::string kEmpty;
  return outputs.empty() ? kEmpty : outputs.back();
}

namespace {

[[noreturn]] void badManifest(const std::string& why) {
  throw std::runtime_error("bad fleet manifest: " + why);
}

const JsonValue& field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) badManifest(std::string("missing field '") + key + "'");
  return *v;
}

std::vector<std::string> stringList(const JsonValue& v, const char* key) {
  std::vector<std::string> out;
  for (const JsonValue& item : v.items()) out.push_back(item.asString());
  if (out.empty() && std::string(key) == "sweeps") badManifest("empty sweep list");
  return out;
}

}  // namespace

std::string Manifest::toJson() const {
  JsonValue root = JsonValue::object();
  root.set("version", JsonValue::number(kVersion));
  JsonValue sweepArr = JsonValue::array();
  for (const std::string& s : sweeps) sweepArr.push(JsonValue::string(s));
  root.set("sweeps", std::move(sweepArr));
  JsonValue argArr = JsonValue::array();
  for (const std::string& a : benchArgs) argArr.push(JsonValue::string(a));
  root.set("bench_args", std::move(argArr));
  root.set("fleet", JsonValue::string(fleetSpec));
  root.set("shard_count", JsonValue::number(shardCount));
  root.set("total_cells", JsonValue::number(static_cast<double>(totalCells)));
  JsonValue shardArr = JsonValue::array();
  for (const ShardEntry& sh : shards) {
    JsonValue e = JsonValue::object();
    e.set("index", JsonValue::number(sh.index));
    e.set("state", JsonValue::string(shardStateName(sh.state)));
    e.set("attempts", JsonValue::number(sh.attempts));
    e.set("worker", JsonValue::string(sh.worker));
    JsonValue outs = JsonValue::array();
    for (const std::string& o : sh.outputs) outs.push(JsonValue::string(o));
    e.set("outputs", std::move(outs));
    e.set("cells", JsonValue::number(static_cast<double>(sh.cells)));
    e.set("cells_done", JsonValue::number(static_cast<double>(sh.cellsDone)));
    shardArr.push(std::move(e));
  }
  root.set("shards", std::move(shardArr));
  return root.dump(2) + "\n";
}

Manifest Manifest::fromJson(const std::string& text) {
  const JsonValue root = JsonValue::parse(text);
  if (!root.isObject()) badManifest("top level is not an object");
  const std::uint64_t version = field(root, "version").asU64();
  if (version != kVersion) {
    badManifest("unsupported version " + std::to_string(version) +
                " (this build understands " + std::to_string(kVersion) + ")");
  }
  Manifest m;
  m.sweeps = stringList(field(root, "sweeps"), "sweeps");
  m.benchArgs = stringList(field(root, "bench_args"), "bench_args");
  m.fleetSpec = field(root, "fleet").asString();
  m.shardCount = static_cast<std::uint32_t>(field(root, "shard_count").asU64());
  m.totalCells = field(root, "total_cells").asU64();
  if (m.shardCount < 1 || m.shardCount > 4096) {
    badManifest("shard_count " + std::to_string(m.shardCount) +
                " out of range [1, 4096]");
  }
  const std::vector<JsonValue>& entries = field(root, "shards").items();
  if (entries.size() != m.shardCount) {
    badManifest("shards array has " + std::to_string(entries.size()) +
                " entries, shard_count says " + std::to_string(m.shardCount));
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const JsonValue& e = entries[i];
    ShardEntry sh;
    sh.index = static_cast<std::uint32_t>(field(e, "index").asU64());
    if (sh.index != i) {
      badManifest("shard entry " + std::to_string(i) + " has index " +
                  std::to_string(sh.index));
    }
    sh.state = shardStateFromName(field(e, "state").asString());
    sh.attempts = static_cast<std::uint32_t>(field(e, "attempts").asU64());
    sh.worker = field(e, "worker").asString();
    for (const JsonValue& o : field(e, "outputs").items()) {
      sh.outputs.push_back(o.asString());
    }
    if (sh.outputs.size() > sh.attempts) {
      badManifest("shard " + std::to_string(i) + " lists more outputs than attempts");
    }
    sh.cells = field(e, "cells").asU64();
    sh.cellsDone = field(e, "cells_done").asU64();
    m.shards.push_back(std::move(sh));
  }
  return m;
}

void Manifest::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write fleet manifest: " + tmp);
    out << toJson();
    out.flush();
    if (!out) throw std::runtime_error("writing fleet manifest failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("cannot rename " + tmp + " -> " + path + ": " +
                             ec.message());
  }
}

Manifest Manifest::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fleet manifest: " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  try {
    return fromJson(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace disp::fleet
