#include "service/router_core.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dpclustx::service {

uint64_t RouterHash(const std::string& key) {
  // FNV-1a 64-bit, then a splitmix64-style finalizer. Raw FNV-1a is stable
  // and endianness-free but avalanches poorly on near-identical inputs —
  // the ring's vnode keys differ only in a numeric suffix, and without the
  // mix their points cluster badly enough to starve shards.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

HashRing::HashRing(std::vector<std::string> nodes, size_t vnodes)
    : nodes_(std::move(nodes)) {
  ring_.reserve(nodes_.size() * vnodes);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (size_t v = 0; v < vnodes; ++v) {
      ring_.emplace_back(
          RouterHash(nodes_[i] + "#" + std::to_string(v)), i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

const std::string& HashRing::Route(const std::string& key) const {
  DPX_CHECK(!ring_.empty()) << "Route on an empty ring";
  const uint64_t h = RouterHash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(h, size_t{0}));
  if (it == ring_.end()) it = ring_.begin();  // wrap: the ring is circular
  return nodes_[it->second];
}

void SessionTable::Bind(const std::string& session,
                        const std::string& dataset) {
  bindings_[session] = dataset;
}

void SessionTable::Unbind(const std::string& session) {
  bindings_.erase(session);
}

StatusOr<std::string> SessionTable::Lookup(const std::string& session) const {
  auto it = bindings_.find(session);
  if (it == bindings_.end()) {
    return Status::NotFound(
        "session '" + session +
        "' is not bound through this router (create_session must go "
        "through the router so it can learn the session's shard)");
  }
  return it->second;
}

size_t SessionTable::size() const {
  return bindings_.size();
}

int64_t Backoff::DelayMs(uint64_t attempt) const {
  if (attempt <= 1) return base_ms;
  // base * 2^(attempt-1) without overflow: stop doubling at the cap.
  int64_t delay = base_ms;
  for (uint64_t i = 1; i < attempt && delay < max_ms; ++i) delay *= 2;
  return std::min(delay, max_ms);
}

int64_t Backoff::JitteredDelayMs(uint64_t attempt, double unit_random) const {
  if (unit_random < 0.0) unit_random = 0.0;
  if (unit_random >= 1.0) unit_random = std::nextafter(1.0, 0.0);
  const double factor = 0.8 + 0.4 * unit_random;
  const auto jittered =
      static_cast<int64_t>(static_cast<double>(DelayMs(attempt)) * factor);
  return std::max<int64_t>(jittered, 1);
}

RouterCore::RouterCore(std::vector<std::string> shards, size_t vnodes)
    : ring_(std::move(shards), vnodes) {}

const std::string& RouterCore::ShardFor(const std::string& dataset) const {
  return ring_.Route(dataset);
}

StatusOr<RouteDecision> RouterCore::Classify(const JsonValue& request) {
  DPX_ASSIGN_OR_RETURN(const std::string op, request.GetString("op"));

  RouteDecision decision;

  if (op == "ping" || op == "stats" || op == "metrics" || op == "trace" ||
      op == "audit") {
    decision.kind = RouteKind::kBroadcast;
    return decision;
  }

  if (op == "save_snapshot" || op == "load_snapshot") {
    decision.kind = RouteKind::kRefused;
    return decision;
  }

  if (op == "load_dataset") {
    DPX_ASSIGN_OR_RETURN(decision.dataset, request.GetString("name"));
    decision.kind = RouteKind::kShard;
    return decision;
  }

  if (op == "schema" || op == "cluster" || op == "append_rows" ||
      op == "create_session") {
    DPX_ASSIGN_OR_RETURN(decision.dataset, request.GetString("dataset"));
    decision.kind = RouteKind::kShard;
    if (op == "create_session") {
      DPX_ASSIGN_OR_RETURN(const std::string session,
                           request.GetString("session"));
      sessions_.Bind(session, decision.dataset);
    }
    return decision;
  }

  if (op == "budget" || op == "size" || op == "close_session" ||
      op == "explain" || op == "hist") {
    DPX_ASSIGN_OR_RETURN(const std::string session,
                         request.GetString("session"));
    DPX_ASSIGN_OR_RETURN(decision.dataset, sessions_.Lookup(session));
    if (op == "close_session") {
      sessions_.Unbind(session);
      decision.kind = RouteKind::kShard;
    } else if (op == "explain" || op == "hist") {
      decision.kind = RouteKind::kReplicaRead;
    } else {
      decision.kind = RouteKind::kShard;
    }
    return decision;
  }

  decision.kind = RouteKind::kUnknownOp;
  return decision;
}

}  // namespace dpclustx::service
