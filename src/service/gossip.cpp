#include "service/gossip.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "service/wire.hpp"

namespace crp::service {

GossipMesh::GossipMesh(GossipConfig config)
    : config_(config),
      rng_(hash_combine({config.seed, stable_hash("gossip-mesh")})) {}

void GossipMesh::add_node(const std::string& id) {
  if (id.empty()) {
    throw std::invalid_argument{"GossipMesh::add_node: empty id"};
  }
  Node node;
  if (config_.store_shards > 1) {
    ShardedFrontendConfig fc;
    fc.shards = config_.store_shards;
    fc.service = config_.store;
    node.sharded = std::make_unique<ShardedFrontend>(fc);
  } else {
    node.store = std::make_unique<PositionService>(config_.store);
  }
  if (!nodes_.emplace(id, std::move(node)).second) {
    throw std::invalid_argument{"GossipMesh::add_node: duplicate id " + id};
  }
  order_.push_back(id);
}

void GossipMesh::remove_node(const std::string& id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    throw std::invalid_argument{"GossipMesh::remove_node: unknown node " + id};
  }
  for (const std::string& peer : it->second.peers) {
    auto& back_edges = nodes_.at(peer).peers;
    back_edges.erase(std::remove(back_edges.begin(), back_edges.end(), id),
                     back_edges.end());
  }
  nodes_.erase(it);
  order_.erase(std::remove(order_.begin(), order_.end(), id), order_.end());
}

void GossipMesh::add_link(const std::string& a, const std::string& b) {
  const auto ia = nodes_.find(a);
  const auto ib = nodes_.find(b);
  if (ia == nodes_.end() || ib == nodes_.end()) {
    throw std::invalid_argument{"GossipMesh::add_link: unknown node"};
  }
  if (a == b) return;
  if (std::find(ia->second.peers.begin(), ia->second.peers.end(), b) ==
      ia->second.peers.end()) {
    ia->second.peers.push_back(b);
    ib->second.peers.push_back(a);
  }
}

void GossipMesh::fully_connect() {
  for (std::size_t i = 0; i < order_.size(); ++i) {
    for (std::size_t j = i + 1; j < order_.size(); ++j) {
      add_link(order_[i], order_[j]);
    }
  }
}

bool GossipMesh::publish_local(const std::string& node, core::RatioMap map,
                               SimTime now) {
  PositionReport report;
  report.node_id = node;
  report.when = now;
  report.map = std::move(map);
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    throw std::invalid_argument{"GossipMesh: unknown node " + node};
  }
  return it->second.sharded
             ? it->second.sharded->publish(std::move(report), now)
             : it->second.store->publish(std::move(report), now);
}

std::size_t GossipMesh::round(SimTime now) {
  std::size_t transmitted = 0;
  ++stats_.rounds;
  for (const std::string& id : order_) {
    Node& node = nodes_.at(id);
    if (node.peers.empty()) continue;

    // Reports to push: a random sample of the sender's live store.
    // live_in_store is bit-identical across store types, so the rng
    // draws below consume the same sequence sharded or not — the whole
    // gossip trajectory matches report for report.
    const std::vector<std::string> known = live_in_store(node, now);
    if (known.empty()) continue;

    for (int f = 0; f < config_.fanout; ++f) {
      const std::string& peer = rng_.pick(node.peers);
      Node& receiver = nodes_.at(peer);

      const auto budget = std::min<std::size_t>(
          static_cast<std::size_t>(config_.reports_per_message),
          known.size());
      const auto picks = rng_.sample_indices(known.size(), budget);
      for (std::size_t k : picks) {
        const auto report = report_in_store(node, known[k]);
        if (!report.has_value()) continue;
        // Travel over the wire format, exactly as a real library would,
        // keeping the original timestamp so freshness rules hold across
        // multiple hops. Reports the wire bounds reject (oversized ids
        // are possible via publish_local) don't gossip — counted so the
        // silent-drop failure mode is visible in stats().
        const auto bytes = encode(*report);
        if (!bytes.has_value()) {
          ++stats_.encode_rejected;
          continue;
        }
        stats_.bytes += bytes->size();
        ++stats_.reports_sent;
        if (!deliver(receiver, peer, *bytes, now)) {
          ++stats_.publish_rejected;
        }
        ++transmitted;
      }
    }
  }
  return transmitted;
}

sim::EventHandle GossipMesh::schedule(sim::EventScheduler& sched,
                                      SimTime start, SimTime end) {
  return sched.every(start, config_.round_interval, [this, &sched, end] {
    if (sched.now() > end) return false;
    (void)round(sched.now());
    return true;
  });
}

const GossipMesh::Node& GossipMesh::node_at(const std::string& node) const {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    throw std::invalid_argument{"GossipMesh: unknown node " + node};
  }
  return it->second;
}

std::vector<std::string> GossipMesh::live_in_store(const Node& node,
                                                   SimTime now) const {
  return node.sharded ? node.sharded->view().live_nodes(now)
                      : node.store->live_nodes(now);
}

std::optional<PositionReport> GossipMesh::report_in_store(
    const Node& node, const std::string& id) const {
  return node.sharded ? node.sharded->report_of(id)
                      : node.store->report_of(id);
}

bool GossipMesh::deliver(Node& receiver, const std::string& receiver_id,
                         std::string_view bytes, SimTime now) {
  if (!receiver.sharded) return receiver.store->publish_encoded(bytes, now);
  const std::size_t shards = receiver.sharded->shard_count();
  const auto reported = peek_node_id(bytes);
  if (reported.has_value() &&
      ShardedFrontend::shard_index(*reported, shards) !=
          ShardedFrontend::shard_index(receiver_id, shards)) {
    ++stats_.cross_shard_misses;
  }
  return receiver.sharded->publish_encoded(bytes, now);
}

PositionService& GossipMesh::store(const std::string& node) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    throw std::invalid_argument{"GossipMesh: unknown node " + node};
  }
  if (it->second.sharded) {
    throw std::logic_error{
        "GossipMesh::store: mesh stores are sharded (store_shards > 1); "
        "use sharded_store()/store_view()"};
  }
  return *it->second.store;
}

std::shared_ptr<const ServingSnapshot> GossipMesh::store_snapshot(
    const std::string& node) const {
  const Node& rec = node_at(node);
  if (rec.sharded) {
    throw std::logic_error{
        "GossipMesh::store_snapshot: mesh stores are sharded "
        "(store_shards > 1); use store_view()"};
  }
  return rec.store->snapshot();
}

ShardedFrontend& GossipMesh::sharded_store(const std::string& node) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    throw std::invalid_argument{"GossipMesh: unknown node " + node};
  }
  if (!it->second.sharded) {
    throw std::logic_error{
        "GossipMesh::sharded_store: mesh stores are unsharded; use store()"};
  }
  return *it->second.sharded;
}

std::size_t GossipMesh::repair_shards(const std::string& node, SimTime now) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    throw std::invalid_argument{"GossipMesh: unknown node " + node};
  }
  Node& rec = it->second;
  if (!rec.sharded) {
    throw std::logic_error{
        "GossipMesh::repair_shards: mesh stores are unsharded; nothing "
        "shard-crashes here"};
  }
  ShardedFrontend& fe = *rec.sharded;
  std::size_t accepted = 0;
  for (const std::size_t s : fe.shards_needing_recovery()) {
    // Gather every peer's copy of every report the crashed shard owns —
    // peers in link order, ids in live_nodes' lexicographic order, so
    // the replay sequence is deterministic. Duplicates across peers are
    // fine: the store's freshness rules keep the newest per id.
    std::vector<std::string> frames;
    for (const std::string& peer_id : rec.peers) {
      const Node& peer = nodes_.at(peer_id);
      for (const std::string& id : live_in_store(peer, now)) {
        if (ShardedFrontend::shard_index(id, fe.shard_count()) != s) {
          continue;
        }
        const auto report = report_in_store(peer, id);
        if (!report.has_value()) continue;
        const auto bytes = encode(*report);
        if (!bytes.has_value()) {
          ++stats_.encode_rejected;
          continue;
        }
        stats_.repair_bytes += bytes->size();
        ++stats_.repair_reports_sent;
        frames.push_back(std::move(*bytes));
      }
    }
    accepted += fe.recover_shard(s, frames, now);
  }
  return accepted;
}

ShardedFrontend::View GossipMesh::store_view(const std::string& node) const {
  const Node& rec = node_at(node);
  if (!rec.sharded) {
    throw std::logic_error{
        "GossipMesh::store_view: mesh stores are unsharded; use "
        "store_snapshot()"};
  }
  return rec.sharded->view();
}

double GossipMesh::coverage(SimTime now) const {
  if (nodes_.empty()) return 0.0;
  // Which nodes have published at all (their own store knows them)?
  std::vector<std::string> published;
  for (const std::string& id : order_) {
    const Node& rec = nodes_.at(id);
    const auto own = rec.sharded ? rec.sharded->map_of(id)
                                 : rec.store->map_of(id);
    if (own.has_value()) published.push_back(id);
  }
  if (published.empty()) return 0.0;
  std::size_t hits = 0;
  for (const std::string& id : order_) {
    const auto live = live_in_store(nodes_.at(id), now);
    // binary_search is only correct because PositionService::live_nodes
    // documents a lexicographic-order contract — pinned here so a store
    // change that breaks it fails loudly instead of under-counting.
    assert(std::is_sorted(live.begin(), live.end()));
    for (const std::string& p : published) {
      if (std::binary_search(live.begin(), live.end(), p)) ++hits;
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(order_.size() * published.size());
}

}  // namespace crp::service
