#include "sim/network.h"

#include <queue>

#include "crypto/prng.h"

namespace mcc::sim {

namespace {
/// Per-link AQM stream seed: links created from the same config (a duplex
/// pair, or every spoke of a star) must not replay each other's RED
/// coin-flips, so the network mixes its link-creation counter into the
/// configured seed. Creation order is deterministic, so sweeps stay
/// bit-reproducible.
link_config with_link_seed(const link_config& cfg, std::size_t link_index) {
  link_config out = cfg;
  std::uint64_t sm = cfg.aqm.seed ^
                     (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(link_index) + 1));
  out.aqm.seed = crypto::splitmix64(sm);
  return out;
}
}  // namespace

node_id network::add_node(const std::string& name, bool router) {
  util::require(!routing_final_, "network: topology frozen after routing");
  const node_id id = static_cast<node_id>(nodes_.size());
  nodes_.push_back(std::make_unique<node>(*this, id, name, router));
  return id;
}

node_id network::add_host(const std::string& name) {
  return add_node(name, /*router=*/false);
}

node_id network::add_router(const std::string& name) {
  return add_node(name, /*router=*/true);
}

node* network::get(node_id id) {
  util::require(id >= 0 && id < node_count(), "network::get: bad node id");
  return nodes_[static_cast<std::size_t>(id)].get();
}

const node* network::get(node_id id) const {
  util::require(id >= 0 && id < node_count(), "network::get: bad node id");
  return nodes_[static_cast<std::size_t>(id)].get();
}

std::pair<link*, link*> network::connect(node_id a, node_id b,
                                         const link_config& cfg) {
  return connect(a, b, cfg, cfg);
}

std::pair<link*, link*> network::connect(node_id a, node_id b,
                                         const link_config& ab,
                                         const link_config& ba) {
  util::require(!routing_final_, "network: topology frozen after routing");
  // A link hands a delivered packet to its far end in place, which relies
  // on that end never transmitting on the same link.
  util::require(a != b, "network: a link needs two distinct nodes");
  node* na = get(a);
  node* nb = get(b);
  links_.push_back(std::make_unique<link>(sched_, na, nb,
                                          with_link_seed(ab, links_.size())));
  link* fwd = links_.back().get();
  links_.push_back(std::make_unique<link>(sched_, nb, na,
                                          with_link_seed(ba, links_.size())));
  link* rev = links_.back().get();
  fwd->set_reverse(rev);
  rev->set_reverse(fwd);
  fwd->set_port(na->out_links().size());
  rev->set_port(nb->out_links().size());
  na->add_out_link(fwd);
  nb->add_out_link(rev);
  return {fwd, rev};
}

void network::finalize_routing() {
  const int n = node_count();
  next_hop_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                   nullptr);
  // BFS from every destination over reversed edges would be equivalent; we
  // simply BFS from every source (n is small in all scenarios).
  for (node_id src = 0; src < n; ++src) {
    std::vector<link*> first(static_cast<std::size_t>(n), nullptr);
    std::vector<bool> visited(static_cast<std::size_t>(n), false);
    std::queue<node_id> frontier;
    visited[static_cast<std::size_t>(src)] = true;
    frontier.push(src);
    while (!frontier.empty()) {
      const node_id cur = frontier.front();
      frontier.pop();
      for (link* l : get(cur)->out_links()) {
        const node_id nxt = l->to()->id();
        if (visited[static_cast<std::size_t>(nxt)]) continue;
        visited[static_cast<std::size_t>(nxt)] = true;
        first[static_cast<std::size_t>(nxt)] =
            (cur == src) ? l : first[static_cast<std::size_t>(cur)];
        frontier.push(nxt);
      }
    }
    for (node_id dst = 0; dst < n; ++dst) {
      next_hop_[static_cast<std::size_t>(src) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(dst)] =
          first[static_cast<std::size_t>(dst)];
    }
  }
  routing_final_ = true;
}

link* network::next_hop(node_id from, node_id to) const {
  util::require(routing_final_, "network: routing not finalized");
  if (from == to) return nullptr;
  const auto n = static_cast<std::size_t>(node_count());
  return next_hop_[static_cast<std::size_t>(from) * n +
                   static_cast<std::size_t>(to)];
}

void network::register_group_source(group_addr g, node_id source_host) {
  group_sources_[g] = source_host;
}

node_id network::group_source(group_addr g) const {
  const node_id* src = group_sources_.find(g);
  return src == nullptr ? invalid_node : *src;
}

void network::announce_session(const session_announcement& ann) {
  announcements_[ann.session_id] = ann;
  if (ann.sigma_protected) {
    for (group_addr g : ann.groups) mark_sigma_protected(g);
  }
}

const session_announcement* network::find_session(int session_id) const {
  auto it = announcements_.find(session_id);
  return it == announcements_.end() ? nullptr : &it->second;
}

void network::join_upstream(node_id edge_router, group_addr g) {
  const node_id src = group_source(g);
  util::require(src != invalid_node, "join_upstream: unregistered group",
                g.value);
  // Walk from the edge router toward the source; at each step the upstream
  // node grafts the reverse (downstream-pointing) link after the cumulative
  // join-message propagation delay.
  time_ns elapsed = 0;
  node_id cur = edge_router;
  while (cur != src) {
    link* up = next_hop(cur, src);
    util::require(up != nullptr, "join_upstream: no route to source");
    node* upstream = up->to();
    if (upstream->is_host()) break;  // reached the source host
    elapsed += up->config().delay;
    link* down = up->reverse();
    node_id upstream_id = upstream->id();
    sched_.after(elapsed, [this, upstream_id, g, down] {
      get(upstream_id)->graft(g, down);
    });
    // If the upstream router already forwards this group, the join would be
    // absorbed there in a real network; we still walk up (idempotent grafts)
    // to keep the logic simple and the tree correct.
    cur = upstream_id;
  }
}

void network::leave_upstream(node_id edge_router, group_addr g) {
  const node_id src = group_source(g);
  if (src == invalid_node) return;
  time_ns elapsed = 0;
  node_id cur = edge_router;
  while (cur != src) {
    link* up = next_hop(cur, src);
    if (up == nullptr) return;
    node* upstream = up->to();
    if (upstream->is_host()) break;
    elapsed += up->config().delay;
    link* down = up->reverse();
    node_id upstream_id = upstream->id();
    node_id downstream_id = cur;
    sched_.after(elapsed, [this, upstream_id, downstream_id, g, down] {
      node* u = get(upstream_id);
      // Prune only if the downstream branch has no remaining interest: the
      // downstream node must have no oifs of its own for the group (and no
      // local policy holding it).
      node* d = get(downstream_id);
      if (d->is_router() && d->oif_count(g) > 0) return;
      u->prune(g, down);
    });
    cur = upstream_id;
  }
}

}  // namespace mcc::sim
