#include "sim/node.h"

#include <algorithm>

#include "sim/network.h"

namespace mcc::sim {

node::node(network& net, node_id id, std::string name, bool is_router)
    : net_(net), id_(id), name_(std::move(name)), router_(is_router) {}

void node::remove_agent(agent* a) {
  agents_.erase(std::remove(agents_.begin(), agents_.end(), a), agents_.end());
}

void node::graft(group_addr g, link* oif) {
  oif_list& out = mcast_oifs_[g];
  const auto it = std::lower_bound(out.begin(), out.end(), oif, oif_order{});
  if (it == out.end() || *it != oif) out.insert(it, oif);
}

void node::prune(group_addr g, link* oif) {
  oif_list* out = mcast_oifs_.find(g);
  if (out == nullptr) return;
  const auto it = std::lower_bound(out->begin(), out->end(), oif, oif_order{});
  if (it != out->end() && *it == oif) out->erase(it);
  if (out->empty()) mcast_oifs_.erase(g);
}

bool node::has_oif(group_addr g, link* oif) const {
  const oif_list* out = mcast_oifs_.find(g);
  return out != nullptr &&
         std::binary_search(out->begin(), out->end(), oif, oif_order{});
}

bool node::oif_order::operator()(const link* a, const link* b) const {
  const node_id ta = a->to()->id();
  const node_id tb = b->to()->id();
  // Routing grafts at most one link per neighbour; the address tie-break
  // only keeps distinct links distinct should that ever change.
  return ta != tb ? ta < tb : a < b;
}

const node::oif_list* node::oifs(group_addr g) const {
  return mcast_oifs_.find(g);
}

int node::oif_count(group_addr g) const {
  const auto* s = oifs(g);
  return s == nullptr ? 0 : static_cast<int>(s->size());
}

void node::send(packet p) {
  util::require(!out_links_.empty(), "node::send: node has no links");
  p.src = id_;
  if (p.uid == 0) p.uid = net_.new_packet_uid();
  if (p.dst.is_multicast() || p.dst.id == id_) {
    // Multicast packets originate on the access link; hosts are single-homed
    // in all our topologies (routers forward, they do not originate
    // multicast).
    util::require(is_host(), "node::send: only hosts originate multicast");
    out_links_.front()->transmit(std::move(p));
  } else {
    link* l = net_.next_hop(id_, p.dst.id);
    util::require(l != nullptr, "node::send: no route", name_);
    l->transmit(std::move(p));
  }
}

void node::receive(packet&& p, link* from) {
  if (is_host()) {
    const bool for_us =
        (!p.dst.is_multicast() && p.dst.id == id_) ||
        (p.dst.is_multicast() && host_subscribed(p.dst.group()));
    if (!for_us || p.router_alert) return;  // alert packets never reach hosts
    ++stats_.delivered_local;
    deliver_local(p, from);
    return;
  }
  // Router path.
  if (p.router_alert && alert_interceptor_ != nullptr) {
    alert_interceptor_->handle_packet(p, from);
    // Interception does not consume: the special packet continues along the
    // tree so downstream edge routers receive it too.
  }
  if (!p.dst.is_multicast()) {
    if (p.dst.id == id_) {
      ++stats_.delivered_local;
      deliver_local(p, from);
      return;
    }
    link* l = net_.next_hop(id_, p.dst.id);
    if (l == nullptr) {
      ++stats_.no_route;
      return;
    }
    ++stats_.forwarded_unicast;
    l->transmit(std::move(p));
    return;
  }
  forward(p, from);
}

void node::deliver_local(const packet& p, link* from) {
  for (agent* a : agents_) {
    if (a->handle_packet(p, from)) return;
  }
}

void node::forward(const packet& p, link* from) {
  const oif_list* out = oifs(p.dst.group());
  if (out == nullptr) return;
  // Copy the oif list (into a reused scratch buffer: no per-packet
  // allocation): policy callbacks may trigger grafts/prunes mid-loop.
  fanout_scratch_.assign(out->begin(), out->end());
  for (link* oif : fanout_scratch_) {
    if (oif == nullptr || (from != nullptr && oif == from->reverse())) continue;
    if (oif->to()->is_host()) {
      if (p.router_alert) continue;  // never deliver special packets to hosts
      if (policy_ != nullptr && !policy_->allow(p, oif)) {
        ++stats_.policy_denied;
        continue;
      }
    }
    ++stats_.forwarded_multicast;
    oif->transmit(p);  // copied into the link's queue if admitted
  }
}

}  // namespace mcc::sim
