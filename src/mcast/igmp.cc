#include "mcast/igmp.h"

namespace mcc::mcast {

igmp_agent::igmp_agent(sim::network& net, sim::node_id router)
    : net_(net), router_(router) {
  net_.get(router_)->add_agent(this);
}

bool igmp_agent::handle_packet(const sim::packet& p, sim::link* arrival) {
  const auto* msg = sim::header_as<sim::igmp_msg>(p);
  if (msg == nullptr || arrival == nullptr) return false;
  sim::link* host_iface = arrival->reverse();
  if (host_iface == nullptr || !host_iface->to()->is_host()) return false;

  if (msg->operation == sim::igmp_msg::op::join) {
    if (net_.is_sigma_protected(msg->group)) {
      // SIGMA routers replace IGMP for protected sessions; a raw join is the
      // inflated-subscription attack vector and is refused here.
      ++stats_.refused_protected;
      return true;
    }
    join(msg->group, host_iface);
  } else {
    leave(msg->group, host_iface);
  }
  return true;
}

void igmp_agent::join(sim::group_addr g, sim::link* host_iface) {
  ++stats_.joins;
  sim::node* r = net_.get(router_);
  const bool first = r->oif_count(g) == 0;
  r->graft(g, host_iface);
  if (first) net_.join_upstream(router_, g);
}

void igmp_agent::leave(sim::group_addr g, sim::link* host_iface) {
  ++stats_.leaves;
  sim::node* r = net_.get(router_);
  r->prune(g, host_iface);
  if (r->oif_count(g) == 0) net_.leave_upstream(router_, g);
}

membership_client::membership_client(sim::network& net, sim::node_id host,
                                     sim::node_id router)
    : net_(net), host_(host), router_(router) {}

void membership_client::join(sim::group_addr g) {
  ++stats_.joins;
  net_.get(host_)->host_join(g);
  send(sim::igmp_msg::op::join, g);
}

void membership_client::leave(sim::group_addr g) {
  ++stats_.leaves;
  net_.get(host_)->host_leave(g);
  send(sim::igmp_msg::op::leave, g);
}

void membership_client::send(sim::igmp_msg::op op, sim::group_addr g) {
  stats_.bytes += igmp_packet_bytes;
  sim::packet p;
  p.size_bytes = igmp_packet_bytes;
  p.dst = sim::dest::to_node(router_);
  p.hdr = sim::igmp_msg{op, g};
  net_.get(host_)->send(std::move(p));
}

}  // namespace mcc::mcast
